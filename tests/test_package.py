"""The package's public names, and the modules a bare import leaves unloaded."""
from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import scottperm

ON_FIRST_USE = ("scottperm.closed_catalog", "scottperm.det_gallery", "scottperm.numeric_oracle")
# Public values whose __module__ does not name their defining module.
HOMES = {"GALLERY_IDS": "scottperm.det_gallery", "Rational": "scottperm.exact_core"}


def test_public_names():
    # In a fresh interpreter: a bare import loads none of the package's own modules,
    # dir lists every public name without loading one, and a star import binds all 65.
    script = (
        "import sys\n"
        "import scottperm\n"
        f"lazy = {ON_FIRST_USE!r}\n"
        "assert not [m for m in lazy if m in sys.modules], 'import'\n"
        "own = lambda: [m for m in sys.modules if m.startswith('scottperm.')]\n"
        "assert own() == [], ('bare import loaded', own())\n"
        "assert set(scottperm.__all__) <= set(dir(scottperm)), 'dir'\n"
        "assert not [m for m in lazy if m in sys.modules], 'dir loaded a module'\n"
        "assert own() == [], ('dir loaded', own())\n"
        "from scottperm import *\n"
        "assert [n for n in scottperm.__all__ if n not in globals()] == [], 'star import'\n"
        "assert len(scottperm.__all__) == 65, len(scottperm.__all__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in scottperm.__all__:
        value = getattr(scottperm, name)
        home = HOMES.get(name, getattr(value, "__module__", None))
        assert getattr(importlib.import_module(home), name) is value, name
    assert set(scottperm.__all__) <= set(dir(scottperm))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        scottperm.no_such_name


def test_gallery_loads_without_the_catalog():
    # The gallery takes its parameter validator from the leaf module
    # scottperm.params, so evaluating a case leaves the catalog unloaded.
    script = (
        "import sys\n"
        "import scottperm\n"
        "scottperm.gallery_matrix(scottperm.GalleryCase('cor9', {'n': 4, 'a': 1}))\n"
        "assert 'scottperm.det_gallery' in sys.modules, 'gallery'\n"
        "assert 'scottperm.closed_catalog' not in sys.modules, 'catalog'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_cli_imports_without_dataclasses():
    # Polynomial, RationalMatrix and the records are plain classes and named
    # tuples, so the command line's start-up loads neither dataclasses nor
    # inspect; the catalog and the gallery, loaded on first use, keep theirs.
    script = (
        "import sys\n"
        "import scottperm.cli\n"
        "assert not [m for m in ('dataclasses', 'inspect') if m in sys.modules], 'cli'\n"
        "import scottperm.closed_catalog\n"
        "assert 'dataclasses' in sys.modules, 'catalog'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
