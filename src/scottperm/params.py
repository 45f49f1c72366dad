"""The one parameter validator of the closed-form catalog and the gallery.

It imports only `errors` and `exact_core`: `closed_catalog` and `det_gallery`
both import it, so the gallery loads without the catalog's 34-entry registry.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping, Sequence

from .errors import BadParams
from .exact_core import _to_rational

Params = dict[str, Any]


def _exact(value: Any) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _validate(owner: str, kinds: Sequence[tuple[str, str, int | None]],
              params: Mapping[str, Any]) -> Params:
    """Typed params of a catalog entry or gallery case `owner` with these
    (name, kind, minimum) triples: a count is an int >= minimum, a rational an
    int or Fraction, a vector at least minimum of them, never a bool; a
    missing or unknown name is BadParams.  Rationals come out as Fractions, a
    given Fraction as it is."""
    known = {name: (kind, minimum) for name, kind, minimum in kinds}
    unknown = set(params) - set(known)
    if unknown:
        raise BadParams(f"{owner}: unknown parameter(s) {sorted(unknown)}")
    out: Params = {}
    for name, (kind, minimum) in known.items():
        if name not in params:
            raise BadParams(f"{owner}: missing parameter {name!r}")
        value = params[name]
        if kind == "count":
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise BadParams(f"{owner}: {name} must be an integer >= {minimum}")
            out[name] = value
        elif kind == "rational":
            if not _exact(value):
                raise BadParams(f"{owner}: {name} must be an int or Fraction")
            out[name] = _to_rational(value)
        elif kind == "vector":
            try:
                vec = tuple(value)
            except TypeError:
                vec = None
            if vec is None or not all(map(_exact, vec)):
                raise BadParams(f"{owner}: {name} must be a sequence of ints or Fractions")
            if len(vec) < minimum:
                raise BadParams(f"{owner}: {name} needs at least {minimum} entries")
            out[name] = tuple(map(_to_rational, vec))
        else:  # pragma: no cover - registry construction error
            raise BadParams(f"{owner}: bad parameter kind {kind!r}")
    return out
