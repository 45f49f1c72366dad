"""Structured determinant families checked against their factored closed forms."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from scottperm import (
    BadParams,
    GalleryCase,
    exact_det,
    gallery_closed_form,
    gallery_matrix,
)
from scottperm.det_gallery import GALLERY_IDS


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def check(case: GalleryCase) -> None:
    assert exact_det(gallery_matrix(case)) == gallery_closed_form(case)


class TestKnownInstances:
    def test_shifted_diagonal_two_by_two(self):
        x = [Fraction(2), Fraction(5)]
        y = [Fraction(3), Fraction(-7)]
        case = GalleryCase("prop6", {"n": 2, "r": 1, "x": x, "y": y})
        assert gallery_matrix(case).to_lists() == [[x[0], y[1]], [y[0], x[1]]]
        assert gallery_closed_form(case) == x[0] * x[1] - y[0] * y[1]

    def test_quadratic_circulant_one_by_one(self):
        params = {"n": 1, "a": 2, "b": 3, "c": Fraction(1, 2), "d": -1, "e": 4}
        case = GalleryCase("thm7", params)
        entry = (1 + params["c"]) * (params["a"] + params["b"]) + params["d"]
        assert gallery_matrix(case).to_lists() == [[entry]]
        assert gallery_closed_form(case) == entry

    def test_three_branch_one_by_one(self):
        case = GalleryCase("thm8", {"n": 2, "m": Fraction(5, 3), "a": Fraction(-1, 2)})
        value = Fraction(-1, 2) - Fraction(5, 3)
        assert gallery_matrix(case).to_lists() == [[value]]
        assert gallery_closed_form(case) == value

    def test_two_branch_smallest(self):
        case = GalleryCase("cor9", {"n": 2, "a": Fraction(7, 2)})
        assert gallery_closed_form(case) == Fraction(7, 2)
        check(case)


class TestRandomSweeps:
    def test_shifted_diagonal_family(self):
        rng = random.Random(60)
        points = 0
        for n in range(1, 9):
            for r in range(1, n + 1):
                for _ in range(4):
                    case = GalleryCase(
                        "prop6",
                        {
                            "n": n,
                            "r": r,
                            "x": [rational(rng) for _ in range(n)],
                            "y": [rational(rng) for _ in range(n)],
                        },
                    )
                    check(case)
                    points += 1
        assert points >= 100

    def test_quadratic_circulant_family(self):
        rng = random.Random(61)
        points = 0
        while points < 104:
            n = rng.randint(1, 8)
            params = {"n": n, **{k: rational(rng) for k in "abcde"}}
            if n == 1 and 2 * params["a"] + params["b"] + params["c"] * params["a"] == 0:
                continue
            check(GalleryCase("thm7", params))
            points += 1

    def test_quadratic_circulant_divisor_zero_rejected(self):
        params = {"n": 1, "a": 1, "b": -2, "c": 0, "d": 5, "e": 3}
        with pytest.raises(BadParams):
            gallery_closed_form(GalleryCase("thm7", params))

    def test_three_branch_family(self):
        rng = random.Random(62)
        points = 0
        for n in range(4, 9):
            for _ in range(21):
                case = GalleryCase("thm8", {"n": n, "m": rational(rng), "a": rational(rng)})
                check(case)
                points += 1
        assert points >= 100

    def test_two_branch_family(self):
        rng = random.Random(63)
        points = 0
        for n in range(2, 9):
            for _ in range(15):
                case = GalleryCase("cor9", {"n": n, "a": rational(rng)})
                check(case)
                points += 1
        assert points >= 100


class TestAffineParameters:
    """The quadratic-circulant determinant is affine in each of d and e."""

    @pytest.mark.parametrize("key", ["d", "e"])
    def test_second_difference_vanishes(self, key):
        rng = random.Random(64)
        for n in range(1, 7):
            base = {"n": n, **{k: rational(rng) for k in "abcde"}}
            if n == 1 and 2 * base["a"] + base["b"] + base["c"] * base["a"] == 0:
                base["b"] += 1
            values = []
            for t in (0, 1, 2):
                params = dict(base)
                params[key] = base[key] + t
                values.append(exact_det(gallery_matrix(GalleryCase("thm7", params))))
            assert values[2] - 2 * values[1] + values[0] == 0


class TestParameterValidation:
    def test_unknown_case_id(self):
        with pytest.raises(BadParams):
            gallery_matrix(GalleryCase("thm99", {"n": 2}))
        with pytest.raises(BadParams):
            gallery_closed_form(GalleryCase("thm99", {"n": 2}))

    def test_shift_must_not_exceed_size(self):
        case = GalleryCase("prop6", {"n": 2, "r": 3, "x": [1, 2], "y": [3, 4]})
        with pytest.raises(BadParams):
            gallery_matrix(case)

    @pytest.mark.parametrize("build", [gallery_matrix, gallery_closed_form])
    @pytest.mark.parametrize("x,y", [([1], [3, 4]), ([1, 2], [3, 4, 5])])
    def test_vectors_must_have_n_entries(self, build, x, y):
        with pytest.raises(BadParams, match="must have 2 entries"):
            build(GalleryCase("prop6", {"n": 2, "r": 1, "x": x, "y": y}))

    def test_missing_parameter(self):
        with pytest.raises(BadParams):
            gallery_matrix(GalleryCase("cor9", {"n": 3}))

    def test_wrong_value_type(self):
        case = GalleryCase("prop6", {"n": 2, "r": 1, "x": "no", "y": [1, 2]})
        with pytest.raises(BadParams):
            gallery_matrix(case)
        with pytest.raises(BadParams):
            gallery_matrix(GalleryCase("cor9", {"n": 3, "a": 1.5}))

    def test_size_must_be_positive(self):
        with pytest.raises(BadParams):
            gallery_matrix(GalleryCase("prop6", {"n": 0, "r": 1, "x": [], "y": []}))

    @pytest.mark.parametrize("build", [gallery_matrix, gallery_closed_form])
    @pytest.mark.parametrize(
        "case",
        [
            GalleryCase("cor9", {"n": 2, "a": Fraction(7, 2), "typo_b": 3}),
            GalleryCase("cor9", {"n": 2, "a": True}),
            GalleryCase("prop6", {"n": 2, "r": 1, "x": [1, True], "y": [3, 4]}),
        ],
        ids=["unknown-name", "bool-rational", "bool-in-vector"],
    )
    def test_unknown_names_and_bools_rejected(self, build, case):
        with pytest.raises(BadParams):
            build(case)

    def test_case_ids_catalog(self):
        assert GALLERY_IDS == ("prop6", "thm7", "thm8", "cor9")
