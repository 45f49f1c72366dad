"""Exception types shared by every module of the package.

Each exception names the precise contract violation rather than reusing a
generic ValueError, so callers can react to the exact failure mode; its
`exit_code` is the command line's exit status for it.
"""
from __future__ import annotations


class ScottPermError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ZeroConstantTerm(ScottPermError):
    """Power-series inversion of a polynomial with p(0) = 0."""


class ZeroPolynomial(ScottPermError):
    """An operation received the zero polynomial where a nonzero one is required."""


class NonSquare(ScottPermError):
    """A determinant was requested for a non-square matrix."""


class BothZero(ScottPermError):
    """gcd of two zero polynomials is undefined."""


class DidNotConverge(ScottPermError):
    """The root finder exhausted its iteration budget without meeting the residual target."""


class SingularEntry(ScottPermError):
    """Some x_i - y_j is (numerically) zero, so an entry 1/(x_i - y_j) is undefined."""


class RepeatedXRoot(ScottPermError):
    """Two x-roots coincide, so a weight 1/(x_i - x_j)^2 is undefined."""


class SharedRoot(ScottPermError):
    """P and Q share a root, so the permanent of (1/(x_i - y_j)) is undefined."""

    exit_code = 2


class ZeroDegree(ScottPermError):
    """A polynomial of degree >= 1 was required."""


class BadParams(ScottPermError):
    """Parameters outside a contract: a matrix builder's or closed form's, a usage error,
    an unknown method or catalog entry, or a tolerance that is not finite and >= 0."""


class OutOfDomain(ScottPermError):
    """A catalog entry was evaluated at a parameter point violating its hypotheses."""

    exit_code = 4


class ParseError(ScottPermError):
    """Polynomial text could not be parsed.

    Carries the character position and a description of what was expected.
    """

    exit_code = 3

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ResourceLimit(ScottPermError):
    """An input above a fixed budget, refused before any work is done on it: an
    exponent or a `bench` range end above the degree budget `exact_core.MAX_DEGREE`
    on the command line, or a P or Q of higher degree at `Pair`, the entry of every
    exact and float route, or at `fes_engine.per_via_fes`."""

    exit_code = 5


class ZeroLeadingCoefficient(ScottPermError):
    """special_resultant's closed form received a zero leading coefficient."""
