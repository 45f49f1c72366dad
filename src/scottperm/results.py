"""`EvalResult`, what every route returns: a leaf module, so every module can import it."""
from fractions import Fraction
from typing import NamedTuple, Union

Value = Union[Fraction, complex]


class EvalResult(NamedTuple):
    """Outcome of one evaluation route: an immutable record (a named tuple)."""

    value: Value
    method: str
    n: int
    m: int
    notes: tuple[str, ...] = ()
