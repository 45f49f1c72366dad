"""`EvalResult`, what every route returns: a leaf module, so every module can import it."""
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Value = Union[Fraction, complex]


@dataclass(frozen=True)
class EvalResult:
    """Outcome of one evaluation route."""

    value: Value
    method: str
    n: int
    m: int
    notes: tuple[str, ...] = ()
