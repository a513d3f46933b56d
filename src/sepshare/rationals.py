"""Exact rational arithmetic helpers.

Every quantity in this package is exact and stored by one rule, which
`exact` enforces: a rational with denominator 1 is a Python int, any
other a `fractions.Fraction`.  Ints and Fractions add and compare exactly
with each other, and ints are several times cheaper.  The rule has no
exception: the simplex tableau of `lp.solve` follows it too, and builds
a Fraction only where a pivot other than 1 divides.  Serialized
form is always the string "p/q" with q > 0 and gcd(|p|, q) = 1, which
both types give through `numerator` and `denominator`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import InputError

Rational = Fraction

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce ints and "p/q" strings to Fraction.  Floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InputError(f"not an exact rational: {value!r}")


def exact(value: RationalLike) -> int | Fraction:
    """`value` as `rat` reads it, stored as an int when it is integral."""
    if type(value) is int:
        return value
    value = rat(value)
    return value.numerator if value.denominator == 1 else value


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer string) into a Fraction.

    Fraction's own parser also accepts decimal and scientific notation;
    those are deliberately rejected here to keep files bit-exact.
    """
    if not isinstance(text, str):
        raise InputError(f"not an exact rational string: {text!r}")
    s = text.strip()
    num, sep, den = s.partition("/")
    try:
        if sep:
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {text!r}") from exc


def format_rational(value: int | Fraction) -> str:
    """Canonical "p/q" form, always with an explicit denominator."""
    return f"{value.numerator}/{value.denominator}"


def approx(value: int | Fraction) -> str:
    """Decimal rendering to six digits, for humans; never in machine output."""
    return f"{float(value):.6g}"
