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

import sys
from decimal import Context
from fractions import Fraction

from .errors import InputError


def exact(value: int | Fraction | str) -> int | Fraction:
    """An int, a Fraction or a "p/q" string as an exact rational, stored
    as an int when it is integral.  Bools and floats are rejected."""
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise InputError("bool is not a rational value")
    if isinstance(value, str):
        value = parse_rational(value)
    elif not isinstance(value, (int, Fraction)):
        raise InputError(f"not an exact rational: {value!r}")
    return value.numerator if value.denominator == 1 else value


def integer(value, what: str) -> int:
    """`value` if it is a JSON integer, not a bool; InputError otherwise."""
    if type(value) is not int:
        raise InputError(f"{what} must be a JSON integer, not {value!r}")
    return value


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
        if str(exc).startswith("Exceeds the limit"):
            raise _too_long(f"rational {text[:40]!r}...") from exc
        raise InputError(f"malformed rational {text!r}") from exc


def _too_long(what: str) -> InputError:
    return InputError(f"{what} has more than {sys.get_int_max_str_digits()} digits, "
                      "the limit of int-string conversion")


def format_rational(value: int | Fraction) -> str:
    """Canonical "p/q" form, always with an explicit denominator."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise _too_long("an exact value") from exc


def approx(value: int | Fraction) -> str:
    """Decimal rendering to six digits, for humans; never in machine output."""
    try:
        return f"{float(value):.6g}"
    except OverflowError:  # past the float range
        return f"{Context(6).divide(value.numerator, value.denominator).normalize():g}"
