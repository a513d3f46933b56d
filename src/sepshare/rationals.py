"""Exact rational arithmetic helpers.

Every quantity in this package is exact and stored by one rule, which
`exact` enforces: a rational with denominator 1 is a Python int, any
other a `fractions.Fraction`.  Ints and Fractions add and compare exactly
with each other, and ints are several times cheaper.  The rule has no
exception: the simplex tableau of `lp.solve` follows it too, and builds
a Fraction only where a pivot other than 1 divides.  Serialized
form is always the string "p/q" with q > 0 and gcd(|p|, q) = 1, which
both types give through `numerator` and `denominator`.  Messages quote
at most 40 characters of any input.
"""

from __future__ import annotations

import re
import sys
from decimal import Context
from fractions import Fraction

from .errors import InputError

_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # q > 0


def shown(value) -> str:
    """`repr(value)` for a message, cut to 40 characters and "..." past that."""
    return text if len(text := repr(value)) <= 40 else text[:40] + "..."


def shown_rational(value: int | Fraction) -> str:
    """`format_rational(value)` for a message, without a denominator of 1
    (as `str` prints it), cut to 40 characters and "..." past that."""
    text = format_rational(value).removesuffix("/1")
    return text if len(text) <= 40 else text[:40] + "..."


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
        raise InputError(f"not an exact rational: {shown(value)}")
    return value.numerator if value.denominator == 1 else value


def integer(value, what: str) -> int:
    """`value` if it is a JSON integer, not a bool; InputError otherwise."""
    if type(value) is not int:
        raise InputError(f"{what} must be a JSON integer, not {shown(value)}")
    return value


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer string) into a Fraction.

    Only ASCII `-?[0-9]+(/[0-9]+)?` with q > 0 is read, so files stay
    bit-exact: no "+", spaces, underscores, other digits, decimal or
    scientific notation.  Non-canonical "6/8" and "-0" read as their values.
    """
    if not isinstance(text, str):
        raise InputError(f"not an exact rational string: {shown(text)}")
    if not _RATIONAL.fullmatch(text):
        raise InputError(f"malformed rational {shown(text)}")
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ValueError as exc:
        raise too_long(f"rational {text[:40]!r}...") from exc


def parse_users(key: str) -> frozenset:
    """The player set of a cost-table key, ASCII `[0-9]+(,[0-9]+)*` or "",
    its ids in any order, repeats allowed.  (An ASCII `isdigit` string is
    `[0-9]+`; this test costs half of a regular expression's.)"""
    ids = key.split(",") if key else []
    if ids and not (key.isascii() and all(ids) and "".join(ids).isdigit()):
        raise InputError(f"bad player set key {shown(key)}")
    try:
        return frozenset(map(int, ids))
    except ValueError as exc:
        raise too_long(f"player set key {key[:40]!r}...") from exc


def too_long(what: str) -> InputError:
    return InputError(f"{what} has more than {sys.get_int_max_str_digits()} digits, "
                      "the limit of int-string conversion")


def format_rational(value: int | Fraction) -> str:
    """Canonical "p/q" form, always with an explicit denominator."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise too_long("an exact value") from exc


def approx(value: int | Fraction) -> str:
    """Decimal rendering to six digits, for humans; never in machine output."""
    try:
        return f"{float(value):.6g}"
    except OverflowError:  # past the float range
        return f"{Context(6).divide(value.numerator, value.denominator).normalize():g}"
