"""Exact rationals extended with a single infinity.

Finite values are fractions.Fraction; the symbol INF absorbs addition and
dominates every finite value.  INF's own operators are the one place where
infinity arithmetic lives: `x + INF` and `x < INF` reach them by reflection,
so valuation checks add and compare with plain `+` and `<`.

`parse_rational`, the one reader of rationals from outside, takes what
`Fraction` takes but text or a `Decimal` whose scientific exponent exceeds
`MAX_EXPONENT` in absolute value: `Fraction` expands it eagerly, so
`1e10000000` alone would take seconds.

Integer views are made here only: `integer_vector` puts a vector of
rationals over its least common denominator, and `lowest_terms` reduces a
view (D, xs), so that equal rational vectors have equal views.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

from .matroid import InputError

MAX_EXPONENT = 10_000  # largest |exponent| accepted in scientific notation
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]*)")


class RationalInputError(InputError):
    """A value that is not an accepted rational."""


class _Infinity:
    """Unique +infinity sentinel: INF + x = INF and INF >= x for all x."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("dressian-infinity")

    def __repr__(self):
        return "INF"


INF = _Infinity()


def parse_rational(value) -> Fraction:
    """An exact Fraction from outside input: a Fraction as it is, text "p/q",
    an integer, a decimal or scientific notation read exactly, and any other
    value through `Fraction`.  Anything refused raises RationalInputError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Decimal):
        value = str(value)
    if isinstance(value, str):
        value = value.strip()
        m = _EXPONENT.search(value)
        digits = m.group(1).replace("_", "").lstrip("0") if m else ""
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
            raise RationalInputError(
                f"exponent in {value[:40]!r} exceeds {MAX_EXPONENT} in absolute value")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise RationalInputError(f"bad rational {value!r:.42}: {exc}") from None


def format_rational(q: Fraction) -> str:
    try:
        return str(q)
    except ValueError:  # more digits than the interpreter's limit for str(int)
        raise RationalInputError("a value has more digits than str() may write") from None


def integer_vector(values) -> tuple[int, list[int]]:
    """(D, [x * D for x in values]), each entry read by `parse_rational` and
    D > 0 the least common denominator of the entries (1 for none)."""
    try:
        values = iter(values)
    except TypeError:
        raise RationalInputError(f"{type(values).__name__} is not a vector of rationals") from None
    qs = [parse_rational(x) for x in values]
    den = lcm(*(q.denominator for q in qs))
    return den, [q.numerator * (den // q.denominator) for q in qs]


def lowest_terms(den: int, xs) -> tuple[int, tuple]:
    """The view (den, xs) divided by the gcd of den > 0 and the finite
    entries of xs; INF entries stay in place."""
    g = gcd(den, *(x for x in xs if x is not INF))
    return den // g, tuple(x if x is INF else x // g for x in xs)
