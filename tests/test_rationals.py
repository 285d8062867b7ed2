from fractions import Fraction

import pytest

from dressian import INF, RationalInputError, format_rational, parse_rational
from dressian.rationals import MAX_EXPONENT


def test_parse_format_roundtrip():
    for text in ["0", "3", "-7/2", "22/7"]:
        assert format_rational(parse_rational(text)) == text


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        parse_rational("a/b")
    for text in ["a/b", "1/0", "1e", "1e_1", "1" * 5000]:
        with pytest.raises(RationalInputError):
            parse_rational(text)


def test_exponent_is_bounded():
    assert parse_rational("1e3") == 1000
    assert parse_rational(" -2.5E-2 ") == Fraction(-1, 40)
    assert parse_rational("1e1_0") == 10**10
    assert parse_rational(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
    assert parse_rational(f"3e-{MAX_EXPONENT}") == Fraction(3, 10**MAX_EXPONENT)
    assert parse_rational(f"1e+000{MAX_EXPONENT}") == 10**MAX_EXPONENT
    for text in [f"1e{MAX_EXPONENT + 1}", f"1E-{MAX_EXPONENT + 1}", "7e1000000",
                 "1e" + "9" * 6000, f"1e{MAX_EXPONENT}_0"]:
        with pytest.raises(RationalInputError, match="exponent"):
            parse_rational(text)


def test_infinity_is_absorbing():
    assert INF + Fraction(5) is INF
    assert Fraction(5) + INF is INF
    assert 5 + INF is INF
    assert INF + INF is INF
    assert Fraction(5) < INF
    assert not INF < 5


def test_infinity_dominates_comparisons():
    assert Fraction(10**9) < INF
    assert not (INF < Fraction(10**9))
    assert INF == INF
    assert INF != Fraction(0)
