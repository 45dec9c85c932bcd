import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tanglegcd.rationals import (
    ExtendedRational,
    FractionParseError,
    IndeterminateFormError,
    INFINITY,
    ZERO,
    normalize,
    parse_fraction,
    rotate_value,
    twist_value,
)
from math import gcd


fractions = st.tuples(st.integers(-500, 500), st.integers(-500, 500)).filter(
    lambda t: t != (0, 0)
).map(lambda t: normalize(*t))

finite_fractions = st.tuples(st.integers(-500, 500), st.integers(1, 500)).map(
    lambda t: normalize(*t)
)


def test_normalize_already_reduced():
    assert normalize(8, 5) == ExtendedRational(8, 5)


def test_normalize_sign_and_gcd():
    assert normalize(-14, -4) == ExtendedRational(7, 2)


def test_normalize_infinity():
    assert normalize(3, 0) == INFINITY
    assert normalize(-3, 0) == INFINITY


def test_normalize_zero_is_unique():
    assert normalize(0, 7) == ZERO
    assert normalize(0, -7) == ZERO


def test_normalize_indeterminate():
    with pytest.raises(IndeterminateFormError):
        normalize(0, 0)


@given(fractions)
def test_normalize_idempotent(f):
    assert normalize(f.numerator, f.denominator) == f


@given(fractions)
def test_canonical_form(f):
    if f.is_infinite:
        assert (f.numerator, f.denominator) == (1, 0)
    else:
        assert f.denominator > 0
        assert gcd(abs(f.numerator), f.denominator) == 1


def test_twist_examples():
    assert twist_value(ZERO, 1) == ExtendedRational(1, 1)
    assert twist_value(normalize(8, 5), -1) == normalize(3, 5)
    assert twist_value(INFINITY, 1) == INFINITY


def test_twist_rejects_other_directions():
    with pytest.raises(ValueError):
        twist_value(ZERO, 2)


def test_rotate_examples():
    assert rotate_value(normalize(8, 5)) == normalize(-5, 8)
    assert rotate_value(normalize(-2, 5)) == normalize(5, 2)
    assert rotate_value(ZERO) == INFINITY
    assert rotate_value(INFINITY) == ZERO


@given(fractions)
def test_rotate_is_an_involution(f):
    assert rotate_value(rotate_value(f)) == f


@given(finite_fractions)
def test_twist_round_trip(f):
    assert twist_value(twist_value(f, 1), -1) == f


@given(finite_fractions)
def test_twist_matches_plain_fraction_arithmetic(f):
    from fractions import Fraction

    up = twist_value(f, 1)
    assert Fraction(up.numerator, up.denominator) == Fraction(f.numerator, f.denominator) + 1


def test_sign():
    assert normalize(-3, 7).sign() == -1
    assert ZERO.sign() == 0
    assert normalize(9, 2).sign() == 1
    with pytest.raises(ValueError):
        INFINITY.sign()


def test_negation():
    assert -normalize(8, 5) == normalize(-8, 5)
    assert -ZERO == ZERO
    assert -INFINITY == INFINITY


@pytest.mark.parametrize(
    "text,expected",
    [
        ("8/5", ExtendedRational(8, 5)),
        ("-8/5", ExtendedRational(-8, 5)),
        ("7", ExtendedRational(7, 1)),
        ("-2", ExtendedRational(-2, 1)),
        ("0", ZERO),
        ("inf", INFINITY),
        ("16/10", ExtendedRational(8, 5)),
        (" 3/4 ", ExtendedRational(3, 4)),
        ("3/0", INFINITY),
    ],
)
def test_parse_fraction(text, expected):
    assert parse_fraction(text) == expected


@pytest.mark.parametrize("text", ["", "abc", "-inf", "1/", "/2", "1//2", "1.5", "+3", "8 /5"])
def test_parse_fraction_rejects(text):
    with pytest.raises(FractionParseError):
        parse_fraction(text)


def test_parse_indeterminate_text():
    with pytest.raises(IndeterminateFormError):
        parse_fraction("0/0")


@given(fractions)
def test_text_round_trip(f):
    assert parse_fraction(str(f)) == f


def test_str_forms():
    assert str(normalize(8, 5)) == "8/5"
    assert str(normalize(-8, 5)) == "-8/5"
    assert str(normalize(7, 1)) == "7"
    assert str(ZERO) == "0"
    assert str(INFINITY) == "inf"


@pytest.mark.parametrize(
    "value", [ZERO, INFINITY, normalize(-8, 5), normalize(10**50 + 1, 3)],
    ids=["zero", "inf", "-8/5", "51 digits"],
)
def test_value_round_trips_through_pickle_and_deepcopy(value):
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in [*copies, copy.deepcopy(value)]:
        assert other == value
        assert hash(other) == hash(value)
        assert repr(other) == repr(value)
    # Values are slotted: no per-instance dict.
    assert not hasattr(value, "__dict__")
