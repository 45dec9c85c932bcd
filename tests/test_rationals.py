import copy
import gc
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tanglegcd
from tanglegcd.rationals import (
    ExtendedRational,
    FractionParseError,
    IndeterminateFormError,
    INFINITY,
    ZERO,
    normalize,
    parse_fraction,
    excerpt,
    rotate_value,
    twist_value,
)
from tanglegcd._shadows import SHADOW_BITS
from tanglegcd.euclid import CHOOSERS, Variant
from tanglegcd.tangles import (
    Move,
    _fold,
    plan_metrics,
    plan_untangle,
    replay,
    tangle_number,
    verify_plan,
)
from tanglegcd.rationals import _canonical, _canonical_values, _value_strings
from itertools import repeat
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


@pytest.mark.parametrize("direction, numerator", [(1.0, 3), (-1.0, -1), (True, 3)],
                         ids=["1.0", "-1.0", "True"])
def test_a_twist_by_a_value_equal_to_1_or_minus_1_keeps_the_pair_int(direction, numerator):
    # 1/2 + 1.0 was the pair (3.0, 2), printed 3.0/2; its rotation had a
    # float denominator, and a plan of it float stage counts.
    value = twist_value(normalize(1, 2), direction)
    assert (value.numerator, value.denominator) == (numerator, 2)
    assert str(value) == f"{numerator}/2"
    assert {type(value.numerator), type(value.denominator)} == {int}
    rotated = rotate_value(value)
    assert {type(rotated.numerator), type(rotated.denominator)} == {int}
    for policy in CHOOSERS:
        counts = [stage.twist_count for stage in plan_untangle(value, policy).stages]
        assert {type(count) for count in counts} == {int}


@pytest.mark.parametrize("pair, name", [((True, 1), "bool"), ((1, True), "bool"),
                                        ((0.5, 1), "float"), ((3, 2.0), "float")])
def test_the_raw_constructor_refuses_a_member_whose_type_is_not_int(pair, name):
    # ExtendedRational(True, 1) built and printed True.  The message names
    # the type and does not echo the value; unpickling takes the same door.
    with pytest.raises(TypeError, match=name) as refusal:
        ExtendedRational(*pair)
    assert str(pair[0]) not in str(refusal.value)
    with pytest.raises(TypeError, match=name):
        object.__new__(ExtendedRational).__setstate__(list(pair))


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


PLAN_8_5 = plan_untangle(normalize(8, 5), Variant.LEAST_ABSOLUTE)


@pytest.mark.parametrize(
    "value",
    [ZERO, INFINITY, normalize(-8, 5), normalize(10**50 + 1, 3),
     replay(normalize(8, 5), PLAN_8_5.moves), plan_metrics(PLAN_8_5), PLAN_8_5],
    ids=["zero", "inf", "-8/5", "51 digits", "replay report", "plan metrics", "plan"],
)
def test_value_round_trips_through_pickle_and_deepcopy(value):
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in [*copies, copy.deepcopy(value)]:
        assert other == value
        assert hash(other) == hash(value)
        assert repr(other) == repr(value)
    # Values and records are slotted: none carries a per-instance dict.
    assert not hasattr(value, "__dict__")


# -8/5 pickled with protocol 2 at a9f359c, before values were slotted: the state is a dict.
DICT_STATE_PICKLE = (
    b"\x80\x02ctanglegcd.rationals\nExtendedRational\nq\x00)\x81q\x01}q\x02"
    b"(X\t\x00\x00\x00numeratorq\x03J\xf8\xff\xff\xffX\x0b\x00\x00\x00denominatorq\x04K\x05ub."
)
# -8/5 pickled with protocol 2 at f3f9ade, by the slotted type: the state is [-8, 5].
LIST_STATE_PICKLE = (
    b"\x80\x02ctanglegcd.rationals\nExtendedRational\nq\x00)\x81q\x01]q\x02"
    b"(J\xf8\xff\xff\xffK\x05eb."
)


@pytest.mark.parametrize("data", [DICT_STATE_PICKLE, LIST_STATE_PICKLE], ids=["dict", "list"])
def test_older_pickles_load_as_the_value_they_hold(data):
    value = pickle.loads(data)
    assert (value.numerator, value.denominator) == (-8, 5)
    assert value == normalize(-8, 5)
    assert hash(value) == hash(normalize(-8, 5))
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize(
    "data",
    [
        DICT_STATE_PICKLE.replace(b"J\xf8\xff\xff\xff", b"K\x02").replace(b"K\x05", b"K\x04"),
        LIST_STATE_PICKLE.replace(b"J\xf8\xff\xff\xff", b"K\x02").replace(b"K\x05", b"K\x04"),
    ],
    ids=["dict 2/4", "list 2/4"],
)
def test_a_non_canonical_pickle_state_is_refused(data):
    with pytest.raises(ValueError, match="not in canonical form"):
        pickle.loads(data)


NON_CANONICAL_PAIRS = [(2, 4), (1, -2), (5, 0), (0, 0)]


@pytest.mark.parametrize(
    "pair", [*NON_CANONICAL_PAIRS, (2 * 10**5000, 4)],
    ids=["2/4", "1/-2", "5/0", "0/0", "5001 digits over 4"],
)
def test_raw_constructor_refuses_a_non_canonical_pair(pair):
    with pytest.raises(ValueError, match="not in canonical form"):
        ExtendedRational(*pair)


# Prints the optimize level and, per pair read from stdin, the exception type
# the raw constructor raised, or None.
REFUSALS_SCRIPT = """
import json, sys
from tanglegcd.rationals import ExtendedRational

def refusal(pair):
    try:
        ExtendedRational(*pair)
    except Exception as exc:
        return type(exc).__name__
    return None

print(json.dumps([sys.flags.optimize, [refusal(pair) for pair in json.load(sys.stdin)]]))
"""


def test_raw_constructor_refuses_non_canonical_pairs_without_asserts():
    env = dict(os.environ)
    src = str(Path(tanglegcd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", REFUSALS_SCRIPT], input=json.dumps(NON_CANONICAL_PAIRS),
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1, ["ValueError"] * len(NON_CANONICAL_PAIRS)]


def reduced(numerator, denominator):
    """Independent oracle: the canonical pair of n/d, infinity as (1, 0)."""
    if denominator == 0:
        return (1, 0)
    value = Fraction(numerator, denominator)
    return (value.numerator, value.denominator)


def pair(value):
    return (value.numerator, value.denominator)


big_pairs = st.tuples(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30)).filter(
    lambda t: t != (0, 0)
)


@given(big_pairs, st.sampled_from([1, -1]))
def test_trusted_builders_give_the_pairs_normalize_gives(integers, direction):
    f = normalize(*integers)
    assert pair(f) == reduced(*integers)
    n, d = pair(f)
    twist = Move.TWIST_POSITIVE if direction > 0 else Move.TWIST_NEGATIVE
    # A run of twists replayed from f lists f + i*direction, built in bulk.
    run = replay(f, (twist,) * 7).values
    built = {
        "twist": (twist_value(f, direction), normalize(n + direction * d, d)),
        "rotate": (rotate_value(f), normalize(-d, n)),
        "negate": (-f, normalize(-n, d)),
        "replayed start": (run[0], f),
        "replayed run": (run[-1], normalize(n + 7 * direction * d, d)),
        "folded": (tangle_number((twist,) * 3 + (Move.ROTATE,)), normalize(-direction, 3)),
    }
    for name, (got, expected) in built.items():
        assert pair(got) == pair(expected), name
        # The checked door accepts every pair a trusted builder made.
        assert ExtendedRational(*pair(got)) == got, name
    assert [pair(value) for value in run] == [
        pair(normalize(n + i * direction * d, d)) for i in range(8)
    ]


def test_excerpt_quotes_text_whole_up_to_40_characters():
    assert excerpt("-x") == "'-x'"
    assert excerpt("7" * 40) == repr("7" * 40)
    assert excerpt("7" * 41) == f"{'7' * 40!r}... (41 characters)"


@given(st.lists(st.one_of(fractions, st.just(INFINITY), st.just(ZERO)), max_size=20))
def test_value_strings_render_pairs_as_their_values_print(values):
    strings = _value_strings([v.numerator for v in values], [v.denominator for v in values])
    assert strings == [str(v) for v in values]


big_fractions = st.tuples(st.integers(-10**30, 10**30), st.integers(1, 10**30)).map(
    lambda t: normalize(*t)
)


@given(st.lists(st.one_of(big_fractions, fractions, st.just(INFINITY), st.just(ZERO)),
                max_size=20))
def test_value_strings_of_large_pairs_render_as_their_values_print(values):
    # Pairs of integers past 64 bits, mixed with small ones.
    values = [normalize(-7, 10**25), *values]
    strings = _value_strings([v.numerator for v in values], [v.denominator for v in values])
    assert strings == [str(v) for v in values]


@given(st.one_of(big_fractions, st.just(INFINITY), st.just(ZERO)),
       st.lists(st.sampled_from(list(Move)), max_size=40))
def test_value_strings_reuse_the_digits_moves_keep(start, moves):
    numerators, denominators = [10**25], [10**25 + 1]
    _fold(start.numerator, start.denominator, moves, numerators, denominators)
    values = [normalize(n, d) for n, d in zip(numerators, denominators)]
    assert _value_strings(numerators, denominators) == [str(v) for v in values]


def test_value_strings_reuse_only_what_a_pair_shares():
    # 0 <-> inf stays unsigned; a pair that shares only one integer with the
    # one before, or shares it in place rather than swapped, renders anew.
    pairs = [(-3, 10**25), (10**25, 3), (0, 1), (1, 0), (0, 1), (1, 0), (1, 0), (0, 1), (-1, 1),
             (7, 10**25), (-3, 7), (-7, 3), (3, 7), (7, 3)]
    numerators, denominators = map(list, zip(*pairs))
    assert _value_strings(numerators, denominators)[2:] == [
        "0", "inf", "0", "inf", "inf", "0", "-1", f"7/{10**25}", "-3/7", "-7/3", "3/7", "7/3"]


walks = st.lists(st.sampled_from(list(Move)), max_size=300)
# Values of up to 700-digit numerators and denominators, on both sides of SHADOW_BITS.
sized_values = st.integers(1, 700).flatmap(
    lambda digits: st.tuples(st.integers(-10**digits, 10**digits), st.integers(1, 10**digits))
).map(lambda t: normalize(*t))


def continued_fraction(quotients):
    """The value [q0; q1, ...] as a canonical (numerator, denominator)."""
    n, d = 1, 0
    for q in reversed(quotients):
        n, d = q * n + d, n
    return n, d


# Values whose plans are short for their size: up to 1,500 partial quotients
# of at most 9, so up to about 3,000 bits.
planned_values = st.tuples(st.integers(1, 1500), st.integers(0, 2**32), st.booleans()).map(
    lambda t: continued_fraction(random.Random(t[1]).choices(range(1, 10), k=t[0])) + (t[2],)
).map(lambda t: normalize(-t[0] if t[2] else t[0], t[1]))


def assert_values_print_as_str(values):
    strings = _value_strings([v.numerator for v in values], [v.denominator for v in values])
    assert strings == [str(v) for v in values]
    # A negative zero numerator would print "-0"; no value's str() starts so.
    assert not any(text.startswith("-0") for text in strings)


@settings(max_examples=60, deadline=None)
@given(sized_values, walks)
@example(normalize(1, 1 << SHADOW_BITS), [Move.TWIST_NEGATIVE, Move.ROTATE, Move.TWIST_POSITIVE])
@example(normalize(-(1 << SHADOW_BITS) + 1, 1), [Move.ROTATE, Move.TWIST_POSITIVE] * 3)
def test_value_strings_print_random_walks_as_str_does(start, walk):
    assert_values_print_as_str(replay(start, walk).values)


@settings(max_examples=15, deadline=None)
@given(planned_values, st.sampled_from(list(CHOOSERS)), walks)
def test_value_strings_print_plan_runs_through_zero_and_infinity_as_str_does(start, policy, walk):
    # The plan ends at 0; from there the fixed moves pass infinity twice
    # and change sign, before a random walk.
    tail = [Move.ROTATE, Move.TWIST_POSITIVE, Move.ROTATE, Move.TWIST_NEGATIVE,
            Move.TWIST_POSITIVE, Move.TWIST_POSITIVE, Move.ROTATE, Move.ROTATE, *walk]
    plan = plan_untangle(start, policy)
    assert_values_print_as_str(replay(start, [*plan.iter_moves(), *tail]).values)


# Integers on both sides of the 4,300-digit int/str limit.  An example or a
# filtered strategy past it cannot be printed, so no strategy filters them,
# and the explicit examples past it are in the test below.
bulk_integers = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**4400, 10**4400))
numerator_columns = st.one_of(
    st.lists(bulk_integers, max_size=12),
    st.builds(lambda start, step, k: range(start, start + k * step, step),
              bulk_integers, bulk_integers.map(lambda n: n or 1), st.integers(0, 12)),
)


def assert_built_as_canonical_builds_them(numerators, denominators, repeated):
    # The denominators may run longer than the numerators, or not end.
    column = repeat(denominators[0]) if repeated else iter(denominators)
    if repeated:
        denominators = [denominators[0]] * len(denominators)
    values = _canonical_values(numerators, column)
    expected = [_canonical(n, d) for n, d in zip(numerators, denominators)]
    assert type(values) is tuple
    assert [type(value) for value in values] == [ExtendedRational] * len(numerators)
    assert [pair(value) for value in values] == [pair(value) for value in expected]


@settings(deadline=None)
@given(numerator_columns, st.lists(bulk_integers, min_size=12, max_size=12), st.booleans())
@example(range(0), [1] * 12, True)
@example([], [1] * 12, False)
@example([-3], [7] * 12, False)
@example(range(5, -4, -3), [3] * 12, True)
def test_canonical_values_builds_the_values_canonical_builds_pair_by_pair(
    numerators, denominators, repeated
):
    assert_built_as_canonical_builds_them(numerators, denominators, repeated)


def test_canonical_values_builds_values_past_the_int_str_limit():
    big = 10**4400
    assert_built_as_canonical_builds_them([-big], [big + 1], False)
    assert_built_as_canonical_builds_them(range(big, big + 1), [1], True)
    assert_built_as_canonical_builds_them(range(-big, big, big - 1), [big - 1] * 3, True)
    assert_built_as_canonical_builds_them(range(3, 3 + 5 * big, big), [big, 1, 0, -1, 2], False)


@pytest.fixture
def collector_state():
    """Restore automatic garbage collection to its state before the test."""
    collecting = gc.isenabled()
    yield
    (gc.enable if collecting else gc.disable)()


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
def test_canonical_values_leaves_the_collector_as_it_found_it(collector_state, collecting):
    (gc.enable if collecting else gc.disable)()
    assert [pair(value) for value in _canonical_values([1, 2], [1, 3])] == [(1, 1), (2, 3)]
    assert gc.isenabled() is collecting


def test_canonical_values_switches_the_collector_back_on_when_allocation_fails(
    collector_state, monkeypatch
):
    def refuse(cls):
        raise MemoryError

    monkeypatch.setattr("tanglegcd.rationals._new", refuse)
    gc.enable()
    with pytest.raises(MemoryError):
        _canonical_values(range(10), repeat(1))
    assert gc.isenabled()


def test_bulk_builds_run_at_most_one_collection(collector_state):
    # Without the pause, 100,001 new values run 142 collections under Python
    # 3.10 and 3.11; from 3.12 the collector runs only between bytecodes.
    gc.enable()
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    f = normalize(100_000, 1)
    plan = plan_untangle(f, Variant.LEAST_ABSOLUTE)
    builds = {"_canonical_values": lambda: _canonical_values(range(100_001), repeat(1)),
              "verify_plan": lambda: verify_plan(f, plan).values}
    gc.callbacks.append(count)
    try:
        for name, build in builds.items():
            gc.collect()
            starts.clear()
            assert len(build()) == 100_001
            assert len(starts) <= 1, (name, starts)
    finally:
        gc.callbacks.remove(count)


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
def test_builds_at_the_collector_threshold_pause_it_and_leave_it_as_they_found_it(
    collector_state, monkeypatch, collecting
):
    # Builds below the threshold too: every build takes the one path.
    paused = []

    def disable(disable=gc.disable):
        paused.append(gc.isenabled())
        disable()

    monkeypatch.setattr(gc, "disable", disable)
    for size in (1, 10, gc.get_threshold()[0]):
        (gc.enable if collecting else gc.disable)()
        paused.clear()
        assert len(_canonical_values(range(size), repeat(1))) == size
        assert gc.isenabled() is collecting
        assert paused == ([True] if collecting else []), size


def reference_str(value):
    """str() of a value from fractions.Fraction, which prints n/1 as n."""
    if value.denominator == 0:
        return "inf"
    return str(Fraction(value.numerator, value.denominator))


@settings(deadline=None)
@given(st.one_of(fractions, big_fractions, st.just(INFINITY), st.just(ZERO),
                 st.integers(-10**4400, 10**4400).map(lambda n: normalize(n, 1)),
                 st.tuples(st.integers(-10**4400, 10**4400), st.integers(1, 10**4400))
                 .map(lambda t: normalize(*t))))
@example(normalize(1, 1))
@example(normalize(-1, 1))
@example(normalize(-7, 1))
@example(normalize(-1, 2))
def test_str_prints_what_a_reference_formatter_prints(value):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert str(value) == reference_str(value)
    finally:
        sys.set_int_max_str_digits(limit)
