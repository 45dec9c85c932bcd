import copy
import json
import math
import os
import pickle
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import tanglegcd
from tanglegcd import euclid
from tanglegcd.euclid import (
    EuclidStep,
    EuclidTrace,
    InvalidInputError,
    Variant,
    WrongVariantError,
    _counts,
    _trace,
    division_count,
    gcd_of,
    goodman_zaring_defect,
    least_absolute,
    run_general,
    run_lar,
    run_negative,
    run_regular,
    step_count,
    trace_to_dict,
)
from tanglegcd.enumeration import enumerate_all, minimize


pairs = st.tuples(st.integers(1, 400), st.integers(1, 400)).map(
    lambda t: (max(t), min(t))
)


def subtraction_gcd(a, b):
    """Reference oracle: gcd by repeated subtraction only."""
    while b:
        if a < b:
            a, b = b, a
        a -= b
    return a


def as_tuples(trace):
    return [(s.a, s.b, s.quotient, s.epsilon, s.remainder) for s in trace.steps]


def check_trace_invariants(trace):
    assert trace.steps
    for step in trace.steps:
        assert step.a == step.b * step.quotient + step.epsilon * step.remainder
        assert 0 <= step.remainder < step.b
        assert step.quotient >= 1
        if step.remainder == 0:
            assert step.epsilon == 1
    assert trace.steps[-1].remainder == 0
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        assert prev.remainder != 0
        assert cur.a == prev.b
        assert cur.b == prev.remainder


def test_general_positive_chooser_3_2():
    trace = run_general(3, 2, lambda a, b: 1)
    assert as_tuples(trace) == [(3, 2, 1, 1, 1), (2, 1, 2, 1, 0)]


def test_general_negative_chooser_3_2():
    trace = run_general(3, 2, lambda a, b: -1)
    assert as_tuples(trace) == [(3, 2, 2, -1, 1), (2, 1, 2, 1, 0)]


def test_general_equal_inputs_forced():
    trace = run_general(7, 7, lambda a, b: -1)
    assert as_tuples(trace) == [(7, 7, 1, 1, 0)]


def test_general_rejects_bad_chooser_value():
    with pytest.raises(ValueError):
        run_general(3, 2, lambda a, b: 0)


@pytest.mark.parametrize(
    "sign, runner",
    [(True, run_regular), (1.0, run_regular), (-1.0, run_negative)],
    ids=["True", "1.0", "-1.0"],
)
def test_a_chooser_sign_equal_to_1_or_minus_1_is_stored_as_that_int(sign, runner):
    # A chooser may return any value equal to +1 or -1; the rows hold the
    # int, so the JSON trace writes "eps": 1, not true or -1.0.
    for pair in [(8, 5), (807, 673)]:
        trace = run_general(*pair, lambda a, b: sign)
        rows = trace_to_dict(trace)["steps"]
        assert {type(row["eps"]) for row in rows} == {int}
        assert {type(step.epsilon) for step in trace.steps} == {int}
        assert rows == trace_to_dict(runner(*pair))["steps"]


def test_least_absolute_as_a_general_chooser_gives_the_rows_of_run_lar():
    # run_lar's division loop signs each division inline and never calls
    # least_absolute; wrapped, the documented chooser is called on every
    # division, so the inline rule is checked against it.
    def chooser(a, b):
        return least_absolute(a, b)

    ties = 0
    for x0 in range(1, 301):
        for x1 in range(1, x0 + 1):
            rows = as_tuples(run_general(x0, x1, chooser))
            assert rows == as_tuples(run_lar(x0, x1)), (x0, x1)
            ties += sum(2 * r == b for _, b, _, _, r in rows)
    assert ties > 0


@pytest.mark.parametrize("x0,x1", [(0, 1), (1, 0), (3, 5), (5, -1)])
def test_invalid_inputs(x0, x1):
    with pytest.raises(InvalidInputError):
        run_regular(x0, x1)


def test_regular_807_673():
    trace = run_regular(807, 673)
    assert [s.quotient for s in trace.steps] == [1, 5, 44, 1, 2]
    assert [s.remainder for s in trace.steps] == [134, 3, 2, 1, 0]
    assert trace.variant is Variant.REGULAR


def test_regular_8_5():
    assert [s.quotient for s in run_regular(8, 5).steps] == [1, 1, 1, 2]


def test_regular_exact_division():
    assert as_tuples(run_regular(10, 5)) == [(10, 5, 2, 1, 0)]


def test_lar_807_673():
    trace = run_lar(807, 673)
    assert [s.quotient for s in trace.steps] == [1, 5, 45, 3]
    assert [s.epsilon for s in trace.steps] == [1, 1, -1, 1]
    assert trace.variant is Variant.LEAST_ABSOLUTE


def test_lar_8_5():
    trace = run_lar(8, 5)
    assert [s.quotient for s in trace.steps] == [2, 2, 2]
    assert [s.epsilon for s in trace.steps] == [-1, 1, 1]


def test_lar_tie_resolves_positive():
    # 5 = 2(2)+1: the remainders +1 and -1 tie in magnitude
    assert as_tuples(run_lar(5, 2)) == [(5, 2, 2, 1, 1), (2, 1, 2, 1, 0)]


def test_negative_4_3():
    trace = run_negative(4, 3)
    assert [s.quotient for s in trace.steps] == [2, 2, 2]
    assert [s.epsilon for s in trace.steps] == [-1, -1, 1]


def test_negative_8_5():
    # Final equation is 2 = 1(2)+0, chained from the remainder 1 above it.
    trace = run_negative(8, 5)
    assert as_tuples(trace) == [(8, 5, 2, -1, 2), (5, 2, 3, -1, 1), (2, 1, 2, 1, 0)]


def test_negative_exact_division_has_no_choice():
    assert as_tuples(run_negative(6, 3)) == [(6, 3, 2, 1, 0)]


def test_gcd_of():
    assert gcd_of(run_regular(807, 673)) == 1
    assert gcd_of(run_regular(10, 5)) == 5


@pytest.mark.parametrize("runner", [run_regular, run_lar, run_negative])
def test_gcd_of_21_13_against_subtraction_oracle(runner):
    assert gcd_of(runner(21, 13)) == subtraction_gcd(21, 13) == 1


def test_step_count_807_673():
    regular = step_count(run_regular(807, 673))
    assert (regular.subtractions, regular.swaps, regular.total) == (53, 4, 57)
    lar = step_count(run_lar(807, 673))
    assert (lar.subtractions, lar.swaps, lar.total) == (54, 3, 57)


def test_step_count_3_1():
    counts = step_count(run_regular(3, 1))
    assert (counts.subtractions, counts.swaps, counts.total) == (3, 0, 3)


def test_division_count():
    assert division_count(run_regular(807, 673)) == 5
    assert division_count(run_lar(807, 673)) == 4


@pytest.mark.parametrize("k", [1, 2, 7])
def test_division_count_exact_multiples(k):
    assert division_count(run_regular(9 * k, 9)) == 1


def test_defect_807_673():
    assert goodman_zaring_defect(run_lar(807, 673)) == 1


def test_defect_forced_single_step():
    assert goodman_zaring_defect(run_lar(10, 5)) == 0


def test_defect_21_13():
    # Frozen from running both variants: 6 regular divisions, 4 LAR divisions.
    lar = run_lar(21, 13)
    assert goodman_zaring_defect(lar) == 2
    assert division_count(run_regular(21, 13)) - division_count(lar) == 2


def test_defect_requires_lar_trace():
    with pytest.raises(WrongVariantError):
        goodman_zaring_defect(run_regular(8, 5))


def test_trace_to_dict_schema():
    d = trace_to_dict(run_lar(8, 5))
    assert d["variant"] == "LeastAbsolute"
    assert d["steps"][0] == {"a": 8, "b": 5, "q": 2, "eps": -1, "r": 2}
    assert set(d["steps"][0]) == {"a", "b", "q", "eps", "r"}


@given(pairs)
def test_traces_satisfy_invariants(pair):
    for runner in (run_regular, run_lar, run_negative):
        trace = runner(*pair)
        check_trace_invariants(trace)
        # The checked doors accept what the runners build unchecked.
        assert EuclidTrace(tuple(EuclidStep(*s) for s in as_tuples(trace)), trace.variant) == trace


@given(pairs)
def test_gcd_agreement(pair):
    expected = math.gcd(*pair)
    for runner in (run_regular, run_lar, run_negative):
        assert gcd_of(runner(*pair)) == expected


@given(pairs)
def test_regular_and_lar_totals_agree(pair):
    assert step_count(run_regular(*pair)).total == step_count(run_lar(*pair)).total


@given(pairs)
def test_defect_equals_division_savings(pair):
    lar = run_lar(*pair)
    savings = division_count(run_regular(*pair)) - division_count(lar)
    assert savings == goodman_zaring_defect(lar)


@given(st.integers(1, 50), st.integers(1, 40))
def test_exact_multiples_take_k_steps_any_variant(x1, k):
    for runner in (run_regular, run_lar, run_negative):
        trace = runner(k * x1, x1)
        assert division_count(trace) == 1
        assert step_count(trace).total == k


@given(st.integers(1, 150), st.integers(1, 400))
def test_lar_complement_pair_costs_one_more(x1, x0):
    # Compares (x0, x1) against (x0, x0 - x1) whenever 2*x1 < x0.
    if 2 * x1 >= x0:
        return
    left = step_count(run_lar(x0, x1)).total
    right = step_count(run_lar(x0, x0 - x1)).total
    assert left + 1 == right


@given(pairs)
def test_lar_defining_property(pair):
    trace = run_lar(*pair)
    for i, step in enumerate(trace.steps):
        if step.remainder == 0:
            continue
        assert 2 * step.remainder <= step.b
        if 2 * step.remainder == step.b:
            assert step.epsilon == 1
            # the tie forces the very next division to be terminal
            assert trace.steps[i + 1].remainder == 0


@given(pairs)
def test_negative_variant_property(pair):
    for step in run_negative(*pair).steps:
        if step.remainder != 0:
            assert step.epsilon == -1


def test_exhaustive_small_sweep():
    for x0 in range(1, 61):
        for x1 in range(1, x0 + 1):
            reg = run_regular(x0, x1)
            lar = run_lar(x0, x1)
            neg = run_negative(x0, x1)
            for trace in (reg, lar, neg):
                check_trace_invariants(trace)
                assert gcd_of(trace) == math.gcd(x0, x1)
            assert step_count(reg).total == step_count(lar).total
            assert division_count(reg) - division_count(lar) == goodman_zaring_defect(lar)


# Each builds a step or trace the checked constructors must refuse.
BAD_BUILDS = {
    "inconsistent step": "EuclidStep(10, 3, 2, 1, 1)",
    "empty trace": "EuclidTrace((), Variant.CUSTOM)",
    "last remainder not 0": "EuclidTrace((EuclidStep(8, 5, 1, 1, 3),), Variant.CUSTOM)",
    "unchained": (
        "EuclidTrace((EuclidStep(8, 5, 1, 1, 3), EuclidStep(4, 2, 2, 1, 0)), Variant.CUSTOM)"
    ),
}


@pytest.mark.parametrize("source", BAD_BUILDS.values(), ids=BAD_BUILDS)
def test_checked_constructors_refuse_what_is_not_a_trace(source):
    with pytest.raises(ValueError):
        eval(source, {"EuclidStep": EuclidStep, "EuclidTrace": EuclidTrace, "Variant": Variant})


@pytest.mark.parametrize(
    "step",
    [(10, 3, 3, 1, 0), (10, 3, 3, -1, 0), (10, 3, 0, 1, 10), (10, 3, 4, -1, 3), (2, 3, 1, 1, -1)],
    ids=["10 != 3*3 + 0", "-1 at remainder 0", "quotient 0",
         "remainder not below b", "negative remainder"],
)
def test_step_door_checks_each_condition(step):
    with pytest.raises(ValueError):
        EuclidStep(*step)


# Prints the optimize level and, per build read from stdin, the exception type
# it raised, or None.
REFUSALS_SCRIPT = """
import json, sys
from tanglegcd.euclid import EuclidStep, EuclidTrace, Variant

def refusal(source):
    try:
        eval(source)
    except Exception as exc:
        return type(exc).__name__
    return None

print(json.dumps([sys.flags.optimize, [refusal(source) for source in json.load(sys.stdin)]]))
"""


def test_checked_constructors_refuse_without_asserts():
    env = dict(os.environ)
    src = str(Path(tanglegcd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", REFUSALS_SCRIPT], input=json.dumps(list(BAD_BUILDS.values())),
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1, ["ValueError"] * len(BAD_BUILDS)]


@pytest.mark.parametrize(
    "value",
    [run_lar(8, 5), run_lar(8, 5).steps[0], step_count(run_lar(8, 5)), minimize(8, 5)],
    ids=["trace", "step", "step count", "enumeration"],
)
def test_traces_round_trip_through_pickle_and_deepcopy(value):
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in [*copies, copy.deepcopy(value)]:
        assert other == value
        assert hash(other) == hash(value)
        assert repr(other) == repr(value)
    # Steps, traces and results are slotted: no per-instance dict.
    assert not hasattr(value, "__dict__")


def counters(trace):
    counts = [step_count(trace), division_count(trace), gcd_of(trace), trace_to_dict(trace)]
    if trace.variant is Variant.LEAST_ABSOLUTE:
        counts.append(goodman_zaring_defect(trace))
    return counts


def folded(quotients):
    """The pair (p, q) whose regular partial quotients are the given ones, the last at least 2."""
    p, q = quotients[-1] + 1, 1
    for quotient in reversed(quotients[:-1]):
        p, q = quotient * p + q, p
    return p, q


# Pairs up to about 10**30: any, or from at most ten partial quotients up to
# 1,000, whose negative traces are short enough to run.
big_pairs = st.one_of(
    st.tuples(st.integers(1, 10**30), st.integers(1, 10**30)).map(lambda t: (max(t), min(t))),
    st.lists(st.integers(1, 1000), min_size=1, max_size=10).map(folded),
)


@given(big_pairs)
def test_a_trace_is_the_same_before_and_after_its_steps_are_read(pair):
    # The negative trace is as long as the regular quotients sum to.
    short = _counts(*pair)[Variant.NEGATIVE][0] <= 2000
    for runner in (run_regular, run_lar, run_negative) if short else (run_regular, run_lar):
        read = runner(*pair)
        steps = read.steps
        # Unread traces: a runner's, a pickled one's and a deep copy's.
        others = [runner(*pair), pickle.loads(pickle.dumps(runner(*pair), 2)),
                  copy.deepcopy(runner(*pair)), EuclidTrace(steps, read.variant)]
        for other in others:
            assert other == read and read == other
            assert hash(other) == hash(read)
            assert counters(other) == counters(read)
            assert repr(other) == repr(read)
        # Pickling reads the steps: the bytes match those of a trace read before.
        assert pickle.dumps(runner(*pair), 2) == pickle.dumps(read, 2)
        # Each read builds the records again, equal to the first read's.
        assert read.steps == steps


def test_counting_a_trace_builds_no_step_record(monkeypatch):
    built = []

    def counting_step(*row):
        built.append(row)
        return EuclidStep(*row)

    monkeypatch.setattr(euclid, "EuclidStep", counting_step)
    for runner in RUNNERS.values():
        trace = runner(807, 673)
        counters(trace)
        assert trace == runner(807, 673) and hash(trace) == hash(runner(807, 673))
    assert built == []
    # The patch is the one `.steps` builds through: one record per row.
    assert len(trace.steps) == division_count(trace)
    assert built == [tuple(row.values()) for row in trace_to_dict(trace)["steps"]]


def test_reading_steps_checks_each_row():
    # `_trace` checks nothing, but `.steps` builds through the checked door:
    # 8 = 5*1 + 1*2 is not a division, so no record of it is built, on any read.
    trace = _trace(((8, 5, 1, 1, 2), (5, 2, 2, 1, 1), (2, 1, 2, 1, 0)), Variant.CUSTOM)
    for _ in range(3):
        with pytest.raises(ValueError):
            trace.steps


def test_a_trace_keeps_its_steps_when_the_caller_changes_its_list():
    # The constructor keeps a tuple of the steps it is given, so a change to
    # the caller's list afterwards reaches neither `.steps` nor the rows that
    # equality, hash and the counters read, and the trace still pickles.
    regular = run_regular(8, 5)
    steps = list(regular.steps)
    trace = EuclidTrace(steps, Variant.REGULAR)
    steps.pop()
    assert trace.steps == regular.steps and type(trace.steps) is tuple
    assert trace == regular and hash(trace) == hash(regular)
    assert counters(trace) == counters(regular)
    assert division_count(trace) == len(trace.steps) == 4
    unpickled = pickle.loads(pickle.dumps(trace))
    assert unpickled == trace and unpickled.steps == trace.steps


def test_a_trace_refuses_a_variant_that_is_not_a_variant_member():
    # "Regular" equals Variant.REGULAR, but a trace holding it could not be
    # written as JSON or counted by goodman_zaring_defect.  The message names
    # the type and does not echo the value.
    with pytest.raises(TypeError, match="str") as refusal:
        EuclidTrace(run_regular(8, 5).steps, "Regular")
    assert "Regular" not in str(refusal.value)
    # A protocol-2 pickle of run_regular(8, 5) edited to hold the str.
    data = pickle.dumps(run_regular(8, 5), 2)
    member = b"ctanglegcd.euclid\nVariant\nq\rX\x07\x00\x00\x00Regularq\x0e\x85q\x0fR"
    assert data.count(member) == 1
    with pytest.raises(TypeError, match="str"):
        pickle.loads(data.replace(member, b"X\x07\x00\x00\x00Regular"))


def test_a_trace_refuses_a_step_that_is_not_an_euclid_step():
    # Each has a division's five fields but never passed EuclidStep's check:
    # 8 = 5*1 + 0 would build, and step_count and trace_to_dict report it.
    false_division = SimpleNamespace(a=8, b=5, quotient=1, epsilon=1, remainder=0)
    with pytest.raises(TypeError, match="SimpleNamespace"):
        EuclidTrace([false_division], Variant.CUSTOM)
    # A namespace copy of a true step is refused too: only records are checked.
    steps = list(run_regular(8, 5).steps)
    assert steps[1] == EuclidStep(5, 3, 1, 1, 2)
    steps[1] = SimpleNamespace(a=5, b=3, quotient=1, epsilon=1, remainder=2)
    with pytest.raises(TypeError, match="SimpleNamespace"):
        EuclidTrace(steps, Variant.REGULAR)
    with pytest.raises(TypeError, match="tuple"):
        EuclidTrace([(8, 5, 1, 1, 3), (5, 3, 1, 1, 2)], Variant.REGULAR)


@pytest.mark.parametrize("pair, name", [((8.5, 5), "float"), ((True, True), "bool"),
                                        ((8, 5.0), "float"), ((3**400, Fraction(2)), "Fraction")])
def test_the_pair_door_refuses_a_member_whose_type_is_not_int(pair, name):
    # (8.5, 5) ran to float rows with gcd_of 0.5 and minimize counted 10.0
    # traces; (True, True) wrote "a": true.  The message names the type and
    # does not echo the value.
    calls = [run_regular, run_lar, run_negative, _counts, minimize, enumerate_all,
             lambda x0, x1: run_general(x0, x1, least_absolute)]
    for call in calls:
        with pytest.raises(TypeError, match=name) as refusal:
            call(*pair)
        assert not any(str(x) in str(refusal.value) for x in pair if x is not True)


def test_the_step_door_refuses_a_field_whose_type_is_not_int():
    # -1.0 and True equal -1 and 1, so these rows divide and chain, and the
    # trace of them equalled run_lar(8, 5); its JSON wrote "eps": -1.0 and
    # "eps": true.  Unpickling takes the same door.
    for fields, name in [((8, 5, 2, -1.0, 2), "float"), ((5, 2, 2, True, 1), "bool"),
                         ((8.0, 5, 1, 1, 3), "float"), ((2, 1, 2, 1, False), "bool")]:
        with pytest.raises(TypeError, match=name):
            EuclidStep(*fields)
    data = pickle.dumps(run_lar(8, 5), 2)
    first_epsilon = b"K\x08K\x05K\x02J\xff\xff\xff\xff"
    assert data.count(first_epsilon) == 1
    float_epsilon = first_epsilon[:-5] + b"G" + struct.pack(">d", -1.0)
    with pytest.raises(TypeError, match="float"):
        pickle.loads(data.replace(first_epsilon, float_epsilon))


# run_lar(8, 5) pickled with protocol 2 at 3418dee, before steps and traces
# were slotted: each state is a dict.
DICT_STATE_PICKLE = (
    b"\x80\x02ctanglegcd.euclid\nEuclidTrace\nq\x00)\x81q\x01}q\x02(X\x05\x00\x00\x00steps"
    b"q\x03ctanglegcd.euclid\nEuclidStep\nq\x04)\x81q\x05}q\x06(X\x01\x00\x00\x00aq\x07K\x08"
    b"X\x01\x00\x00\x00bq\x08K\x05X\x08\x00\x00\x00quotientq\tK\x02X\x07\x00\x00\x00epsilon"
    b"q\nJ\xff\xff\xff\xffX\t\x00\x00\x00remainderq\x0bK\x02ubh\x04)\x81q\x0c}q\r(h\x07K\x05"
    b"h\x08K\x02h\tK\x02h\nK\x01h\x0bK\x01ubh\x04)\x81q\x0e}q\x0f(h\x07K\x02h\x08K\x01h\tK\x02"
    b"h\nK\x01h\x0bK\x00ub\x87q\x10X\x07\x00\x00\x00variantq\x11ctanglegcd.euclid\nVariant\n"
    b"q\x12X\r\x00\x00\x00LeastAbsoluteq\x13\x85q\x14Rq\x15ub."
)


def test_an_older_trace_pickle_loads_as_the_trace_it_holds():
    trace = pickle.loads(DICT_STATE_PICKLE)
    assert trace == run_lar(8, 5)
    assert hash(trace) == hash(run_lar(8, 5))
    assert not hasattr(trace, "__dict__")
    assert not hasattr(trace.steps[0], "__dict__")


@pytest.mark.parametrize(
    "data, first_remainder",
    [
        (DICT_STATE_PICKLE, b"remainderq\x0bK\x02"),
        (pickle.dumps(run_lar(8, 5), 2), b"K\x08K\x05K\x02J\xff\xff\xff\xffK\x02"),
    ],
    ids=["dict state", "list state"],
)
def test_an_inconsistent_pickled_step_is_refused(data, first_remainder):
    # The first step's remainder edited from 2 to 3: 8 != 5*2 - 3.
    assert data.count(first_remainder) == 1
    with pytest.raises(ValueError):
        pickle.loads(data.replace(first_remainder, first_remainder[:-1] + b"\x03"))


RUNNERS = {Variant.REGULAR: run_regular, Variant.LEAST_ABSOLUTE: run_lar,
           Variant.NEGATIVE: run_negative}


@pytest.mark.parametrize("variant", RUNNERS)
def test_counts_match_the_trace_up_to_300(variant):
    for x0 in range(1, 301):
        for x1 in range(1, x0 + 1):
            trace = RUNNERS[variant](x0, x1)
            assert _counts(x0, x1)[variant] == (
                division_count(trace), step_count(trace).subtractions), (x0, x1)
    with pytest.raises(InvalidInputError):
        _counts(2, 3)


@pytest.mark.parametrize("variant", RUNNERS)
@given(pair=st.tuples(st.integers(1, 10**4), st.integers(1, 10**4)).map(
    lambda t: (max(t), min(t))))
def test_counts_match_the_trace(variant, pair):
    trace = RUNNERS[variant](*pair)
    assert _counts(*pair)[variant] == (division_count(trace), step_count(trace).subtractions)


def negative_counts(x0, x1):
    """Reference: the negative trace's divisions and subtractions, chain by chain.

    With q, r = divmod(a, b) and r > 0, the negative step from (a, b)
    reaches (b, b - r), and from there each step has quotient 2 and lowers
    both terms by r while the second stays above r: with k, s = divmod(b, r),
    that is k divisions and q + 1 + 2(k - 1) subtractions in all, ending
    exactly if s = 0 and at (r + s, s) otherwise.
    """
    divisions = subtractions = 0
    a, b = x0, x1
    while True:
        q, r = divmod(a, b)
        if r == 0:
            return divisions + 1, subtractions + q
        k, s = divmod(b, r)
        divisions += k
        subtractions += q + 2 * k - 1
        if s == 0:
            return divisions, subtractions
        a, b = r + s, s


@given(st.one_of(
    st.tuples(st.integers(1, 10**50), st.integers(1, 10**50)).map(lambda t: (max(t), min(t))),
    # Partial quotients of any size up to 10**6, an odd or even number of them.
    st.lists(st.integers(1, 10**6), min_size=1, max_size=12).map(folded),
))
@example((10**18 + 1, 10**18))
@example((7, 7))
def test_counts_match_the_division_loops_past_runnable_sizes(pair):
    # The negative entry is read off the regular quotients; the chain-by-chain
    # reference checks it where the trace is too long to run.
    counts = _counts(*pair)
    assert counts[Variant.NEGATIVE] == negative_counts(*pair)
    for variant, runner in ((Variant.REGULAR, run_regular), (Variant.LEAST_ABSOLUTE, run_lar)):
        trace = runner(*pair)
        assert counts[variant] == (division_count(trace), step_count(trace).subtractions)
    assert set(counts) == set(RUNNERS)
