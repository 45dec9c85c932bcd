import pickle
import sys
from fractions import Fraction
from functools import reduce
from itertools import accumulate, groupby
from operator import length_hint

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tanglegcd.euclid import (
    Variant,
    division_count,
    goodman_zaring_defect,
    run_lar,
    run_negative,
    run_regular,
    step_count,
)
from tanglegcd.enumeration import minimize
from tanglegcd.rationals import INFINITY, ZERO, ExtendedRational, _rotated, normalize
from tanglegcd.tangles import (
    Move,
    MoveParseError,
    PlanMetrics,
    Stage,
    UntanglePlan,
    _fold,
    _stage_runs,
    apply_move,
    format_moves,
    parse_moves,
    plan_metrics,
    plan_untangle,
    replay,
    tangle_number,
    verify_plan,
)

T = Move.TWIST_POSITIVE
NT = Move.TWIST_NEGATIVE
R = Move.ROTATE

POLICIES = (Variant.REGULAR, Variant.LEAST_ABSOLUTE, Variant.NEGATIVE)

move_lists = st.lists(st.sampled_from([T, NT, R]), max_size=14).map(tuple)

canonical_fractions = st.tuples(st.integers(-200, 200), st.integers(1, 200)).map(
    lambda t: normalize(*t)
)


# Move lists made of runs of 1-300 repeats of one move, as plans are.
move_runs = st.lists(
    st.tuples(st.sampled_from([T, NT, R]), st.integers(1, 300)), max_size=12
).map(lambda runs: tuple(move for move, count in runs for _ in range(count)))

# Starts from every branch of the rotation rule: zero, infinity, negative
# values, magnitudes below one and 20-digit values.
starts = st.one_of(
    st.just(ZERO),
    st.just(INFINITY),
    canonical_fractions,
    st.tuples(st.integers(-10**20, -1), st.integers(1, 10**20)).map(lambda t: normalize(*t)),
    st.tuples(st.integers(1, 10**6), st.integers(0, 10**6), st.sampled_from([1, -1])).map(
        lambda t: normalize(t[2] * t[0], t[0] + 1 + t[1])
    ),
)


def fraction_values(start, moves):
    """Independent oracle: every value of a stdlib Fraction fold, None meaning infinity."""
    values = [start]
    for move in moves:
        value = values[-1]
        if move is R:
            if value is None:
                value = Fraction(0)
            elif value == 0:
                value = None
            else:
                value = Fraction(-1) / value
        elif value is not None:
            value += 1 if move is T else -1
        values.append(value)
    return values


def fraction_fold(moves):
    return fraction_values(Fraction(0), moves)[-1]


def as_pair(value):
    """(numerator, denominator) of an oracle value, infinity as (1, 0)."""
    return (1, 0) if value is None else (value.numerator, value.denominator)


def test_apply_move_negative_twists_from_zero():
    value = ZERO
    for _ in range(3):
        value = apply_move(value, NT)
    assert value == normalize(-3, 1)


def test_apply_move_rotation_of_minus_three():
    assert apply_move(normalize(-3, 1), R) == normalize(1, 3)


def test_apply_move_rotation_of_zero():
    assert apply_move(ZERO, R) == INFINITY


# `Move` is a str enum, so "T" == Move.TWIST_POSITIVE, but the kernels tell
# moves apart by identity: a plain string would be read as another move.
FOLDS = {
    "replay": lambda moves: replay(ZERO, moves).final,
    "tangle_number": tangle_number,
    "apply_move": lambda moves: reduce(apply_move, moves, ZERO),
}


@pytest.mark.parametrize("entry_point", FOLDS)
def test_a_move_that_is_not_a_move_member_is_refused(entry_point):
    fold = FOLDS[entry_point]
    assert fold([T, R, T]) == ZERO
    for item, named in (("T", "'T'"), ("-T", "'-T'"), ("R", "'R'"),
                        (10**5000, "an object of type int"), (None, "an object of type NoneType")):
        with pytest.raises(TypeError, match=f"^a move must be a Move member, .* not {named}$"):
            fold([T, R, item])


# Magnitudes of up to 20 digits and past the 4,300-digit int/str limit.
magnitudes = st.one_of(
    st.integers(1, 10**20), st.integers(0, 10**6).map(lambda k: 10**4400 + k)
)


@given(st.one_of(
    st.just((0, 1)),
    st.just((1, 0)),
    st.tuples(st.sampled_from([1, -1]), magnitudes, magnitudes).map(
        lambda t: (t[0] * t[1], t[2])
    ),
))
def test_fold_rotates_as_rotated(pair):
    # `_fold` inlines the rotation rule that `_rotated` owns.
    assert _fold(*pair, (R,), [], []) == _rotated(*pair)


def test_tangle_number_seven_halves():
    moves = (NT, NT, NT, R, NT, R, T, T)
    assert tangle_number(moves) == normalize(7, 2)


def test_tangle_number_empty():
    assert tangle_number(()) == ZERO


def test_tangle_number_trtr_reaches_infinity():
    # Hand fold: 0 -> 1 -> -1 -> 0 -> inf.
    assert tangle_number((T, R, T, R)) == INFINITY


@given(move_lists)
def test_tangle_number_matches_fraction_oracle(moves):
    got = tangle_number(moves)
    expected = fraction_fold(moves)
    if expected is None:
        assert got.is_infinite
    else:
        assert Fraction(got.numerator, got.denominator) == expected


def pair_of(value):
    return (value.numerator, value.denominator)


def assert_built_in_bulk(values):
    """Every value has the exact type, is canonical and survives pickling."""
    for value in values:
        assert type(value) is ExtendedRational
        assert pair_of(value) == pair_of(normalize(*pair_of(value)))
    assert pickle.loads(pickle.dumps(values)) == values


@given(starts, move_runs)
def test_replay_matches_the_per_move_and_fraction_folds(start, moves):
    values = replay(start, iter(moves)).values
    assert values == tuple(accumulate(moves, apply_move, initial=start))
    oracle_start = None if start.is_infinite else Fraction(start.numerator, start.denominator)
    # Pairs, not values, so a non-canonical value fails even under python -O.
    assert [(v.numerator, v.denominator) for v in values] == [
        as_pair(v) for v in fraction_values(oracle_start, moves)
    ]
    assert_built_in_bulk(values)


@given(move_runs)
def test_tangle_number_is_the_last_replayed_value(moves):
    assert tangle_number(iter(moves)) == replay(ZERO, moves).final


def continued_fraction(quotients):
    value = Fraction(quotients[-1])
    for q in reversed(quotients[:-1]):
        value = q + 1 / value
    return value


# Zero, infinity and values of up to ~20 digits, either sign, either side of
# one, whose plans have short stages (quotients up to 300) and up to 8 of them.
plan_starts = st.one_of(
    st.just(ZERO),
    st.just(INFINITY),
    st.tuples(
        st.lists(st.integers(1, 300), min_size=1, max_size=8),
        st.sampled_from([1, -1]),
        st.sampled_from([1, -1]),
    ).map(lambda t: t[1] * continued_fraction(t[0]) ** t[2]).map(
        lambda v: normalize(v.numerator, v.denominator)
    ),
)


@given(st.one_of(plan_starts, canonical_fractions), st.sampled_from(POLICIES))
def test_verify_plan_equals_the_per_move_fold(f, policy):
    plan = plan_untangle(f, policy)
    values = verify_plan(f, plan).values
    assert values == tuple(accumulate(plan.moves, apply_move, initial=f))
    assert_built_in_bulk(values)


# Hand-built plans: any stage tuple from any start, so every branch of the
# stage kernel runs, including counts of zero or less, direction 0 (a
# negative twist), twists at infinity and rotations of zero.
hand_built_plans = st.builds(
    UntanglePlan,
    st.one_of(
        starts,
        st.tuples(st.integers(10**40, 10**60), st.integers(1, 10**30)).map(
            lambda t: normalize(-t[0], t[1])),
    ),
    st.lists(st.builds(Stage, st.integers(-2, 50), st.sampled_from([-1, 0, 1])),
             max_size=8).map(tuple),
    st.sampled_from(POLICIES),
)


@given(hand_built_plans)
# 3 -> 2 -> 1 -> 0, a rotation of zero, then twists at infinity in direction 0.
@example(UntanglePlan(normalize(3, 1), (Stage(3, -1), Stage(2, 0)), Variant.REGULAR))
def test_verify_plan_of_hand_built_stages_equals_the_per_move_fold(plan):
    f = plan.start
    values = verify_plan(f, plan).values
    assert values == tuple(accumulate(plan.moves, apply_move, initial=f))
    assert_built_in_bulk(values)
    rotations = plan.moves.count(R)
    twists = len(plan.moves) - rotations
    assert plan_metrics(plan) == PlanMetrics(twists, rotations, twists + rotations)


def test_verify_plan_never_replays_move_by_move(monkeypatch):
    def refuse(*args):
        raise AssertionError("a plan was replayed one move at a time")

    monkeypatch.setattr("tanglegcd.tangles._fold", refuse)
    for f in (normalize(8, 5), normalize(-1, 1003), normalize(10**6 + 3, 1), INFINITY, ZERO):
        for policy in POLICIES:
            assert verify_plan(f, plan_untangle(f, policy)).passed


def test_replay_lists_each_twist_and_fixes_infinity():
    assert replay(normalize(8, 5), (NT, NT)).values[1:] == (normalize(3, 5), normalize(-2, 5))
    assert replay(INFINITY, (T, T, T)).values == (INFINITY,) * 4
    assert tangle_number((R, T, T, T)) == INFINITY
    assert replay(ZERO, ()).values == (ZERO,)
    # A hand-built plan can twist at infinity: 1 -> 0 -> inf -> inf -> inf.
    one = normalize(1, 1)
    plan = UntanglePlan(one, (Stage(1, -1), Stage(2, 1)), Variant.REGULAR)
    assert verify_plan(one, plan).values == (one, ZERO, INFINITY, INFINITY, INFINITY)
    # A negative twist count expands to no moves, and verify_plan checks the moves.
    plan = UntanglePlan(one, (Stage(-1, 1), Stage(1, 1)), Variant.REGULAR)
    assert plan.moves == (R, T)
    assert verify_plan(one, plan).values == (one, normalize(-1, 1), ZERO)


@given(st.one_of(plan_starts, canonical_fractions), st.sampled_from(POLICIES))
def test_iter_moves_expands_the_same_moves_lazily(f, policy):
    plan = plan_untangle(f, policy)
    moves = plan.iter_moves()
    assert not isinstance(moves, (list, tuple))
    assert tuple(moves) == plan.moves


def test_plan_metrics_count_no_twists_for_a_count_of_zero_or_less():
    plan = UntanglePlan(normalize(1, 1), (Stage(-1, 1), Stage(1, 1)), Variant.REGULAR)
    assert plan.moves == (R, T)
    assert plan_metrics(plan) == PlanMetrics(twists=1, rotations=1, total=2)


def test_iter_moves_of_hand_built_stages():
    one = normalize(1, 1)
    for stages in [(Stage(-1, 1), Stage(1, 1)), (Stage(0, 1),), (), (Stage(2, -1), Stage(0, 1))]:
        plan = UntanglePlan(one, stages, Variant.REGULAR)
        assert tuple(plan.iter_moves()) == plan.moves
    assert tuple(UntanglePlan(INFINITY, (), Variant.REGULAR).iter_moves()) == (R,)


def reference_parse(text):
    """Independent oracle: the per-token loop; the first bad token and its position, or None."""
    for position, raw in enumerate(text.split(","), start=1):
        if raw.strip() not in ("T", "-T", "R"):
            return raw.strip(), position
    return None


@given(st.lists(st.sampled_from(["T", "-T", "R", " R ", "X", "", " ", "t", "T R", "--T"]),
                max_size=12))
def test_parse_moves_fails_where_the_per_token_loop_fails(tokens):
    text = ",".join(tokens)
    if not text.strip():
        assert parse_moves(text) == ()
        return
    bad = reference_parse(text)
    if bad is None:
        assert [move.value for move in parse_moves(text)] == [token.strip() for token in tokens]
        return
    with pytest.raises(MoveParseError) as exc_info:
        parse_moves(text)
    assert (exc_info.value.token, exc_info.value.position) == bad


def test_plan_8_5_regular():
    plan = plan_untangle(normalize(8, 5), Variant.REGULAR)
    assert format_moves(plan.moves) == "-T,R,T,R,-T,R,T,T"
    metrics = plan_metrics(plan)
    assert (metrics.twists, metrics.rotations, metrics.total) == (5, 3, 8)


def test_plan_8_5_lar():
    plan = plan_untangle(normalize(8, 5), Variant.LEAST_ABSOLUTE)
    assert format_moves(plan.moves) == "-T,-T,R,-T,-T,R,T,T"
    metrics = plan_metrics(plan)
    assert (metrics.twists, metrics.rotations, metrics.total) == (6, 2, 8)


def test_plan_8_5_negative():
    plan = plan_untangle(normalize(8, 5), Variant.NEGATIVE)
    assert format_moves(plan.moves) == "-T,-T,R,-T,-T,-T,R,-T,-T"
    assert all(move in (NT, R) for move in plan.moves)


def test_plan_stages_link_back_to_trace():
    plan = plan_untangle(normalize(8, 5), Variant.LEAST_ABSOLUTE)
    assert plan.stages == (Stage(2, -1), Stage(2, -1), Stage(2, 1))
    trace = run_lar(8, 5)
    assert [stage.twist_count for stage in plan.stages] == [
        s.quotient for s in trace.steps
    ]


RUNNERS = {Variant.REGULAR: run_regular, Variant.LEAST_ABSOLUTE: run_lar,
           Variant.NEGATIVE: run_negative}


@given(st.one_of(plan_starts, canonical_fractions), st.sampled_from(POLICIES))
def test_plan_stages_are_read_off_the_policy_trace(f, policy):
    # Planning reads the division loop, not a trace record; each stage must
    # still be its trace step's quotient, twisting toward zero.  It builds
    # its stages with tuple.__new__, yet the plan must be the one the public
    # constructors build.
    value = apply_move(f, R) if f.is_infinite or 0 < abs(f.numerator) < f.denominator else f
    stages = []
    if not value.is_zero:
        direction = -value.sign()
        for step in RUNNERS[policy](abs(value.numerator), value.denominator).steps:
            stages.append(Stage(twist_count=step.quotient, twist_direction=direction))
            direction *= -step.epsilon
    plan = plan_untangle(f, policy)
    expected = UntanglePlan(start=f, stages=tuple(stages), policy=policy)
    assert (plan, hash(plan), repr(plan)) == (expected, hash(expected), repr(expected))
    assert pickle.dumps(plan) == pickle.dumps(expected)
    assert plan.start is f and type(plan.stages) is tuple
    assert all(type(stage) is Stage for stage in plan.stages)


@given(canonical_fractions, st.sampled_from(POLICIES))
def test_plan_metrics_and_stages_agree_with_expanded_moves(f, policy):
    plan = plan_untangle(f, policy)
    moves = plan.moves
    rotations = moves.count(R)
    assert plan_metrics(plan) == PlanMetrics(len(moves) - rotations, rotations, len(moves))
    runs = [(len(list(run)), 1 if move is T else -1)
            for move, run in groupby(moves) if move is not R]
    assert runs == [(stage.twist_count, stage.twist_direction) for stage in plan.stages]


def test_plan_metrics_never_expand_the_moves():
    # A single stage of 10**100 twists: only a stage-unit plan can be counted.
    plan = plan_untangle(normalize(10**100, 1), Variant.REGULAR)
    assert plan.stages == (Stage(10**100, -1),)
    assert plan_metrics(plan).total == 10**100


def test_plan_zero_is_empty():
    plan = plan_untangle(ZERO, Variant.REGULAR)
    assert plan.moves == ()
    assert plan_metrics(plan) == plan_metrics(plan).__class__(0, 0, 0)


def test_plan_infinity_is_one_rotation():
    plan = plan_untangle(INFINITY, Variant.LEAST_ABSOLUTE)
    assert plan.moves == (R,)
    assert verify_plan(INFINITY, plan).passed


@pytest.mark.parametrize(
    "num,expected",
    [(3, "-T,-T,-T"), (-2, "T,T"), (1, "-T"), (-1, "T")],
)
def test_plan_integers_twist_straight_to_zero(num, expected):
    plan = plan_untangle(normalize(num, 1), Variant.REGULAR)
    assert format_moves(plan.moves) == expected


def test_plan_below_one_rotates_first():
    plan = plan_untangle(normalize(2, 5), Variant.LEAST_ABSOLUTE)
    assert format_moves(plan.moves) == "R,T,T,R,-T,-T"
    assert verify_plan(normalize(2, 5), plan).passed


def test_plan_negative_below_one():
    plan = plan_untangle(normalize(-2, 5), Variant.LEAST_ABSOLUTE)
    assert format_moves(plan.moves) == "R,-T,-T,R,T,T"


def test_plan_mirror_of_8_5():
    plan = plan_untangle(normalize(-8, 5), Variant.LEAST_ABSOLUTE)
    assert format_moves(plan.moves) == "T,T,R,T,T,R,-T,-T"
    assert verify_plan(normalize(-8, 5), plan).passed


def test_lar_is_not_rotation_minimal_over_every_move_sequence():
    # LAR has the fewest rotations among Euclid-derived plans only: for 2/3 a
    # sequence outside that family is as short with one rotation fewer.
    f = normalize(2, 3)
    plan = plan_untangle(f, Variant.LEAST_ABSOLUTE)
    assert format_moves(plan.moves) == "R,T,R,-T,-T"
    assert plan_metrics(plan) == PlanMetrics(twists=3, rotations=2, total=5)
    shorter = parse_moves("-T,R,-T,-T,-T")
    assert replay(f, shorter).passed
    assert (len(shorter), shorter.count(R)) == (5, 1)


def test_plan_rejects_custom_policy():
    with pytest.raises(ValueError):
        plan_untangle(normalize(8, 5), Variant.CUSTOM)


@pytest.mark.parametrize("policy", ["Negative", 3, None])
def test_plan_refuses_a_policy_that_is_not_a_variant_member(policy):
    # "Negative" equals Variant.NEGATIVE, so it would find that chooser, and
    # the plan would hold the str.  The message names the type and does not
    # echo the value.
    with pytest.raises(TypeError, match=type(policy).__name__) as refusal:
        plan_untangle(normalize(8, 5), policy)
    assert "Negative" not in str(refusal.value)


def test_verify_plan_reports_every_value():
    f = normalize(8, 5)
    report = verify_plan(f, plan_untangle(f, Variant.LEAST_ABSOLUTE))
    assert [str(v) for v in report.values] == [
        "8/5", "3/5", "-2/5", "5/2", "3/2", "1/2", "-2", "-1", "0",
    ]
    assert report.passed
    assert report.final == ZERO


def test_verify_empty_plan_on_zero():
    report = verify_plan(ZERO, plan_untangle(ZERO, Variant.REGULAR))
    assert report.passed
    assert report.values == (ZERO,)


def test_verify_seven_halves_regular_plan():
    f = normalize(7, 2)
    plan = plan_untangle(f, Variant.REGULAR)
    assert format_moves(plan.moves) == "-T,-T,-T,R,T,T"
    assert verify_plan(f, plan).passed


def test_verify_plan_requires_matching_start():
    plan = plan_untangle(normalize(8, 5), Variant.REGULAR)
    with pytest.raises(ValueError):
        verify_plan(normalize(7, 5), plan)
    # A start past the 4,300-digit int/str limit: the message has no digits.
    plan = plan_untangle(normalize(1, 2), Variant.LEAST_ABSOLUTE)
    with pytest.raises(ValueError, match="^the plan was built for another start value$"):
        verify_plan(normalize(10**5000 + 1, 3), plan)


# 1/12345678901234567890123 plans one stage of 12345678901234567890123
# twists after its rotation, and sys.maxsize (2**63 - 1 on 64-bit builds) a
# single stage of sys.maxsize twists, whose run would be sys.maxsize + 1 long.
TOO_MANY_TWISTS = [normalize(1, 12345678901234567890123), normalize(sys.maxsize, 1)]


@pytest.mark.parametrize("f", TOO_MANY_TWISTS, ids=str)
@pytest.mark.parametrize("policy", POLICIES)
def test_verify_plan_refuses_a_stage_of_too_many_twists_without_digits(f, policy):
    with pytest.raises(ValueError, match=r"^\D+$"):
        verify_plan(f, plan_untangle(f, policy))


@pytest.mark.parametrize("f", TOO_MANY_TWISTS, ids=str)
@pytest.mark.parametrize("policy", POLICIES)
def test_iter_moves_refuses_a_stage_of_too_many_twists_without_digits(f, policy):
    # The call alone must raise: `repeat` cannot take a count past a C size,
    # and a lazy iterator over the sys.maxsize plan must never be consumed,
    # nor `.moves` read, since that would build a tuple of 2**63 - 1 moves.
    plan = plan_untangle(f, policy)
    with pytest.raises(ValueError, match=r"^\D+$"):
        plan.iter_moves()


def test_a_stage_one_twist_short_of_the_limit_is_replayed_lazily():
    f = normalize(sys.maxsize - 1, 1)
    (numerators, denominators, n, d), = _stage_runs(f, plan_untangle(f, Variant.REGULAR).stages)
    assert (n, d) == (0, 1)
    assert length_hint(denominators) == sys.maxsize
    assert next(iter(numerators)) == sys.maxsize - 1


def test_replay_can_fail():
    report = replay(normalize(1, 1), (R,))
    assert not report.passed
    assert report.final == normalize(-1, 1)


def test_parse_format_round_trip():
    text = "-T,R,T,R,-T,R,T,T"
    assert format_moves(parse_moves(text)) == text


def test_parse_accepts_whitespace():
    assert parse_moves(" -T , R,T ") == (NT, R, T)


def test_parse_empty_is_empty_plan():
    assert parse_moves("") == ()
    assert parse_moves("   ") == ()
    assert format_moves(()) == ""


@pytest.mark.parametrize(
    "text,token,position",
    [("T,X", "X", 2), ("t", "t", 1), ("T,,R", "", 2), ("T,R,", "", 3), ("T R", "T R", 1)],
)
def test_parse_rejects_bad_tokens(text, token, position):
    with pytest.raises(MoveParseError) as exc_info:
        parse_moves(text)
    assert exc_info.value.token == token
    assert exc_info.value.position == position
    assert repr(token) in str(exc_info.value)


@given(canonical_fractions, st.sampled_from(POLICIES))
def test_every_plan_replays_to_zero(f, policy):
    assert verify_plan(f, plan_untangle(f, policy)).passed


@given(
    st.tuples(st.integers(1, 200), st.integers(1, 200)).map(lambda t: (max(t), min(t))),
    st.sampled_from(POLICIES),
)
def test_step_correspondence_for_magnitude_at_least_one(pair, policy):
    x0, x1 = pair
    f = normalize(x0, x1)
    # reduce the pair the same way the planner does
    x0, x1 = f.numerator, f.denominator
    plan = plan_untangle(f, policy)
    metrics = plan_metrics(plan)
    runners = {
        Variant.REGULAR: run_regular,
        Variant.LEAST_ABSOLUTE: run_lar,
        Variant.NEGATIVE: run_negative,
    }
    trace = runners[policy](x0, x1)
    counts = step_count(trace)
    assert metrics.total == counts.total
    assert metrics.rotations == division_count(trace) - 1
    assert metrics.twists == counts.subtractions


@given(st.tuples(st.integers(1, 200), st.integers(1, 200)).map(lambda t: (max(t), min(t))))
def test_rotation_economy(pair):
    f = normalize(*pair)
    lar_rotations = plan_metrics(plan_untangle(f, Variant.LEAST_ABSOLUTE)).rotations
    regular_rotations = plan_metrics(plan_untangle(f, Variant.REGULAR)).rotations
    assert lar_rotations <= regular_rotations
    defect = goodman_zaring_defect(run_lar(f.numerator, f.denominator))
    assert (lar_rotations == regular_rotations) == (defect == 0)


@given(st.tuples(st.integers(1, 200), st.integers(1, 200)).map(lambda t: (max(t), min(t))))
def test_negative_policy_keeps_one_direction(pair):
    f = normalize(*pair)
    plan = plan_untangle(f, Variant.NEGATIVE)
    assert Move.TWIST_POSITIVE not in plan.moves


@given(canonical_fractions, st.sampled_from(POLICIES))
def test_mirror_property(f, policy):
    plan = plan_untangle(f, policy)
    mirrored = plan_untangle(-f, policy)
    flipped = tuple(
        {T: NT, NT: T, R: R}[move] for move in plan.moves
    )
    assert mirrored.moves == flipped
    assert verify_plan(-f, mirrored).passed


@given(move_lists)
def test_construction_inverse(moves):
    f = tangle_number(moves)
    plan = plan_untangle(f, Variant.LEAST_ABSOLUTE)
    assert verify_plan(f, plan).passed


@given(st.tuples(st.integers(1, 90), st.integers(1, 90)).map(lambda t: (max(t), min(t))))
def test_minimality_transfer(pair):
    f = normalize(*pair)
    reduced = (f.numerator, f.denominator)
    best = minimize(*reduced).min_total_steps
    for policy in (Variant.REGULAR, Variant.LEAST_ABSOLUTE):
        assert plan_metrics(plan_untangle(f, policy)).total == best
