import math
import random
import time
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglegcd.enumeration import (
    EnumerationResult,
    MAX_WITNESSES,
    enumerate_all,
    minimize,
)
from tanglegcd.euclid import (
    EuclidStep,
    EuclidTrace,
    InvalidInputError,
    Variant,
    _counts,
    division_count,
    gcd_of,
    run_lar,
    run_regular,
    step_count,
)


small_pairs = st.tuples(st.integers(1, 90), st.integers(1, 90)).map(
    lambda t: (max(t), min(t))
)


def signature(trace):
    return tuple((s.quotient, s.epsilon) for s in trace.steps)


def test_count_3_2():
    assert sum(1 for _ in enumerate_all(3, 2)) == 2


def test_count_4_3():
    assert sum(1 for _ in enumerate_all(4, 3)) == 3


def test_count_5_4():
    assert sum(1 for _ in enumerate_all(5, 4)) == 4


def test_all_traces_5_4_explicitly():
    got = {signature(t) for t in enumerate_all(5, 4)}
    assert got == {
        ((1, 1), (4, 1)),
        ((2, -1), (1, 1), (3, 1)),
        ((2, -1), (2, -1), (1, 1), (2, 1)),
        ((2, -1), (2, -1), (2, -1), (2, 1)),
    }


def test_forced_pair_has_single_trace():
    traces = list(enumerate_all(12, 4))
    assert len(traces) == 1
    assert division_count(traces[0]) == 1


def test_depth_first_positive_branch_first():
    first = next(iter(enumerate_all(21, 13)))
    assert first.steps == run_regular(21, 13).steps
    assert first.variant is Variant.CUSTOM


def test_enumeration_is_lazy():
    # A Fibonacci-adjacent pair has hundreds of traces; taking a prefix is cheap.
    head = list(islice(enumerate_all(987, 610), 3))
    assert len(head) == 3


def test_minimize_4_3():
    result = minimize(4, 3)
    assert result.traces_examined == 3
    assert result.min_total_steps == 5
    assert result.min_divisions == 2


def test_minimize_5_3():
    assert minimize(5, 3).min_total_steps == 6


def test_minimize_21_13():
    # Frozen from the enumeration itself; matched by the LAR run.
    result = minimize(21, 13)
    assert result.traces_examined == 13
    assert result.min_total_steps == 12
    assert result.min_divisions == 4
    assert result.min_total_steps == step_count(run_lar(21, 13)).total


def test_minimize_totals_match_enumeration_by_definition():
    totals = [step_count(t).total for t in enumerate_all(21, 13)]
    divisions = [division_count(t) for t in enumerate_all(21, 13)]
    result = minimize(21, 13)
    assert result.min_total_steps == min(totals)
    assert result.min_divisions == min(divisions)
    assert result.traces_examined == len(totals)


def test_witnesses_attain_minimum():
    result = minimize(21, 13)
    assert result.witnesses_min_steps
    for witness in result.witnesses_min_steps:
        assert step_count(witness).total == result.min_total_steps


def test_witnesses_start_with_the_regular_trace():
    # The regular trace is both the first leaf in depth-first order and
    # step-minimal, so it is always the first witness.
    result = minimize(55, 34)
    assert result.witnesses_min_steps[0].steps == run_regular(55, 34).steps


def test_minimize_single_trace_pair():
    result = minimize(10, 5)
    assert result == EnumerationResult(
        pair=(10, 5),
        traces_examined=1,
        min_total_steps=2,
        min_divisions=1,
        witnesses_min_steps=result.witnesses_min_steps,
    )
    assert len(result.witnesses_min_steps) == 1


def test_minimize_is_deterministic():
    assert minimize(89, 55) == minimize(89, 55)


def test_witness_cap_keeps_first_sixteen_in_order():
    # (144, 89) has 55 step-minimal traces, well past the retention cap.
    result = minimize(144, 89)
    assert len(result.witnesses_min_steps) == MAX_WITNESSES
    minimal_in_order = [
        signature(t)
        for t in enumerate_all(144, 89)
        if step_count(t).total == result.min_total_steps
    ]
    assert [signature(w) for w in result.witnesses_min_steps] == minimal_in_order[:MAX_WITNESSES]


def test_any_ordered_pair_is_accepted():
    assert minimize(10_001, 3).traces_examined == 3
    x0 = 10**30 + 1
    assert next(enumerate_all(x0, 3)).steps == run_regular(x0, 3).steps


def test_invalid_pairs_rejected():
    with pytest.raises(InvalidInputError):
        minimize(3, 5)
    with pytest.raises(InvalidInputError):
        next(iter(enumerate_all(3, 0)))
    # Past the int/str limit: the message carries no digits, since str() of
    # either integer would raise.
    for call in (run_lar, minimize, enumerate_all):
        with pytest.raises(InvalidInputError):
            call(10**5000, 10**5001)


@given(small_pairs)
def test_enumeration_yields_distinct_valid_traces(pair):
    seen = set()
    for trace in enumerate_all(*pair):
        sig = signature(trace)
        assert sig not in seen
        seen.add(sig)
        assert gcd_of(trace) == math.gcd(*pair)
        assert trace.steps[-1].remainder == 0


@given(small_pairs)
def test_minimize_agrees_with_full_listing(pair):
    result = minimize(*pair)
    totals = []
    divisions = []
    minimal_signatures = []
    for trace in enumerate_all(*pair):
        totals.append(step_count(trace).total)
        divisions.append(division_count(trace))
    for trace in enumerate_all(*pair):
        if step_count(trace).total == result.min_total_steps:
            minimal_signatures.append(signature(trace))
    assert result.traces_examined == len(totals)
    assert result.min_total_steps == min(totals)
    assert result.min_divisions == min(divisions)
    assert [signature(w) for w in result.witnesses_min_steps] == minimal_signatures[
        :MAX_WITNESSES
    ]


@given(small_pairs)
def test_lar_attains_both_minima(pair):
    result = minimize(*pair)
    lar = run_lar(*pair)
    assert result.min_total_steps == step_count(lar).total
    assert result.min_divisions == division_count(lar)
    assert result.min_total_steps == step_count(run_regular(*pair)).total


def test_minimize_matches_a_fold_over_the_listing_for_every_pair_to_60():
    for x0 in range(1, 61):
        for x1 in range(1, x0 + 1):
            traces = list(enumerate_all(x0, x1))
            totals = [step_count(t).total for t in traces]
            best = min(totals)
            minimal = [signature(t) for t, total in zip(traces, totals) if total == best]
            result = minimize(x0, x1)
            assert (
                result.traces_examined,
                result.min_total_steps,
                result.min_divisions,
                [signature(w) for w in result.witnesses_min_steps],
            ) == (
                len(traces),
                best,
                min(division_count(t) for t in traces),
                minimal[:MAX_WITNESSES],
            ), (x0, x1)


@given(st.tuples(st.integers(1, 10_000), st.integers(1, 10_000)).map(lambda t: (max(t), min(t))))
def test_trace_count_is_x1_over_the_gcd(pair):
    x0, x1 = pair
    assert minimize(x0, x1).traces_examined == x1 // math.gcd(x0, x1)


def test_minimize_certifies_a_pair_beyond_brute_force():
    # F(401)/F(400) has 84 digits and F(400) traces, about 10**83: only the
    # recurrence over distinct pairs can finish it.
    fib = [0, 1]
    while len(fib) <= 401:
        fib.append(fib[-1] + fib[-2])
    x0, x1 = fib[401], fib[400]
    result = minimize(x0, x1)
    regular, lar = run_regular(x0, x1), run_lar(x0, x1)
    assert result.traces_examined == x1
    assert result.min_total_steps == step_count(regular).total == step_count(lar).total
    assert result.min_divisions == division_count(lar)
    assert result.witnesses_min_steps[0].steps == regular.steps


@pytest.mark.parametrize("x0", [10**5, 10**100], ids=["10**5", "10**100"])
def test_minimize_certifies_a_staircase_pair_in_one_chain(x0):
    # (x0, x0 - 1) has x0 - 1 traces through about x0 distinct pairs, out of
    # reach of any recurrence over pairs at 10**100.
    x1 = x0 - 1
    result = minimize(x0, x1)
    regular, lar = run_regular(x0, x1), run_lar(x0, x1)
    assert result.traces_examined == x1
    assert result.min_total_steps == step_count(regular).total == step_count(lar).total == x0 + 1
    assert result.min_divisions == division_count(lar) == 2
    assert [w.steps for w in result.witnesses_min_steps] == [regular.steps]


def per_pair_minimize(x0, x1):
    """Independent oracle: minimize as a memoized recurrence over every pair.

    With q, r = divmod(a, b), a pair ends at (q, 1, 1) when r == 0 and
    otherwise is (q + 1 + min(T+, T- + 1), 1 + min(D+, D-), C+ + C-) from
    (b, r) and (b, b - r).  Witnesses are rebuilt depth-first, +1 first,
    through the checked step and trace constructors.
    """
    memo = {}

    def solved(a, b):
        q, r = divmod(a, b)
        return (q, 1, 1) if r == 0 else memo.get((a, b))

    stack = [(x0, x1)] if x0 % x1 else []
    while stack:
        a, b = stack[-1]
        q, r = divmod(a, b)
        plus, minus = solved(b, r), solved(b, b - r)
        if plus is None:
            stack.append((b, r))
        if minus is None:
            stack.append((b, b - r))
        if plus is not None and minus is not None:
            stack.pop()
            memo[a, b] = (q + 1 + min(plus[0], minus[0] + 1),
                          1 + min(plus[1], minus[1]), plus[2] + minus[2])
    total, divisions, count = solved(x0, x1)

    witnesses = []
    walk = [(x0, x1, ())]
    while walk and len(witnesses) < MAX_WITNESSES:
        a, b, path = walk.pop()
        q, r = divmod(a, b)
        if r == 0:
            witnesses.append(EuclidTrace((*path, EuclidStep(a, b, q, 1, 0)), Variant.CUSTOM))
            continue
        for quotient, epsilon, remainder in ((q + 1, -1, b - r), (q, 1, r)):
            if solved(a, b)[0] == quotient + 1 + solved(b, remainder)[0]:
                step = EuclidStep(a, b, quotient, epsilon, remainder)
                walk.append((b, remainder, (*path, step)))
    return EnumerationResult((x0, x1), count, total, divisions, tuple(witnesses))


def test_minimize_matches_the_per_pair_recurrence_for_every_pair_to_150():
    for x0 in range(1, 151):
        for x1 in range(1, x0 + 1):
            assert minimize(x0, x1) == per_pair_minimize(x0, x1), (x0, x1)


def test_minimize_matches_the_per_pair_recurrence_on_random_pairs_to_a_million():
    rng = random.Random(8)
    for _ in range(400):
        x0 = rng.randint(1, 10**6)
        x1 = rng.randint(1, x0)
        assert minimize(x0, x1) == per_pair_minimize(x0, x1), (x0, x1)


def continued_fraction(quotients):
    """The pair (n, d) of n/d = [quotients[0]; quotients[1], ...]."""
    n, d = 1, 0
    for quotient in reversed(quotients):
        n, d = quotient * n + d, n
    return n, d


def test_minimize_matches_the_per_pair_recurrence_on_deep_pairs():
    # Partial quotients from {1, 2, 3} reach every link of a chain the
    # witness walk reads: k = 1, k = 2 with s = 0, and k >= 3.
    rng = random.Random(14)
    pairs = [continued_fraction([rng.choice((1, 2, 3)) for _ in range(rng.randint(20, 60))])
             for _ in range(200)]
    fib = [0, 1]
    while len(fib) <= 40:
        fib.append(fib[-1] + fib[-2])
    pairs += [(fib[n + 1], fib[n]) for n in range(29, 40)]
    for x0, x1 in pairs:
        assert minimize(x0, x1) == per_pair_minimize(x0, x1), (x0, x1)


# Pairs whose witness walk meets each kind of pair (a, b), b = k*r + s with
# r = a mod b (see `minimize`).  At k = 1, a chain's base, the -1 child ties
# with the +1 child, and (21, 13) has a witness that takes it.  At k >= 2 the
# threshold rule compares 2k with the chain's theta, which is 2 on every
# chain with s > 0, so 2k > theta and the +1 child alone is optimal: here at
# k = 2 and k = 3.  On the last chain (s = 0) the -1 child at k = 2 is the
# leaf (2r, r), and at k >= 3 it costs 2 more than the +1 child.
WALK_BRANCH_PAIRS = {
    "k = 1": (21, 13),
    "k = 2, s > 0": (7, 5),
    "k >= 3, s > 0": (9, 7),
    "k = 2, s = 0": (5, 2),
    "k >= 3, s = 0": (4, 3),
}


def walk_branches(result):
    """The kinds of pair on the witnesses' paths, and each kind a -1 remainder was taken at."""
    kinds = set()
    for witness in result.witnesses_min_steps:
        for step in witness.steps[:-1]:
            k, s = divmod(step.b, step.a % step.b)
            kind = "k = 1" if k == 1 else f"k {'= 2' if k == 2 else '>= 3'}, s {'>' if s else '='} 0"
            kinds.add(kind if step.epsilon == 1 else f"-1 at {kind}")
    return kinds


def test_the_branch_pairs_meet_the_branches_they_name():
    for name, pair in WALK_BRANCH_PAIRS.items():
        assert name in walk_branches(minimize(*pair)), name
    assert "-1 at k = 1" in walk_branches(minimize(*WALK_BRANCH_PAIRS["k = 1"]))
    # The threshold rule's other outcomes, 2k < theta and 2k = theta, never
    # occur: no witness takes a -1 remainder at k >= 2.
    for x0 in range(1, 121):
        for x1 in range(1, x0 + 1):
            taken = {kind for kind in walk_branches(minimize(x0, x1)) if kind.startswith("-1")}
            assert taken <= {"-1 at k = 1"}, (x0, x1)


# Partial quotients that mix 1, 2 and 3 with large values: up to 10**6 for
# the first, which starts no chain, and up to 1,000 after it, since the
# oracle visits every link of every chain.
mixed_quotients = st.tuples(
    st.integers(1, 10**6),
    st.lists(st.one_of(st.sampled_from((1, 2, 3)), st.integers(1, 1000)), max_size=12),
).map(lambda t: [t[0], *t[1]])


@settings(deadline=None)
@given(mixed_quotients.map(continued_fraction))
@example(WALK_BRANCH_PAIRS["k = 1"])
@example(WALK_BRANCH_PAIRS["k = 2, s > 0"])
@example(WALK_BRANCH_PAIRS["k >= 3, s > 0"])
@example(WALK_BRANCH_PAIRS["k = 2, s = 0"])
@example(WALK_BRANCH_PAIRS["k >= 3, s = 0"])
@example(continued_fraction([10**6, 3, 1, 1, 2, 1000, 1, 3]))
def test_minimize_matches_the_per_pair_recurrence_on_mixed_partial_quotients(pair):
    assert minimize(*pair) == per_pair_minimize(*pair)


# Partial quotients of 1, 2 or 3 mixed with any up to 10**6, first and inner
# ones alike: past the reach of `per_pair_minimize`, which visits every link
# of every chain.
large_quotients = st.lists(
    st.one_of(st.sampled_from((1, 2, 3)), st.integers(1, 10**6)), min_size=1, max_size=12
)


@settings(deadline=None)
@given(large_quotients.map(continued_fraction))
@example(continued_fraction([5, 10**5, 3, 2]))
@example(continued_fraction([1, 1, 10**6, 1, 1, 10**6, 1, 2]))
def test_minimize_witnesses_are_distinct_minimal_traces_in_depth_first_order(pair):
    # No oracle: each witness is checked on its own, and the list against
    # enumerate_all's order.  The gate is generous: a walk that went down a
    # chain link by link would take seconds on a quotient of 10**6; the call
    # takes well under a millisecond.
    start = time.perf_counter()
    result = minimize(*pair)
    elapsed = time.perf_counter() - start
    witnesses = [witness._rows for witness in result.witnesses_min_steps]
    regular = run_regular(*pair)
    assert result.min_total_steps == step_count(regular).total
    assert result.min_divisions == division_count(run_lar(*pair))
    assert 1 <= len(witnesses) <= MAX_WITNESSES
    assert witnesses[0] == regular._rows
    assert len(set(witnesses)) == len(witnesses)
    for witness in result.witnesses_min_steps:
        steps = witness.steps
        assert (steps[0].a, steps[0].b) == pair
        assert EuclidTrace(steps, witness.variant) == witness
        assert step_count(witness).total == result.min_total_steps
    # Depth-first, +1 first: at the first row where two consecutive
    # witnesses differ, they divide the same pair, the first with eps +1.
    for first, second in zip(witnesses, witnesses[1:]):
        j = next(j for j, (u, v) in enumerate(zip(first, second)) if u != v)
        assert first[j][:2] == second[j][:2]
        assert (first[j][3], second[j][3]) == (1, -1)
    assert elapsed < 1


def test_minimize_walks_the_witnesses_of_a_thousand_digit_fibonacci_pair():
    # F(4788)/F(4787), the benchmark's bigint cold pair: every witness is
    # 4,783 to 4,786 divisions deep, past the default recursion limit, so
    # only a walk that does not recurse finishes.  The gate is generous: this
    # takes about 0.02 s on a 2-vCPU machine.
    x1, x0 = 0, 1
    for _ in range(4787):
        x1, x0 = x0, x0 + x1
    start = time.perf_counter()
    result = minimize(x0, x1)
    elapsed = time.perf_counter() - start
    assert len(result.witnesses_min_steps) == MAX_WITNESSES
    assert result.witnesses_min_steps[0].steps == run_regular(x0, x1).steps
    for witness in result.witnesses_min_steps:
        assert step_count(witness).total == result.min_total_steps
    assert elapsed < 5


def traced_peak_mib(call, *args):
    """tracemalloc's peak, in MiB, of what the call allocates."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call, bound", [(_counts, 2), (minimize, 32)],
                         ids=["_counts", "minimize"])
def test_the_regular_chain_holds_no_remainder(call, bound):
    # F(20094)/F(20093), 4,200 digits, 20,091 divisions.  _counts reads the
    # quotients alone: it peaked at 18.6 MiB when the chain kept every
    # remainder, and peaks at 0.4 MiB without.  minimize's witnesses hold
    # their remainders, rebuilt on the walk, with a tied -1 child's built
    # when it is popped: 25.9 MiB, against 28.1 with the chain's remainders
    # kept and 44.4 with each tie's built when it is pushed.
    x1, x0 = 0, 1
    for _ in range(20093):
        x1, x0 = x0, x0 + x1
    assert len(str(x0)) == 4200
    assert traced_peak_mib(call, x0, x1) < bound


def test_every_listed_trace_and_witness_passes_the_checked_constructor():
    # The walk builds its traces from division rows, unchecked; each must be
    # the trace the checked constructor builds from its steps.
    for x0 in range(1, 61):
        for x1 in range(1, x0 + 1):
            for trace in [*enumerate_all(x0, x1), *minimize(x0, x1).witnesses_min_steps]:
                checked = EuclidTrace(trace.steps, trace.variant)
                assert (checked, hash(checked)) == (trace, hash(trace)), (x0, x1)
