"""The four workloads: seeded inputs, one operation each, and its output check.

Inputs come in shuffled blocks.  Every block of a workload has the same
composition (the same size classes, a little jitter inside some) and only
the random content changes with the seed, so whole blocks cost about the
same on every seed and the median over a run's whole blocks is steady.

An operation calls the package's public functions through ``t.call`` (see
``spans.py``) and returns what it produced.  Its check runs outside the timed
region and compares against ``oracle.py``, never against the package itself.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Callable, Iterator

from tanglegcd import (
    Variant,
    division_count,
    format_moves,
    goodman_zaring_defect,
    minimize,
    parse_fraction,
    parse_moves,
    plan_metrics,
    plan_untangle,
    replay,
    run_lar,
    run_negative,
    run_regular,
    step_count,
    tangle_number,
    trace_to_dict,
    verify_plan,
)

import oracle
from oracle import require

POLICIES = (("regular", Variant.REGULAR), ("lar", Variant.LEAST_ABSOLUTE),
            ("negative", Variant.NEGATIVE))
RUNNERS = (("euclid.run_regular", run_regular), ("euclid.run_lar", run_lar),
           ("euclid.run_negative", run_negative))


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: Callable[[random.Random], Iterator[list]]
    op: Callable
    check: Callable
    cold_argv: tuple[str, ...]
    check_cold: Callable[[str], None]
    # Blocks per second of --seconds in a traced run; fixes its work exactly.
    traced_blocks_per_s: float


def _emit(t, payload) -> str:
    """Render like `tanglegcd --json` does, counting the bytes it would print."""
    text = t.call("cli.render", json.dumps, payload)
    t.add("cli.bytes_rendered", len(text) + 1)
    return text


def fib_pair(n: int) -> tuple[int, int]:
    """(F(n+1), F(n)): consecutive Fibonacci numbers, the deepest traces."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return b, a


def _fib_index(digits: int) -> int:
    # F(n) has about n*log10(phi) - log10(sqrt 5) digits.
    return round((digits + 0.349) / 0.20898764)


# --- certify: the minimality theorem, certified by brute-force enumeration ---

CERTIFY_FIXED = ((807, 673), (8, 5), (9999, 7001), (6765, 4181))


def certify_blocks(rng):
    while True:
        block = list(CERTIFY_FIXED)
        for _ in range(60):
            x0 = rng.randint(1, 10_000)
            block.append((x0, rng.randint(1, x0)))
        rng.shuffle(block)
        yield block


def certify_op(t, pair):
    x0, x1 = pair
    regular = t.call("euclid.run_regular", run_regular, x0, x1)
    lar = t.call("euclid.run_lar", run_lar, x0, x1)
    return {
        "regular": regular,
        "lar": lar,
        "regular_total": t.call("euclid.step_count", step_count, regular).total,
        "lar_total": t.call("euclid.step_count", step_count, lar).total,
        "regular_divisions": t.call("euclid.division_count", division_count, regular),
        "lar_divisions": t.call("euclid.division_count", division_count, lar),
        "defect": t.call("euclid.goodman_zaring_defect", goodman_zaring_defect, lar),
        "result": t.call("enumeration.minimize", minimize, x0, x1),
    }


def certify_check(pair, out):
    x0, x1 = pair
    regular_divisions, _ = oracle.regular_counts(x0, x1)
    lar_divisions = oracle.lar_divisions(x0, x1)
    total = oracle.minimal_total(x0, x1)
    regular, lar, result = out["regular"], out["lar"], out["result"]
    oracle.check_steps(oracle.trace_steps(regular), x0, x1)
    oracle.check_steps(oracle.trace_steps(lar), x0, x1)
    require(all(s.epsilon == 1 for s in regular.steps), "regular trace has a negative remainder")
    require(out["regular_total"] == out["lar_total"] == total, "variant totals differ")
    require(out["regular_divisions"] == regular_divisions, "regular division count")
    require(out["lar_divisions"] == lar_divisions, "LAR division count")
    require(regular_divisions - lar_divisions == out["defect"], "Goodman-Zaring identity")
    # The paper's theorem: both variants attain the enumerated minima.
    require(result.min_total_steps == total, "enumerated minimum total differs from the variants")
    require(result.min_divisions == lar_divisions, "enumerated minimum divisions differs from LAR")
    require(result.traces_examined >= 1 and result.witnesses_min_steps, "no witnesses")
    for witness in result.witnesses_min_steps:
        steps = oracle.trace_steps(witness)
        oracle.check_steps(steps, x0, x1)
        require(sum(s[2] for s in steps) + len(steps) - 1 == total, "witness is not minimal")
    if pair == (807, 673):
        golden = oracle.GOLDEN_807_673
        require([s.quotient for s in regular.steps] == golden["regular_quotients"], "807/673 regular")
        require([s.quotient for s in lar.steps] == golden["lar_quotients"], "807/673 LAR")
        require([s.epsilon for s in lar.steps] == golden["lar_epsilons"], "807/673 LAR signs")
        require(total == golden["total"], "807/673 total")


def certify_cold_check(stdout):
    out = json.loads(stdout)
    total = oracle.minimal_total(9999, 7001)
    require((out["x0"], out["x1"]) == (9999, 7001), "enumerate echoed the wrong pair")
    require(out["traces_examined"] == len(out["traces"]), "trace listing is incomplete")
    require(out["min_total_steps"] == total, "enumerate minimum total")
    require(out["min_divisions"] == oracle.lar_divisions(9999, 7001), "enumerate minimum divisions")
    for row in out["traces"]:
        quotients = row["quotients"]
        require(row["total"] == sum(quotients) + len(quotients) - 1, "row total")
        require(row["min_steps"] == (row["total"] == total), "row min-steps flag")
    require(any(row["min_steps"] for row in out["traces"]), "no minimal trace listed")


CERTIFY = Workload(
    name="certify",
    blocks=certify_blocks,
    op=certify_op,
    check=certify_check,
    cold_argv=("enumerate", "9999", "7001", "--json"),
    check_cold=certify_cold_check,
    traced_blocks_per_s=1.5,
)


# --- untangle: the plan path, which writes moves ---

UNTANGLE_FIXED = ("8/5", "0", "inf")


def untangle_blocks(rng):
    # 522 operations.  The 96 n/1 and -1/n near 1,000 hold the 90th
    # percentile (ranks 5-100 from the top, above the continued fractions and
    # below 10,000, with the 90th percentile at rank 52); the 400 small
    # fractions hold the median.  Their costs spread widely, so a run needs
    # over a thousand of them for its median not to depend on the seed.
    while True:
        block = list(UNTANGLE_FIXED)
        for _ in range(400):
            block.append(f"{rng.randint(-200, 200)}/{rng.randint(1, 200)}")
        for _ in range(15):
            value = oracle.continued_fraction(
                [rng.randint(1, 50) for _ in range(rng.randint(2, 8))])
            block.append(str(value if rng.random() < 0.5 else -value))
        for k, copies in ((1, 1), (2, 1), (3, 48), (4, 1), (5, 1)):
            for _ in range(copies):
                n = 10**k + rng.randrange(10**k // 50 + 1)
                block += [str(n), f"-1/{n}"]
        rng.shuffle(block)
        yield block


def untangle_op(t, text):
    f = t.call("rationals.parse_fraction", parse_fraction, text)
    rendered = []
    for method, policy in POLICIES:
        plan = t.call("tangles.plan_untangle", plan_untangle, f, policy)
        report = t.call("tangles.verify_plan", verify_plan, f, plan)
        metrics = t.call("tangles.plan_metrics", plan_metrics, plan)
        moves = t.call("tangles.format_moves", format_moves, plan.moves)
        rendered.append(_emit(t, {
            "fraction": str(f),
            "method": method,
            "moves": moves,
            "twists": metrics.twists,
            "rotations": metrics.rotations,
            "total": metrics.total,
            "values": [str(v) for v in report.values],
            "verified": report.passed,
        }))
    return rendered


def _values_region(text):
    """Split rendered JSON into its fields and the span of its `values` list.

    The list is compared in place by `_compare_values`, so a check holds no
    second copy of a long plan or replay.
    """
    start = text.index('"values": [') + len('"values": [')
    end = text.index("]", start)
    return json.loads(text[:start] + text[end:]), start, end


def _compare_values(text, start, end, expected) -> None:
    position = start
    for index, value in enumerate(expected):
        piece = f'"{value}"' if index == 0 else f', "{value}"'
        require(text.startswith(piece, position), f"value {index} differs from the fold")
        position += len(piece)
    require(position == end, "more values rendered than moves")


def _check_plan(text, start, start_text):
    out, begin, end = _values_region(text)
    moves = out["moves"]
    total = moves.count(",") + 1 if moves else 0
    rotations = moves.count("R")
    require(out["fraction"] == start_text, "plan echoes the wrong fraction")
    require(out["verified"] is True, "verify_plan did not pass")
    require(out["rotations"] == rotations and out["twists"] == total - rotations
            and out["total"] == total, "plan metrics disagree with the moves")
    tokens = (m.group() for m in re.finditer(r"[^,]+", moves))
    values = oracle.fold(start, tokens)
    _compare_values(text, begin, end, chain([start_text], map(oracle.render, values)))
    require(text.endswith('"0"', 0, end), "plan does not end at 0")
    return out


def untangle_check(text, rendered):
    start = oracle.parse_value(text)
    start_text = oracle.render(start)
    regular, lar, negative = (_check_plan(r, start, start_text) for r in rendered)
    require(regular["total"] == lar["total"], "regular and LAR plan totals differ")
    require(lar["rotations"] <= regular["rotations"], "LAR plan has more rotations")
    if start is not None and start >= 1:
        positive = negative["moves"].count("T") - negative["moves"].count("-T")
        require(positive == 0, "negative plan twists both ways")
    if text == "8/5":
        for out, variant in zip((regular, lar, negative), ("Regular", "LeastAbsolute", "Negative")):
            require(out["moves"] == oracle.GOLDEN_8_5[variant], f"8/5 {variant} plan")


def untangle_cold_check(stdout):
    out = _check_plan(stdout.strip(), Fraction(8, 5), "8/5")
    require(out["method"] == "lar", "untangle used the wrong method")
    require(out["moves"] == oracle.GOLDEN_8_5["LeastAbsolute"], "8/5 LAR plan")


UNTANGLE = Workload(
    name="untangle",
    blocks=untangle_blocks,
    op=untangle_op,
    check=untangle_check,
    cold_argv=("untangle", "8/5", "--json"),
    check_cold=untangle_cold_check,
    traced_blocks_per_s=0.04,
)


# --- replay: the read path, moves supplied by the user ---

WALK_LENGTHS = (100, 160, 250, 400, 630, 1000, 1600, 2500, 4000, 6300, 10_000)
GOLDEN_VERIFY = ("8/5", "-T,R,T,R,-T,R,T,T")


def replay_blocks(rng):
    tokens = ("T", "-T", "R")
    while True:
        block = [("verify", *GOLDEN_VERIFY), ("construct", None, oracle.GOLDEN_CONSTRUCT[0])]
        for index, length in enumerate(WALK_LENGTHS):
            length += rng.randrange(length // 50 + 1)
            walk = ",".join(rng.choice(tokens) for _ in range(length))
            if index % 2:
                block.append(("construct", None, walk))
            else:
                start = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                block.append(("verify", str(start), walk))
        for index in range(20):
            value = oracle.continued_fraction(
                [rng.randint(1, 50) for _ in range(rng.randint(2, 8))])
            if rng.random() < 0.5:
                value = -value
            plan = ",".join(oracle.regular_plan(value))
            if index % 2:
                block.append(("construct", None, plan))
            else:
                block.append(("verify", str(value), plan))
        rng.shuffle(block)
        yield block


def replay_op(t, item):
    kind, start_text, moves_text = item
    moves = t.call("tangles.parse_moves", parse_moves, moves_text)
    canonical = t.call("tangles.format_moves", format_moves, moves)
    if kind == "construct":
        value = t.call("tangles.tangle_number", tangle_number, moves)
        return _emit(t, {"moves": canonical, "tangle_number": str(value)})
    start = t.call("rationals.parse_fraction", parse_fraction, start_text)
    report = t.call("tangles.replay", replay, start, moves)
    return _emit(t, {
        "fraction": str(start),
        "moves": canonical,
        "values": [str(v) for v in report.values],
        "final": str(report.final),
        "pass": report.passed,
    })


def replay_check(item, rendered):
    kind, start_text, moves_text = item
    out = json.loads(rendered)
    tokens = oracle.move_tokens(moves_text)
    require(out["moves"] == ",".join(tokens), "moves were not echoed canonically")
    if kind == "construct":
        final = oracle.render(oracle.fold_final(Fraction(0), tokens))
        require(out["tangle_number"] == final, "tangle number differs from the fold")
        if moves_text == oracle.GOLDEN_CONSTRUCT[0]:
            require(final == oracle.GOLDEN_CONSTRUCT[1], "golden construction")
        return
    start = oracle.parse_value(start_text)
    final = oracle.render(oracle.fold_final(start, tokens))
    require(out["fraction"] == oracle.render(start), "replay echoes the wrong start")
    require(len(out["values"]) == len(tokens) + 1, "replay value count")
    require(out["values"][0] == out["fraction"], "replay first value")
    require(out["values"][-1] == out["final"] == final, "replay final differs from the fold")
    require(out["pass"] is (final == "0"), "replay pass flag")
    if (start_text, moves_text) == GOLDEN_VERIFY:
        require(out["pass"] is True, "golden 8/5 replay does not pass")


def replay_cold_check(stdout):
    start = Fraction(8, 5)
    tokens = oracle.move_tokens(GOLDEN_VERIFY[1])
    expected = [f"start: {oracle.render(start)}"]
    expected += [f"{tok} -> {oracle.render(v)}" for tok, v in zip(tokens, oracle.fold(start, tokens))]
    expected += ["final: 0", "result: pass"]
    require(stdout.splitlines() == expected, "verify output differs from the fold")


REPLAY = Workload(
    name="replay",
    blocks=replay_blocks,
    op=replay_op,
    check=replay_check,
    cold_argv=("verify", GOLDEN_VERIFY[0], "--moves", GOLDEN_VERIFY[1]),
    check_cold=replay_cold_check,
    traced_blocks_per_s=0.8,
)


# --- bigint: hundreds of digits, where euclid and rendering dominate ---

# (digits, Fibonacci pairs, random pairs, planted-factor pairs) per block of
# 36 operations.  Cost is ordered by digit class.  The extra pairs put the
# median at the 4th and 5th of the seven 400-digit operations and the 90th
# percentile at the 3rd of the six 1,000-digit ones, away from the gaps
# between classes, with enough random pairs there that a run's percentiles
# do not hang on one pair.
BIGINT_SIZES = ((150, 0, 3, 2), (200, 1, 1, 1), (250, 1, 1, 1), (320, 1, 1, 1),
                (400, 1, 3, 3), (500, 1, 1, 1), (630, 1, 1, 1), (800, 1, 1, 1),
                (1000, 1, 2, 3))
BIGINT_COLD_PAIR = fib_pair(_fib_index(1000))
# Partial quotients of random pairs follow the Gauss-Kuzmin law, capped so
# that one rare huge quotient cannot set a run's cost: the negative variant
# takes about as many steps as the quotients sum to.  Huge quotients are the
# untangle workload's subject.
MAX_QUOTIENT = 64


def _random_digits(rng, digits):
    return rng.randrange(10 ** (digits - 1), 10**digits)


def random_pair(rng, digits) -> tuple[int, int]:
    """A coprime pair x0 > x1 with about `digits` digits, from random quotients."""
    bits = math.ceil(digits * math.log2(10))
    p, q, p_prev, q_prev = 1, 0, 0, 1
    while p.bit_length() < bits:
        a = MAX_QUOTIENT + 1
        while a > MAX_QUOTIENT:
            a = int(1 / (2 ** (1 - rng.random()) - 1))
        p, q, p_prev, q_prev = a * p + p_prev, a * q + q_prev, p, q
    return p, q


def bigint_blocks(rng):
    while True:
        block = []
        for digits, fibonacci, random_pairs, planted in BIGINT_SIZES:
            block += [fib_pair(_fib_index(digits))] * fibonacci
            block += [random_pair(rng, digits) for _ in range(random_pairs)]
            for _ in range(planted):
                # A planted common factor keeps the math.gcd comparison honest.
                g = _random_digits(rng, 20)
                x0, x1 = random_pair(rng, digits - 20)
                block.append((g * x0, g * x1))
        rng.shuffle(block)
        yield [(str(x0), str(x1)) for x0, x1 in block]


def bigint_op(t, item):
    x0 = t.call("rationals.parse_fraction", parse_fraction, item[0]).numerator
    x1 = t.call("rationals.parse_fraction", parse_fraction, item[1]).numerator
    results = []
    for name, runner in RUNNERS:
        trace = t.call(name, runner, x0, x1)
        counts = t.call("euclid.step_count", step_count, trace)
        divisions = t.call("euclid.division_count", division_count, trace)
        text = _emit(t, t.call("euclid.trace_to_dict", trace_to_dict, trace))
        results.append((trace, counts, divisions, text))
    return x0, x1, results


def bigint_check(item, out):
    x0, x1, results = out
    require((x0, x1) == (int(item[0]), int(item[1])), "parsed integers differ")
    regular_divisions, _ = oracle.regular_counts(x0, x1)
    expected_divisions = (regular_divisions, oracle.lar_divisions(x0, x1), None)
    total = oracle.minimal_total(x0, x1)
    g = gcd(x0, x1)
    for (trace, counts, divisions, text), expected in zip(results, expected_divisions):
        steps = oracle.trace_steps(trace)
        require(oracle.check_steps(steps, x0, x1) == g, "gcd differs from math.gcd")
        require(divisions == len(steps), "division count")
        require(counts.subtractions == sum(s[2] for s in steps)
                and counts.swaps == len(steps) - 1, "step count")
        if expected is not None:
            require(divisions == expected, "division count differs from the reference chain")
            require(counts.total == total, "variant total differs from the minimum")
        require(text.startswith('{"variant": "') and text.count('{"a": ') == len(steps),
                "rendered trace is incomplete")


def bigint_cold_check(stdout):
    x0, x1 = BIGINT_COLD_PAIR
    out = json.loads(stdout)
    require((out["x0"], out["x1"], out["method"]) == (x0, x1, "lar"), "gcd echoed wrong inputs")
    require(out["trace"]["variant"] == "LeastAbsolute", "gcd ran the wrong variant")
    steps = [(s["a"], s["b"], s["q"], s["eps"], s["r"]) for s in out["trace"]["steps"]]
    require(oracle.check_steps(steps, x0, x1) == out["gcd"] == gcd(x0, x1), "gcd")
    require(out["divisions"] == len(steps) == oracle.lar_divisions(x0, x1), "divisions")
    require(out["total_steps"] == oracle.minimal_total(x0, x1), "total steps")


BIGINT = Workload(
    name="bigint",
    blocks=bigint_blocks,
    op=bigint_op,
    check=bigint_check,
    cold_argv=("gcd", *map(str, BIGINT_COLD_PAIR), "--method", "lar", "--json"),
    check_cold=bigint_cold_check,
    traced_blocks_per_s=0.15,
)


WORKLOADS = {w.name: w for w in (CERTIFY, UNTANGLE, REPLAY, BIGINT)}
