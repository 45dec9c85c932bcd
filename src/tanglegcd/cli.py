"""Command-line front-end: traces, step accounting, enumeration, tangle plans.

Each subcommand renders plain text by default or a single JSON object with
`--json` (accepted before or after the subcommand).  Exit status is 0 only
when the command completed and any verification passed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Sequence

from .enumeration import enumerate_all
from .euclid import (
    EuclidStep,
    RUNNERS,
    Variant,
    division_count,
    gcd_of,
    step_count,
    trace_to_dict,
)
from .rationals import parse_fraction
from .tangles import (
    format_moves,
    parse_moves,
    plan_metrics,
    plan_untangle,
    replay,
    tangle_number,
    verify_plan,
)

_METHODS = {
    "regular": Variant.REGULAR,
    "lar": Variant.LEAST_ABSOLUTE,
    "negative": Variant.NEGATIVE,
}


def _digits_within_limit(text: str) -> str:
    """Refuse a digit run over the int/str limit by its length, without echoing it."""
    limit = sys.get_int_max_str_digits()
    longest = max(map(len, re.findall(r"\d+", text)), default=0)
    if 0 < limit < longest:
        raise argparse.ArgumentTypeError(f"{longest} digits, limit {limit}")
    return text


def _positive_int(text: str) -> int:
    try:
        value = int(_digits_within_limit(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _ordered_pair(a: int, b: int) -> tuple[int, int]:
    # gcd is symmetric; accept misordered input with a notice instead of erroring
    if a < b:
        print(f"notice: swapped inputs to ({b}, {a})", file=sys.stderr)
        return b, a
    return a, b


def _equation(step: EuclidStep) -> str:
    sign = "+" if step.epsilon > 0 else "-"
    return f"{step.a} = {step.b}({step.quotient}){sign}{step.remainder}"


def cmd_gcd(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    a, b = _ordered_pair(args.a, args.b)
    trace = RUNNERS[_METHODS[args.method]](a, b)
    counts = step_count(trace)
    payload = {
        "x0": a,
        "x1": b,
        "method": args.method,
        "trace": trace_to_dict(trace),
        "gcd": gcd_of(trace),
        "divisions": division_count(trace),
        "subtractions": counts.subtractions,
        "swaps": counts.swaps,
        "total_steps": counts.total,
    }
    lines = [_equation(step) for step in trace.steps]
    lines += [
        "",
        f"gcd: {payload['gcd']}",
        f"divisions: {payload['divisions']}",
        f"subtractions: {counts.subtractions}",
        f"swaps: {counts.swaps}",
        f"total steps: {counts.total}",
    ]
    return payload, lines, 0


def cmd_steps(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    a, b = _ordered_pair(args.a, args.b)
    rows = []
    for name, variant in _METHODS.items():
        trace = RUNNERS[variant](a, b)
        counts = step_count(trace)
        rows.append(
            {
                "method": name,
                "divisions": division_count(trace),
                "subtractions": counts.subtractions,
                "swaps": counts.swaps,
                "total": counts.total,
            }
        )
    payload = {"x0": a, "x1": b, "rows": rows}
    header = f"{'method':<10}{'divisions':>10}{'subtractions':>14}{'swaps':>7}{'total':>7}"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['method']:<10}{row['divisions']:>10}{row['subtractions']:>14}"
            f"{row['swaps']:>7}{row['total']:>7}"
        )
    return payload, lines, 0


def cmd_enumerate(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    a, b = _ordered_pair(args.a, args.b)
    if a > args.limit:
        raise ValueError(
            f"x0 = {a} exceeds the enumeration bound {args.limit}; "
            "raise the bound to proceed (see --limit)"
        )
    # The minima and flags come from the listed rows, so the tree is walked once.
    rows = [
        {
            "quotients": [s.quotient for s in trace.steps],
            "epsilons": [s.epsilon for s in trace.steps],
            "divisions": division_count(trace),
            "total": step_count(trace).total,
        }
        for trace in enumerate_all(a, b)
    ]
    min_total_steps = min(row["total"] for row in rows)
    min_divisions = min(row["divisions"] for row in rows)
    for row in rows:
        row["min_steps"] = row["total"] == min_total_steps
        row["min_divisions"] = row["divisions"] == min_divisions
    payload = {
        "x0": a,
        "x1": b,
        "traces": rows,
        "traces_examined": len(rows),
        "min_total_steps": min_total_steps,
        "min_divisions": min_divisions,
    }
    lines = []
    for i, row in enumerate(rows, start=1):
        quotients = ",".join(str(q) for q in row["quotients"])
        epsilons = ",".join("+" if e > 0 else "-" for e in row["epsilons"])
        flags = ""
        if row["min_steps"]:
            flags += " *min-steps"
        if row["min_divisions"]:
            flags += " *min-divisions"
        lines.append(
            f"#{i} quotients=[{quotients}] epsilons=[{epsilons}] total={row['total']}{flags}"
        )
    lines.append(
        f"summary: {len(rows)} traces, "
        f"min total steps {min_total_steps}, min divisions {min_divisions}"
    )
    return payload, lines, 0


def cmd_untangle(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    f = parse_fraction(args.fraction)
    plan = plan_untangle(f, _METHODS[args.method])
    report = verify_plan(f, plan)
    if not report.passed:
        raise RuntimeError(f"internal error: plan for {f} replayed to {report.final}")
    metrics = plan_metrics(plan)
    payload = {
        "fraction": str(f),
        "method": args.method,
        "moves": format_moves(plan.moves),
        "twists": metrics.twists,
        "rotations": metrics.rotations,
        "total": metrics.total,
        "values": [str(v) for v in report.values],
        "verified": True,
    }
    lines = [
        f"moves: {payload['moves']}",
        f"twists: {metrics.twists}",
        f"rotations: {metrics.rotations}",
        f"total: {metrics.total}",
        "values: " + " -> ".join(payload["values"]),
        "verified: pass",
    ]
    return payload, lines, 0


def cmd_construct(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    moves = parse_moves(args.moves)
    value = tangle_number(moves)
    payload = {"moves": format_moves(moves), "tangle_number": str(value)}
    return payload, [str(value)], 0


def cmd_verify(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    f = parse_fraction(args.fraction)
    moves = parse_moves(args.moves)
    report = replay(f, moves)
    payload = {
        "fraction": str(f),
        "moves": format_moves(moves),
        "values": [str(v) for v in report.values],
        "final": str(report.final),
        "pass": report.passed,
    }
    lines = [f"start: {f}"]
    for move, value in zip(moves, report.values[1:]):
        lines.append(f"{move.value} -> {value}")
    lines.append(f"final: {report.final}")
    lines.append(f"result: {'pass' if report.passed else 'fail'}")
    return payload, lines, 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps the subparser from clobbering a --json given before the
    # subcommand with its own False default.
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit a single JSON object",
    )

    parser = argparse.ArgumentParser(
        prog="tanglegcd",
        description="Euclidean algorithm variants, step minimality, and tangle untangling",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gcd", parents=[common], help="run one variant and show its trace")
    p.add_argument("a", type=_positive_int)
    p.add_argument("b", type=_positive_int)
    p.add_argument("--method", choices=sorted(_METHODS), default="regular")
    p.set_defaults(handler=cmd_gcd)

    p = sub.add_parser("steps", parents=[common], help="compare step counts across variants")
    p.add_argument("a", type=_positive_int)
    p.add_argument("b", type=_positive_int)
    p.set_defaults(handler=cmd_steps)

    p = sub.add_parser("enumerate", parents=[common], help="list every possible algorithm")
    p.add_argument("a", type=_positive_int)
    p.add_argument("b", type=_positive_int)
    p.add_argument("--limit", type=_positive_int, default=10_000,
                   help="enumeration input ceiling (default %(default)s)")
    p.set_defaults(handler=cmd_enumerate)

    # Lets argparse accept bare negative fractions like -8/5 as positionals.
    fraction_matcher = re.compile(r"^-\d+(/\d+)?$")

    p = sub.add_parser("untangle", parents=[common], help="plan moves driving a tangle number to 0")
    p._negative_number_matcher = fraction_matcher
    p.add_argument("fraction", type=_digits_within_limit, help="p/q, p, or inf; may be negative")
    p.add_argument("--method", choices=sorted(_METHODS), default="lar")
    p.set_defaults(handler=cmd_untangle)

    p = sub.add_parser("construct", parents=[common], help="fold a move sequence from 0")
    p.add_argument("--moves", required=True, help="comma-separated tokens from T, -T, R")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("verify", parents=[common], help="replay moves from a value, expect 0")
    p._negative_number_matcher = fraction_matcher
    p.add_argument("fraction", type=_digits_within_limit, help="p/q, p, or inf; may be negative")
    p.add_argument("--moves", required=True, help="comma-separated tokens from T, -T, R")
    p.set_defaults(handler=cmd_verify)

    return parser


def _fold_moves_flag(argv: Sequence[str]) -> list[str]:
    # Move strings routinely start with "-T", which argparse would otherwise
    # read as an option; fold the value into --moves=... form.
    out: list[str] = []
    it = iter(argv)
    for token in it:
        if token == "--moves":
            value = next(it, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"--moves={value}")
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_fold_moves_flag(argv))
    # The parser capped every input digit run at the int/str limit; values
    # computed from the inputs can be far longer and always print in full.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        payload, lines, code = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    else:
        print(json.dumps(payload) if getattr(args, "json", False) else "\n".join(lines))
        return code
    finally:
        sys.set_int_max_str_digits(limit)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
