"""Command-line front-end: traces, step accounting, enumeration, tangle plans.

Each subcommand renders plain text by default or a single JSON object with
`--json` (accepted before or after the subcommand).  A handler computes the
JSON payload and defers its text lines, so text is formatted only in text
mode.  Exit status is 0 only when the command completed and any verification
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Callable, Iterable, Sequence

from .enumeration import enumerate_all, minimize
from .euclid import (
    EuclidStep,
    RUNNERS,
    Variant,
    division_count,
    gcd_of,
    step_count,
    trace_to_dict,
)
from .rationals import EXCERPT_CHARS, excerpt, parse_fraction
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


# A handler returns its JSON payload, a zero-argument function producing the
# text-mode lines (called only without --json) and the exit code.
Result = tuple[dict, Callable[[], Iterable[str]], int]


def _digits_within_limit(text: str) -> str:
    """Refuse a number over the int/str limit by its digit count, without echoing it.

    int() reads single underscores between digits, so a number is a digit run
    with such underscores, and only its digits count.
    """
    limit = sys.get_int_max_str_digits()
    longest = max((len(run) - run.count("_") for run in re.findall(r"\d+(?:_\d+)*", text)),
                  default=0)
    if 0 < limit < longest:
        raise argparse.ArgumentTypeError(f"{longest} digits, limit {limit}")
    return text


def _positive_int(text: str) -> int:
    try:
        value = int(_digits_within_limit(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {excerpt(text)}") from None
    if value < 1:
        shown = value if len(text) <= EXCERPT_CHARS else excerpt(text)
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {shown}")
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


def cmd_gcd(args: argparse.Namespace) -> Result:
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

    def text() -> Iterable[str]:
        yield from map(_equation, trace.steps)
        yield ""
        yield f"gcd: {payload['gcd']}"
        yield f"divisions: {payload['divisions']}"
        yield f"subtractions: {counts.subtractions}"
        yield f"swaps: {counts.swaps}"
        yield f"total steps: {counts.total}"

    return payload, text, 0


def cmd_steps(args: argparse.Namespace) -> Result:
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

    def text() -> Iterable[str]:
        columns = "{:<10}{:>10}{:>14}{:>7}{:>7}".format
        yield columns(*rows[0])  # the header is the row keys
        for row in rows:
            yield columns(*row.values())

    return payload, text, 0


def cmd_enumerate(args: argparse.Namespace) -> Result:
    a, b = _ordered_pair(args.a, args.b)
    if a > args.limit:
        raise ValueError(
            f"x0 = {a} exceeds the enumeration bound {args.limit}; "
            "raise the bound to proceed (see --limit)"
        )
    certificate = minimize(a, b)
    rows = []
    for trace in enumerate_all(a, b):
        divisions, total = division_count(trace), step_count(trace).total
        rows.append(
            {
                "quotients": [s.quotient for s in trace.steps],
                "epsilons": [s.epsilon for s in trace.steps],
                "divisions": divisions,
                "total": total,
                "min_steps": total == certificate.min_total_steps,
                "min_divisions": divisions == certificate.min_divisions,
            }
        )
    payload = {
        "x0": a,
        "x1": b,
        "traces": rows,
        "traces_examined": certificate.traces_examined,
        "min_total_steps": certificate.min_total_steps,
        "min_divisions": certificate.min_divisions,
    }

    def text() -> Iterable[str]:
        for i, row in enumerate(rows, start=1):
            quotients = ",".join(str(q) for q in row["quotients"])
            epsilons = ",".join("+" if e > 0 else "-" for e in row["epsilons"])
            flags = " *min-steps" if row["min_steps"] else ""
            flags += " *min-divisions" if row["min_divisions"] else ""
            yield f"#{i} quotients=[{quotients}] epsilons=[{epsilons}] total={row['total']}{flags}"
        yield (
            f"summary: {certificate.traces_examined} traces, min total steps "
            f"{certificate.min_total_steps}, min divisions {certificate.min_divisions}"
        )

    return payload, text, 0


def cmd_untangle(args: argparse.Namespace) -> Result:
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

    def text() -> Iterable[str]:
        yield f"moves: {payload['moves']}"
        yield f"twists: {metrics.twists}"
        yield f"rotations: {metrics.rotations}"
        yield f"total: {metrics.total}"
        yield "values: " + " -> ".join(payload["values"])
        yield "verified: pass"

    return payload, text, 0


def cmd_construct(args: argparse.Namespace) -> Result:
    moves = parse_moves(args.moves)
    payload = {"moves": format_moves(moves), "tangle_number": str(tangle_number(moves))}

    def text() -> Iterable[str]:
        yield payload["tangle_number"]

    return payload, text, 0


def cmd_verify(args: argparse.Namespace) -> Result:
    f = parse_fraction(args.fraction)
    moves = parse_moves(args.moves)
    report = replay(f, moves)
    values = [str(v) for v in report.values]
    payload = {
        "fraction": values[0],
        "moves": format_moves(moves),
        "values": values,
        "final": values[-1],
        "pass": report.passed,
    }

    def text() -> Iterable[str]:
        yield f"start: {values[0]}"
        for move, value in zip(moves, values[1:]):
            yield f"{move.value} -> {value}"
        yield f"final: {values[-1]}"
        yield f"result: {'pass' if report.passed else 'fail'}"

    return payload, text, 0 if report.passed else 1


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

    # argparse reads a token that matches a parser's (private) negative-number
    # matcher as a value, not an option: untangle, construct and verify take
    # any token that starts with a single "-", such as the fraction -8/5 or
    # the move string in `--moves -T,R`.
    value_matcher = re.compile(r"^-[^-]")

    p = sub.add_parser("untangle", parents=[common], help="plan moves driving a tangle number to 0")
    p._negative_number_matcher = value_matcher
    p.add_argument("fraction", type=_digits_within_limit, help="p/q, p, or inf; may be negative")
    p.add_argument("--method", choices=sorted(_METHODS), default="lar")
    p.set_defaults(handler=cmd_untangle)

    p = sub.add_parser("construct", parents=[common], help="fold a move sequence from 0")
    p._negative_number_matcher = value_matcher
    p.add_argument("--moves", required=True, help="comma-separated tokens from T, -T, R")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("verify", parents=[common], help="replay moves from a value, expect 0")
    p._negative_number_matcher = value_matcher
    p.add_argument("fraction", type=_digits_within_limit, help="p/q, p, or inf; may be negative")
    p.add_argument("--moves", required=True, help="comma-separated tokens from T, -T, R")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The parser capped every input digit run at the int/str limit; values
    # computed from the inputs can be far longer and always print in full.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        payload, text, code = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    else:
        print(json.dumps(payload) if getattr(args, "json", False) else "\n".join(text()))
        return code
    finally:
        sys.set_int_max_str_digits(limit)


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (as `| head` does).  Point stdout
        # at devnull so the interpreter's exit-time flush stays quiet too; see
        # "Note on SIGPIPE" in the documentation of the `signal` module.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    run()
