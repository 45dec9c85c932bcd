"""Command-line front-end: traces, step accounting, enumeration, tangle plans.

Each subcommand renders plain text by default or a single JSON object with
`--json` (accepted before or after the subcommand).  A handler computes the
JSON payload and defers its text lines, so text is formatted only in text
mode.  Exit status is 0 only when the command completed and any verification
passed.

Long outputs are streamed, byte for byte as one `json.dumps` or one joined
text would print them, so memory stays flat in the number of moves, of
traces and of divisions.  `enumerate` renders each trace row during its
own flat walk of the trace tree (`_trace_rows`).  `untangle` replays its
plan by stages (`tangles._stage_runs`), `verify` and `construct` the user's
moves one by one (`tangles._fold`); values are rendered a chunk at a time.
`gcd` renders and counts each division as euclid's division loop yields
it, with one str() per integer, and `steps` counts every method's row
without a trace.

A cold call loads only what its subcommand runs.  At module scope this
file imports only the standard modules the parser needs and no layer of
the package; each handler, and each helper that words an error or a
notice, imports the layer functions it calls.  So `gcd` and `steps` load `euclid` alone,
`enumerate` `euclid` and `enumeration`, and `untangle`, `construct` and
`verify` `rationals`, `euclid` and `tangles`.  JSON is written by
`_json_text`, which renders bools, ints and plain ASCII strings itself and
imports `json` only for any other value: of the payloads, only the rows of
`steps`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Iterator
from itertools import chain, count, islice, tee
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:
    from .rationals import ExtendedRational
    from .tangles import Move, Stage

# Each --method by the value of its euclid.Variant; a handler builds the
# Variant, so building the parser imports no layer.
_METHODS = {
    "regular": "Regular",
    "lar": "LeastAbsolute",
    "negative": "Negative",
}


# A handler returns its JSON payload, a zero-argument function producing the
# text-mode lines (called only without --json) and the exit code.  A long
# payload field is an iterator over the pieces of its JSON text, and a long
# text line an iterator over the pieces of the line; `main` writes the
# pieces as they come.  A text "line" may also be a block of lines.
Result = tuple[dict, Callable[[], Iterable[str | Iterator[str]]], int]

# Values are rendered, and moves joined into one written piece, _CHUNK at a
# time, and a chunk holds at most about _CHUNK_BITS bits of values, so
# memory stays flat in the number of moves and in the size of the values.
# Trace rows, up to thousands of characters each, are joined _ROWS at a time,
# and `gcd`'s fewer when their text would pass _CHUNK_BITS bits.
_CHUNK = 8192
_CHUNK_BITS = 1 << 22
_ROWS = 256


def _joined(separator: str, items: Iterable[str], size: int = _CHUNK) -> Iterator[str]:
    """separator.join(items), in pieces: one join per `size` items."""
    items = iter(items)
    if batch := list(islice(items, size)):
        yield separator.join(batch)
    while batch := list(islice(items, size)):
        yield separator
        yield separator.join(batch)


def _chunk_size(n: int, d: int) -> int:
    """How many values from about the size of (n, d) fit in one chunk."""
    return min(_CHUNK, _CHUNK_BITS // (n.bit_length() + d.bit_length() + 1) + 1)


def _replayed(start: ExtendedRational, moves: Iterable[Move]) -> Iterator[tuple[list, list]]:
    """Replay moves from start through the move kernel, one chunk at a time.

    Yields each chunk's moves and the str() of the values they reach.  No
    value record is built, and only one chunk of pairs is held.
    """
    from .rationals import _value_strings
    from .tangles import _fold

    n, d = start.numerator, start.denominator
    moves = iter(moves)
    while chunk := list(islice(moves, _chunk_size(n, d))):
        numerators, denominators = [], []
        n, d = _fold(n, d, chunk, numerators, denominators)
        yield chunk, _value_strings(numerators, denominators)


def _planned(start: ExtendedRational, stages: tuple[Stage, ...]) -> Iterator[list[str]]:
    """str() of start and the values its plan reaches, by the stage kernel, a chunk at a time."""
    from .rationals import _value_strings
    from .tangles import _stage_runs

    runs_n, runs_d = tee(_stage_runs(start, stages))
    numerators = chain.from_iterable(run[0] for run in runs_n)
    denominators = chain.from_iterable(run[1] for run in runs_d)
    # Twisting toward zero, a plan's values never outgrow its start.
    while chunk := list(islice(numerators, _chunk_size(start.numerator, start.denominator))):
        yield _value_strings(chunk, list(islice(denominators, len(chunk))))


def _value_list(chunks: Iterable, opening: str, separator: str, closing: str) -> Iterator[str]:
    """The values of the chunks, listed in pieces."""
    yield opening
    yield from _joined(separator, map(separator.join, chunks), 1)
    yield closing


_JSON_BOOLS = ("false", "true")


def _json_text(value: object) -> str:
    """json.dumps(value); a payload's bools, ints and plain ASCII strings without `json`.

    json.dumps writes an exact bool as false / true, an exact int as its
    str(), and a str of printable ASCII without a quote or backslash as
    itself in quotes; anything else, such as an enum member, goes to it.
    """
    kind = type(value)
    if kind is bool:
        return _JSON_BOOLS[value]
    if kind is int:
        return str(value)
    if (kind is str and value.isascii() and value.isprintable()
            and '"' not in value and "\\" not in value):
        return f'"{value}"'
    import json

    return json.dumps(value)


def _json_pieces(payload: dict) -> Iterator[str]:
    """json.dumps(payload) and a newline, in pieces; a long field's as they come."""
    separator = "{"
    for key, value in payload.items():
        yield f"{separator}{_json_text(key)}: "
        yield from value if isinstance(value, Iterator) else (_json_text(value),)
        separator = ", "
    yield "}\n"


def _text_pieces(lines: Iterable[str | Iterator[str]]) -> Iterator[str]:
    """The lines, each ending in a newline, in pieces; a long line's as they come."""
    for line in lines:
        if isinstance(line, str):
            yield line + "\n"
        else:
            yield from line
            yield "\n"


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


def _shown(value: int) -> str:
    """An integer for a message: whole up to EXCERPT_CHARS characters, else an excerpt."""
    from .rationals import EXCERPT_CHARS, excerpt

    text = str(value)
    return text if len(text) <= EXCERPT_CHARS else excerpt(text)


def _positive_int(text: str) -> int:
    try:
        value = int(_digits_within_limit(text))
    except ValueError:
        from .rationals import excerpt

        raise argparse.ArgumentTypeError(f"not an integer: {excerpt(text)}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {_shown(value)}")
    return value


def _ordered_pair(a: int, b: int) -> tuple[int, int]:
    # gcd is symmetric; accept misordered input with a notice instead of erroring
    if a < b:
        print(f"notice: swapped inputs to ({_shown(b)}, {_shown(a)})", file=sys.stderr)
        return b, a
    return a, b


def _step_rows(a: int, b: int, divisions: Iterable[tuple[int, int, int, int, int]],
               row: Callable[[str, str, int, int, str], str], counts: dict) -> Iterator[str]:
    """row(a, b, q, eps, r) for each (a, b, q, eps, r) of the divisions from (a, b).

    A division's a and b are the division before's b and r, so one str()
    per division renders each integer once and slides the window of digits:
    int -> str is quadratic in the digit count.  After the last row, `counts`
    holds the chain's gcd, its last divisor, and its step counts.
    """
    a, b = str(a), str(b)
    subtractions = 0
    for done, (_, divisor, q, eps, r) in enumerate(divisions, 1):
        subtractions += q
        r = str(r)
        yield row(a, b, q, eps, r)
        a, b = b, r
    counts.update(gcd=divisor, divisions=done, subtractions=subtractions, swaps=done - 1,
                  total_steps=subtractions + done - 1)


def _json_step(a: str, b: str, q: int, eps: int, r: str) -> str:
    return f'{{"a": {a}, "b": {b}, "q": {q}, "eps": {eps}, "r": {r}}}'


def _text_step(a: str, b: str, q: int, eps: int, r: str) -> str:
    return f"{a} = {b}({q}){'+' if eps > 0 else '-'}{r}"


def cmd_gcd(args: argparse.Namespace) -> Result:
    from .euclid import CHOOSERS, Variant, _divisions

    a, b = _ordered_pair(args.a, args.b)
    variant = Variant(_METHODS[args.method])
    chooser = CHOOSERS[variant]
    counts = dict.fromkeys(("gcd", "divisions", "subtractions", "swaps", "total_steps"), 0)
    # A row has about as many characters as a has bits, and rows shrink
    # along the trace, so a joined piece holds about _CHUNK_BITS bits of text.
    rows = min(_ROWS, _CHUNK_BITS // (8 * a.bit_length()) + 1)
    payload = {
        "x0": a,
        "x1": b,
        "method": args.method,
        # trace_to_dict(trace), rendered in pieces; a Variant's value is an
        # identifier, so it is its own JSON string body
        "trace": chain([f'{{"variant": "{variant.value}", "steps": ['],
                       _joined(", ", _step_rows(a, b, _divisions(a, b, chooser), _json_step,
                                                counts), rows),
                       ["]}"]),
        # Generators, so each is read only when written, after the trace.
        **{key: (str(counts[k]) for k in [key]) for key in counts},
    }

    def text() -> Iterable[str | Iterator[str]]:
        yield _joined("\n", _step_rows(a, b, _divisions(a, b, chooser), _text_step, counts), rows)
        yield ""
        for key, value in counts.items():
            yield f"{key.replace('_', ' ')}: {value}"

    return payload, text, 0


def cmd_steps(args: argparse.Namespace) -> Result:
    from .euclid import Variant, _counts

    a, b = _ordered_pair(args.a, args.b)
    rows = []
    for name, value in _METHODS.items():
        divisions, subtractions = _counts(a, b, Variant(value))
        rows.append(
            {
                "method": name,
                "divisions": divisions,
                "subtractions": subtractions,
                "swaps": divisions - 1,
                "total": subtractions + divisions - 1,
            }
        )
    payload = {"x0": a, "x1": b, "rows": rows}

    def text() -> Iterable[str]:
        columns = "{:<10}{:>10}{:>14}{:>7}{:>7}".format
        yield columns(*rows[0])  # the header is the row keys
        for row in rows:
            yield columns(*row.values())

    return payload, text, 0


def _trace_rows(a: int, b: int, separator: str, plus: str, minus: str,
                row: Callable[[str, str, int, int], str]) -> Iterator[str]:
    """One row per trace of (a, b), in enumerate_all's order, by a flat walk.

    A row is row(quotients, epsilons, divisions, total), the two lists
    rendered with `separator` and the signs `plus` and `minus`.  The walk
    keeps its own stack of (a, b, quotient prefix, epsilon prefix,
    subtractions, depth), each entry built from its parent's, so a node
    costs one divmod and then one row or two pushes, with no record.  The
    stack holds at most one pending sibling per level of the current path,
    each with its own prefixes, which grow with its depth; so memory is
    bounded by the square of the depth, and on staircase pairs, whose
    +1 branch ends at once, by the depth.  The caller checks the pair first,
    as `minimize` does.
    """
    plus_prefix, minus_prefix = plus + separator, minus + separator
    stack = [(a, b, "", "", 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        a, b, quotients, epsilons, subtractions, depth = pop()
        q, r = divmod(a, b)
        if r == 0:
            # The last division has remainder 0 and sign +1; swaps are depth.
            yield row(f"{quotients}{q}", epsilons + plus, depth + 1, subtractions + q + depth)
            continue
        # The -1 branch first, so that the +1 branch is walked first.
        depth += 1
        push((b, b - r, f"{quotients}{q + 1}{separator}", epsilons + minus_prefix,
              subtractions + q + 1, depth))
        push((b, r, f"{quotients}{q}{separator}", epsilons + plus_prefix, subtractions + q, depth))


def cmd_enumerate(args: argparse.Namespace) -> Result:
    from .enumeration import minimize

    a, b = _ordered_pair(args.a, args.b)
    if a > args.limit:
        raise ValueError(
            f"x0 = {_shown(a)} exceeds the enumeration bound {args.limit}; "
            "raise the bound to proceed (see --limit)"
        )
    certificate = minimize(a, b)
    least_total, least_divisions = certificate.min_total_steps, certificate.min_divisions

    def json_row(quotients: str, epsilons: str, divisions: int, total: int) -> str:
        return (
            f'{{"quotients": [{quotients}], "epsilons": [{epsilons}], '
            f'"divisions": {divisions}, "total": {total}, '
            f'"min_steps": {_JSON_BOOLS[total == least_total]}, '
            f'"min_divisions": {_JSON_BOOLS[divisions == least_divisions]}}}'
        )

    def json_rows() -> Iterator[str]:
        yield "["
        yield from _joined(", ", _trace_rows(a, b, ", ", "1", "-1", json_row), _ROWS)
        yield "]"

    payload = {
        "x0": a,
        "x1": b,
        "traces": json_rows(),
        "traces_examined": certificate.traces_examined,
        "min_total_steps": least_total,
        "min_divisions": least_divisions,
    }

    def text() -> Iterable[str | Iterator[str]]:
        numbers = count(1)

        def text_row(quotients: str, epsilons: str, divisions: int, total: int) -> str:
            flags = " *min-steps" if total == least_total else ""
            flags += " *min-divisions" if divisions == least_divisions else ""
            return (f"#{next(numbers)} quotients=[{quotients}] epsilons=[{epsilons}] "
                    f"total={total}{flags}")

        yield _joined("\n", _trace_rows(a, b, ",", "+", "-", text_row), _ROWS)
        yield (
            f"summary: {certificate.traces_examined} traces, min total steps "
            f"{least_total}, min divisions {least_divisions}"
        )

    return payload, text, 0


def cmd_untangle(args: argparse.Namespace) -> Result:
    from .euclid import Variant
    from .rationals import ExtendedRational, parse_fraction
    from .tangles import _stage_runs, plan_metrics, plan_untangle

    f = parse_fraction(args.fraction)
    plan = plan_untangle(f, Variant(_METHODS[args.method]))
    # The stage kernel's last pair first, in O(stages), so a failing plan writes nothing.
    for _, _, n, d in _stage_runs(f, plan.stages):
        pass
    if (n, d) != (0, 1):
        raise RuntimeError(f"internal error: plan for {f} replayed to {ExtendedRational(n, d)}")
    metrics = plan_metrics(plan)

    payload = {
        "fraction": str(f),
        "method": args.method,
        "moves": chain(['"'], _joined(",", plan.iter_moves()), ['"']),
        "twists": metrics.twists,
        "rotations": metrics.rotations,
        "total": metrics.total,
        "values": _value_list(_planned(f, plan.stages), '["', '", "', '"]'),
        "verified": True,
    }

    def text() -> Iterable[str | Iterator[str]]:
        yield chain(["moves: "], _joined(",", plan.iter_moves()))
        yield f"twists: {metrics.twists}"
        yield f"rotations: {metrics.rotations}"
        yield f"total: {metrics.total}"
        yield _value_list(_planned(f, plan.stages), "values: ", " -> ", "")
        yield "verified: pass"

    return payload, text, 0


def cmd_construct(args: argparse.Namespace) -> Result:
    from .tangles import format_moves, parse_moves, tangle_number

    moves = parse_moves(args.moves)
    payload = {"moves": format_moves(moves), "tangle_number": str(tangle_number(moves))}

    def text() -> Iterable[str]:
        yield payload["tangle_number"]

    return payload, text, 0


def cmd_verify(args: argparse.Namespace) -> Result:
    from .rationals import parse_fraction
    from .tangles import _final, format_moves, parse_moves

    f = parse_fraction(args.fraction)
    moves = parse_moves(args.moves)
    start, final = str(f), _final(f, moves)
    payload = {
        "fraction": start,
        "moves": format_moves(moves),
        "values": _value_list(chain([[start]], (values for _, values in _replayed(f, moves))),
                              '["', '", "', '"]'),
        "final": str(final),
        "pass": final.is_zero,
    }

    def text() -> Iterable[str]:
        yield f"start: {start}"
        for chunk, values in _replayed(f, moves):
            yield "\n".join([f"{move.value} -> {value}" for move, value in zip(chunk, values)])
        yield f"final: {payload['final']}"
        yield f"result: {'pass' if final.is_zero else 'fail'}"

    return payload, text, 0 if final.is_zero else 1


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
        # The pieces are written while the digit limit is still lifted.
        pieces = _json_pieces(payload) if getattr(args, "json", False) else _text_pieces(text())
        for piece in pieces:
            print(piece, end="")
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
