"""The `untangle`, `construct` and `verify` handlers: tangle plans and move replays.

`cli` imports this module for these subcommands only, so no other cold call
compiles it.  All three run `tangles`, and with it `rationals` and `euclid`,
so the layers are imported here once.  `untangle` replays its plan by stages
(`tangles._stage_runs`), `verify` and `construct` the user's moves one by
one (`tangles._fold`), and values are rendered a chunk at a time.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, islice, tee
from types import SimpleNamespace

from .cli import _METHODS, Result
from .euclid import Variant
from .rationals import ExtendedRational, _value_strings, parse_fraction
from .tangles import (
    Move, Stage, _final, _fold, _stage_runs, format_moves, parse_moves, plan_metrics,
    plan_untangle, tangle_number,
)

# Values are rendered, and moves joined into one written piece, _CHUNK at a
# time, and a chunk holds at most about _CHUNK_BITS bits of values, so
# memory stays flat in the number of moves and in the size of the values.
_CHUNK = 8192
_CHUNK_BITS = 1 << 22


# Counted, not sized by characters: a move is at most two characters, so a
# count bounds a piece, and islice batches cost less than summing lengths.
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
    n, d = start.numerator, start.denominator
    moves = iter(moves)
    while chunk := list(islice(moves, _chunk_size(n, d))):
        numerators, denominators = [], []
        n, d = _fold(n, d, chunk, numerators, denominators)
        yield chunk, _value_strings(numerators, denominators)


def _planned(start: ExtendedRational, stages: tuple[Stage, ...]) -> Iterator[list[str]]:
    """str() of start and the values its plan reaches, by the stage kernel, a chunk at a time."""
    runs_n, runs_d = tee(_stage_runs(start, stages))
    numerators = chain.from_iterable(run[0] for run in runs_n)
    denominators = chain.from_iterable(run[1] for run in runs_d)
    # Twisting toward zero, a plan's values never outgrow its start.
    while chunk := list(islice(numerators, _chunk_size(start.numerator, start.denominator))):
        yield _value_strings(chunk, list(islice(denominators, len(chunk))))


# A listing of values' opening, separator and closing, by whether it is JSON.
_DELIMITERS = {True: ('["', '", "', '"]'), False: ("values: ", " -> ", "")}


def _value_list(chunks: Iterable, opening: str, separator: str, closing: str) -> Iterator[str]:
    """The values of the chunks, listed in pieces."""
    yield opening
    yield from _joined(separator, map(separator.join, chunks), 1)
    yield closing


def cmd_untangle(args: SimpleNamespace) -> Result:
    f = parse_fraction(args.fraction)
    plan = plan_untangle(f, Variant(_METHODS[args.method]))
    # The stage kernel's last pair first, in O(stages), so a failing plan writes nothing.
    for _, _, n, d in _stage_runs(f, plan.stages):
        pass
    if (n, d) != (0, 1):
        raise RuntimeError(f"internal error: plan for {f} replayed to {ExtendedRational(n, d)}")
    metrics = plan_metrics(plan)
    counts = {name: getattr(metrics, name) for name in metrics._fields}
    moves = _joined(",", plan.iter_moves())
    values = _value_list(_planned(f, plan.stages), *_DELIMITERS[args.json])
    if not args.json:
        return [chain(["moves: "], moves), *(f"{key}: {value}" for key, value in counts.items()),
                values, "verified: pass"], 0
    return {
        "fraction": str(f),
        "method": args.method,
        "moves": chain(['"'], moves, ['"']),
        **counts,
        "values": values,
        "verified": True,
    }, 0


def cmd_construct(args: SimpleNamespace) -> Result:
    moves = parse_moves(args.moves)
    number = str(tangle_number(moves))
    return ({"moves": format_moves(moves), "tangle_number": number} if args.json else [number]), 0


def cmd_verify(args: SimpleNamespace) -> Result:
    f = parse_fraction(args.fraction)
    moves = parse_moves(args.moves)
    start, final = str(f), _final(f, moves)
    code = 0 if final.is_zero else 1
    replayed = _replayed(f, moves)
    if not args.json:
        return chain(
            [f"start: {start}"],
            ("\n".join([f"{move.value} -> {value}" for move, value in zip(chunk, values)])
             for chunk, values in replayed),
            [f"final: {final}", f"result: {'pass' if final.is_zero else 'fail'}"],
        ), code
    return {
        "fraction": start,
        "moves": format_moves(moves),
        "values": _value_list(chain([[start]], (values for _, values in replayed)),
                              *_DELIMITERS[True]),
        "final": str(final),
        "pass": final.is_zero,
    }, code
