"""The `gcd`, `steps` and `enumerate` handlers: Euclid traces, step counts and trace listings.

`cli` imports this module for these subcommands only, so no other cold call
compiles it.  All three run `euclid`, imported here once; `enumerate` alone
imports `enumeration`, and `gcd`'s rows alone `_shadows`.  `gcd` renders
and counts each division as euclid's division loop yields it, printing each
integer once: past SHADOW_BITS bits from its exact decimal shadow (see
`_shadows`), and below it by one str().  `steps` counts every method's row
without a trace, from `euclid._counts`' two passes, and writes its JSON
rows without `json`; `enumerate` hands its row renderer to `enumeration`'s
listing walk (`_trace_rows`), which calls it once per trace.  Rows are
joined into written pieces of about _PIECE characters, so memory stays flat
in the number of rows.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, count
from types import SimpleNamespace

from .cli import _JSON_BOOLS, _METHODS, Result, _json_text, _shown
from .euclid import CHOOSERS, Variant, _counts, _divisions

# Sized by characters, not rows: a trace row can run from a few characters
# to tens of KB, so a fixed number of rows could make a piece of several MB.
_PIECE = 1 << 19


def _joined_rows(separator: str, rows: Iterable[str]) -> Iterator[str]:
    """separator.join(rows), in pieces of about _PIECE characters: one join per piece."""
    batch, length = [], 0
    for row in rows:
        batch.append(row)
        length += len(row)
        if length >= _PIECE:
            yield separator.join(batch)
            # The next piece starts with the separator.
            batch, length = [""], 0
    if batch:
        yield separator.join(batch)


def _ordered_pair(a: int, b: int) -> tuple[int, int]:
    # gcd is symmetric; accept misordered input with a notice instead of erroring
    if a < b:
        print(f"notice: swapped inputs to ({_shown(b)}, {_shown(a)})", file=sys.stderr)
        return b, a
    return a, b


def _step_rows(a: int, b: int, divisions: Iterable[tuple[int, int, int, int, int]],
               row: Callable[[str, str, int, int, str], str], counts: dict) -> Iterator[str]:
    """row(a, b, q, eps, r) for each (a, b, q, eps, r) of the divisions from (a, b).

    A division's a and b are the division before's b and r, so each integer
    is printed once and its digits slide along the window of rows.  If the
    first divisor has more than SHADOW_BITS bits, every integer is printed
    from an exact decimal shadow, r = eps*(a - q*b) from the shadows of a
    and b: one linear multiply, subtract and str() per row, where str() of
    an int is quadratic in the digit count.  Otherwise each is printed by
    one str().  After the last row, `counts` holds the chain's gcd, its
    last divisor, and its step counts.
    """
    from ._shadows import shadow_context

    context = shadow_context(b.bit_length())
    if context is not None:
        multiply, subtract = context.multiply, context.subtract
        a, b = context.create_decimal(a), context.create_decimal(b)
    a_text, b_text, subtractions = str(a), str(b), 0
    for done, (_, divisor, q, eps, r) in enumerate(divisions, 1):
        subtractions += q
        if context is not None:
            qb = multiply(b, q)
            r = subtract(a, qb) if eps > 0 else subtract(qb, a)
            a, b = b, r
        r = str(r)
        yield row(a_text, b_text, q, eps, r)
        a_text, b_text = b_text, r
    counts.update(gcd=divisor, divisions=done, subtractions=subtractions, swaps=done - 1,
                  total_steps=subtractions + done - 1)


def _json_step(a: str, b: str, q: int, eps: int, r: str) -> str:
    return f'{{"a": {a}, "b": {b}, "q": {q}, "eps": {eps}, "r": {r}}}'


def _text_step(a: str, b: str, q: int, eps: int, r: str) -> str:
    return f"{a} = {b}({q}){'+' if eps > 0 else '-'}{r}"


def cmd_gcd(args: SimpleNamespace) -> Result:
    a, b = _ordered_pair(args.a, args.b)
    variant = Variant(_METHODS[args.method])
    counts = dict.fromkeys(("gcd", "divisions", "subtractions", "swaps", "total_steps"), 0)
    separator, step = (", ", _json_step) if args.json else ("\n", _text_step)
    rows = _joined_rows(separator, _step_rows(a, b, _divisions(a, b, CHOOSERS[variant]), step,
                                              counts))
    if not args.json:
        # The count lines read `counts` only once the rows are written.
        return chain([rows, ""], (f"{key.replace('_', ' ')}: {value}"
                                  for key, value in counts.items())), 0
    return {
        "x0": a,
        "x1": b,
        "method": args.method,
        # trace_to_dict(trace), rendered in pieces; a Variant's value is an
        # identifier, so it is its own JSON string body
        "trace": chain([f'{{"variant": "{variant.value}", "steps": ['], rows, ["]}"]),
        # Generators, so each is read only when written, after the trace.
        **{key: (str(counts[k]) for k in [key]) for key in counts},
    }, 0


def cmd_steps(args: SimpleNamespace) -> Result:
    a, b = _ordered_pair(args.a, args.b)
    counts, rows = _counts(a, b), []
    for name, value in _METHODS.items():
        divisions, subtractions = counts[Variant(value)]
        rows.append({"method": name, "divisions": divisions, "subtractions": subtractions,
                     "swaps": divisions - 1, "total": subtractions + divisions - 1})
    if not args.json:
        columns = "{:<10}{:>10}{:>14}{:>7}{:>7}".format
        # The header is the row keys.
        return [columns(*rows[0]), *(columns(*row.values()) for row in rows)], 0
    # json.dumps(rows) from _json_text's scalar cases, so `json` stays
    # unloaded; every key is a plain identifier.  The text is one piece.
    fields = [", ".join(f'"{key}": {_json_text(value)}' for key, value in row.items())
              for row in rows]
    return {"x0": a, "x1": b, "rows": iter(["[{" + "}, {".join(fields) + "}]"])}, 0


def cmd_enumerate(args: SimpleNamespace) -> Result:
    from .enumeration import _trace_rows, minimize

    a, b = _ordered_pair(args.a, args.b)
    if a > args.limit:
        raise ValueError(
            f"x0 = {_shown(a)} exceeds the enumeration bound {args.limit}; "
            "raise the bound to proceed (see --limit)"
        )
    certificate = minimize(a, b)
    least_total, least_divisions = certificate.min_total_steps, certificate.min_divisions

    if args.json:
        def json_row(quotients: str, epsilons: str, divisions: int, total: int) -> str:
            return (
                f'{{"quotients": [{quotients}], "epsilons": [{epsilons}], '
                f'"divisions": {divisions}, "total": {total}, '
                f'"min_steps": {_JSON_BOOLS[total == least_total]}, '
                f'"min_divisions": {_JSON_BOOLS[divisions == least_divisions]}}}'
            )

        rows = _trace_rows(a, b, ", ", "1", "-1", json_row)
        return {
            "x0": a,
            "x1": b,
            "traces": chain(["["], _joined_rows(", ", rows), ["]"]),
            "traces_examined": certificate.traces_examined,
            "min_total_steps": least_total,
            "min_divisions": least_divisions,
        }, 0
    numbers = count(1)

    def text_row(quotients: str, epsilons: str, divisions: int, total: int) -> str:
        flags = " *min-steps" if total == least_total else ""
        flags += " *min-divisions" if divisions == least_divisions else ""
        return (f"#{next(numbers)} quotients=[{quotients}] epsilons=[{epsilons}] "
                f"total={total}{flags}")

    return [
        _joined_rows("\n", _trace_rows(a, b, ",", "+", "-", text_row)),
        f"summary: {certificate.traces_examined} traces, min total steps {least_total}, "
        f"min divisions {least_divisions}",
    ], 0
