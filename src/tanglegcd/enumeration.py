"""Every general Euclidean trace for a pair, and the minimality certificate.

A pair's traces form a binary tree of remainder-sign choices (forced
divisions have no branch).  :func:`enumerate_all` walks that whole tree and
lists every trace.  :func:`minimize` certifies which step total and division
count are actually minimal without walking every trace: the rest of a trace
depends only on its current pair, so the minima and the trace count follow a
recurrence over the distinct pairs of the tree, and its cost grows with the
partial quotients, not with x0.  Nothing here consults the named variants, so
both are independent oracles for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator

from .euclid import EuclidStep, EuclidTrace, Variant, check_pair

MAX_WITNESSES = 16


@dataclass(frozen=True)
class EnumerationResult:
    pair: tuple[int, int]
    traces_examined: int
    min_total_steps: int
    min_divisions: int
    witnesses_min_steps: tuple[EuclidTrace, ...]


def enumerate_all(x0: int, x1: int) -> Iterator[EuclidTrace]:
    """Yield every distinct valid trace for (x0, x1) exactly once.

    Depth-first, +1 branch before -1, so the regular trace comes first and
    the order is reproducible.
    """
    check_pair(x0, x1)
    return _generate(x0, x1, lambda a, b, quotient, remainder: True)


def _generate(
    x0: int, x1: int, enters: Callable[[int, int, int, int], bool]
) -> Iterator[EuclidTrace]:
    # Explicit stack: entries are (a, b, entering_step) and a None sentinel
    # that pops the shared path when a subtree is done.  Recursion would
    # overflow on staircase pairs such as (10000, 9999).  A step is built
    # only when `enters` accepts its (a, b, quotient, remainder).
    path: list[EuclidStep] = []
    stack: list[tuple[int, int, EuclidStep | None] | None] = [(x0, x1, None)]
    while stack:
        entry = stack.pop()
        if entry is None:
            path.pop()
            continue
        a, b, enter = entry
        if enter is not None:
            path.append(enter)
        q, r = divmod(a, b)
        if r == 0:
            yield EuclidTrace(tuple(path) + (EuclidStep(a, b, q, 1, 0),), Variant.CUSTOM)
            continue
        for quotient, epsilon, remainder in ((q + 1, -1, b - r), (q, 1, r)):
            if enters(a, b, quotient, remainder):
                stack.append(None)
                stack.append((b, remainder, EuclidStep(a, b, quotient, epsilon, remainder)))


def minimize(x0: int, x1: int) -> EnumerationResult:
    """Certify the minimal step total and division count over every trace.

    With q, r = divmod(a, b), the traces from (a, b) end there when r == 0,
    at q steps in 1 division.  Otherwise they go on from (b, r) after a +1
    remainder or from (b, b - r) after a -1 one, so per pair

        min total     = q + 1 + min(total(b, r), total(b, b - r) + 1)
        min divisions = 1 + min(divisions(b, r), divisions(b, b - r))
        trace count   = count(b, r) + count(b, b - r)

    and each distinct pair is solved once, however many traces pass it.  Any
    ordered pair is accepted: the number of distinct pairs grows with the
    partial quotients, not with x0, so (10000, 9999) walks 9,998 inner pairs
    while the 84-digit pair (F(401), F(400)) walks 794.

    Witness policy: the first MAX_WITNESSES traces attaining the minimal
    step total, in the depth-first order enumerate_all uses, rebuilt by
    taking only the steps from which the minimum stays reachable.
    """
    check_pair(x0, x1)
    # (min total, min divisions, trace count) of each inner pair; leaves
    # cost O(1) to recompute and are not stored.
    memo: dict[tuple[int, int], tuple[int, int, int]] = {}

    def solved(a: int, b: int) -> tuple[int, int, int] | None:
        q, r = divmod(a, b)
        return (q, 1, 1) if r == 0 else memo.get((a, b))

    # Post-order over an explicit stack of unsolved inner pairs; recursion
    # would overflow on staircase pairs such as (10000, 9999).
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

    def optimal(a: int, b: int, quotient: int, remainder: int) -> bool:
        return solved(a, b)[0] == quotient + 1 + solved(b, remainder)[0]

    return EnumerationResult(
        pair=(x0, x1),
        traces_examined=count,
        min_total_steps=total,
        min_divisions=divisions,
        witnesses_min_steps=tuple(islice(_generate(x0, x1, optimal), MAX_WITNESSES)),
    )
