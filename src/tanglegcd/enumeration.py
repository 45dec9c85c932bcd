"""Every general Euclidean trace for a pair, and the minimality certificate.

A pair's traces form a binary tree of remainder-sign choices (forced
divisions have no branch).  :func:`enumerate_all` walks that whole tree and
lists every trace.  :func:`minimize` certifies which step total and division
count are actually minimal without walking every trace: the rest of a trace
depends only on its current pair, so the minima and the trace count follow a
recurrence, and the recurrence collapses each chain of quotient-1 steps
taken with a -1 remainder into a closed form, so its cost grows with the
number of divisions, not with the partial quotients or with x0.  Nothing
here consults the named variants, so both are independent oracles for them.

Two walkers build traces: `_generate` walks the whole tree for
`enumerate_all`, and `_witnesses` only the witnesses' subtree for
`minimize`, reading each branch off the solved chains, so it divides no
pair.  Each builds a leaf's trace from the division rows (a, b, q, eps, r)
on the path from the root, as the runners build theirs, so no walk builds a
step record: a trace builds its records on the first read of `.steps`, and
the euclid counters read its rows.  The CLI's listing needs no trace, only
its rows, and walks the tree in its own flat loop
(`_trace_commands._trace_rows`).
"""

from __future__ import annotations

from collections.abc import Iterator

from ._record import Record
from .euclid import Division, EuclidTrace, Variant, _trace, check_pair

MAX_WITNESSES = 16


class EnumerationResult(Record):
    __slots__ = _fields = (
        "pair", "traces_examined", "min_total_steps", "min_divisions", "witnesses_min_steps"
    )


def enumerate_all(x0: int, x1: int) -> Iterator[EuclidTrace]:
    """Yield every distinct valid trace for (x0, x1) exactly once.

    Depth-first, +1 branch before -1, so the regular trace comes first and
    the order is reproducible.
    """
    check_pair(x0, x1)
    return _generate(x0, x1)


def _generate(x0: int, x1: int) -> Iterator[EuclidTrace]:
    # Explicit stack: entries are (a, b, division) and a None sentinel that
    # pops the shared path when a subtree is done.  Recursion would overflow
    # on staircase pairs such as (10000, 9999).  At a pair (a, b) entered by
    # `division`, with q, r = divmod(a, b) and r > 0, the -1 child is pushed
    # first, so that the +1 child is walked first.  At r == 0 the walk
    # yields the trace of the divisions on the path from the root.  The root
    # is entered by no division.
    path: list[Division] = []
    stack: list[tuple[int, int, Division | None] | None] = [(x0, x1, None)]
    while stack:
        entry = stack.pop()
        if entry is None:
            path.pop()
            continue
        a, b, division = entry
        if division is not None:
            path.append(division)
        q, r = divmod(a, b)
        if r == 0:
            yield _trace((*path, (a, b, q, 1, 0)), Variant.CUSTOM)
            continue
        stack += None, (b, b - r, (a, b, q + 1, -1, b - r)), None, (b, r, (a, b, q, 1, r))


# Values of a state: (min total, min divisions, trace count).
Values = tuple[int, int, int]
# A chain's values, flat: those of its state X, then those of its base W.
Chain = tuple[int, int, int, int, int, int]

# Chain (g, 0), g the last nonzero remainder: X is state (g, 0), where the
# trace has ended, and the base (2g, g) ends at once with either sign.
_LAST: Chain = (0, 1, 1, 3, 2, 2)


def _closed(k: int, s: int, chain: Chain) -> Values:
    # State (k*r + s, r) on the chain of (r, s); n is the number of
    # quotient-1 divisions down to the base.  The chain's total never beats
    # 1 + k + X.total: that is the theorem this certifies (the regular run's
    # total is minimal), so it is computed here, not assumed.
    n = k - (1 if s else 2)
    total, base_total = 1 + k + chain[0], 3 * n + chain[3]
    divisions, base_divisions = 1 + chain[1], n + chain[4]
    return (total if total <= base_total else base_total,
            divisions if divisions <= base_divisions else base_divisions,
            n * chain[2] + chain[5])


def minimize(x0: int, x1: int) -> EnumerationResult:
    """Certify the minimal step total and division count over every trace.

    With q, r = divmod(a, b), pair (a, b) has the values (q + T, D, C),
    where T, D and C, the min total, min divisions and trace count of what
    follows the first division's q subtractions, are the values of the
    state (b, r).  State (b, 0) is (0, 1, 1): the trace ends.  Otherwise a
    +1 remainder goes on to pair (b, r) and a -1 remainder, at one more
    subtraction, to pair (b, b - r), so

        state(b, r) = (1 + min(total(b, r), total(b, b - r) + 1),
                       1 + min(divisions(b, r), divisions(b, b - r)),
                       count(b, r) + count(b, b - r)).

    Write b = k*r + s with 0 <= s < r.  Above its chain's base state, which
    is (r + s, r) when s > 0 and (2r, r) when s = 0, pair (b, b - r) divides
    with quotient 1 and remainder r into the state ((k - 1)*r + s, r).  So
    the states (k*r + s, r) for every k form one chain of quotient-1, -1
    steps: the singularization that turns a regular partial quotient into a
    nearest-integer one.  With n = k - m0 links above the base (m0 = 1 if
    s > 0, else 2), X the values of state (r, s) and W those of the base,
    the chain unrolls in closed form:

        total = min(1 + k + X.total, 3n + W.total)
        divisions = min(1 + X.divisions, n + W.divisions)
        count = n * X.count + W.count.

    Every state of a chain is read from the chain's (X, W).  A trace only
    reaches the chains (r, s) of consecutive regular remainders after x1,
    and one table holds them by position, solved bottom up, each from the
    one below it, from chain (g, 0), g the last nonzero remainder, whose X
    is the end state.  So the certificate costs O(divisions) big-integer
    operations and holds O(divisions) entries: (10**5, 10**5 - 1) and
    (10**100, 10**100 - 1) are a single chain each.

    Witness policy: the first MAX_WITNESSES traces attaining the minimal
    step total, in the depth-first order enumerate_all uses, rebuilt by
    taking only the steps from which the minimum stays reachable.  The walk
    carries each pair's place on the chains, so it reads both branches of a
    pair in O(1), with no division and no lookup by value.
    """
    check_pair(x0, x1)
    # The regular division of (x0, x1): remainders x0, x1, ..., g, 0, and
    # quotients[i] = remainders[i] // remainders[i + 1], with a 0 for g,
    # which is read only where a child ends the trace.
    remainders, quotients = [x0, x1], []
    a, b = x0, x1
    while b:
        q, r = divmod(a, b)
        remainders.append(r)
        quotients.append(q)
        a, b = b, r
    quotients.append(0)
    # chains[i] is the chain of (r, s) = (remainders[i], remainders[i + 1])
    # for i >= 1; chains[0] is never read.
    # Its X, state (r, s) with r = k*s + t, lies on the chain below; its base
    # (r + s, r) goes by +1 to pair (r + s, r), quotient 1 into state (r, s),
    # and by -1 to pair (r + s, s), quotient k + 1 into state (s, t), the X
    # of the chain below.
    chains = [_LAST] * (len(remainders) - 1)
    below = _LAST
    for i in range(len(remainders) - 3, 0, -1):
        k = quotients[i]
        total, divisions, count = _closed(k, remainders[i + 2], below)
        minus = k + 1 + below[0]
        below = chains[i] = (
            total, divisions, count,
            2 + (total if total <= minus else minus),
            1 + (divisions if divisions <= below[1] else below[1]),
            count + below[2],
        )

    # Pair (x0, x1): q subtractions, then state (x1, r), the X of chain 1.
    total, divisions, count = chains[1][:3]
    return EnumerationResult(
        pair=(x0, x1),
        traces_examined=count,
        min_total_steps=quotients[0] + total,
        min_divisions=divisions,
        witnesses_min_steps=_witnesses(remainders, quotients, chains),
    )


def _witnesses(
    remainders: list[int], quotients: list[int], chains: list[Chain]
) -> tuple[EuclidTrace, ...]:
    # The first MAX_WITNESSES step-minimal traces, depth-first, +1 first.  A
    # pair (a, b) is entered with its quotient q, the position i of its
    # remainder r = remainders[i] and the link k of b = k*r + s on chain i,
    # s = remainders[i + 1], so the walk divides no pair.  Its +1 child
    # (b, r) goes on to X in k subtractions; its -1 child goes one link
    # lower, or at the base to pair (r + s, s) if k = 1 and to the leaf
    # (2r, r) if k = 2, s = 0.  A pair with one optimal child enters it at
    # once; at a tie the -1 child waits on the stack as (division, q, i, k,
    # depth), depth the length of the shared path above it.
    a, b, q, i, k = remainders[0], remainders[1], quotients[0], 2, quotients[1]
    path: list[Division] = []
    stack: list[tuple[Division, int, int, int, int]] = []
    witnesses: list[EuclidTrace] = []
    while True:
        r = remainders[i]
        if r:
            s = remainders[i + 1]
            chain = chains[i]
            plus = k + chain[0]
            if k == 1:
                minus = quotients[i] + 2 + chains[i + 1][0]
            elif k == 2 and not s:
                minus = 3
            else:
                minus = 2 + _closed(k - 1, s, chain)[0]
            if minus <= plus:
                if k == 1:
                    child = (a, b, q + 1, -1, s), quotients[i] + 1, i + 2, quotients[i + 1]
                elif k == 2 and not s:
                    child = (a, b, q + 1, -1, r), 2, i + 1, 0
                else:
                    child = (a, b, q + 1, -1, b - r), 1, i, k - 1
                if minus < plus:
                    division, q, i, k = child
                    path.append(division)
                    a, b = b, division[4]
                    continue
                stack.append((*child, len(path)))
            path.append((a, b, q, 1, r))
            a, b, q, i, k = b, r, k, i + 1, quotients[i]
            continue
        witnesses.append(_trace((*path, (a, b, q, 1, 0)), Variant.CUSTOM))
        if len(witnesses) == MAX_WITNESSES or not stack:
            return tuple(witnesses)
        division, q, i, k, depth = stack.pop()
        del path[depth:]
        path.append(division)
        a, b = division[1], division[4]
