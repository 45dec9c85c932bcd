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

`minimize` reads the pair's regular partial quotients from
`euclid._regular`, as `euclid._counts` does; no remainder of the chain is
kept, and the witness walk rebuilds each one its rows hold from the pair it
divides.  The closed form is written once, in `minimize`'s solve loop.  Two
walkers build traces: `_generate` walks the whole tree for `enumerate_all`,
and `_witnesses` only the witnesses' subtree for `minimize`.  By a threshold
rule on each chain (see `minimize`), the +1 branch of a pair is always
optimal and its -1 branch only at a tie that one comparison of two solved
totals reads off, so that walk divides no pair and evaluates no closed form.
Each builds a leaf's trace from the division rows (a, b, q, eps, r) on the
path from the root through `euclid._trace`, as the runners build theirs, so
only `euclid` writes a trace's slots and no walk builds a step record: a
trace builds its records on each read of `.steps`, and the euclid counters
read its rows.  The CLI's listing needs no trace, only its rows, and walks
the tree in its own flat loop (`_trace_commands._trace_rows`).
"""

from __future__ import annotations

from collections.abc import Iterator

from ._record import Record
from .euclid import _CUSTOM, Division, EuclidTrace, _regular, _trace, check_pair

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
            yield _trace((*path, (a, b, q, 1, 0)), _CUSTOM)
            continue
        stack += None, (b, b - r, (a, b, q + 1, -1, b - r)), None, (b, r, (a, b, q, 1, r))


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
    and they are solved bottom up, each from the one below it, from chain
    (g, 0), g the last nonzero remainder, whose X is the end state, (0, 1,
    1), and whose base (2g, g) ends at once with either sign, (3, 2, 2).
    The closed form is written once, in that loop; nothing evaluates it at
    a single link.  So the certificate costs O(divisions) big-integer
    operations and holds O(divisions) entries: (10**5, 10**5 - 1) and
    (10**100, 10**100 - 1) are a single chain each.

    Witness policy: the first MAX_WITNESSES traces attaining the minimal
    step total, in the depth-first order enumerate_all uses, rebuilt by
    taking only the steps from which the minimum stays reachable.  At pair
    (a, b) with b = k*r + s on chain (r, s), the +1 child (b, r) costs
    plus = k + X.total.  For k >= 2 the -1 child (b, b - r) divides with
    quotient 1 into the state one link lower, so by the closed form at
    k - 1 it costs

        minus = 2 + min(k + X.total, 3(k - 1 - m0) + W.total)
              = min(k + 2 + X.total, 3k - 1 - 3*m0 + W.total).

    The first term is plus + 2, so the -1 child is strictly better iff
    2k < theta and tied iff 2k = theta, where the threshold theta =
    X.total - W.total + 1 + 3*m0 depends on the chain alone.  When s > 0,
    m0 = 1, and the base's two branches give W.total = 2 + min(X.total, m),
    with m = 1 + k' + (X of the chain below).total for r = k'*s + t.  X's
    closed form is a min with that same m as its first term, so X.total <=
    m, W.total = 2 + X.total and theta = 2 on every such chain: 2k > theta
    at every k >= 2.  On the last chain (g, 0) no -1 child is
    optimal either: at k = 2 it is the leaf (2g, g), at 3 against plus = 2,
    and at k >= 3 it costs min(2, 2k - 4) more than plus.  At k = 1 the -1
    child leaves the chain for pair (r + s, s), at m + 1 against
    plus = 1 + X.total, so it ties iff X.total = m and is worse otherwise.
    So the walk takes every +1 child, and a -1 child only at k = 1 when the
    two solved integers X.total and m are equal, which the theorem says they
    always are: a witness takes a -1 remainder only at a pair where least
    absolute remainders take one (2r > b).  It reads both branches of a pair
    in O(1), with no division, no lookup by value and no closed form at a
    link.
    """
    check_pair(x0, x1)
    quotients = _regular(x0, x1)
    # With x0, x1, ..., g, 0 the regular chain's remainders, none of them
    # kept, chain i is that of (r, s), the remainders at positions i and
    # i + 1, for i >= 1, and quotients[i] = r // s.  Its X, state (r, s)
    # with r = k*s + t, lies on the chain below at link k, n = k - m0 links
    # above that chain's base; m0 = 2 only on the last chain, where t = 0.
    # Its base (r + s, r) goes by +1 to pair (r + s, r), quotient 1 into
    # state (r, s), and by -1 to pair (r + s, s), quotient k + 1 into state
    # (s, t), the X of the chain below.  The x_ and w_ names hold the values
    # of X and W of the chain below, starting from the last chain (g, 0),
    # until they are the new chain's.  totals[i] keeps chain i's X.total for
    # the walk: 0 for chain (g, 0), the last entry; totals[0] is never read.
    # X.total = min(m, 3n + W.total), m = 1 + k + (X of the chain
    # below).total being the regular side.  3n + W.total never beats m:
    # that is the theorem this certifies (the regular run's total is
    # minimal), so it is computed here, not assumed.
    totals = [0] * (len(quotients) + 1)
    x_total, x_divisions, x_count, w_total, w_divisions, w_count = 0, 1, 1, 3, 2, 2
    m0 = 2
    for i in range(len(quotients) - 1, 0, -1):
        k = quotients[i]
        n = k - m0
        m0 = 1
        m = 1 + k + x_total
        total = 3 * n + w_total
        if m < total:
            total = m
        divisions = n + w_divisions
        if 1 + x_divisions < divisions:
            divisions = 1 + x_divisions
        count = n * x_count + w_count
        # The base's branches cost 1 + X.total and 1 + m, and X.total <= m.
        w_total = 2 + total
        w_divisions = 1 + (divisions if divisions <= x_divisions else x_divisions)
        w_count = count + x_count
        x_total = totals[i] = total
        x_divisions, x_count = divisions, count

    # Pair (x0, x1): q subtractions, then state (x1, r), the X of chain 1,
    # the last one solved (or of chain (g, 0), if x1 divides x0).
    return EnumerationResult(
        (x0, x1), x_count, quotients[0] + x_total, x_divisions,
        _witnesses(x0, x1, quotients, totals),
    )


def _witnesses(
    x0: int, x1: int, quotients: list[int], totals: list[int]
) -> tuple[EuclidTrace, ...]:
    # The first MAX_WITNESSES step-minimal traces, depth-first, +1 first.  A
    # pair (a, b) is entered with its quotient q and the position i of its
    # remainder r in the regular chain, and rebuilds r = a - q*b, so the
    # walk divides no pair.  With b = k*r + s on chain i, k =
    # quotients[i - 1], its +1 child (b, r) is always optimal (see
    # `minimize`); its -1 child only at a chain's base (k = 1), where the
    # child is pair (r + s, s), s = b - r, and only on a tie, read off the
    # solved totals.  The walk enters the +1 child at once; a tied -1 child
    # waits on `ties` as (i, depth), depth the length of the path above its
    # parent, whose +1 row path[depth] gives back (a, b, q, r).  Its
    # remainder s is built when it is popped, not when it is pushed: a
    # Fibonacci chain ties at every division, and at most MAX_WITNESSES - 1
    # ties are popped.
    a, b, q, i = x0, x1, quotients[0], 2
    path: list[Division] = []
    ties: list[tuple[int, int]] = []
    witnesses: list[EuclidTrace] = []
    while True:
        r = a - q * b
        if r:
            k = quotients[i - 1]
            if k == 1 and totals[i] == quotients[i] + 1 + totals[i + 1]:
                ties.append((i, len(path)))
            path.append((a, b, q, 1, r))
            a, b, q, i = b, r, k, i + 1
            continue
        witnesses.append(_trace((*path, (a, b, q, 1, 0)), _CUSTOM))
        if len(witnesses) == MAX_WITNESSES or not ties:
            return tuple(witnesses)
        i, depth = ties.pop()
        a, b, q, _, r = path[depth]
        s = b - r
        path[depth:] = [(a, b, q + 1, -1, s)]
        a, b, q, i = b, s, quotients[i] + 1, i + 2
