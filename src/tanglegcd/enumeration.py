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

One walker, `_generate`, serves the whole tree (`enumerate_all`) and the
witnesses' subtree (`minimize`): the caller's `branches` function gives
the children of each pair, and each leaf is built into a trace from the
division rows (a, b, q, eps, r) on the path from the root, as the runners
build theirs.  So the walk builds no step record: a trace builds its
records on the first read of `.steps`, and the euclid counters read its
rows.  The CLI's listing needs no trace, only its rows, and walks the tree
in its own flat loop (`_trace_commands._trace_rows`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import islice

from ._record import Record
from .euclid import Division, EuclidTrace, Variant, _trace, check_pair

MAX_WITNESSES = 16


class EnumerationResult(Record):
    __slots__ = _fields = (
        "pair", "traces_examined", "min_total_steps", "min_divisions", "witnesses_min_steps"
    )


# The children of a pair as (a, b, division): the next pair and the
# division that enters it.
Children = Iterable[tuple[int, int, Division]]


def _every_branch(a: int, b: int, q: int, r: int) -> Children:
    return (b, b - r, (a, b, q + 1, -1, b - r)), (b, r, (a, b, q, 1, r))


def enumerate_all(x0: int, x1: int) -> Iterator[EuclidTrace]:
    """Yield every distinct valid trace for (x0, x1) exactly once.

    Depth-first, +1 branch before -1, so the regular trace comes first and
    the order is reproducible.
    """
    check_pair(x0, x1)
    return _generate(x0, x1, _every_branch)


def _generate(
    x0: int, x1: int, branches: Callable[[int, int, int, int], Children]
) -> Iterator[EuclidTrace]:
    # Explicit stack: entries are (a, b, division) and a None sentinel that
    # pops the shared path when a subtree is done.  Recursion would overflow
    # on staircase pairs such as (10000, 9999).  At a pair (a, b) entered by
    # `division`, with q, r = divmod(a, b) and r > 0, `branches(a, b, q, r)`
    # gives the children, the -1 branch first, so that the +1 branch is
    # walked first; they are pushed as given, so a node allocates nothing
    # here.  At r == 0 the walk yields the trace of the divisions on the
    # path from the root.  The root is entered by no division.
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
        for child in branches(a, b, q, r):
            stack.append(None)
            stack.append(child)


# Values of a state: (min total, min divisions, trace count).
Values = tuple[int, int, int]

# State (r, 0): the trace has ended.
_END: Values = (0, 1, 1)
# Base state (2r, r): either sign leaves remainder r, and (2r, r) ends at once.
_EXACT_BASE: Values = (3, 2, 2)


def _closed(k: int, s: int, x: Values, w: Values) -> Values:
    # State (k*r + s, r), from the values x of (r, s) and w of the chain's
    # base state; n is the number of quotient-1 divisions down to the base.
    # The chain's total never beats 1 + k + x[0]: that is the theorem this
    # certifies (the regular run's total is minimal), so it is computed
    # here, not assumed.
    n = k - (1 if s else 2)
    return (min(1 + k + x[0], 3 * n + w[0]), min(1 + x[1], n + w[1]), n * x[2] + w[2])


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
    and one table holds them, solved bottom up, each from the one below it,
    from chain (g, 0), g the last nonzero remainder, whose X is the end
    state.  So the certificate costs O(divisions) big-integer operations
    and holds O(divisions) entries: (10**5, 10**5 - 1) and
    (10**100, 10**100 - 1) are a single chain each.

    Witness policy: the first MAX_WITNESSES traces attaining the minimal
    step total, in the depth-first order enumerate_all uses, rebuilt by
    taking only the steps from which the minimum stays reachable.  The walk
    reads both branches of a pair off the solved chains in O(1) per pair.
    """
    check_pair(x0, x1)
    # The regular remainders of (x1, x0 % x1), bottom first: 0, g, ..., x1.
    remainders = [x1, x0 % x1]
    while remainders[-1]:
        remainders.append(remainders[-2] % remainders[-1])
    remainders.reverse()
    # (X, W) of the chain of states (k*r + s, r), keyed by (r, s).
    chains: dict[tuple[int, int], tuple[Values, Values]] = {}
    below = chains[remainders[1], 0] = (_END, _EXACT_BASE)
    for t, s, r in zip(remainders, remainders[1:], remainders[2:-1]):
        k = r // s
        x = _closed(k, t, *below)
        # Base state (r + s, r): +1 gives pair (r + s, r), quotient 1 into
        # state (r, s); -1 gives pair (r + s, s), quotient k + 1 into state
        # (s, t), the X of the chain below.
        y = below[0]
        w = (2 + min(x[0], k + 1 + y[0]), 1 + min(x[1], y[1]), x[2] + y[2])
        below = chains[r, s] = (x, w)

    # Pair (x0, x1): q subtractions, then state (x1, r), on chain (r, x1 % r),
    # the last solved.
    q, r = divmod(x0, x1)
    total, divisions, count = _closed(*divmod(x1, r), *below) if r else _END
    total += q
    memo: dict[tuple[int, int], list] = {}  # the branches of each entered pair

    def optimal(a: int, b: int, q: int, r: int) -> Children:
        # The branches from which the minimum of pair (a, b) stays reachable,
        # read off chain (r, s), b = k*r + s, as in state (b, r): +1 goes on
        # to X in k subtractions, -1 one link lower, or at the base to pair
        # (r + s, s) if k = 1 and to the leaf (2r, r) if k = 2, s = 0.
        if (branches := memo.get((a, b))) is not None:
            return branches
        k, s = divmod(b, r)
        x, w = chains[r, s]
        plus = k + x[0]
        if k == 1:
            k, t = divmod(r, s)
            minus = k + 2 + chains[s, t][0][0]
        else:
            minus = 3 if k == 2 and not s else 2 + _closed(k - 1, s, x, w)[0]
        branches = memo[a, b] = []
        if minus <= plus:
            branches.append((b, b - r, (a, b, q + 1, -1, b - r)))
        if plus <= minus:
            branches.append((b, r, (a, b, q, 1, r)))
        return branches

    return EnumerationResult(
        pair=(x0, x1),
        traces_examined=count,
        min_total_steps=total,
        min_divisions=divisions,
        witnesses_min_steps=tuple(islice(_generate(x0, x1, optimal), MAX_WITNESSES)),
    )
