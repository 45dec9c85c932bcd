"""Every general Euclidean trace for a pair, and the minimality certificate.

A pair's traces form a binary tree of remainder-sign choices (forced
divisions have no branch).  :func:`enumerate_all` walks that whole tree and
lists every trace.  :func:`minimize` certifies which step total and division
count are actually minimal without walking every trace: the rest of a trace
depends only on its current pair, so the minima follow a recurrence, and the
recurrence collapses each chain of quotient-1 steps taken with a -1
remainder into a closed form, so its cost grows with the number of
divisions, not with the partial quotients or with x0.  The trace count needs
no recurrence: (x0, x1) has x1/gcd(x0, x1) traces.  Nothing here consults
the named variants, so both are independent oracles for them.

`minimize` reads the pair's regular partial quotients from
`euclid._regular`, as `euclid._counts` does; no remainder of the chain is
kept, and the witness walk rebuilds each one its rows hold from the pair it
divides.  The closed form is written once, in `minimize`'s solve loop.

Every walk of the trace tree lives here, depth-first with the +1 branch
before the -1, and none recurses: staircase pairs such as (10000, 9999) are
deeper than the recursion limit.  The two walks that build traces keep one
path of division rows (a, b, q, eps, r) from the root.  They enter a pair's
+1 child at once, park its -1 child on a pending stack with the depth of the
path above it, and, at a leaf, pop the latest parked child, truncate the
path to that depth and enter it.  `_generate` walks the whole tree for
`enumerate_all`, and `_witnesses` only the witnesses' subtree for
`minimize`: the +1 branch of a pair is always optimal and its -1 branch only
at a chain's base, where it always ties (see `minimize`), so that walk
divides no pair and evaluates no closed form.  Each builds a leaf's trace
from its path through `euclid._trace`, as the runners build theirs, so only
`euclid` writes a trace's slots and no walk builds a step record: a trace
builds its records on each read of `.steps`, and the euclid counters read
its rows.  The CLI's `enumerate` listing needs no trace, only each trace's
row, and `_trace_rows` walks the whole tree for it with rendered prefixes in
place of a path.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from math import gcd

from ._record import Record
from .euclid import _CUSTOM, Division, EuclidTrace, _regular, _trace, check_pair

MAX_WITNESSES = 16


class EnumerationResult(Record):
    """The certificate `minimize` returns for a pair.

    `pair` is (x0, x1) and `traces_examined` the number of its traces;
    `min_total_steps` and `min_divisions` are the minimal step total and
    division count over them; `witnesses_min_steps` holds the first
    MAX_WITNESSES step-minimal traces in `enumerate_all`'s order.
    """

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
    # At a pair (a, b), q, r = divmod(a, b), with r > 0 the walk parks the -1
    # row (a, b, q + 1, -1, b - r) as (depth, row), depth the length of the
    # path above it, and enters the +1 child (b, r).  At r == 0 it yields the
    # trace of the path and its last division, then pops the latest parked
    # row, puts it in place of the path from its depth down, and enters the
    # pair it divides into, (b, b - r).
    a, b, path, pending = x0, x1, [], []
    while True:
        q, r = divmod(a, b)
        if r:
            pending.append((len(path), (a, b, q + 1, -1, b - r)))
            path.append((a, b, q, 1, r))
            a, b = b, r
            continue
        yield _trace((*path, (a, b, q, 1, 0)), _CUSTOM)
        if not pending:
            return
        depth, row = pending.pop()
        path[depth:] = [row]
        _, a, _, _, b = row


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


def minimize(x0: int, x1: int) -> EnumerationResult:
    """Certify the minimal step total and division count over every trace.

    With q, r = divmod(a, b), pair (a, b) has the values (q + T, D), where
    T and D, the min total and min divisions of what follows the first
    division's q subtractions, are the values of the state (b, r).  State
    (b, 0) is (0, 1): the trace ends.  Otherwise a +1 remainder goes on to
    pair (b, r) and a -1 remainder, at one more subtraction, to pair
    (b, b - r), so

        state(b, r) = (1 + min(total(b, r), total(b, b - r) + 1),
                       1 + min(divisions(b, r), divisions(b, b - r))).

    The trace count needs no recurrence: pair (a, b) has b/g traces, g =
    gcd(a, b).  By induction on the division count: at r = 0, b = g and the
    trace ends; otherwise (b, r) and (b, b - r), whose gcd is g too, have
    r/g and (b - r)/g traces, which add up to b/g.

    Write b = k*r + s with 0 <= s < r.  Pair (b, b - r) divides with
    quotient 1 and remainder r into the state ((k - 1)*r + s, r), except
    where s = 0 and k = 2.  So the states (k*r + s, r) for every k >= 1
    form one chain of quotient-1, -1 steps above its base, the state (r + s,
    r) at k = 1: the singularization that turns a regular partial quotient
    into a nearest-integer one.  With n = k - 1 links above the base, X the
    values of state (r, s) and W those of the base, the chain unrolls in
    closed form:

        total = min(1 + k + X.total, 3n + W.total)
        divisions = min(1 + X.divisions, n + W.divisions).

    Every state of a chain is read from the chain's (X, W).  A trace only
    reaches the chains (r, s) of consecutive regular remainders after x1,
    and they are solved bottom up, each from the one below it, from chain
    (g, 0), g the last nonzero remainder.  That last chain has no state
    (g, g): its X and its base both take the end state's values, (0, 1),
    and the closed form at k = 2 then gives (3, 2), the values of (2g, g),
    which ends at once with either sign; from there on each link is a
    quotient-1 step.  The closed form is written once, in that loop;
    nothing evaluates it at a single link.  So the certificate costs
    O(divisions) big-integer operations and holds O(divisions) entries:
    (10**5, 10**5 - 1) and (10**100, 10**100 - 1) are a single chain each.

    Lemma: every chain's base ties.  That is, each chain's X, the state at
    link k of the chain below, takes its regular side: m = 1 + k + X'.total
    is at most 3n + W'.total, X' and W' the values of the chain below, so
    X.total = m.  Proof: on a chain (r, s) with s > 0, the base (r + s, r)
    goes by +1 to pair (r + s, r), quotient 1 into state (r, s), and by -1
    to pair (r + s, s), quotient k' + 1 for r = k'*s + t into state (s, t),
    so W.total = 2 + min(X.total, m) with m the regular side of X.  X.total
    <= m, so W.total = 2 + X.total, and at any link k of the chain 3n +
    W.total - (1 + k + X.total) = 2k - 2 >= 0.  On the last chain W.total =
    X.total = 0 and it is 2k - 4, where the quotient above g is at least 2.
    That is the theorem this certifies, the regular run's total is minimal.
    The solve loop keeps no record of the tie and still compares both sides
    of every chain, so the minimal total is computed here, not assumed.

    Witness policy: the first MAX_WITNESSES traces attaining the minimal
    step total, in the depth-first order enumerate_all uses, rebuilt by
    taking only the steps from which the minimum stays reachable.  At pair
    (a, b) with b = k*r + s on chain (r, s), the +1 child (b, r) costs
    plus = k + X.total.  For k >= 2, but for s = 0 and k = 2, the -1 child
    (b, b - r) divides with quotient 1 into the state one link lower, so by
    the closed form at k - 1 it costs

        minus = 2 + min(k + X.total, 3(k - 2) + W.total)
              = plus + min(2, 2k - 4 + W.total - X.total),

    2 more than plus when W.total = 2 + X.total.  On the last chain it is 2
    more at k >= 3, and at k = 2 it is pair (2g, g) at one more subtraction.
    At k = 1 the -1 child leaves the chain for pair (r + s, s), at m + 1
    against plus = 1 + X.total, and it ties, since X.total = m by the
    lemma.  So the walk takes every +1 child, and a -1 child at every k = 1
    link and nowhere else: a witness takes a -1 remainder only at a
    pair where least absolute remainders take one (2r > b).  It reads both
    branches of a pair in O(1), with no division, no lookup by value and no
    closed form at a link.
    """
    check_pair(x0, x1)
    quotients = _regular(x0, x1)
    # With x0, x1, ..., g, 0 the regular chain's remainders, none of them
    # kept, chain i is that of (r, s), the remainders at positions i and
    # i + 1, for i >= 1, and quotients[i] = r // s.  Its X, state (r, s)
    # with r = k*s + t, lies on the chain below at link k, n = k - 1 links
    # above that chain's base.  The x_ and w_ names hold the values of X and
    # W of the chain below, starting from the last chain (g, 0), whose X and
    # base both take the end state's values, until they are the new
    # chain's; its base's total is 2 + X.total (see above).
    x_total, x_divisions, w_total, w_divisions = 0, 1, 0, 1
    for k in quotients[:0:-1]:
        m = 1 + k + x_total
        total = 3 * k - 3 + w_total
        if m < total:
            total = m
        divisions = k - 1 + w_divisions
        if 1 + x_divisions < divisions:
            divisions = 1 + x_divisions
        w_total = 2 + total
        w_divisions = 1 + (divisions if divisions <= x_divisions else x_divisions)
        x_total, x_divisions = total, divisions

    # Pair (x0, x1): q subtractions, then state (x1, r), the X of chain 1,
    # the last one solved (or of chain (g, 0), if x1 divides x0).
    return EnumerationResult(
        (x0, x1), x1 // gcd(x0, x1), quotients[0] + x_total, x_divisions,
        _witnesses(x0, x1, quotients),
    )


def _witnesses(x0: int, x1: int, quotients: list[int]) -> tuple[EuclidTrace, ...]:
    # The first MAX_WITNESSES step-minimal traces, depth-first, +1 first.  A
    # pair (a, b) is entered with its quotient q and the position i of its
    # remainder r in the regular chain, and rebuilds r = a - q*b, so the
    # walk divides no pair.  With b = k*r + s on chain i, k =
    # quotients[i - 1], its +1 child (b, r) is always optimal (see
    # `minimize`); its -1 child only at a chain's base (k = 1), where the
    # child is pair (r + s, s), s = b - r, and always ties.  The walk enters
    # the +1 child at once; a -1 child at k = 1 waits on `ties` as (i,
    # depth), depth the length of the path above its parent, whose +1 row
    # path[depth] gives back (a, b, q, r).  Its remainder s is built when it
    # is popped, not when it is pushed: a Fibonacci chain ties at every
    # division, and at most MAX_WITNESSES - 1 ties are popped.
    a, b, q, i = x0, x1, quotients[0], 2
    path: list[Division] = []
    ties: list[tuple[int, int]] = []
    witnesses: list[EuclidTrace] = []
    while True:
        r = a - q * b
        if r:
            k = quotients[i - 1]
            if k == 1:
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
