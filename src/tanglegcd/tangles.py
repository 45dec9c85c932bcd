"""Tangle-number move calculus and Euclid-driven untangling plans.

A rational tangle is tracked purely through its number: a positive or
negative twist adds +1 or -1, a rotation maps the value to its negative
reciprocal (zero and infinity swap).  Untangling a value means driving it to
zero, and a Euclidean trace for the numerator/denominator pair reads off
directly as a move sequence: each equation contributes its quotient in
twists toward zero, followed by a rotation, except after the last equation.
A plan stores one stage per equation, read from euclid's division loop
with no trace record, so planning and plan metrics cost O(divisions); its
single moves are expanded from the stages lazily, one `repeat` per stage,
and `moves` collects them into a tuple on each read.

Two kernels replay on the integer pair (n, d) of the current value, with no
call per move.  A plan is replayed by its stages (`_stage_runs`): the values
a twist stage reaches form one arithmetic run, n + j*s*d over a fixed d, so
the kernel does O(stages) work and each run expands in C; `verify_plan`
and the CLI's `untangle` read it.  Moves a user supplies are replayed one
by one (`_fold`): `replay` builds all of their values at once,
`tangle_number` only the last.  Moves are told apart by identity, so
`replay`, `tangle_number` and `apply_move` take `Move` members, as
`parse_moves` returns them, and refuse any other item, a plain string
such as "T" included, with a TypeError.  Every pair is canonical by
construction, since gcd(n + k*d, d) = gcd(n, d) and a rotation only swaps
and negates, so no value pays the raw constructor's gcd check.

Which Euclidean variant runs underneath is the planning policy.  Least
absolute remainders gives the same total as the regular variant and the
fewest rotations among the Euclid-derived plans; it is not rotation-minimal
over every move sequence (for 2/3 it plans R,T,R,-T,-T, while -T,R,-T,-T,-T
is as short with one rotation).  Negative remainders keeps every twist in
one direction for start values of magnitude at least one.
"""

from __future__ import annotations

import sys
from collections import deque, namedtuple
from collections.abc import Iterable, Iterator
from enum import Enum
from itertools import chain, repeat

from ._record import Record
from .euclid import CHOOSERS, Variant, _divisions
from .rationals import (
    ZERO,
    ExtendedRational,
    _canonical,
    _canonical_values,
    _rotated,
    excerpt,
    rotate_value,
    twist_value,
)


class Move(str, Enum):
    TWIST_POSITIVE = "T"
    TWIST_NEGATIVE = "-T"
    ROTATE = "R"


# The members as module constants, for the code that reads them on every
# call or stage: on Python 3.11 a global read costs about 10 ns, `Move.X`
# about 110.
_TWIST, _UNTWIST, _ROTATE = Move.TWIST_POSITIVE, Move.TWIST_NEGATIVE, Move.ROTATE


class MoveParseError(ValueError):
    """Raised for a token outside the move grammar, with its position."""

    def __init__(self, token: str, position: int):
        self.token = token
        self.position = position
        super().__init__(f"bad move token {excerpt(token)} at position {position}")


_MOVES_BY_TOKEN = {move.value: move for move in Move}


def parse_moves(text: str) -> tuple[Move, ...]:
    """Parse comma-separated move tokens T, -T, R; whitespace is ignored."""
    if not text.strip():
        return ()
    tokens = list(map(str.strip, text.split(",")))
    try:
        return tuple(map(_MOVES_BY_TOKEN.__getitem__, tokens))
    except KeyError as exc:
        # The lookup stops at the first bad token, so that is the first
        # occurrence of the token it names.
        token = exc.args[0]
        raise MoveParseError(token, tokens.index(token) + 1) from None


def format_moves(moves: Iterable[Move]) -> str:
    return ",".join(moves)


# A plain namedtuple: `typing.NamedTuple` would build the same class, and
# load `typing` with it.
Stage = namedtuple("Stage", ("twist_count", "twist_direction"), module=__name__)
Stage.__doc__ = "A run of same-direction twists: stage i comes from trace equation i."


def _opens_with_rotation(f: ExtendedRational) -> bool:
    """Infinity and nonzero magnitudes below one rotate before the first stage."""
    d = f.denominator
    return not d or 0 < abs(f.numerator) < d


class UntanglePlan(Record):
    __slots__ = _fields = ("start", "stages", "policy")

    @property
    def moves(self) -> tuple[Move, ...]:
        """The single moves, expanded from the stages on each read."""
        return tuple(self.iter_moves())

    def iter_moves(self) -> Iterator[Move]:
        """The single moves, expanded lazily: one `repeat` per stage."""
        rotation = (_ROTATE,)
        runs = [rotation] if _opens_with_rotation(self.start) else []
        for count, direction in self.stages:
            runs += (repeat(_TWIST if direction > 0 else _UNTWIST, count), rotation)
        # A rotation follows every stage but the last.
        return chain.from_iterable(runs[:-1] if self.stages else runs)


class PlanMetrics(Record):
    __slots__ = _fields = ("twists", "rotations", "total")


class ReplayReport(Record):
    """Replay of a move sequence: the start value, then one value per move."""

    __slots__ = _fields = ("values",)

    @property
    def final(self) -> ExtendedRational:
        return self.values[-1]

    @property
    def passed(self) -> bool:
        return self.final.is_zero


def _not_a_move(item: object) -> TypeError:
    """The error for a move that is not a `Move` member, such as the string "T"."""
    # No repr() of other items: that of a huge int can itself raise.
    name = excerpt(item) if isinstance(item, str) else f"an object of type {type(item).__name__}"
    return TypeError(f"a move must be a Move member, as parse_moves returns, not {name}")


def apply_move(value: ExtendedRational, move: Move) -> ExtendedRational:
    if move is _TWIST:
        return twist_value(value, 1)
    if move is _UNTWIST:
        return twist_value(value, -1)
    if move is _ROTATE:
        return rotate_value(value)
    raise _not_a_move(move)


def _fold(n: int, d: int, moves: Iterable[Move], numerators, denominators) -> tuple[int, int]:
    """Apply moves to the pair (n, d), appending each new pair; return the last.

    A twist adds +d or -d to n (infinity, d = 0, stays fixed); a rotation
    sends zero to infinity, (1, 0), and infinity to (0, 1).  Moves are
    told apart by identity, so an item that is not a `Move` member, the
    plain string "T" included, raises TypeError.
    """
    rotate, twist, untwist = _ROTATE, _TWIST, _UNTWIST
    append_numerator, append_denominator = numerators.append, denominators.append
    for move in moves:
        if move is rotate:
            # `rationals._rotated`, inline: no call per move.
            if n > 0:
                n, d = -d, n
            elif n < 0:
                n, d = d, -n
            else:
                n, d = 1, 0
        elif move is twist:
            n += d
        elif move is untwist:
            n -= d
        else:
            raise _not_a_move(move)
        append_numerator(n)
        append_denominator(d)
    return n, d


def _final(start: ExtendedRational, moves: Iterable[Move]) -> ExtendedRational:
    """The value the moves reach from start; only that value is built."""
    discard = deque(maxlen=0)
    return _canonical(*_fold(start.numerator, start.denominator, moves, discard, discard))


def tangle_number(moves: Iterable[Move]) -> ExtendedRational:
    """Fold a move sequence from the untangled value 0."""
    return _final(ZERO, moves)


def plan_untangle(f: ExtendedRational, policy: Variant) -> UntanglePlan:
    """Build the stages of a plan that drives f to zero under the given policy.

    Zero needs no moves and infinity a single rotation.  A magnitude below
    one starts with a rotation so the value becomes an ordered pair; from
    there the policy's division chain on (|numerator|, denominator) is read
    off stage by stage, twisting toward zero.  The first stage twists against
    the sign s of the value, so negative starts mirror positive ones.  Twisting
    s*a/b by q toward zero leaves s*eps*r/b, and rotating that gives sign
    -s*eps, so each later direction is the previous one times -eps.
    A policy that is not a Variant member, such as the string "Negative",
    raises TypeError; Variant.CUSTOM, which names no chooser, ValueError.
    """
    if not isinstance(policy, Variant):
        # The type, not the value: str() of a huge int can itself raise.
        raise TypeError(f"policy must be a Variant member, not {type(policy).__name__}")
    chooser = CHOOSERS.get(policy)
    if chooser is None:
        raise ValueError(f"unsupported planning policy: {policy!r}")
    stages = []
    n, d = f.numerator, f.denominator
    if _opens_with_rotation(f):
        n, d = _rotated(n, d)
    if n:
        direction = -1 if n > 0 else 1
        new = tuple.__new__
        # |n| >= d >= 1 here, so the pair needs no check.
        for _, _, q, eps, _ in _divisions(abs(n), d, chooser):
            stages.append(new(Stage, (q, direction)))
            direction *= -eps
    return UntanglePlan(f, tuple(stages), policy)


def replay(start: ExtendedRational, moves: Iterable[Move]) -> ReplayReport:
    """Replay moves from a start value; passes iff the final value is zero."""
    numerators, denominators = [start.numerator], [start.denominator]
    _fold(start.numerator, start.denominator, moves, numerators, denominators)
    return ReplayReport(_canonical_values(numerators, denominators))


def _stage_runs(start: ExtendedRational, stages: tuple[Stage, ...]) -> Iterator[tuple]:
    """start's pair and the pairs a plan's moves reach from it, one run per stage.

    Yields (numerators, denominators, n, d) per run, (n, d) being the pair
    the run ends at.  A run is its head pair (n, d), the start or the value
    the rotation before the stage reaches, then the stage's k twists, each
    adding s*d, s = +1 for a positive direction and -1 otherwise: its
    numerators are one `range` over `repeat(d, k + 1)`, or `repeat(n, k + 1)`
    at infinity (d = 0).  A count of zero or less twists nothing, as in
    `iter_moves`.  A plan that opens with a rotation yields its start alone
    first.  So the loop is O(stages) and the runs expand in C.  A run's
    length is a C size, so a stage of sys.maxsize twists or more is refused
    with a ValueError when the walk reaches it.
    """
    n, d = start.numerator, start.denominator
    rotate = _opens_with_rotation(start)
    if rotate:
        yield (n,), (d,), n, d
    # No stages: the opening rotation, if any, as for one stage of no twists.
    for count, direction in stages or (Stage(0, 1),):
        if rotate:
            n, d = _rotated(n, d)
        # As in `iter_moves`, a rotation comes between a stage and the next.
        rotate = True
        twists = count if count > 0 else 0
        if twists >= sys.maxsize:
            # No digits in the message: str() of a huge int can itself raise.
            raise ValueError("a plan stage has more twists than a replay can count")
        step = d if direction > 0 else -d
        end = n + twists * step
        numerators = range(n, end + step, step) if d else repeat(n, twists + 1)
        yield numerators, repeat(d, twists + 1), end, d
        n = end


def verify_plan(f: ExtendedRational, plan: UntanglePlan) -> ReplayReport:
    """Replay a plan from f by its stages; the plan must have been built for f."""
    if plan.start is not f and plan.start != f:
        # No digits in the message: str() of a huge int can itself raise.
        raise ValueError("the plan was built for another start value")
    numerators, denominators = [], []
    for run_numerators, run_denominators, _, _ in _stage_runs(f, plan.stages):
        numerators += run_numerators
        denominators += run_denominators
    return ReplayReport(_canonical_values(numerators, denominators))


def plan_metrics(plan: UntanglePlan) -> PlanMetrics:
    """Twist, rotation and total move counts, read from the stages.

    A count of zero or less twists nothing, as in `iter_moves`.
    """
    twists = sum(count for count, _ in plan.stages if count > 0)
    rotations = _opens_with_rotation(plan.start) + max(len(plan.stages) - 1, 0)
    return PlanMetrics(twists, rotations, twists + rotations)
