"""Tangle-number move calculus and Euclid-driven untangling plans.

A rational tangle is tracked purely through its number: a positive or
negative twist adds +1 or -1, a rotation maps the value to its negative
reciprocal (zero and infinity swap).  Untangling a value means driving it to
zero, and a Euclidean trace for the numerator/denominator pair reads off
directly as a move sequence: each equation contributes its quotient in
twists toward zero, followed by a rotation, except after the last equation.
A plan stores one stage per equation, so planning and plan metrics cost
O(divisions); its single moves are expanded from the stages once per plan.

Replay walks a move sequence as maximal runs of one repeated move.  A run of
k twists in direction s from n/d lists its k values (n + i*s*d)/d in one
step, with no per-move dispatch, and `tangle_number` advances over the run
with one addition, n + k*s*d, so it holds one value at a time.  Every such
value is canonical by construction, since gcd(n + i*s*d, d) = gcd(n, d), so
`rationals.twist_run` and `shift_value` build it without the raw
constructor's gcd check.

Which Euclidean variant runs underneath is the planning policy.  Least
absolute remainders gives the same total as the regular variant and the
fewest rotations among the Euclid-derived plans; it is not rotation-minimal
over every move sequence (for 2/3 it plans R,T,R,-T,-T, while -T,R,-T,-T,-T
is as short with one rotation).  Negative remainders keeps every twist in
one direction for start values of magnitude at least one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import groupby
from typing import Iterable, NamedTuple

from .euclid import RUNNERS, Variant
from .rationals import ExtendedRational, ZERO, rotate_value, shift_value, twist_run, twist_value


class Move(str, Enum):
    TWIST_POSITIVE = "T"
    TWIST_NEGATIVE = "-T"
    ROTATE = "R"


class MoveParseError(ValueError):
    """Raised for a token outside the move grammar, with its position."""

    def __init__(self, token: str, position: int):
        self.token = token
        self.position = position
        super().__init__(f"bad move token {token!r} at position {position}")


_MOVES_BY_TOKEN = {move.value: move for move in Move}


def parse_moves(text: str) -> tuple[Move, ...]:
    """Parse comma-separated move tokens T, -T, R; whitespace is ignored."""
    if not text.strip():
        return ()
    moves = []
    for position, raw in enumerate(text.split(","), start=1):
        token = raw.strip()
        move = _MOVES_BY_TOKEN.get(token)
        if move is None:
            raise MoveParseError(token, position)
        moves.append(move)
    return tuple(moves)


def format_moves(moves: Iterable[Move]) -> str:
    return ",".join(moves)


class Stage(NamedTuple):
    """A run of same-direction twists: stage i comes from trace equation i."""

    twist_count: int
    twist_direction: int


def _opens_with_rotation(f: ExtendedRational) -> bool:
    """Infinity and nonzero magnitudes below one rotate before the first stage."""
    return f.is_infinite or 0 < abs(f.numerator) < f.denominator


@dataclass(frozen=True)
class UntanglePlan:
    start: ExtendedRational
    stages: tuple[Stage, ...]
    policy: Variant

    @cached_property
    def moves(self) -> tuple[Move, ...]:
        """The single moves, expanded from the stages once per plan."""
        moves = [Move.ROTATE] if _opens_with_rotation(self.start) else []
        for index, stage in enumerate(self.stages):
            if index:
                moves.append(Move.ROTATE)
            twist = Move.TWIST_POSITIVE if stage.twist_direction > 0 else Move.TWIST_NEGATIVE
            moves += [twist] * stage.twist_count
        return tuple(moves)


@dataclass(frozen=True)
class PlanMetrics:
    twists: int
    rotations: int
    total: int


@dataclass(frozen=True)
class ReplayReport:
    """Replay of a move sequence: the start value, then one value per move."""

    values: tuple[ExtendedRational, ...]

    @property
    def final(self) -> ExtendedRational:
        return self.values[-1]

    @property
    def passed(self) -> bool:
        return self.final.is_zero


def apply_move(value: ExtendedRational, move: Move) -> ExtendedRational:
    if move is Move.TWIST_POSITIVE:
        return twist_value(value, 1)
    if move is Move.TWIST_NEGATIVE:
        return twist_value(value, -1)
    return rotate_value(value)


def tangle_number(moves: Iterable[Move]) -> ExtendedRational:
    """Fold a move sequence from the untangled value 0, one run at a time.

    A run of k twists costs one addition (infinity, 1/0, stays fixed); a run
    of rotations reduces to its parity, since a rotation is an involution.
    """
    value = ZERO
    for move, run in groupby(moves):
        length = len(list(run))
        if move is Move.ROTATE:
            if length % 2:
                value = rotate_value(value)
        else:
            value = shift_value(value, length if move is Move.TWIST_POSITIVE else -length)
    return value


def plan_untangle(f: ExtendedRational, policy: Variant) -> UntanglePlan:
    """Build the stages of a plan that drives f to zero under the given policy.

    Zero needs no moves and infinity a single rotation.  A magnitude below
    one starts with a rotation so the value becomes an ordered pair; from
    there the policy's Euclidean trace on (|numerator|, denominator) is read
    off stage by stage, twisting toward zero.  The first stage twists against
    the sign s of the value, so negative starts mirror positive ones.  Twisting
    s*a/b by q toward zero leaves s*eps*r/b, and rotating that gives sign
    -s*eps, so each later direction is the previous one times -eps.
    """
    runner = RUNNERS.get(policy)
    if runner is None:
        raise ValueError(f"unsupported planning policy: {policy!r}")
    stages: list[Stage] = []
    value = rotate_value(f) if _opens_with_rotation(f) else f
    if not value.is_zero:
        direction = -value.sign()
        for step in runner(abs(value.numerator), value.denominator).steps:
            stages.append(Stage(step.quotient, direction))
            direction *= -step.epsilon
    return UntanglePlan(start=f, stages=tuple(stages), policy=policy)


def replay(start: ExtendedRational, moves: Iterable[Move]) -> ReplayReport:
    """Replay moves from a start value; passes iff the final value is zero.

    Each run of twists appends all of its values in one step.  Infinity is
    1/0, so its step d is 0 and the run repeats the fixed value.
    """
    values = [start]
    for move, run in groupby(moves):
        value = values[-1]
        if move is Move.ROTATE:
            for _ in run:
                value = rotate_value(value)
                values.append(value)
        else:
            direction = 1 if move is Move.TWIST_POSITIVE else -1
            values += twist_run(value, direction, len(list(run)))
    return ReplayReport(tuple(values))


def verify_plan(f: ExtendedRational, plan: UntanglePlan) -> ReplayReport:
    """Replay a plan from f.  The plan must have been built for f."""
    if plan.start != f:
        raise ValueError(f"plan starts at {plan.start}, not {f}")
    return replay(f, plan.moves)


def plan_metrics(plan: UntanglePlan) -> PlanMetrics:
    """Twist, rotation and total move counts, read from the stages."""
    twists = sum(stage.twist_count for stage in plan.stages)
    rotations = _opens_with_rotation(plan.start) + max(len(plan.stages) - 1, 0)
    return PlanMetrics(twists=twists, rotations=rotations, total=twists + rotations)
