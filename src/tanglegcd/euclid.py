"""The general Euclidean algorithm family with pluggable remainder signs.

Every division step writes a = b*q + eps*r with 0 <= r < b and eps = +1 or
-1.  When b does not divide a both signs are available: eps = +1 keeps the
floor quotient and positive remainder, eps = -1 takes one extra multiple of b
and the complementary remainder b - r.  A sign chooser picks between them,
which yields the classic variants as fixed policies:

* regular: always +1;
* least absolute remainders: the smaller of r and b - r, ties to +1;
* negative remainders: always -1 (the forced terminal step stays +1).

Step accounting counts every subtraction (the quotients summed) plus every
switch to the next working pair (equations minus one).

Two loops divide a chain here.  `_divisions` yields each division as the
chooser signs it, as a row (a, b, q, eps, r).  The runners keep its rows as
their traces; the CLI's `gcd`, `_counts`' least-absolute count and
`tangles.plan_untangle` read it with no trace at all, so a chain costs
memory for its rendering at most, not for its steps.  `_regular` returns
the regular chain's partial quotients, one list with no remainder: `_counts`
reads the regular and negative counts off them, and `enumeration.minimize`
solves its certificate over them and rebuilds each remainder its witnesses
hold from the pair above it, so neither holds the chain's remainders.

A trace is its division rows and its variant, and only this module writes
either.  Its EuclidStep records are built on every read of `.steps`; the
counters here (`gcd_of`, `division_count`, `step_count`,
`goodman_zaring_defect`, `trace_to_dict`) and a trace's equality and hash
read the rows, so counting a trace builds no record.

The raw constructors of EuclidStep and EuclidTrace are checked doors: an
inconsistent step, or steps that do not chain into one trace ending in
remainder 0, raise ValueError, and a field whose type is not int (a bool or
a float, say), a step that is not an EuclidStep record or a variant that is
not a Variant member raises TypeError, under any interpreter flags, `-O`
included; unpickling goes through the same checks, so every row of a
checked trace has passed EuclidStep's check.  `check_pair`, the door of
every runner, count and certificate, refuses a pair member whose type is
not int the same way.  The runners here and the enumeration walks take
each row from divmod or from the regular partial quotients, so every
division is consistent and chained by construction; they build through the
unchecked `_trace` and pay for no chain check.  `.steps` builds each record
through the checked EuclidStep, so every step record has passed its check.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from enum import Enum
from itertools import starmap
from operator import countOf, itemgetter

from ._record import Record, setters


class Variant(str, Enum):
    REGULAR = "Regular"
    LEAST_ABSOLUTE = "LeastAbsolute"
    NEGATIVE = "Negative"
    CUSTOM = "Custom"


# The members as module constants, for the code that reads one on every
# call: on Python 3.11 a global read costs about 10 ns, `Variant.X` about 110.
_REGULAR, _LEAST_ABSOLUTE, _NEGATIVE, _CUSTOM = (
    Variant.REGULAR, Variant.LEAST_ABSOLUTE, Variant.NEGATIVE, Variant.CUSTOM
)

# Decides eps for the current pair (a, b); consulted only when b does not
# divide a, and must be deterministic in (a, b).
SignChooser = Callable[[int, int], int]


class InvalidInputError(ValueError):
    """Raised when a runner is given a pair outside x0 >= x1 >= 1."""


class WrongVariantError(ValueError):
    """Raised when an operation requires a trace of a different variant."""


class EuclidStep(Record):
    """One division equation a = b*quotient + epsilon*remainder."""

    __slots__ = _fields = ("a", "b", "quotient", "epsilon", "remainder")

    def __init__(self, a: int, b: int, quotient: int, epsilon: int, remainder: int) -> None:
        _set_a(self, a)
        _set_b(self, b)
        _set_quotient(self, quotient)
        _set_epsilon(self, epsilon)
        _set_remainder(self, remainder)
        for value in (a, b, quotient, epsilon, remainder):
            if value.__class__ is not int:
                # The type, not the value: str() of a huge int can itself raise.
                raise TypeError(f"step fields must be int, not {type(value).__name__}")
        if not (
            epsilon in (1, -1)
            and quotient >= 1
            and 0 <= remainder < b
            and (remainder != 0 or epsilon == 1)
            and a == b * quotient + epsilon * remainder
        ):
            # No digits in the message: str() of a huge int can itself raise.
            raise ValueError(
                "not a division step a = b*quotient + epsilon*remainder "
                "with 0 <= remainder < b and epsilon +1 or -1 (+1 at remainder 0)"
            )


# A division a = b*q + eps*r as the row (a, b, q, eps, r).
Division = tuple[int, int, int, int, int]
# Its columns q and eps.
_quotient, _epsilon = itemgetter(2), itemgetter(3)


class EuclidTrace(Record):
    """An ordered, chained list of steps ending in the zero remainder.

    It holds the steps as division rows, `_rows`, and builds their records
    through the checked EuclidStep on every read of `steps`, as
    `UntanglePlan.moves` expands its stages on every read: read it once and
    keep it.
    Equality and hash compare the rows and the variant; repr and pickle read
    `steps`.
    """

    __slots__ = ("variant", "_rows")
    _fields = ("steps", "variant")

    def __init__(self, steps: tuple[EuclidStep, ...], variant: Variant) -> None:
        if not isinstance(variant, Variant):
            # The type, not the value: str() of a huge int can itself raise.
            raise TypeError(f"variant must be a Variant member, not {type(variant).__name__}")
        _set_variant(self, variant)
        steps = tuple(steps)
        for step in steps:
            if step.__class__ is not EuclidStep:
                # Only a checked record's fields are known to be a division.
                raise TypeError(f"steps must be EuclidStep records, not {type(step).__name__}")
        # Rows of its own, so a list the caller changes later changes nothing here.
        rows = tuple(map(EuclidStep._values, steps))
        _set_rows(self, rows)
        if not rows or rows[-1][4] != 0 or any(
            cur[:2] != (prev[1], prev[4]) for prev, cur in zip(rows, rows[1:])
        ):
            raise ValueError("steps do not chain into one trace ending in remainder 0")

    @property
    def steps(self) -> tuple[EuclidStep, ...]:
        return tuple(starmap(EuclidStep, self._rows))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._rows == other._rows and self.variant == other.variant
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._rows, self.variant))


_new = object.__new__
_set_a, _set_b, _set_quotient, _set_epsilon, _set_remainder = setters(EuclidStep)
_set_variant, _set_rows = setters(EuclidTrace, "variant", "_rows")


def _trace(rows: tuple[Division, ...], variant: Variant) -> EuclidTrace:
    """Build a trace from divisions the caller chained to remainder 0, unchecked."""
    trace = _new(EuclidTrace)
    _set_rows(trace, rows)
    _set_variant(trace, variant)
    return trace


class StepCount(Record):
    __slots__ = _fields = ("subtractions", "swaps", "total")


def always_positive(a: int, b: int) -> int:
    return 1


def always_negative(a: int, b: int) -> int:
    return -1


def least_absolute(a: int, b: int) -> int:
    """Pick the remainder of smaller magnitude; the exact tie goes positive.

    With 2r = b both remainders have the same magnitude, and the positive
    choice saves one subtraction; the following division is then forced
    terminal either way.
    """
    return 1 if 2 * (a % b) <= b else -1


def check_pair(x0: int, x1: int) -> None:
    """Refuse a pair outside x0 >= x1 >= 1 with InvalidInputError.

    A member whose type is not int (a bool or a float, say) raises TypeError.
    """
    if x0.__class__ is not int or x1.__class__ is not int:
        # The type, not the value: str() of a huge int can itself raise.
        bad = x1 if x0.__class__ is int else x0
        raise TypeError(f"x0 and x1 must be int, not {type(bad).__name__}")
    if x1 < 1 or x0 < x1:
        # No digits in the message: str() of a huge int can itself raise.
        raise InvalidInputError(f"need x0 >= x1 >= 1, got {'x1 < 1' if x1 < 1 else 'x0 < x1'}")


def _divisions(x0: int, x1: int, chooser: SignChooser) -> Iterator[Division]:
    """Each division (a, b, q, eps, r) of the chain from (x0, x1) under a sign chooser.

    The package's one sign-choosing loop; the caller checks the pair.  Forced
    divisions (b divides a) bypass the chooser and close the chain with
    eps +1 and remainder 0.  `least_absolute` is not called: the loop signs
    its divisions from the remainder it holds, as that chooser would from
    a second `a % b`.
    """
    a, b = x0, x1
    lar = chooser is least_absolute
    while True:
        q, r = divmod(a, b)
        if r == 0:
            yield a, b, q, 1, 0
            return
        eps = (1 if 2 * r <= b else -1) if lar else chooser(a, b)
        # The row holds the int 1 or -1, whatever equal value the chooser
        # returned (True, -1.0), so its JSON form is the schema's.
        if eps == 1:
            yield a, b, q, 1, r
        elif eps == -1:
            r = b - r
            yield a, b, q + 1, -1, r
        else:
            raise ValueError(f"sign chooser must return +1 or -1, got {eps!r}")
        a, b = b, r


# Sign chooser of each named variant; CUSTOM has none, its caller brings one.
CHOOSERS = {
    _REGULAR: always_positive,
    _LEAST_ABSOLUTE: least_absolute,
    _NEGATIVE: always_negative,
}


def run_general(x0: int, x1: int, chooser: SignChooser) -> EuclidTrace:
    """Run the division chain from (x0, x1) under a sign-choosing policy.

    Requires x0 >= x1 >= 1.  Forced divisions (b divides a) bypass the
    chooser and always close the trace with epsilon +1 and remainder 0.
    The trace's variant is CUSTOM, whatever the chooser: only the named
    runners, which run their variant's own chooser, tag a named variant.
    """
    check_pair(x0, x1)
    return _trace(tuple(_divisions(x0, x1, chooser)), _CUSTOM)


def _run(x0: int, x1: int, variant: Variant) -> EuclidTrace:
    """The named variant's trace of (x0, x1), run under its chooser in CHOOSERS."""
    check_pair(x0, x1)
    return _trace(tuple(_divisions(x0, x1, CHOOSERS[variant])), variant)


def run_regular(x0: int, x1: int) -> EuclidTrace:
    """All remainders positive."""
    return _run(x0, x1, _REGULAR)


def run_lar(x0: int, x1: int) -> EuclidTrace:
    """Least absolute remainders, ties resolved to the positive side."""
    return _run(x0, x1, _LEAST_ABSOLUTE)


def run_negative(x0: int, x1: int) -> EuclidTrace:
    """All non-terminal remainders negative."""
    return _run(x0, x1, _NEGATIVE)


def _regular(x0: int, x1: int) -> list[int]:
    """The regular partial quotients of x0/x1, one per division of its regular chain.

    The chain's remainders are not kept: each is the last but one less its
    quotient times the last, so a caller that needs one rebuilds it from
    the pair it holds.  The caller checks the pair.  A loop of its own, not
    `_divisions`' rows, because `minimize` reads it on every certificate and
    the rows cost about twice as much per certify pair.
    """
    quotients = []
    a, b = x0, x1
    while b:
        q, r = divmod(a, b)
        quotients.append(q)
        a, b = b, r
    return quotients


def _counts(x0: int, x1: int) -> dict[Variant, tuple[int, int]]:
    """The divisions and subtractions of each named variant's trace of (x0, x1).

    No trace is built.  The regular chain's quotients a0, ..., an give the
    regular counts, their number and their sum, and the negative ones: the
    negative trace's quotients are its minus continued fraction

        a0 + 1, then a1 - 1 twos, a2 + 2, then a3 - 1 twos, a4 + 2, ...

    with the last term lowered by one when it falls at an even index (a0
    alone when n = 0), so that trace, as long as the regular quotients sum
    to, is counted in O(n).  The least-absolute counts come from its own
    division loop.
    """
    check_pair(x0, x1)
    quotients = _regular(x0, x1)
    lar = list(map(_quotient, _divisions(x0, x1, least_absolute)))
    even, odd = quotients[::2], quotients[1::2]
    twos = sum(odd) - len(odd)
    return {
        _REGULAR: (len(quotients), sum(quotients)),
        _LEAST_ABSOLUTE: (len(lar), sum(lar)),
        _NEGATIVE: (len(even) + twos,
                    sum(even) + 2 * len(even) - 1 + 2 * twos - len(quotients) % 2),
    }


def gcd_of(trace: EuclidTrace) -> int:
    """The divisor of the final, exact step: the gcd of the original pair."""
    return trace._rows[-1][1]


def division_count(trace: EuclidTrace) -> int:
    """Number of division equations in the trace."""
    return len(trace._rows)


def step_count(trace: EuclidTrace) -> StepCount:
    """Subtraction/swap accounting: sum of quotients plus equations minus one."""
    subtractions = sum(map(_quotient, trace._rows))
    swaps = len(trace._rows) - 1
    return StepCount(subtractions, swaps, subtractions + swaps)


def goodman_zaring_defect(lar_trace: EuclidTrace) -> int:
    """Count of negative remainders in a least-absolute-remainders trace.

    Equals the number of divisions saved relative to the regular run of the
    same pair.
    """
    if lar_trace.variant is not _LEAST_ABSOLUTE:
        raise WrongVariantError(
            f"expected a {_LEAST_ABSOLUTE.value} trace, got {lar_trace.variant.value}"
        )
    return countOf(map(_epsilon, lar_trace._rows), -1)


def trace_to_dict(trace: EuclidTrace) -> dict:
    """JSON-ready form: variant tag plus steps as {a, b, q, eps, r} objects."""
    return {
        "variant": trace.variant.value,
        "steps": [
            {"a": a, "b": b, "q": q, "eps": eps, "r": r} for a, b, q, eps, r in trace._rows
        ],
    }
