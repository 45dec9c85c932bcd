"""Exact extended-rational values: canonical fractions plus a point at infinity.

Tangle numbers live here.  The type is deliberately narrow: the move calculus
only ever needs translation by +1/-1 and the negative reciprocal, so that is
all it gets.  Everything is immutable and kept in canonical form, which makes
equality checks trivial and values safe to share across threads.

Python integers are arbitrary precision, so no overflow handling is needed
anywhere in this module; arithmetic is exact by construction.

The raw constructor is a checked door: a non-canonical pair raises ValueError,
and a member whose type is not int (a bool or a float, say) TypeError, under
any interpreter flags, `-O` included.  Twists, rotations and negation
produce canonical pairs by construction (a twist keeps gcd, since
gcd(n + k*d, d) = gcd(n, d); a rotation or negation only swaps or negates the
pair), so they take the unchecked `_canonical` path and pay no gcd per value.
`_canonical_values` is the same path in bulk, for the move kernels in
`tangles`: one `starmap` of object.__new__ allocates the values and one
`starmap` of each slot's setter over a `zip` fills them, so no pass builds
an argument tuple per value.  Every build pauses the cyclic garbage
collector's automatic runs for the allocating call alone: a value holds two
ints and can never be in a cycle, and all the pause can defer is another
thread's automatic collection, for about one switch interval.
`_value_strings` renders such pairs as their values print, without building
the values and reusing the digits consecutive pairs share, for the CLI's
streamed listings; past SHADOW_BITS bits, the same loop prints each new
integer from an exact decimal shadow (see `_shadows`) by one linear
operation and one linear str().
"""

from __future__ import annotations

import gc
from collections import deque
from collections.abc import Iterable, Sequence
from itertools import repeat, starmap
from math import gcd

from ._record import Record, setters
from ._shadows import shadow_context


class IndeterminateFormError(ValueError):
    """Raised for the meaningless form 0/0."""


class FractionParseError(ValueError):
    """Raised when a fraction string does not match the accepted grammar."""


class ExtendedRational(Record):
    """A fraction in lowest terms with a non-negative denominator.

    Canonical form: gcd(|numerator|, denominator) == 1, the sign lives in the
    numerator, zero is (0, 1), and the single point at infinity is (1, 0).
    Construct values through :func:`normalize`; the raw constructor checks
    canonical form but does not repair it, and raises ValueError on any other
    pair, and TypeError on a member whose type is not int, also under
    `python -O`.  Unpickling goes through the same checks.
    Values are slotted and carry no per-instance ``__dict__``.
    """

    __slots__ = _fields = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int) -> None:
        _set_numerator(self, numerator)
        _set_denominator(self, denominator)
        if numerator.__class__ is not int or denominator.__class__ is not int:
            # The type, not the value: str() of a huge int can itself raise.
            bad = denominator if numerator.__class__ is int else numerator
            raise TypeError(f"numerator and denominator must be int, not {type(bad).__name__}")
        if denominator < 0 or (
            numerator != 1 if denominator == 0 else gcd(numerator, denominator) != 1
        ):
            # No digits in the message: str() of a huge int can itself raise.
            raise ValueError("pair is not in canonical form; build values with normalize()")

    # Field by field: faster than Record's attrgetter for the most compared type.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.numerator == other.numerator and self.denominator == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.numerator, self.denominator))

    @property
    def is_infinite(self) -> bool:
        return self.denominator == 0

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0 and self.denominator != 0

    def sign(self) -> int:
        """Sign of a finite value as -1, 0 or +1."""
        if self.is_infinite:
            raise ValueError("infinity has no sign")
        return (self.numerator > 0) - (self.numerator < 0)

    def __neg__(self) -> ExtendedRational:
        if self.is_infinite:
            return self
        return _canonical(-self.numerator, self.denominator)

    def __str__(self) -> str:
        denominator = self.denominator
        if denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{denominator}" if denominator else "inf"


_new = object.__new__
_set_numerator, _set_denominator = setters(ExtendedRational)


def _canonical(numerator: int, denominator: int) -> ExtendedRational:
    """Build a value from a pair the caller knows is canonical, unchecked."""
    value = _new(ExtendedRational)
    _set_numerator(value, numerator)
    _set_denominator(value, denominator)
    return value


def _canonical_values(
    numerators: Sequence[int], denominators: Iterable[int]
) -> tuple[ExtendedRational, ...]:
    """Build one value per canonical pair, unchecked, with no Python-level loop.

    No pass builds an argument tuple per value: `starmap` calls with the
    tuple its iterator yields, `repeat` yields one tuple throughout, and
    `zip` yields the same tuple again once the call has let go of it.

    The cyclic garbage collector's automatic runs are paused for the one
    statement that allocates, and switched back on only if they were on.
    Each new value counts toward the collector's thresholds, so under Python
    3.10 and 3.11 it ran 142 times on 100,001 values, about 40% of the
    build, rescanning values that hold two ints and so can never be in a
    cycle.  (From 3.12 it runs only between bytecodes, so once, after
    the call.)  The statement is one C call that runs no Python code, and
    the passes that fill the slots allocate nothing the collector tracks,
    so reference counting frees the values as before.  What the pause can
    defer is another thread's automatic collection: a thread that takes the
    GIL between the two switches runs without one until it hands the GIL
    back, within one switch interval (`sys.getswitchinterval()`) if it runs
    Python code.
    """
    pause = gc.isenabled()
    if pause:
        gc.disable()
    try:
        values = tuple(starmap(_new, repeat((ExtendedRational,), len(numerators))))
    finally:
        if pause:
            gc.enable()
    deque(starmap(_set_numerator, zip(values, numerators)), maxlen=0)
    deque(starmap(_set_denominator, zip(values, denominators)), maxlen=0)
    return values


def _value_strings(numerators: Sequence[int], denominators: Sequence[int]) -> list[str]:
    """str() of the value of each canonical pair, without building the values.

    A pair reuses the digits it shares with the pair before, as a twist keeps
    the denominator and a rotation swaps |n| and d: int == is linear in the
    digit count, str() quadratic.  Every list takes the one loop.  Past
    SHADOW_BITS bits, each integer prints from an exact decimal shadow: a
    twist, n = n0 + d or n0 - d, adds or subtracts the denominator's shadow,
    a rotation swaps the shadows, the sign following n, and any other pair
    is converted anew; at or below it, each integer is its own shadow.  A
    sign is only copied onto a nonzero shadow, so no -0 is printed.
    """
    largest = max(max(denominators, default=0), max(numerators, default=0),
                  -min(numerators, default=0))
    context = shadow_context(largest.bit_length())
    if context is not None:
        add, subtract, shadow = context.add, context.subtract, context.create_decimal
    # The pair before, its shadows, and their str()s n_text and d_text; below
    # SHADOW_BITS a new pair's integers stand in for its shadows.
    strings, n0, d0 = [], 0, -1
    for n, d in zip(numerators, denominators):
        if d != d0:
            if d == abs(n0) and abs(n) == d0:
                n_text, d_text = "-" + d_text if n < 0 else d_text, n_text.lstrip("-")
                if context is not None:
                    n_shadow, d_shadow = (d_shadow.copy_negate() if n < 0 else d_shadow,
                                          n_shadow.copy_abs())
            else:
                n_shadow, d_shadow = (shadow(n), shadow(d)) if context is not None else (n, d)
                n_text, d_text = str(n_shadow), str(d_shadow)
        elif context is not None:
            n_shadow = (add(n_shadow, d_shadow) if n == n0 + d else
                        subtract(n_shadow, d_shadow) if n == n0 - d else shadow(n))
            n_text = str(n_shadow)
        else:
            n_text = str(n)
        strings.append(n_text if d == 1 else f"{n_text}/{d_text}" if d else "inf")
        n0, d0 = n, d
    return strings


ZERO = ExtendedRational(0, 1)
INFINITY = ExtendedRational(1, 0)


def normalize(numerator: int, denominator: int) -> ExtendedRational:
    """Reduce an integer pair to the canonical extended rational.

    Any (k, 0) with k != 0 canonicalizes to infinity; a negative denominator
    moves its sign into the numerator.  Raises IndeterminateFormError for 0/0.
    """
    if numerator == 0 and denominator == 0:
        raise IndeterminateFormError("0/0 is indeterminate")
    if denominator == 0:
        return INFINITY
    if denominator < 0:
        numerator, denominator = -numerator, -denominator
    g = gcd(abs(numerator), denominator)
    return _canonical(numerator // g, denominator // g)


def twist_value(f: ExtendedRational, direction: int) -> ExtendedRational:
    """Return f + direction, where direction is +1 or -1; infinity is fixed."""
    # gcd(n + k*d, d) == gcd(n, d) == 1, so the result is already canonical.
    # The sum or the difference is chosen by direction's value, so the pair
    # stays int whatever equal value direction is (True, -1.0).
    if direction == 1:
        return _canonical(f.numerator + f.denominator, f.denominator)
    if direction == -1:
        return _canonical(f.numerator - f.denominator, f.denominator)
    raise ValueError(f"twist direction must be +1 or -1, got {direction!r}")


def _rotated(n: int, d: int) -> tuple[int, int]:
    """The pair of -1/(n/d), sign in the numerator: zero goes to (1, 0), infinity to (0, 1)."""
    return (-d, n) if n > 0 else (d, -n) if n else (1, 0)


def rotate_value(f: ExtendedRational) -> ExtendedRational:
    """Return -1/f, with rotate(0) = infinity and rotate(infinity) = 0."""
    return _canonical(*_rotated(f.numerator, f.denominator))


EXCERPT_CHARS = 40


def excerpt(text: str) -> str:
    """Quote text for an error message: whole up to 40 characters, else its start and length."""
    if len(text) <= EXCERPT_CHARS:
        return repr(text)
    return f"{text[:EXCERPT_CHARS]!r}... ({len(text)} characters)"


def parse_fraction(text: str) -> ExtendedRational:
    """Parse the CLI fraction grammar: `p/q`, `p` (meaning p/1), or `inf`.

    An optional leading `-` is allowed on the numeric forms only.  p and q
    are runs of decimal digits, any of Unicode's Nd characters, which is
    what both `str.isdecimal` and a regular expression's \\d accept.
    """
    s = text.strip()
    if s == "inf":
        return INFINITY
    num, slash, den = s.partition("/")
    if not num.removeprefix("-").isdecimal() or slash and not den.isdecimal():
        raise FractionParseError(f"not a valid fraction: {excerpt(text)}")
    if not slash:
        return normalize(int(num), 1)
    return normalize(int(num), int(den))
