"""Exact decimal shadows: big integers printed in linear time.

str() of an int is quadratic in its digit count, while a `decimal.Decimal`
keeps its digits in a power-of-ten base and prints them in linear time.  A
listing whose integers each follow from ones it printed before (a remainder
from its division, a twisted numerator from the one before it, a rotated
pair from a swap) can keep an exact Decimal "shadow" of each integer, built
from the shadows before it by one linear operation, and print the shadow.
The integers still decide everything: each shadow only follows them.

`_trace_commands._step_rows` and `rationals._value_strings` print that way
past SHADOW_BITS bits, where `shadow_context` gives them a context; this is
the only module that compares a size with SHADOW_BITS.  At or below it,
str() of an int costs less than a Decimal operation and the str() of its
result, and a call that prints no bigger integer never imports `decimal`,
which takes 2 to 3 ms in a fresh interpreter.

A shadow is touched only through the context's methods and by copy_abs()
and copy_negate(): abs(), unary minus and the arithmetic operators round to
the thread's context, 28 digits by default.
"""

SHADOW_BITS = 1500


def shadow_context(bits: int):
    """None at or below SHADOW_BITS bits, else a decimal context in which rounding raises."""
    if bits <= SHADOW_BITS:
        return None
    import decimal

    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                              Emin=decimal.MIN_EMIN)
    context.traps[decimal.Inexact] = context.traps[decimal.Rounded] = True
    return context
