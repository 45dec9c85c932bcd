"""Reference answers for checking tanglegcd outputs.

Nothing here imports tanglegcd.  Every check recomputes its answer from plain
integers or ``fractions.Fraction``, so a defect in the package cannot hide
behind the package's own ``assert`` statements, which ``python -O`` strips.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# The paper's worked pair: regular and LAR traces, both 57 steps in total.
GOLDEN_807_673 = {
    "regular_quotients": [1, 5, 44, 1, 2],
    "lar_quotients": [1, 5, 45, 3],
    "lar_epsilons": [1, 1, -1, 1],
    "total": 57,
}

# The three 8/5 untangling plans, keyed by the JSON variant tag.
GOLDEN_8_5 = {
    "Regular": "-T,R,T,R,-T,R,T,T",
    "LeastAbsolute": "-T,-T,R,-T,-T,R,T,T",
    "Negative": "-T,-T,R,-T,-T,-T,R,-T,-T",
}

# Folding this list from 0 gives 7/2.
GOLDEN_CONSTRUCT = ("-T,-T,-T,R,-T,R,T,T", "7/2")

_TWIST = {"T": 1, "-T": -1}


class CheckFailed(Exception):
    """An output disagreed with its reference answer."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def regular_counts(x0: int, x1: int) -> tuple[int, int]:
    """(divisions, subtractions) of the all-positive-remainder chain."""
    divisions = subtractions = 0
    a, b = x0, x1
    while b:
        q, r = divmod(a, b)
        divisions += 1
        subtractions += q
        a, b = b, r
    return divisions, subtractions


def lar_divisions(x0: int, x1: int) -> int:
    """Division count of the least-absolute-remainder chain, ties positive."""
    divisions = 0
    a, b = x0, x1
    while b:
        r = a % b
        divisions += 1
        a, b = b, (r if 2 * r <= b else b - r)
    return divisions


def minimal_total(x0: int, x1: int) -> int:
    """The minimal step total, which the paper says the regular chain attains."""
    divisions, subtractions = regular_counts(x0, x1)
    return subtractions + divisions - 1


def check_steps(steps, x0: int, x1: int) -> int:
    """Check a chain of (a, b, q, eps, r) steps from (x0, x1); return its gcd.

    Every step must satisfy a == b*q + eps*r with 0 <= r < b, chain onto the
    previous step, and only the last may have remainder 0.
    """
    a, b = x0, x1
    require(len(steps) > 0, "empty trace")
    for index, (sa, sb, q, eps, r) in enumerate(steps):
        require(b != 0, f"step {index} follows the terminal step")
        require((sa, sb) == (a, b), f"step {index} does not chain")
        require(eps in (1, -1) and q >= 1 and 0 <= r < sb, f"step {index} out of range")
        require(sa == sb * q + eps * r, f"step {index} breaks a = b*q + eps*r")
        a, b = sb, r
    require(b == 0, "trace does not end in remainder 0")
    require(a == gcd(x0, x1), "trace gcd differs from math.gcd")
    return a


def trace_steps(trace) -> list[tuple[int, int, int, int, int]]:
    return [(s.a, s.b, s.quotient, s.epsilon, s.remainder) for s in trace.steps]


def parse_value(text: str) -> Fraction | None:
    """A fraction string as a Fraction; None stands for the point at infinity."""
    return None if text.strip() == "inf" else Fraction(text.strip())


def render(value: Fraction | None) -> str:
    """The package's value format: `inf`, `p` or `p/q` in lowest terms."""
    return "inf" if value is None else str(value)


def move_tokens(text: str) -> list[str]:
    return [token.strip() for token in text.split(",")] if text.strip() else []


def fold(start: Fraction | None, tokens):
    """Yield the value after each move, starting from `start`."""
    value = start
    for token in tokens:
        if token == "R":
            value = None if value == 0 else (Fraction(0) if value is None else -1 / value)
        elif value is not None:
            value += _TWIST[token]
        yield value


def fold_final(start: Fraction | None, tokens) -> Fraction | None:
    value = start
    for value in fold(start, tokens):
        pass
    return value


def regular_plan(value: Fraction | None) -> list[str]:
    """Move tokens that drive `value` to 0 by the regular Euclidean reading."""
    tokens = []
    if value is None:
        return ["R"]
    while value != 0:
        if abs(value) < 1:
            tokens.append("R")
            value = -1 / value
            continue
        q = abs(value.numerator) // value.denominator
        twist = "-T" if value > 0 else "T"
        tokens.extend([twist] * q)
        value -= q if value > 0 else -q
    return tokens


def continued_fraction(quotients) -> Fraction:
    value = Fraction(quotients[-1])
    for q in reversed(quotients[:-1]):
        value = q + 1 / value
    return value
