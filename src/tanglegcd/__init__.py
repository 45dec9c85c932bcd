"""Euclidean algorithm variants, step minimality, and tangle untangling.

Modules:

* rationals: canonical exact fractions with a point at infinity.
* euclid: trace runners for the regular, least-absolute-remainders and
  negative-remainders variants, a registry mapping each named variant to
  its runner, plus subtraction/swap step accounting.
* enumeration: every sign-choice trace of any ordered pair, listed one by
  one, and the minimality certificate over all of them, in O(divisions).
* tangles: the twist/rotate move calculus on extended-rational values and
  Euclid-driven untangling plans, stored as one twist stage per equation.
* cli: the `tanglegcd` command.
"""

from .enumeration import EnumerationResult, enumerate_all, minimize
from .euclid import (
    EuclidStep,
    EuclidTrace,
    InvalidInputError,
    SignChooser,
    StepCount,
    Variant,
    WrongVariantError,
    division_count,
    gcd_of,
    goodman_zaring_defect,
    run_general,
    run_lar,
    run_negative,
    run_regular,
    step_count,
    trace_to_dict,
)
from .rationals import (
    ExtendedRational,
    FractionParseError,
    IndeterminateFormError,
    INFINITY,
    ZERO,
    normalize,
    parse_fraction,
    rotate_value,
    twist_value,
)
from .tangles import (
    Move,
    MoveParseError,
    PlanMetrics,
    ReplayReport,
    Stage,
    UntanglePlan,
    apply_move,
    format_moves,
    parse_moves,
    plan_metrics,
    plan_untangle,
    replay,
    tangle_number,
    verify_plan,
)

__version__ = "0.1.0"

__all__ = [
    "EnumerationResult",
    "EuclidStep",
    "EuclidTrace",
    "ExtendedRational",
    "FractionParseError",
    "INFINITY",
    "IndeterminateFormError",
    "InvalidInputError",
    "Move",
    "MoveParseError",
    "PlanMetrics",
    "ReplayReport",
    "SignChooser",
    "Stage",
    "StepCount",
    "UntanglePlan",
    "Variant",
    "WrongVariantError",
    "ZERO",
    "apply_move",
    "division_count",
    "enumerate_all",
    "format_moves",
    "gcd_of",
    "goodman_zaring_defect",
    "minimize",
    "normalize",
    "parse_fraction",
    "parse_moves",
    "plan_metrics",
    "plan_untangle",
    "replay",
    "rotate_value",
    "run_general",
    "run_lar",
    "run_negative",
    "run_regular",
    "step_count",
    "tangle_number",
    "trace_to_dict",
    "twist_value",
    "verify_plan",
]
