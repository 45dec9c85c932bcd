"""Euclidean algorithm variants, step minimality, and tangle untangling.

Modules:

* rationals: canonical exact fractions with a point at infinity.
* euclid: trace runners for the regular, least-absolute-remainders and
  negative-remainders variants, a registry mapping each named variant to
  its sign chooser, plus subtraction/swap step accounting.
* enumeration: every sign-choice trace of any ordered pair, listed one by
  one, and the minimality certificate over all of them, in O(divisions).
* tangles: the twist/rotate move calculus on extended-rational values and
  Euclid-driven untangling plans, stored as one twist stage per equation.
* cli: the `tanglegcd` command.

The package surface is lazy (PEP 562): `import tanglegcd` loads none of
the modules, and the first use of a name below, or of a module by name,
imports the module that defines it.  So a CLI call loads only the layers
its subcommand runs, and no module is compiled for nothing when no
bytecode cache can be written.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS = {
    "enumeration": ("EnumerationResult", "enumerate_all", "minimize"),
    "euclid": (
        "EuclidStep", "EuclidTrace", "InvalidInputError", "SignChooser", "StepCount",
        "Variant", "WrongVariantError", "division_count", "gcd_of", "goodman_zaring_defect",
        "run_general", "run_lar", "run_negative", "run_regular", "step_count",
        "trace_to_dict",
    ),
    "rationals": (
        "ExtendedRational", "FractionParseError", "IndeterminateFormError", "INFINITY",
        "ZERO", "normalize", "parse_fraction", "rotate_value", "twist_value",
    ),
    "tangles": (
        "Move", "MoveParseError", "PlanMetrics", "ReplayReport", "Stage", "UntanglePlan",
        "apply_move", "format_moves", "parse_moves", "plan_metrics", "plan_untangle",
        "replay", "tangle_number", "verify_plan",
    ),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNERS)


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule binds it in this namespace.
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNERS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
