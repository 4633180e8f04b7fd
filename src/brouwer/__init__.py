"""Workbench for choice-sequence constructions over the dyadic interval spread.

The pieces fit together like this: `dyadic` gives exact binary-rational
intervals, `spreads` the admissibility laws and emitters that grow
interval sequences stage by stage, `reals` the three-valued comparisons
between the points those sequences determine, `fleeing` the properties
of the decimal expansion of pi that nobody has yet decided, `drift` the
kernel/counting-number constructions riding on such properties, `logic`
a stage-indexed modal semantics whose exhaustive small-model sweep runs
on the engine in `_masks`, `derivation` a checker for the sequent
scripts that use it, and `cli` the `brouwer` command's parser and
dispatch (each command's handler lives in the module it drives).

Importing the package loads none of these modules: each public name is
resolved on first use (PEP 562), so a program pays only for the modules it
touches. Within them the same holds: `logic` loads `_masks` when a sweep
runs, and `drift` loads `reals` when it builds a point.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "dyadic": (
        "Dyadic", "Interval", "IntervalRelation", "admissible_successors",
        "interval_relate", "lambda_interval", "parse_dyadic", "parse_interval",
    ),
    "errors": ("ResourceLimitError",),
    "spreads": (
        "AdmissibilityError", "EventTrace", "Generator", "Lawlike", "Process",
        "Resolution", "SpreadLaw", "emit_prefix", "format_trace", "never_trace",
        "parse_trace", "proved_at", "refuted_at", "rng_spread", "universal_spread",
    ),
    "reals": (
        "Point", "Verdict", "VerdictValue", "abs_diff_lt", "apart_at", "center",
        "centered_point", "coincide_refute", "continuity_modulus", "cpf_modulus",
        "decide_pairs", "delay_map", "identity_map", "int_point", "lt_at",
        "lt_rational", "mapped_point", "negation_map", "one_point", "value_point",
        "virtual_order_check", "zero_point",
    ),
    "fleeing": (
        "CriticalSearch", "DecidableProperty", "DigitOracle", "berlin_r", "cambridge_c",
        "critical_number", "default_oracle", "find_pattern", "geometric_family",
        "pattern_property", "run_property", "veldman_f2",
    ),
    "drift": (
        "BUNDLED_DRIFTS", "CheckingKind", "CheckingRun", "Drift", "Tag", "Wing",
        "berlin_s", "bundled_drift", "checking_sequence", "flatten_checking",
        "rationality_descriptor", "validate_drift", "vienna_e", "vienna_family",
        "vienna_run",
    ),
    "logic": (
        "Countermodel", "StageTree", "SweepBounds", "SweepResult", "forces",
        "load_model", "parse", "principle_suite", "show", "validity_sweep",
    ),
    "derivation": ("BUNDLED_SCRIPTS", "Rejected", "Verified", "check_script"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

# the re-exported names and the modules that define them, as eager imports gave
__all__ = sorted([*_ORIGIN, *_EXPORTS])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
