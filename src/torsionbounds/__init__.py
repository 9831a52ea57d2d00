"""Exact polynomial torsion bounds for a fixed geometric isogeny class.

Subpackages by topic:

- modmatrix: exact GL2(Z/nZ) arithmetic, subgroups, reductions, preimages
- arith: multiplicative functions and the extremal totient constant
- exactvalue: exact positive reals as prime-power products
- lattice: l-adic lattice stabilizers and index comparisons
- bounds: the exponent sieve and the explicit bound constants
- records: curve-record CSV ingestion
- verify: the one-shot enumeration-backed verification suite

`import torsionbounds` loads none of them: a submodule is imported when one
of its names, or the submodule itself, is first used (PEP 562).
"""
import importlib

__version__ = "0.1.0"


class TorsionBoundsError(ValueError):
    """Base of the errors the library raises on input it refuses."""


# each public name once, under the submodule that defines it
_EXPORTS = {
    "arith": ("ArithError", "EffectiveConstant", "b_epsilon", "dedekind_psi",
              "euler_phi", "factorize"),
    "bounds": ("Baselines", "BoundContext", "BoundsError", "CandidateSet",
               "TheoremBounds", "UpperBoundValue", "baselines", "exponent_candidates",
               "sieve_modulus", "theorem_bounds"),
    "exactvalue": ("PowerProduct",),
    "lattice": ("AdicGroup", "IndexReport", "LatticeBasis", "LatticeError",
                "LatticeScenario", "ScenarioResult", "bundled_scenarios",
                "parse_scenarios", "run_scenario", "verify_index_equality"),
    "modmatrix": ("ENUMERATION_CAP", "EnumerationTooLargeError", "Mat2", "ModMatrixError",
                  "SubgroupModN", "b1_subgroup", "enumerate_gl2", "full_preimage",
                  "gl2_order", "is_full_preimage", "level_within", "reduce_subgroup",
                  "subgroup_closure", "subgroup_index"),
    "records": ("ClassCheck", "CurveRecord", "RecordParseError",
                "check_isogeny_class_indices", "parse_curve_records"),
    "verify": ("SuiteReport", "format_report", "run_verification_suite"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["TorsionBoundsError", *_SOURCE])


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
