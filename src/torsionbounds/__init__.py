"""Exact polynomial torsion bounds for a fixed geometric isogeny class.

Subpackages by topic:

- modmatrix: exact GL2(Z/nZ) arithmetic, subgroups, reductions, preimages
- arith: multiplicative functions and the extremal totient constant
- exactvalue: exact positive reals as prime-power products
- lattice: l-adic lattice stabilizers and index comparisons
- bounds: the exponent sieve and the explicit bound constants
- records: curve-record CSV ingestion
- verify: the one-shot enumeration-backed verification suite
"""
from .arith import (
    ArithError,
    EffectiveConstant,
    b_epsilon,
    dedekind_psi,
    euler_phi,
    factorize,
)
from .bounds import (
    Baselines,
    BoundContext,
    BoundsError,
    CandidateSet,
    TheoremBounds,
    UpperBoundValue,
    baselines,
    exponent_candidates,
    sieve_modulus,
    theorem_bounds,
)
from .exactvalue import PowerProduct
from .lattice import (
    AdicGroup,
    IndexReport,
    LatticeBasis,
    LatticeError,
    LatticeScenario,
    ScenarioResult,
    bundled_scenarios,
    parse_scenarios,
    run_scenario,
    verify_index_equality,
)
from .modmatrix import (
    ENUMERATION_CAP,
    EnumerationTooLargeError,
    Mat2,
    ModMatrixError,
    SubgroupModN,
    b1_subgroup,
    enumerate_gl2,
    full_preimage,
    gl2_order,
    is_full_preimage,
    level_within,
    reduce_subgroup,
    subgroup_closure,
    subgroup_index,
)
from .records import (
    ClassCheck,
    CurveRecord,
    RecordParseError,
    check_isogeny_class_indices,
    parse_curve_records,
)
from .verify import SuiteReport, format_report, run_verification_suite

__version__ = "0.1.0"

__all__ = [
    "AdicGroup",
    "ArithError",
    "Baselines",
    "BoundContext",
    "BoundsError",
    "CandidateSet",
    "ClassCheck",
    "CurveRecord",
    "ENUMERATION_CAP",
    "EffectiveConstant",
    "EnumerationTooLargeError",
    "IndexReport",
    "LatticeBasis",
    "LatticeError",
    "LatticeScenario",
    "Mat2",
    "ModMatrixError",
    "PowerProduct",
    "RecordParseError",
    "ScenarioResult",
    "SubgroupModN",
    "SuiteReport",
    "TheoremBounds",
    "UpperBoundValue",
    "b1_subgroup",
    "b_epsilon",
    "baselines",
    "bundled_scenarios",
    "check_isogeny_class_indices",
    "dedekind_psi",
    "enumerate_gl2",
    "euler_phi",
    "exponent_candidates",
    "factorize",
    "format_report",
    "full_preimage",
    "gl2_order",
    "is_full_preimage",
    "level_within",
    "parse_curve_records",
    "parse_scenarios",
    "reduce_subgroup",
    "run_scenario",
    "run_verification_suite",
    "sieve_modulus",
    "subgroup_closure",
    "subgroup_index",
    "theorem_bounds",
    "verify_index_equality",
]
