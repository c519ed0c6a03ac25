"""
Exact p-adic analysis of cyclic covers: valuations, local field arithmetic,
truncated series of the cover function, torsor splitting criteria, reduction
trees, higher ramification, SL2 group checks, and the end-to-end wild
monodromy verification.
"""
from .errors import (
    MissingLabel,
    NoNthRoot,
    PrecisionError,
    PreconditionViolated,
    ResourceLimit,
    SrtError,
    Unsupported,
)
from .valuation import (
    INFINITY,
    ExtendedRational,
    multinomial,
    vp,
)
from .localfield import (
    LocalFieldContext,
    LocalFieldElement,
    PthPowerVerdict,
    is_pth_power,
    nth_root,
    sqrt_of_minus_one,
)
from .series import (
    CoverParams,
    GaussRational,
    I_GAUSS,
    TruncatedSeries,
    element_valuation,
    maclaurin_g,
    scaled_coefficient_valuations,
    taylor_factors,
)
from .torsor import (
    A_ONE,
    A_ZERO,
    GENERIC,
    SplitVerdict,
    TailDescriptor,
    TailRadius,
    insep_center,
    insep_tail_catalog,
    splitting_obstruction,
    tail_center,
    tail_radius,
)
from .graph import (
    CycleCheck,
    Edge,
    MonotonicityVerdict,
    ReductionTree,
    SolveResult,
    TailConfig,
    Vertex,
    check_monotonic,
    check_vanishing_cycles,
    effective_invariant,
    enumerate_tail_configs,
    invariant_weights,
    propagate_differents,
    validate_tree,
)
from .ramification import (
    Filtration,
    compositum_conductor,
    conductor_case,
    cyclotomic_filtration,
    herbrand,
    upper_from_lower,
)
from .groups import (
    GenerationVerdict,
    MatrixElement,
    SylowData,
    element_order,
    generation_check,
    identity,
    minus_identity,
    solve_trace_system,
    standard_generators,
    sylow_data,
)
from .pipeline import PipelineReport, run_wild_monodromy

__all__ = [
    "MissingLabel", "NoNthRoot", "PrecisionError", "PreconditionViolated",
    "ResourceLimit", "SrtError", "Unsupported",
    "INFINITY", "ExtendedRational", "multinomial", "vp",
    "LocalFieldContext", "LocalFieldElement", "PthPowerVerdict",
    "is_pth_power", "nth_root", "sqrt_of_minus_one",
    "CoverParams", "GaussRational", "I_GAUSS", "TruncatedSeries",
    "element_valuation", "maclaurin_g", "scaled_coefficient_valuations",
    "taylor_factors",
    "A_ONE", "A_ZERO", "GENERIC", "SplitVerdict", "TailDescriptor",
    "TailRadius", "insep_center", "insep_tail_catalog",
    "splitting_obstruction", "tail_center", "tail_radius",
    "CycleCheck", "Edge", "MonotonicityVerdict", "ReductionTree",
    "SolveResult", "TailConfig", "Vertex", "check_monotonic",
    "check_vanishing_cycles", "effective_invariant",
    "enumerate_tail_configs", "invariant_weights", "propagate_differents",
    "validate_tree",
    "Filtration", "compositum_conductor", "conductor_case",
    "cyclotomic_filtration", "herbrand", "upper_from_lower",
    "GenerationVerdict", "MatrixElement", "SylowData", "element_order",
    "generation_check", "identity", "minus_identity", "solve_trace_system",
    "standard_generators", "sylow_data",
    "PipelineReport", "run_wild_monodromy",
]
