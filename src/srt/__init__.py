"""
Exact p-adic analysis of cyclic covers: valuations, local field arithmetic,
truncated series of the cover function, torsor splitting criteria, reduction
trees, higher ramification, SL2 group checks, and the end-to-end wild
monodromy verification.

`import srt` loads no submodule: each export below is read from its module
the first time it is used (PEP 562), and kept here from then on.
"""
import importlib

# module -> the names srt exports from it
_EXPORTS = {
    "errors": "MissingLabel NoNthRoot PrecisionError PreconditionViolated "
    "ResourceLimit SrtError Unsupported",
    "valuation": "INFINITY ExtendedRational multinomial vp",
    "localfield": "LocalFieldContext LocalFieldElement PthPowerVerdict "
    "is_pth_power nth_root sqrt_of_minus_one",
    "series": "CoverParams GaussRational I_GAUSS TruncatedSeries element_valuation "
    "maclaurin_g scaled_coefficient_valuations taylor_factors",
    "torsor": "A_ONE A_ZERO GENERIC SplitVerdict TailDescriptor TailRadius "
    "insep_center insep_tail_catalog splitting_obstruction tail_center tail_radius",
    "graph": "CycleCheck Edge MonotonicityVerdict ReductionTree SolveResult "
    "TailConfig Vertex check_monotonic check_vanishing_cycles effective_invariant "
    "enumerate_tail_configs invariant_weights propagate_differents validate_tree",
    "ramification": "Filtration compositum_conductor conductor_case "
    "cyclotomic_filtration herbrand upper_from_lower",
    "groups": "GenerationVerdict MatrixElement SylowData element_order "
    "generation_check identity minus_identity solve_trace_system "
    "standard_generators sylow_data",
    "pipeline": "PipelineReport run_wild_monodromy",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
