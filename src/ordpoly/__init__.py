"""Exact interpolation and ranking over partially ordered [0,1] variables.

Variables live in [0, 1] under order constraints ``x <= y`` and pinned
exact values.  The admissible points form a polytope; unknown variables
are interpolated as expected values under the uniform distribution over
that polytope, with all arithmetic exact (rational).  The package also
ranks variables under three top-k semantics, carries a polynomial-time
engine for tree-shaped constraint sets, and a sampler for everything too
large for the exact engines: exact independent draws where the lattice
tables fit, hit-and-run beyond them.

Public names load with their submodule on first access (PEP 562), so
``import ordpoly`` costs almost nothing and numpy is imported only when
the sampler is.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; the one list of the package's API
_EXPORTS = {
    "errors": (
        "DEFAULT_BUDGET",
        "BudgetExceededError",
        "ContradictionError",
        "LimitExceededError",
        "MalformedInputError",
        "OrdpolyError",
        "PersistentTieError",
        "SamplerError",
        "ShapeError",
    ),
    "poly": (
        "NonNormalizedError",
        "PiecewisePolynomial",
        "Polynomial",
        "Rational",
        "format_rational",
        "order_statistic_density",
        "parse_rational",
        "pw_expectation",
    ),
    "model": (
        "SHAPE_GENERAL",
        "SHAPE_REVERSE_TREE",
        "SHAPE_TOTAL_ORDER",
        "SHAPE_TREE",
        "ConsistencyReport",
        "ConstraintSet",
        "HasseDiagram",
        "PartSkeleton",
        "TieQuotient",
        "UninfluenceDecomposition",
        "VariableId",
        "check_consistency",
        "classify_shape",
        "close_under_implication",
        "collapse_ties",
        "decompose",
        "flip_constraints",
        "hasse",
        "part_skeleton",
        "polytope_dimension",
    ),
    "fileio": (),
    "exact": (
        "count_extensions",
        "expected_rank",
        "interpolate_all",
        "interpolate_exact",
        "marginal_exact",
        "volume_exact",
    ),
    "tree": (
        "ConstraintTree",
        "as_tree",
        "interpolate_decomposed",
        "interpolate_tree",
        "marginal_decomposed",
        "marginal_tree",
        "tree_from_part",
        "volume_tree",
    ),
    "stable": (
        "StabilityReport",
        "StableAssignment",
        "check_stability",
        "stable_interpolate",
    ),
    "topk": (
        "SEMANTICS_GLOBAL",
        "SEMANTICS_LOCAL",
        "SEMANTICS_U",
        "ContainmentReport",
        "SelectionPredicate",
        "TopKResult",
        "check_containment",
        "global_topk",
        "local_topk",
        "select",
        "u_sequence_probabilities",
        "u_topk",
    ),
    "sampler": (
        "EstimateResult",
        "PointSample",
        "SamplePoint",
        "SamplerConfig",
        "TopKEstimate",
        "estimate_expected_value",
        "estimate_topk",
        "hit_and_run_sample",
        "interior_point",
        "sample_points",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "__version__", "fileio"])


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, e.g. ordpoly.fileio
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
