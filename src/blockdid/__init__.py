"""Cohort-anchored robust inference for staggered-adoption event studies.

The package estimates cohort-period treatment effects and pre-treatment
block biases, decomposes estimator biases through an invertible linear map,
places polyhedral restriction families on the block biases, and constructs
plug-in identified sets and hybrid-test confidence sets for linear targets.
"""

from .biasmap import BiasMap, build_w_csnyt, build_w_imputation, invert
from .estimators import AggregatedSeries, CoefficientSet, aggregate, estimate
from .inference import (
    GridSpec,
    IntervalSet,
    TargetFunctional,
    aggregated_att_target,
    aggregated_system,
    by_period_target,
    confidence_set,
    corrected_point,
    custom_target,
    default_grid,
    hybrid_test,
    overall_att_target,
    plugin_identified_set,
)
from .panel import (
    CellIndex,
    CohortLayout,
    PanelData,
    build_cell_index,
    build_layout,
    load_panel,
)
from .restrictions import (
    Polyhedron,
    RestrictionFamily,
    family_summary,
    map_to_delta_space,
    rm_cohort,
    rm_global,
    sd,
    with_normalization,
)
from .simgen import DGPSpec, Violation, gen_custom, gen_example1, gen_example2, gen_toy
from .vcov import BootstrapSpec, bootstrap_vcov

__version__ = "0.1.0"

__all__ = [
    "AggregatedSeries",
    "BiasMap",
    "BootstrapSpec",
    "CellIndex",
    "CoefficientSet",
    "CohortLayout",
    "DGPSpec",
    "GridSpec",
    "IntervalSet",
    "PanelData",
    "Polyhedron",
    "RestrictionFamily",
    "TargetFunctional",
    "Violation",
    "aggregate",
    "aggregated_att_target",
    "aggregated_system",
    "bootstrap_vcov",
    "build_cell_index",
    "build_layout",
    "build_w_csnyt",
    "build_w_imputation",
    "by_period_target",
    "confidence_set",
    "corrected_point",
    "custom_target",
    "default_grid",
    "estimate",
    "family_summary",
    "gen_custom",
    "gen_example1",
    "gen_example2",
    "gen_toy",
    "hybrid_test",
    "invert",
    "load_panel",
    "map_to_delta_space",
    "overall_att_target",
    "plugin_identified_set",
    "rm_cohort",
    "rm_global",
    "sd",
    "with_normalization",
]
