"""Fused FIR soft-sensor estimation across working conditions.

Estimates one FIR model per operating condition under a single criterion
combining squared error, pairwise model fusion and coefficient sparsity,
computes closed-form penalty bounds, tunes weights by grid search, merges
conditions by k-means and evaluates with the FIT percentage.
"""

from .bounds import (
    BoundsReport,
    FusionUndefinedError,
    compute_bounds,
    lambda1_max,
    lambda2_max,
)
from .criterion import (
    Hyperparameters,
    ObjectiveBreakdown,
    fusion_value,
    fusion_value_squared,
    objective,
    prox_block_l2,
    prox_l1,
)
from .data import (
    ConditionDataset,
    IngestionError,
    ManifestEntry,
    ModelStructure,
    ParameterVector,
    RegressionProblem,
    SyntheticScenario,
    build_regressor,
    generate_synthetic,
    load_dataset,
    load_manifest,
)
from .estimation import LsFit, ls_fit, pooled_ls_fit
from .pipeline import (
    ClusterAssignment,
    FitReport,
    GridSearchResult,
    GridSpec,
    PipelineReport,
    cross_evaluate,
    fit_metric,
    grid_search,
    kmeans,
    refit_clusters,
    run_pipeline,
)
from .solver import (
    SolveResult,
    SolverConfig,
    merged_pairs,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "ClusterAssignment",
    "ConditionDataset",
    "FitReport",
    "FusionUndefinedError",
    "GridSearchResult",
    "GridSpec",
    "Hyperparameters",
    "IngestionError",
    "LsFit",
    "ManifestEntry",
    "ModelStructure",
    "ObjectiveBreakdown",
    "ParameterVector",
    "PipelineReport",
    "RegressionProblem",
    "SolveResult",
    "SolverConfig",
    "SyntheticScenario",
    "build_regressor",
    "compute_bounds",
    "cross_evaluate",
    "fit_metric",
    "fusion_value",
    "fusion_value_squared",
    "generate_synthetic",
    "grid_search",
    "kmeans",
    "lambda1_max",
    "lambda2_max",
    "load_dataset",
    "load_manifest",
    "ls_fit",
    "merged_pairs",
    "objective",
    "pooled_ls_fit",
    "prox_block_l2",
    "prox_l1",
    "refit_clusters",
    "run_pipeline",
    "solve",
]
