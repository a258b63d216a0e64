"""Graph-based dependence measurement that adapts to manifold structure.

The package computes the rank/nearest-neighbor correlation coefficient,
its dimension-adaptive asymptotic null distribution, independence tests
built on both, and a reproducible simulation harness for size/power
studies.  See README.md for a tour.
"""

__version__ = "0.1.0"

from .dep_tests import (
    TestResult,
    dcor_stats,
    dcor_test_permutation,
    xi_test_asymptotic,
    xi_test_permutation,
)
from .errors import (
    DatasetFormatError,
    DegenerateInputError,
    DuplicatePointsError,
    InvalidInputError,
    ManifoldXiError,
    TieError,
)
from .manifold_gen import (
    GeneratedData,
    ScenarioSpec,
    embed_linear,
    embed_manifold,
    gen_latent,
    generate,
    linear_embedding_matrix,
    matrix_hash,
    wshape,
)
from .nn_graph import (
    EmpiricalConstants,
    MotifCounts,
    NnGraph,
    PointCloud,
    build_nn_graph,
    count_motifs,
    estimate_constants_empirical,
)
from .null_constants import (
    REFERENCE_PAIR_LIMITS,
    REFERENCE_TRIPLE_LIMITS,
    TRIPLE_LIMIT_1D,
    BallGeometry,
    NullConstants,
    ball_geometry,
    ball_volume,
    default_null_constants,
    nn_pair_limit,
    nn_triple_limit_mc,
    null_variance,
)
from .rank_xi import KernelMoments, XiStatistic, compute_ranks, min_kernel_moments, xi_n
from .simulate import (
    ExperimentConfig,
    PowerRecord,
    load_config,
    records_to_csv,
    run_experiment,
)

__all__ = [
    "__version__",
    # errors
    "ManifoldXiError", "InvalidInputError", "DuplicatePointsError",
    "TieError", "DegenerateInputError", "DatasetFormatError",
    # nearest-neighbor graphs
    "PointCloud", "NnGraph", "MotifCounts", "EmpiricalConstants",
    "build_nn_graph", "count_motifs", "estimate_constants_empirical",
    # coefficient
    "XiStatistic", "KernelMoments", "compute_ranks", "xi_n",
    "min_kernel_moments",
    # null constants
    "NullConstants", "BallGeometry", "ball_volume",
    "nn_pair_limit", "nn_triple_limit_mc", "null_variance",
    "default_null_constants", "ball_geometry", "REFERENCE_PAIR_LIMITS",
    "REFERENCE_TRIPLE_LIMITS", "TRIPLE_LIMIT_1D",
    # generators
    "ScenarioSpec", "GeneratedData", "gen_latent", "generate",
    "embed_linear", "embed_manifold", "linear_embedding_matrix",
    "matrix_hash", "wshape",
    # tests
    "TestResult", "xi_test_asymptotic", "xi_test_permutation",
    "dcor_stats", "dcor_test_permutation",
    # harness
    "ExperimentConfig", "PowerRecord", "run_experiment", "load_config",
    "records_to_csv",
]
