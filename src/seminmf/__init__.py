"""Semi-nonnegative matrix factorization toolkit.

Factorizations M ~ U V with V entrywise nonnegative: exact polynomial
time factorization at the semi-nonnegative rank, SVD-based starts with a
provable error bound, a shift-and-correct heuristic start, a coordinate
descent refinement solver, and a seeded benchmark harness.
"""

__version__ = "0.1.0"

from .bench import (
    ExperimentRecord,
    TrialConfig,
    gen_noisy_semi,
    gen_nonnegative,
    gen_semi_nonneg,
    quality,
    quality_from_error,
    run_experiment,
)
from .exceptions import LpInfeasible, LpUnbounded, NumericalError
from .factors import (
    Factorization,
    SemiRankReport,
    exact_semi_nmf_same_rank,
    lift_rank_plus_one,
    semi_rank,
    sign_flip,
)
from .halfspace import (
    BisectionResult,
    HalfspaceCertificate,
    bisection_epsilon,
    closed_form_certificate,
    lp_feasibility,
    nnls_certificate,
)
from .initializers import InitStrategy, init_a2, init_a3, init_km, init_rd, initialize
from .kmeans import kmeans
from .linalg import (
    Svd,
    best_rank_error,
    least_squares_left,
    random_gaussian,
    random_uniform,
    thin_svd,
)
from .matio import read_matrix, write_matrix
from .solver import SolveTrace, cd_semi_nmf, cd_semi_nmf_stack

__all__ = [
    "__version__",
    "BisectionResult",
    "ExperimentRecord",
    "Factorization",
    "HalfspaceCertificate",
    "InitStrategy",
    "LpInfeasible",
    "LpUnbounded",
    "NumericalError",
    "SemiRankReport",
    "SolveTrace",
    "Svd",
    "TrialConfig",
    "best_rank_error",
    "bisection_epsilon",
    "cd_semi_nmf",
    "cd_semi_nmf_stack",
    "closed_form_certificate",
    "exact_semi_nmf_same_rank",
    "gen_noisy_semi",
    "gen_nonnegative",
    "gen_semi_nonneg",
    "init_a2",
    "init_a3",
    "init_km",
    "init_rd",
    "initialize",
    "kmeans",
    "least_squares_left",
    "lift_rank_plus_one",
    "lp_feasibility",
    "nnls_certificate",
    "quality",
    "quality_from_error",
    "random_gaussian",
    "random_uniform",
    "read_matrix",
    "run_experiment",
    "semi_rank",
    "sign_flip",
    "thin_svd",
    "write_matrix",
]
