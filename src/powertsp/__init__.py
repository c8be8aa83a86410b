"""Power-weighted location-dependent TSP laboratory."""

from .bounds import (
    BetaResult,
    ModelParams,
    beta_bounds,
    chernoff_tail,
    deviation_constants,
    geometric_moment,
    geometric_moment_factorial_bound,
    p_dense,
)
from .experiments import (
    ExperimentConfig,
    SolverPolicy,
    run_convergence,
    run_sandwich,
    run_scaling,
    run_uniform_ratio,
    run_variance,
    write_report,
)
from .geometry import Tiling, build_tiling
from .invariants import run_invariant_suite
from .sampling import Density, PointSample, build_density, sample_binomial
from .solvers import (
    GapStatistics,
    SpanningPath,
    Tour,
    approx_tsp_path,
    gap_statistics,
    grid_tour,
    min_weight_spanning_path,
    solve,
    tour_weight,
    tsp_bruteforce,
    tsp_exact,
    two_opt,
)
from .weights import WeightFunction, edge_weight, make_weight_function, verify_equivalence

__version__ = "0.1.0"
