"""Backtracking gradient methods for objectives with Holder-continuous gradients.

The package couples three layers: analytic and entropic-transport test
problems (:mod:`holderopt.problems`, :mod:`holderopt.sinkhorn`,
:mod:`holderopt.gan`), descent and min-max drivers built around a
never-reset backtracking exponent (:mod:`holderopt.descent`,
:mod:`holderopt.minimax`), and a reproducible experiment harness
(:mod:`holderopt.harness`).
"""

from .descent import (
    BacktrackParams,
    CONVERGED,
    ITER_BUDGET,
    K_CAP_EXCEEDED,
    NumericError,
    ORACLE_BUDGET,
    StopRule,
    Trajectory,
    TrajectoryRecord,
    backtrack_holder_gd,
    backtrack_step,
    holder_gd,
    holder_step,
    k_bound,
    optimal_holder_gamma,
    sufficient_decrease_threshold,
)
from .gan import (
    GanObjective,
    MlpSpec,
    as_minmin_problem,
    init_params,
    mlp_backward,
    mlp_forward,
    pairwise_distances,
    param_count,
)
from .harness import (
    ExperimentConfig,
    build_problem,
    compare_and_plot,
    load_config,
    run_experiment,
    sample_data,
    sample_latents,
)
from .minimax import (
    InnerAscentBudget,
    minmax_backtrack,
    minmax_constant,
    minmax_heuristic,
    minmin_armijo_nonmonotone,
    minmin_backtrack_nonmonotone,
)
from .problems import (
    HolderCertificate,
    MinMaxProblem,
    SmoothObjective,
    ValueFunctionView,
    finite_diff_gradient,
    get_problem,
    make_quadratic_minmin,
    make_quadratic_saddle,
    make_sqrt_problem,
)
from .sinkhorn import (
    SinkhornError,
    TransportPlan,
    entropic_objective,
    sinkhorn_divergence,
    sinkhorn_solve,
)

__version__ = "0.1.0"
