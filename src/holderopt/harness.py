"""Experiment configuration, sampling, drivers dispatch, and figure output.

A single :class:`ExperimentConfig` pins everything a run needs; the seed fully
determines data, latents, and network init through the fixed Philox streams in
:mod:`holderopt.rng`, so identical configs give byte-identical CSV and SVG
outputs. Trajectories are always plotted against ``oracle_calls`` because the
backtracking drivers spend an uneven number of inner solves per iteration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import problems as _problems
from .descent import BacktrackParams, StopRule, holder_gd
from .gan import GanObjective, MlpSpec, as_minmin_problem, init_params, mlp_forward, pairwise_distances
from .minimax import (
    InnerAscentBudget,
    minmax_backtrack,
    minmax_constant,
    minmax_heuristic,
    minmin_armijo_nonmonotone,
    minmin_backtrack_nonmonotone,
)
from .plotting import render_comparison, write_svg
from .problems import ValueFunctionView
from .rng import STREAM_DATA, STREAM_LATENT, RandomStream

ALGORITHMS = (
    "holder_known",
    "backtrack_holder",
    "nonmonotone_holder",
    "nonmonotone_armijo",
    "heuristic_minmax",
    "constant",
)

GENERATOR_WIDTHS = (2, 64, 32, 16, 2)
# the paper's comparison budget, for a sinkhorn_gan config that sets no bound:
# the default StopRule's 100 000 iterations of Sinkhorn solves would take hours
GAN_ORACLE_BUDGET = 300


@dataclass
class GaussianMixtureSpec:
    """Finite Gaussian mixture in the plane (or any fixed dimension)."""

    means: np.ndarray  # (k, d)
    covs: np.ndarray  # (k, d, d)
    weights: np.ndarray  # (k,), positive, summing to 1

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.covs = np.asarray(self.covs, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        k, d = self.means.shape
        if self.covs.shape != (k, d, d):
            raise ValueError(f"covs must have shape ({k}, {d}, {d}), got {self.covs.shape}")
        if self.weights.shape != (k,) or np.any(self.weights <= 0):
            raise ValueError("weights must be positive with one entry per component")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {self.weights.sum()}")
        # fails loudly on a non-SPD covariance
        self._chols = np.linalg.cholesky(self.covs)


def default_mixture(components: int = 8, radius: float = 2.0, variance: float = 0.02) -> GaussianMixtureSpec:
    """Equal-weight isotropic Gaussians with means equally spaced on a circle."""
    angles = 2.0 * np.pi * np.arange(components) / components
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    covs = np.tile(variance * np.eye(2), (components, 1, 1))
    weights = np.full(components, 1.0 / components)
    return GaussianMixtureSpec(means, covs, weights)


def sample_data(mixture: GaussianMixtureSpec, n: int, seed: int) -> np.ndarray:
    """Draw n mixture samples from the data stream.

    Draw order (fixed for reproducibility): n component uniforms first, then
    2n normals consumed pairwise per sample.
    """
    stream = RandomStream(seed, STREAM_DATA)
    cum = np.cumsum(mixture.weights)
    cum[-1] = 1.0
    u = stream.uniform(n)
    comp = np.searchsorted(cum, u, side="left")
    d = mixture.means.shape[1]
    z = stream.normal(n * d).reshape(n, d)
    return mixture.means[comp] + np.einsum("nij,nj->ni", mixture._chols[comp], z)


def sample_latents(n: int, seed: int, dim: int = 2) -> np.ndarray:
    """n uniform latent points in the unit cube, from the latent stream, row-major."""
    return RandomStream(seed, STREAM_LATENT).uniform(n * dim).reshape(n, dim)


@dataclass
class ExperimentConfig:
    """Everything one run needs. ``gamma`` is the fixed step for ``constant``
    and an optional override of the known-constants step scale for
    ``holder_known``; the backtracking drivers read their own ``params.gamma``.
    ``algorithm="constant:<step>"`` sets ``gamma``; any other algorithm with a
    ``:<step>`` suffix raises ValueError. ``epsilon=None`` means 0.01 times
    the mean initial cost (resolved when the generator problem is built)."""

    problem: str = "sqrt"
    algorithm: str = "backtrack_holder"
    seed: int = 0
    gamma: Optional[float] = None
    params: BacktrackParams = field(default_factory=lambda: BacktrackParams(delta_plus=0.95))
    stop: StopRule = field(default_factory=StopRule)
    sample_size: int = 64
    epsilon: Optional[float] = None
    sinkhorn_tol: float = 1e-9
    x0: Optional[np.ndarray] = None
    inner: InnerAscentBudget = field(default_factory=InnerAscentBudget)

    def __post_init__(self):
        algo, _, step = self.algorithm.partition(":")
        if step:
            # shorthand like "constant:0.05" pins the fixed step in the name;
            # only constant's run id carries the step, and most drivers never read gamma
            if algo != "constant":
                raise ValueError(f"only constant takes a step as constant:<step>, got {self.algorithm!r}")
            self.algorithm = algo
            self.gamma = float(step)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choices: {', '.join(ALGORITHMS)}")
        if self.algorithm == "constant" and self.gamma is None:
            raise ValueError("constant needs gamma")
        if self.algorithm.startswith("nonmonotone") and self.params.delta_plus is None:
            raise ValueError(f"{self.algorithm} needs params.delta_plus")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.x0 is not None:
            self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))

    def run_id(self) -> str:
        parts = [self.problem.replace(":", "-"), self.algorithm]
        if self.algorithm == "constant":
            parts.append(f"g{self.gamma:g}")
        parts.append(f"seed{self.seed}")
        return "_".join(parts)


def build_problem(config: ExperimentConfig):
    """Instantiate the configured problem. Returns (problem, x0)."""
    if config.problem == "sinkhorn_gan":
        spec = MlpSpec(GENERATOR_WIDTHS)
        data = sample_data(default_mixture(), config.sample_size, config.seed)
        latents = sample_latents(config.sample_size, config.seed, dim=spec.widths[0])
        theta0 = init_params(spec, config.seed)
        eps = config.epsilon
        if eps is None:
            eps = 0.01 * float(pairwise_distances(mlp_forward(spec, theta0, latents), data).mean())
        gan = GanObjective(spec, latents, data, epsilon=eps, sinkhorn_tol=config.sinkhorn_tol)
        problem = as_minmin_problem(gan)
        x0 = theta0 if config.x0 is None else config.x0
    else:
        problem = _problems.get_problem(config.problem)
        x0 = problem.x0_default if config.x0 is None else config.x0
        if x0 is None:
            raise ValueError(f"problem {config.problem!r} has no default start; set x0")
    return problem, problem.start_point(x0)


def run_experiment(config: ExperimentConfig, out_dir=None):
    """Run one configured driver; optionally write the trajectory CSV.

    Every algorithm returns a :class:`holderopt.descent.Trajectory`; its CSV
    uses the plain descent header for ``holder_known``, which runs
    :func:`holderopt.descent.holder_gd` on the value-function view, and the
    min-max header otherwise. The CSV's x-axis column is ``oracle_calls``.
    """
    problem, x0 = build_problem(config)
    algo = config.algorithm
    if algo == "holder_known":
        if problem.certificate is None:
            raise ValueError(f"problem {config.problem!r} carries no smoothness certificate")
        view = ValueFunctionView(problem)
        traj = holder_gd(view, x0, problem.certificate, gamma=config.gamma, stop=config.stop)
    elif algo == "backtrack_holder":
        traj = minmax_backtrack(problem, x0, config.params, config.stop)
    elif algo == "nonmonotone_holder":
        traj = minmin_backtrack_nonmonotone(problem, x0, config.params, config.stop)
    elif algo == "nonmonotone_armijo":
        traj = minmin_armijo_nonmonotone(problem, x0, config.params, config.stop)
    elif algo == "heuristic_minmax":
        traj = minmax_heuristic(problem, x0, config.params, config.inner, config.stop)
    else:  # constant
        traj = minmax_constant(problem, x0, config.gamma, config.stop, config.inner)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        traj.to_csv(os.path.join(out_dir, config.run_id() + ".csv"))
    return traj


def compare_and_plot(configs, out_path, out_dir=None, title: str = ""):
    """Run every config and render one polyline per run into an SVG.

    Returns the list of (run id, trajectory) pairs in input order. The y axis
    switches to log scale when every objective value is positive.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one config")
    run_ids = [cfg.run_id() for cfg in configs]
    if len(set(run_ids)) < len(run_ids):
        raise ValueError(f"configs must have distinct run ids, got {', '.join(run_ids)}")
    results = []
    curves = []
    for run_id, cfg in zip(run_ids, configs):
        traj = run_experiment(cfg, out_dir=out_dir)
        results.append((run_id, traj))
        curves.append((run_id, traj.oracle_calls, traj.f_values))
    log_y = all(np.all(c[2] > 0) for c in curves)
    svg = render_comparison(curves, title=title, x_label="oracle calls", y_label="objective", log_y=log_y)
    write_svg(svg, out_path)
    return results


# --- flat key = value config files -------------------------------------------

_CONFIG_KEYS = {
    "problem": str,
    "algorithm": str,
    "seed": int,
    "gamma": float,
    "alpha": float,
    "delta": float,
    "delta_plus": float,
    "rho": float,
    "k_max": int,
    "grad_tol": float,
    "max_iters": int,
    "max_oracle_calls": int,
    "sample_size": int,
    "epsilon": float,
    "sinkhorn_tol": float,
    "x0": "vector",
    "inner_steps": int,
    "inner_step_size": float,
    "warm_start": "bool",
}
# config key -> InnerAscentBudget field
_INNER_FIELDS = {"inner_steps": "steps", "inner_step_size": "step_size", "warm_start": "warm_start"}


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; ``#`` starts a comment line."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(
                f"line {lineno}: unknown key {key!r}; valid keys: {', '.join(sorted(_CONFIG_KEYS))}"
            )
        kind = _CONFIG_KEYS[key]
        if kind == "vector":
            values[key] = np.array([float(v) for v in val.split(",")])
        elif kind == "bool":
            if val.lower() not in ("true", "false"):
                raise ValueError(f"line {lineno}: {key} must be true or false, got {val!r}")
            values[key] = val.lower() == "true"
        else:
            values[key] = kind(val)
    return values


def config_from_values(values: dict) -> ExperimentConfig:
    """Assemble an ExperimentConfig from parsed key/value pairs; unset keys
    keep the dataclass defaults, and ``gamma`` also sets ``params.gamma``.

    A ``sinkhorn_gan`` config that sets neither ``max_iters`` nor
    ``max_oracle_calls`` stops after ``GAN_ORACLE_BUDGET`` oracle calls.
    """

    def pick(*keys):
        return {key: values[key] for key in keys if key in values}

    params = BacktrackParams(**{"delta_plus": 0.95, **pick("gamma", "alpha", "delta", "delta_plus", "rho", "k_max")})
    stop_fields = pick("grad_tol", "max_iters", "max_oracle_calls")
    if values.get("problem") == "sinkhorn_gan" and not {"max_iters", "max_oracle_calls"} & stop_fields.keys():
        stop_fields["max_oracle_calls"] = GAN_ORACLE_BUDGET
    inner_fields = {field: values[key] for key, field in _INNER_FIELDS.items() if key in values}
    return ExperimentConfig(
        **pick("problem", "algorithm", "seed", "gamma", "sample_size", "epsilon", "sinkhorn_tol", "x0"),
        params=params,
        stop=StopRule(**stop_fields),
        inner=InnerAscentBudget(**inner_fields),
    )


def load_config(path, **overrides) -> ExperimentConfig:
    """Read a config file and apply keyword overrides (e.g. from CLI flags)."""
    with open(path, "r", encoding="utf-8") as fh:
        values = parse_config_text(fh.read())
    values.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_values(values)
