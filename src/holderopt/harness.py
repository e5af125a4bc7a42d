"""Experiment configuration, sampling, drivers dispatch, and figure output.

A single :class:`ExperimentConfig` pins everything a run needs; the seed fully
determines data (the paper's 8-mode Gaussian ring), latents, and network init
through the fixed Philox streams in :mod:`holderopt.rng`, so identical configs
give byte-identical CSV and SVG outputs. Trajectories are always plotted
against ``oracle_calls`` because the backtracking drivers spend an uneven
number of inner solves per iteration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import problems as _problems
from .descent import BacktrackParams, StopRule, _holder_gamma, holder_gd
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
from .problems import ValueFunctionView, _require, _require_count, _require_positive
from .rng import STREAM_DATA, STREAM_LATENT, RandomStream, _require_u64


# algorithm -> run(problem, x0, config). Each run looks its driver up among this module's
# globals when it is called: perfbench/tracing.py times a driver by replacing its name here,
# and a table of the driver functions themselves would keep running the originals.
_RUNS = {
    "holder_known": lambda p, x0, c: holder_gd(ValueFunctionView(p), x0, p.certificate, c.gamma, c.stop),
    "backtrack_holder": lambda p, x0, c: minmax_backtrack(p, x0, c.params, c.stop),
    "nonmonotone_holder": lambda p, x0, c: minmin_backtrack_nonmonotone(p, x0, c.params, c.stop),
    "nonmonotone_armijo": lambda p, x0, c: minmin_armijo_nonmonotone(p, x0, c.params, c.stop),
    "heuristic_minmax": lambda p, x0, c: minmax_heuristic(p, x0, c.params, c.inner, c.stop),
    "constant": lambda p, x0, c: minmax_constant(p, x0, c.gamma, c.stop),
}
ALGORITHMS = tuple(_RUNS)
# algorithm -> the entry in problems._NEEDS of the driver it runs; holder_known also needs the
# problem's certificate, which it hands to holder_gd
_DRIVER_NEEDS = {
    "holder_known": "value function view",
    "backtrack_holder": "minmax_backtrack",
    "nonmonotone_holder": "minmin_backtrack_nonmonotone",
    "nonmonotone_armijo": "minmin_armijo_nonmonotone",
    "heuristic_minmax": "minmax_heuristic",
    "constant": "minmax_constant",
}

GENERATOR_WIDTHS = (2, 64, 32, 16, 2)
# the paper's comparison budget, for a sinkhorn_gan config that sets no bound:
# the default StopRule's 100 000 iterations of Sinkhorn solves would take hours
GAN_ORACLE_BUDGET = 300


# the paper's data: 8 equal-weight Gaussians of variance 0.02, evenly spaced on the circle of radius 2
_MODES = 8
_RADIUS = 2.0
_VARIANCE = 0.02


def sample_data(n: int, seed: int) -> np.ndarray:
    """Draw n points of the paper's 8-mode Gaussian ring from the data stream.

    Draw order (fixed for reproducibility): n mode uniforms first, then 2n
    normals consumed pairwise per sample.
    """
    stream = RandomStream(seed, STREAM_DATA)
    angles = 2.0 * np.pi * np.arange(_MODES) / _MODES
    means = _RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    mode = np.searchsorted(np.arange(1, _MODES + 1) / _MODES, stream.uniform(n), side="left")
    return means[mode] + np.sqrt(_VARIANCE) * stream.normal(2 * n).reshape(n, 2)


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
    the mean initial cost (resolved when the generator problem is built).
    Only ``heuristic_minmax`` reads ``inner``. ``x0`` is kept as given; the driver checks it."""

    problem: str = "sqrt"
    algorithm: str = "backtrack_holder"
    seed: int = 0
    gamma: Optional[float] = None
    params: BacktrackParams = field(default_factory=BacktrackParams)
    stop: StopRule = field(default_factory=StopRule)
    sample_size: int = 64
    epsilon: Optional[float] = None
    sinkhorn_tol: float = 1e-9
    x0: Optional[np.ndarray] = None
    inner: InnerAscentBudget = field(default_factory=InnerAscentBudget)

    def __post_init__(self):
        algo, _, step = self.algorithm.partition(":") if isinstance(self.algorithm, str) else (None, "", "")
        if step:
            # shorthand like "constant:0.05" pins the fixed step in the name;
            # only constant's run id carries the step, and most drivers never read gamma
            if algo != "constant":
                raise ValueError(f"only constant takes a step as constant:<step>, got {self.algorithm!r}")
            try:
                self.gamma = float(step)
            except ValueError:
                raise ValueError(f"constant takes a number as constant:<step>, got {self.algorithm!r}") from None
            self.algorithm = algo
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choices: {', '.join(ALGORITHMS)}")
        if self.algorithm == "constant" and self.gamma is None:
            raise ValueError("constant needs gamma")
        if self.gamma is not None:
            _require_positive("gamma", self.gamma)
        # a float would build the data of its truncation under a run id that names the float
        _require_u64("seed", self.seed)
        _require_count("sample_size", self.sample_size, 1)
        if self.epsilon is not None:
            _require_positive("epsilon", self.epsilon)
        _require_positive("sinkhorn_tol", self.sinkhorn_tol)
        if self.problem != "sinkhorn_gan":
            _problems._parse_problem_id(self.problem)  # refuse an unknown or malformed id before any run

    def run_id(self) -> str:
        parts = [self.problem.replace(":", "-"), self.algorithm]
        if self.algorithm == "constant":
            # six significant digits where they give the step back, else its shortest round-trip form,
            # so that two different steps never share a run id and a CSV path
            step = float(self.gamma)
            parts.append("g" + (f"{step:g}" if float(f"{step:g}") == step else repr(step)))
        parts.append(f"seed{self.seed}")
        return "_".join(parts)


def build_problem(config: ExperimentConfig):
    """Instantiate the configured problem. Returns (problem, x0), x0 the configured start or the
    problem's default, as given: the driver checks it."""
    if config.problem == "sinkhorn_gan":
        spec = MlpSpec(GENERATOR_WIDTHS)
        data = sample_data(config.sample_size, config.seed)
        latents = sample_latents(config.sample_size, config.seed, dim=spec.widths[0])
        theta0 = init_params(spec, config.seed)
        eps = config.epsilon
        if eps is None:
            eps = 0.01 * float(pairwise_distances(mlp_forward(spec, theta0, latents), data).mean())
        gan = GanObjective(spec, latents, data, epsilon=eps, sinkhorn_tol=config.sinkhorn_tol)
        problem = as_minmin_problem(gan)
        problem.x0_default = theta0
    else:
        problem = _problems.get_problem(config.problem)
    return problem, problem.x0_default if config.x0 is None else config.x0


def _build_runnable(config: ExperimentConfig):
    """``build_problem(config)``, refused with the ValueError that the config's driver would raise of
    the problem: a sense, an inner oracle or a certificate that the problem lacks, or, for
    ``holder_known``, a step scale outside the range that the problem's certificate allows."""
    problem, x0 = build_problem(config)
    _require(problem, _DRIVER_NEEDS[config.algorithm])
    if config.algorithm == "holder_known":
        _holder_gamma(problem.certificate, config.gamma)
    return problem, x0


def _run_built(config: ExperimentConfig, problem, x0, out_dir):
    """Run ``config``'s driver on its built problem from ``x0``; write the CSV into ``out_dir`` if given."""
    traj = _RUNS[config.algorithm](problem, x0, config)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        traj.to_csv(os.path.join(out_dir, config.run_id() + ".csv"))
    return traj


def run_experiment(config: ExperimentConfig, out_dir=None):
    """Run one configured driver; optionally write the trajectory CSV.

    Every algorithm returns a :class:`holderopt.descent.Trajectory`; its CSV
    uses the plain descent header for ``holder_known``, which runs
    :func:`holderopt.descent.holder_gd` on the value-function view, and the
    min-max header otherwise. The CSV's x-axis column is ``oracle_calls``.
    """
    return _run_built(config, *build_problem(config), out_dir)


def compare_and_plot(configs, out_path, out_dir=None):
    """Run every config, writing its CSV to ``out_dir`` if given, then draw one
    polyline per run with :func:`holderopt.plotting.render_comparison` into the
    SVG at ``out_path``, whose y axis is a log scale when every objective is
    positive. Returns the list of (run id, trajectory) pairs in input order.

    Before the first run, and before ``out_dir`` is made, the run ids must differ,
    and every config's problem is built, once, and checked with the error its driver
    would raise of it. Each run then uses the problem built for it, which is
    released when the run returns.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one config")
    run_ids = [cfg.run_id() for cfg in configs]
    if len(set(run_ids)) < len(run_ids):
        raise ValueError(f"configs must have distinct run ids, got {', '.join(run_ids)}")
    built = [_build_runnable(cfg) for cfg in configs]
    # popped, so that each problem is released when its run returns
    results = [(run_id, _run_built(cfg, *built.pop(0), out_dir)) for run_id, cfg in zip(run_ids, configs)]
    write_svg(render_comparison([(run_id, t.oracle_calls, t.f_values) for run_id, t in results]), out_path)
    return results


# --- flat key = value config files -------------------------------------------

# config key -> (parser of its text, part, field): the key sets ``field`` of ExperimentConfig when
# ``part`` is None, else of the config's BacktrackParams, StopRule or InnerAscentBudget
_CONFIG_KEYS = {
    "problem": (str, None, "problem"),
    "algorithm": (str, None, "algorithm"),
    "seed": (int, None, "seed"),
    "gamma": (float, None, "gamma"),
    "alpha": (float, "params", "alpha"),
    "delta": (float, "params", "delta"),
    "delta_plus": (float, "params", "delta_plus"),
    "rho": (float, "params", "rho"),
    "k_max": (int, "params", "k_max"),
    "grad_tol": (float, "stop", "grad_tol"),
    "max_iters": (int, "stop", "max_iters"),
    "max_oracle_calls": (int, "stop", "max_oracle_calls"),
    "sample_size": (int, None, "sample_size"),
    "epsilon": (float, None, "epsilon"),
    "sinkhorn_tol": (float, None, "sinkhorn_tol"),
    "x0": (lambda text: np.array([float(v) for v in text.split(",")]), None, "x0"),
    "inner_steps": (int, "inner", "steps"),
    "inner_step_size": (float, "inner", "step_size"),
}


def _unknown_key(key) -> ValueError:
    return ValueError(f"unknown key {key!r}; valid keys: {', '.join(sorted(_CONFIG_KEYS))}")


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines, each key once; ``#`` starts a comment line (no inline comments)."""
    values, lines = {}, {}
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
            raise ValueError(f"line {lineno}: {_unknown_key(key)}")
        if key in lines:
            raise ValueError(f"line {lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        try:
            values[key] = _CONFIG_KEYS[key][0](val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from exc
    return values


def config_from_values(values: dict) -> ExperimentConfig:
    """Assemble an ExperimentConfig from parsed key/value pairs, each key set where ``_CONFIG_KEYS``
    routes it; ``gamma`` also sets ``params.gamma``, unset keys keep the dataclass defaults, and a key
    that ``_CONFIG_KEYS`` does not name raises ValueError.

    A ``sinkhorn_gan`` config that sets neither ``max_iters`` nor
    ``max_oracle_calls`` stops after ``GAN_ORACLE_BUDGET`` oracle calls.
    """
    parts = {None: {}, "params": {}, "stop": {}, "inner": {}}
    for key, value in values.items():
        if key not in _CONFIG_KEYS:
            raise _unknown_key(key)
        _, part, name = _CONFIG_KEYS[key]
        parts[part][name] = value
    if "gamma" in values:
        parts["params"]["gamma"] = values["gamma"]
    if values.get("problem") == "sinkhorn_gan" and not {"max_iters", "max_oracle_calls"} & parts["stop"].keys():
        parts["stop"]["max_oracle_calls"] = GAN_ORACLE_BUDGET
    nested = {"params": BacktrackParams, "stop": StopRule, "inner": InnerAscentBudget}
    return ExperimentConfig(**parts[None], **{part: cls(**parts[part]) for part, cls in nested.items()})


def load_config(path=None, **overrides) -> ExperimentConfig:
    """Read a config file, or none when ``path`` is None, and apply the keyword overrides that are not
    None (e.g. from CLI flags), each named by its config key; an unknown key raises ValueError."""
    values = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            values = parse_config_text(fh.read())
    values.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_values(values)
