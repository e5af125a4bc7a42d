"""The benchmark's four workloads: inputs made from the seed, fixed work done
through the package's public calls.

A workload is a list of operations; one operation is one public call
(``harness.run_experiment``, ``harness.compare_and_plot`` or ``cli.main``)
that runs one or more drivers and writes one trajectory CSV per driver run.
Each driver run is one operation in the benchmark's ``attempted`` count.

Why each workload exists, and which layer it isolates, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from holderopt import cli, harness
from holderopt.descent import ORACLE_BUDGET, BacktrackParams, StopRule
from holderopt.gan import MlpSpec, init_params

WORKLOADS = ("gan_backtrack", "gan_constant", "gan_cli_fine", "analytic_drivers")

# The generator workloads all train the instance of acceptance test 08
# (problem seed 0); the benchmark seed only relabels hidden units, see
# permuted_init.
GAN_PROBLEM_SEED = 0
GAN_EPSILON = 0.2
GAN_SINKHORN_TOL = 1e-7
CLI_SINKHORN_TOL = 1e-9  # ExperimentConfig's default, used by gan_cli_fine
CONSTANT_GAMMAS = (0.01, 0.05, 0.1)

ANALYTIC_DIM = 64
ANALYTIC_RADIUS = 8.0  # |ones(64)|, the default start's norm
# (problem, algorithm, config fields, oracle budget). Every run ends on its
# budget: no exact zero gradient, no subnormal decay, no overflow.
ANALYTIC_RUNS = (
    ("quadratic_saddle:64", "holder_known", {"gamma": 0.01}, 20_000),
    ("quadratic_saddle:64", "backtrack_holder", {"params": BacktrackParams(gamma=5.0, delta_plus=0.95)}, 20_000),
    ("quadratic_minmin:64", "nonmonotone_holder", {"params": BacktrackParams(gamma=5.0, delta_plus=0.95)}, 20_000),
    ("quadratic_minmin:64", "nonmonotone_armijo", {"params": BacktrackParams(gamma=0.01, delta_plus=0.95)}, 20_000),
    # 50 inner ascent steps per call make this oracle ~12x dearer than the others
    ("quadratic_saddle:64", "heuristic_minmax", {"params": BacktrackParams(gamma=0.01, delta_plus=0.95)}, 5_000),
    ("quadratic_saddle:64", "constant", {"gamma": 0.01}, 20_000),
)
BACKTRACKING = ("backtrack_holder", "nonmonotone_holder", "nonmonotone_armijo")

# --smoke budgets: every workload in a few seconds, for the self-test
SMOKE_BUDGETS = {"gan_backtrack": 12, "gan_constant": 6, "gan_cli_fine": 3, "analytic_drivers": 200}


class OperationFailed(RuntimeError):
    """A public call reported failure without raising (the CLI's exit code)."""


@dataclass
class DriverRun:
    """What one driver run must produce, and the rules its CSV is checked by."""

    label: str  # the config's run id, also the CSV's file stem
    csv_path: str
    budget: int
    k_max: int
    # sufficient-decrease fraction for backtracking drivers, whose accepted
    # steps are replayed and whose objective must never rise; None otherwise
    delta: Optional[float] = None
    expected_status: str = ORACLE_BUDGET


@dataclass
class Operation:
    """One public call. ``call()`` returns {run label: terminal status}."""

    call: Callable[[], dict]
    runs: list


@dataclass
class Plan:
    operations: list
    final_objective: Callable[[dict], float]  # {label: rows} -> value
    sinkhorn_tol: Optional[float] = None  # None: the workload solves no transport
    svg_path: Optional[str] = None  # the comparison plot, for compare_and_plot

    @property
    def runs(self) -> list:
        return [r for op in self.operations for r in op.runs]


def permuted_init(seed: int) -> np.ndarray:
    """Generator start for the fixed instance, hidden units relabelled by ``seed``.

    Permuting the units of a hidden layer (rows of its weights and bias,
    columns of the next layer's weights) leaves the network function
    unchanged, so every seed trains the same generator on the same data and
    does the same work; only summation orders, and so the last bits, differ.
    Seed 0 keeps the original order, which is acceptance test 08 bit for bit.
    """
    widths = harness.GENERATOR_WIDTHS
    theta = init_params(MlpSpec(widths), GAN_PROBLEM_SEED)
    if seed == 0:
        return theta
    layers, at = [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        W = theta[at : at + fan_in * fan_out].reshape(fan_out, fan_in)
        at += fan_in * fan_out
        layers.append((W, theta[at : at + fan_out]))
        at += fan_out
    rng = np.random.default_rng(seed)
    for i in range(len(layers) - 1):
        p = rng.permutation(layers[i][1].size)
        (W, b), (W_next, b_next) = layers[i], layers[i + 1]
        layers[i] = (W[p], b[p])
        layers[i + 1] = (W_next[:, p], b_next)
    return np.concatenate([np.concatenate([W.ravel(), b]) for W, b in layers])


def analytic_start(rng: np.random.Generator) -> np.ndarray:
    """A start on the sphere of radius 8: the quadratics are isotropic, so the
    direction changes the bits of a run but not its work."""
    u = rng.standard_normal(ANALYTIC_DIM)
    return ANALYTIC_RADIUS * u / np.linalg.norm(u)


def _stop(budget: int) -> StopRule:
    return StopRule(grad_tol=0.0, max_iters=10**9, max_oracle_calls=budget)


def _driver_run(config: harness.ExperimentConfig, out_dir: str, budget: int, delta=None) -> DriverRun:
    label = config.run_id()
    return DriverRun(label, os.path.join(out_dir, label + ".csv"), budget, config.params.k_max, delta)


def _run_one(config, out_dir):
    def call():
        traj = harness.run_experiment(config, out_dir=out_dir)
        return {config.run_id(): traj.terminal_status}

    return call


def _final_value(rows_by_label: dict) -> float:
    (rows,) = rows_by_label.values()
    return rows[-1].value


def _gan_config(seed: int, budget: int, **fields) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        problem="sinkhorn_gan",
        seed=GAN_PROBLEM_SEED,
        x0=permuted_init(seed),
        stop=_stop(budget),
        epsilon=GAN_EPSILON,
        sinkhorn_tol=GAN_SINKHORN_TOL,
        **fields,
    )


def gan_backtrack(seed: int, out_dir: str, budget: int = 300) -> Plan:
    config = _gan_config(seed, budget, algorithm="nonmonotone_holder")
    run = _driver_run(config, out_dir, budget, delta=config.params.delta)
    return Plan([Operation(_run_one(config, out_dir), [run])], _final_value, GAN_SINKHORN_TOL)


def gan_constant(seed: int, out_dir: str, budget: int = 300) -> Plan:
    configs = [_gan_config(seed, budget, algorithm="constant", gamma=g) for g in CONSTANT_GAMMAS]
    svg_path = os.path.join(out_dir, "comparison.svg")

    def call():
        results = harness.compare_and_plot(configs, svg_path, out_dir=out_dir)
        return {run_id: traj.terminal_status for run_id, traj in results}

    def best_baseline_value(rows_by_label):
        # test 08's comparison value: the lowest objective any baseline reaches
        return min(r.value for rows in rows_by_label.values() for r in rows)

    runs = [_driver_run(c, out_dir, budget) for c in configs]
    return Plan([Operation(call, runs)], best_baseline_value, GAN_SINKHORN_TOL, svg_path)


_SUMMARY = re.compile(r"^(\S+): status=(\S+) ")


def gan_cli_fine(seed: int, out_dir: str, budget: int = 60) -> Plan:
    """The CLI at the default epsilon and tolerance, started from the relabelled init."""
    x0 = permuted_init(seed)
    config_path = os.path.join(out_dir, "gan_cli_fine.cfg")
    text = (
        "problem = sinkhorn_gan\n"
        "algorithm = nonmonotone_holder\n"
        f"seed = {GAN_PROBLEM_SEED}\n"
        f"max_oracle_calls = {budget}\n"
        f"x0 = {','.join(repr(float(v)) for v in x0)}\n"
    )
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    config = harness.load_config(config_path)
    argv = ["--config", config_path, "--out", out_dir]

    def call():
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        if code != 0:
            raise OperationFailed(f"cli exited with {code}")
        return dict(m.groups() for m in map(_SUMMARY.match, captured.getvalue().splitlines()) if m)

    run = _driver_run(config, out_dir, budget, delta=config.params.delta)
    return Plan([Operation(call, [run])], _final_value, CLI_SINKHORN_TOL)


def analytic_drivers(seed: int, out_dir: str, budget: Optional[int] = None) -> Plan:
    """Every driver on an analytic problem, start points drawn from the seed."""
    rng = np.random.default_rng(seed)
    operations = []
    for problem, algorithm, fields, run_budget in ANALYTIC_RUNS:
        run_budget = budget or run_budget
        config = harness.ExperimentConfig(
            problem=problem, algorithm=algorithm, x0=analytic_start(rng), stop=_stop(run_budget), **fields
        )
        delta = config.params.delta if algorithm in BACKTRACKING else None
        operations.append(Operation(_run_one(config, out_dir), [_driver_run(config, out_dir, run_budget, delta)]))

    def geometric_mean_final(rows_by_label):
        return float(np.exp(np.mean([np.log(rows[-1].value) for rows in rows_by_label.values()])))

    return Plan(operations, geometric_mean_final)


def prepare(name: str, seed: int, out_dir: str, smoke: bool = False) -> Plan:
    """Build the named workload's inputs from ``seed``; ``smoke`` shrinks every budget."""
    makers = {w: globals()[w] for w in WORKLOADS}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; choices: {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    os.makedirs(out_dir, exist_ok=True)
    budget = {"budget": SMOKE_BUDGETS[name]} if smoke else {}
    return makers[name](seed, out_dir, **budget)


def wrap_oracles(problem, wrap: Callable[[str, Callable], Callable]) -> None:
    """Replace each oracle field of a built MinMaxProblem by ``wrap(field, fn)``."""
    for name in ("best_response", "approx_response", "loss", "grad_x"):
        fn = getattr(problem, name)
        if fn is not None:
            setattr(problem, name, wrap(name, fn))
