"""In-memory spans around the package's layers, and per-layer metrics from them.

The traced run wraps public functions where they are looked up, because
modules import functions by name: ``holderopt.gan.sinkhorn_solve`` is the
name the generator calls, not ``holderopt.sinkhorn.sinkhorn_solve``. The
analytic oracles are closures stored on the built ``MinMaxProblem``, so the
fields of each built problem are wrapped too. A span records name, start, end
and parent; a span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import math
import time
from typing import NamedTuple

import numpy as np

import holderopt.cli
import holderopt.descent
import holderopt.gan
import holderopt.harness
import holderopt.minimax

import workloads

ROOT = "bench.workload"
DUAL_ROUNDING = 1e-12  # relative; test_dual_values_never_decrease allows 1e-10 absolute
DRIVERS = (
    "holder_gd",
    "minmax_backtrack",
    "minmin_backtrack_nonmonotone",
    "minmin_armijo_nonmonotone",
    "minmax_heuristic",
    "minmax_constant",
)


class Solve(NamedTuple):
    sweeps: int
    marginal_error: float
    dual_decreases: int  # falls beyond rounding
    dual_dips: int  # any fall, rounding included


class Tracer:
    """Spans kept in four parallel lists, written out by :meth:`write`."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = [-1]
        self.solves = {}  # sinkhorn span -> Solve
        self.output_bytes = {}  # csv / svg span -> bytes
        self.errors = []  # (span, exception class name)

    def wrap(self, name, fn, observe=None):
        """``fn`` with a span around each call; ``observe(span, args, result)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1])
            self.ends.append(0.0)
            self._open.append(span)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors.append((span, type(exc).__name__))
                raise
            finally:
                self.ends[span] = time.perf_counter()
                self._open.pop()
            if observe is not None:
                observe(span, args, result)
            return result

        return traced

    def _observe_solve(self, span, args, plan):
        duals = plan.dual_values
        step = np.diff(duals)
        # a fall of a few ulps of the dual is rounding in its sum of 2n terms
        # (1e-14 on duals near 100 at the default epsilon), not a lost ascent
        decreases = int(np.count_nonzero(step < -DUAL_ROUNDING * np.maximum(1.0, np.abs(duals[1:]))))
        self.solves[span] = Solve(plan.sweeps, plan.marginal_error, decreases, int(np.count_nonzero(step < 0.0)))

    def _observe_problem(self, span, args, built):
        problem, _ = built
        workloads.wrap_oracles(problem, lambda field, fn: self.wrap("problems." + field, fn))

    def _observe_csv(self, span, args, result):
        with open(args[0], "rb") as fh:
            self.output_bytes[span] = len(fh.read())

    def _observe_svg(self, span, args, svg_text):
        self.output_bytes[span] = len(svg_text.encode("utf-8"))

    def write(self, path) -> None:
        """Spans as gzipped JSON: parallel arrays, times relative to the first start."""
        t0 = self.starts[0] if self.starts else 0.0
        data = {
            "names": self.names,
            "parents": self.parents,
            "start_s": [round(t - t0, 9) for t in self.starts],
            "end_s": [round(t - t0, 9) for t in self.ends],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers; the originals come back on exit."""
    gan, harness, cli = holderopt.gan, holderopt.harness, holderopt.cli
    targets = [
        (gan, "sinkhorn_solve", "sinkhorn.solve", tracer._observe_solve),
        (gan, "mlp_forward", "gan.mlp_forward", None),
        (gan, "mlp_backward", "gan.mlp_backward", None),
        (gan, "pairwise_distances", "gan.pairwise_distances", None),
        (harness, "build_problem", "harness.build_problem", tracer._observe_problem),
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "compare_and_plot", "harness.compare_and_plot", None),
        (harness, "render_comparison", "plotting.render", tracer._observe_svg),
        (harness, "write_svg", "plotting.write", None),
        (holderopt.descent, "write_csv_atomic", "descent.write_csv", tracer._observe_csv),
        (holderopt.minimax, "write_csv_atomic", "descent.write_csv", tracer._observe_csv),
        (cli, "main", "cli.main", None),
        (cli, "run_experiment", "harness.run_experiment", None),
    ]
    targets += [(harness, d, "minimax." + d, None) for d in DRIVERS]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for module, attr, name, observe in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), observe))
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def _nearest_rank(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def analyse(tracer: Tracer, counts: dict, untraced_wall: float) -> tuple:
    """Per-layer metrics, and the Sinkhorn figures of each driver run in order.

    ``counts`` maps run label to :func:`checks.run_counts`, in run order.
    """
    names = tracer.names
    parents = np.asarray(tracer.parents, dtype=np.int64)
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(names))
    self_t = dur - child

    # the driver span each span runs under (-1: outside every driver)
    driver_of = np.full(len(names), -1, dtype=np.int64)
    for i, name in enumerate(names):
        if name.startswith("minimax."):
            driver_of[i] = i
        elif parents[i] >= 0:
            driver_of[i] = driver_of[parents[i]]

    by_name = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def spans(prefix):
        return sorted(i for name, idx in by_name.items() if name.startswith(prefix) for i in idx)

    def total(idx, of=self_t):
        return float(of[idx].sum()) if idx else 0.0

    solves = by_name.get("sinkhorn.solve", [])
    done = [tracer.solves[i] for i in solves if i in tracer.solves]
    sweeps = [s.sweeps for s in done]
    solve_ms = [1e3 * dur[i] for i in solves]
    forward = by_name.get("gan.mlp_forward", [])
    backward = by_name.get("gan.mlp_backward", [])
    pairwise = by_name.get("gan.pairwise_distances", [])
    drivers = spans("minimax.")
    csv = by_name.get("descent.write_csv", [])
    render = by_name.get("plotting.render", [])
    svg_write = by_name.get("plotting.write", [])
    root = by_name.get(ROOT, [])
    oracle_calls = sum(c["oracle_calls"] for c in counts.values())
    accepted = sum(c["accepted_steps"] for c in counts.values())
    minimax_self = total(drivers)
    sinkhorn_self = total(solves)
    passes_in_drivers = sum(1 for i in forward + backward if driver_of[i] >= 0)
    traced_wall = total(root, dur)

    m = {
        "sinkhorn.solves": len(solves),
        "sinkhorn.sweeps": sum(sweeps),
        "sinkhorn.sweeps_per_solve_p50": _nearest_rank(sweeps, 0.50),
        "sinkhorn.sweeps_per_solve_p95": _nearest_rank(sweeps, 0.95),
        "sinkhorn.sweeps_per_solve_max": max(sweeps, default=0),
        "sinkhorn.self_s": sinkhorn_self,
        "sinkhorn.us_per_sweep": 1e6 * _ratio(sinkhorn_self, sum(sweeps)),
        "sinkhorn.solve_ms_p50": _nearest_rank(solve_ms, 0.50),
        "sinkhorn.solve_ms_p95": _nearest_rank(solve_ms, 0.95),
        "sinkhorn.failures": sum(1 for i, _ in tracer.errors if names[i] == "sinkhorn.solve"),
        "sinkhorn.marginal_error_max": max((s.marginal_error for s in done), default=0.0),
        "sinkhorn.dual_decreases": sum(s.dual_decreases for s in done),
        "sinkhorn.dual_rounding_dips": sum(s.dual_dips for s in done),
        "gan.mlp_forward.calls": len(forward),
        "gan.mlp_forward.self_s": total(forward),
        "gan.mlp_backward.calls": len(backward),
        "gan.mlp_backward.self_s": total(backward),
        "gan.pairwise_distances.calls": len(pairwise),
        "gan.pairwise_distances.self_s": total(pairwise),
        "gan.self_s": total(forward + backward + pairwise),
        # mlp_backward runs its own forward pass, so it counts as one
        "gan.forward_passes_per_oracle_call": _ratio(passes_in_drivers, oracle_calls),
        "problems.self_s": total(spans("problems.")),
        "minimax.oracle_calls": oracle_calls,
        "minimax.accepted_steps": accepted,
        "minimax.accept_ratio": _ratio(accepted, oracle_calls),
        "minimax.k_increments": sum(c["k_increments"] for c in counts.values()),
        "minimax.self_s": minimax_self,
        "minimax.us_per_oracle_call": 1e6 * _ratio(minimax_self, oracle_calls),
        "minimax.numeric_errors": sum(
            1 for i, kind in tracer.errors if kind == "NumericError" and names[i].startswith("minimax.")
        ),
        "descent.csv_bytes": sum(tracer.output_bytes.get(i, 0) for i in csv),
        "descent.csv_s": total(csv, dur),
        "plotting.svg_bytes": sum(tracer.output_bytes.get(i, 0) for i in render),
        "plotting.render_s": total(render, dur),
        "plotting.write_s": total(svg_write, dur),
        "harness.build_problem_s": total(by_name.get("harness.build_problem", []), dur),
        "harness.self_s": total(spans("harness.")),
        "cli.self_s": total(by_name.get("cli.main", [])),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": total(root),
    }
    for field in ("best_response", "approx_response", "loss", "grad_x"):
        m[f"problems.{field}.calls"] = len(by_name.get("problems." + field, []))

    inner = by_name.get("problems.best_response", []) + by_name.get("problems.approx_response", [])
    per_run = []
    for d in drivers:
        mine = [tracer.solves[i] for i in solves if driver_of[i] == d and i in tracer.solves]
        per_run.append(
            {
                "sweeps": sum(s.sweeps for s in mine),
                "solves": len(mine),
                "sweeps_per_solve_max": max((s.sweeps for s in mine), default=0),
                "marginal_error_max": max((s.marginal_error for s in mine), default=0.0),
                "dual_decreases": sum(s.dual_decreases for s in mine),
                "oracle_spans": sum(1 for i in inner if driver_of[i] == d),
            }
        )
    return m, per_run
