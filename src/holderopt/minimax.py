"""Backtracking drivers for min-max and min-min problems with inner oracles.

Every driver minimizes the value function g(x) = L(x, y*(x)) while only ever
calling the problem's inner oracle; one oracle call is one unit of
``oracle_calls`` regardless of how much work the inner solve does. Every driver
returns a :class:`holderopt.descent.Trajectory` whose CSV carries
:data:`MINMAX_CSV_HEADER`. The exact-oracle drivers hand
:meth:`holderopt.problems.MinMaxProblem.value_and_grad` to the search loops of
:mod:`holderopt.descent`; :class:`holderopt.problems.ValueFunctionView`
evaluates through the same method, so :func:`minmax_backtrack` and
:func:`holderopt.descent.backtrack_holder_gd` on the view run the same code on
the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .descent import (
    BacktrackParams,
    CONVERGED,
    ITER_BUDGET,
    K_CAP_EXCEEDED,
    ORACLE_BUDGET,
    StopRule,
    Trajectory,
    TrajectoryRecord,
    _backtracking_loop,
    _check_finite,
    _fixed_rule_loop,
    backtrack_step,
    sufficient_decrease_threshold,
)

# not called here; perfbench/tracing.py patches this name on this module to time CSV writes
from .descent import write_csv_atomic  # noqa: F401
from .problems import MinMaxProblem


@dataclass
class InnerAscentBudget:
    """Budget for an approximate inner solve: fixed-step gradient iterations."""

    steps: int = 50
    step_size: float = 0.5
    warm_start: bool = True

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not (self.step_size > 0 and np.isfinite(self.step_size)):
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")


MINMAX_CSV_HEADER = "n,oracle_calls,L,grad_x_norm,step,k"


def _require(problem: MinMaxProblem, sense: str, driver: str) -> None:
    if problem.sense != sense:
        raise ValueError(f"{driver} expects a {sense} problem, got {problem.sense}")
    if problem.best_response is None:
        raise ValueError(f"{driver} needs an exact best_response oracle")


def minmax_backtrack(
    problem: MinMaxProblem,
    x0,
    params: Optional[BacktrackParams] = None,
    stop: Optional[StopRule] = None,
) -> Trajectory:
    """Monotone backtracking on a min-max problem with an exact inner argmax.

    Each trial point costs one best-response call; the trial exponent is
    inherited across iterations and never decreases.
    """
    _require(problem, "min-max", "minmax_backtrack")
    x0 = problem.start_point(x0)
    params = params or BacktrackParams()
    stop = stop or StopRule()
    step_fn = lambda k, gn: backtrack_step(k, gn, params)
    records, status = _backtracking_loop(
        problem.value_and_grad, x0, params, stop, step_fn, k_init=0, nonmonotone=False
    )
    return Trajectory(records, status, MINMAX_CSV_HEADER)


def minmin_backtrack_nonmonotone(
    problem: MinMaxProblem,
    x0,
    params: Optional[BacktrackParams] = None,
    stop: Optional[StopRule] = None,
) -> Trajectory:
    """Non-monotone backtracking on a min-min problem with an exact inner argmin.

    The trial exponent starts at 1 and may decrease by one per outer iteration
    when the inherited step clears the stronger ``delta_plus`` threshold; every
    accepted step still satisfies the plain ``delta`` sufficient decrease.
    """
    _require(problem, "min-min", "minmin_backtrack_nonmonotone")
    x0 = problem.start_point(x0)
    params = params or BacktrackParams(delta_plus=0.95)
    stop = stop or StopRule()
    step_fn = lambda k, gn: backtrack_step(k, gn, params)
    records, status = _backtracking_loop(
        problem.value_and_grad, x0, params, stop, step_fn, k_init=1, nonmonotone=True
    )
    return Trajectory(records, status, MINMAX_CSV_HEADER)


def minmin_armijo_nonmonotone(
    problem: MinMaxProblem,
    x0,
    params: Optional[BacktrackParams] = None,
    stop: Optional[StopRule] = None,
) -> Trajectory:
    """As :func:`minmin_backtrack_nonmonotone` with the plain geometric step gamma * alpha**k."""
    _require(problem, "min-min", "minmin_armijo_nonmonotone")
    x0 = problem.start_point(x0)
    params = params or BacktrackParams(delta_plus=0.95)
    stop = stop or StopRule()
    step_fn = lambda k, gn: params.gamma * params.alpha**k
    records, status = _backtracking_loop(
        problem.value_and_grad, x0, params, stop, step_fn, k_init=1, nonmonotone=True
    )
    return Trajectory(records, status, MINMAX_CSV_HEADER)


def minmax_heuristic(
    problem: MinMaxProblem,
    x0,
    params: Optional[BacktrackParams] = None,
    budget: Optional[InnerAscentBudget] = None,
    stop: Optional[StopRule] = None,
) -> Trajectory:
    """Backtracking with an approximate inner argmax and a frozen-response test.

    Per outer iteration: one approximate inner solve (one oracle call, warm
    started from the previous response when the budget says so), then a
    backtracking search whose acceptance test evaluates L at the trial point
    with the response frozen; those loss evaluations are not oracle calls. The
    trial exponent resets to 0 every iteration and the first trial step is
    exactly gamma.
    """
    if problem.sense != "min-max":
        raise ValueError(f"minmax_heuristic expects a min-max problem, got {problem.sense}")
    if problem.approx_response is None:
        raise ValueError("minmax_heuristic needs an approx_response oracle")
    x = problem.start_point(x0)
    params = params or BacktrackParams()
    budget = budget or InnerAscentBudget()
    stop = stop or StopRule()

    y_prev = None
    records = []
    calls = 0
    n = 0
    while True:
        if calls >= stop.max_oracle_calls:
            # cannot afford a fresh inner solve; close with the frozen view
            L = problem.loss(x, y_prev)
            gx = problem.grad_x(x, y_prev)
            gn = float(np.linalg.norm(gx))
            records.append(TrajectoryRecord(n, calls, np.array(x), L, gn, 0.0, 0))
            return Trajectory(records, ORACLE_BUDGET, MINMAX_CSV_HEADER)
        y = problem.approx_response(x, y_prev if budget.warm_start else None, budget)
        calls += 1
        L = problem.loss(x, y)
        gx = np.asarray(problem.grad_x(x, y), dtype=float)
        _check_finite(L, gx, n)
        gn = float(np.linalg.norm(gx))
        if gn <= stop.grad_tol:
            records.append(TrajectoryRecord(n, calls, np.array(x), L, gn, 0.0, 0))
            return Trajectory(records, CONVERGED, MINMAX_CSV_HEADER)
        if n >= stop.max_iters:
            records.append(TrajectoryRecord(n, calls, np.array(x), L, gn, 0.0, 0))
            return Trajectory(records, ITER_BUDGET, MINMAX_CSV_HEADER)

        k = 0
        step = params.gamma
        while True:
            t_loss = problem.loss(x - step * gx, y)
            _check_finite(t_loss, gx, n)
            if t_loss <= sufficient_decrease_threshold(L, params.delta, step, gn):
                break
            k += 1
            if k > params.k_max:
                records.append(TrajectoryRecord(n, calls, np.array(x), L, gn, 0.0, k))
                return Trajectory(records, K_CAP_EXCEEDED, MINMAX_CSV_HEADER)
            step = backtrack_step(k, gn, params)

        records.append(TrajectoryRecord(n, calls, np.array(x), L, gn, step, k))
        x = x - step * gx
        y_prev = y
        n += 1


def minmax_constant(
    problem: MinMaxProblem,
    x0,
    gamma: float,
    stop: Optional[StopRule] = None,
    budget: Optional[InnerAscentBudget] = None,
) -> Trajectory:
    """Fixed-step driver: x <- x - gamma * grad_x L(x, y(x)), one oracle call per iteration.

    Uses the exact best response when the problem has one, otherwise the
    approximate oracle with ``budget``. No monotonicity guarantee.
    """
    if not (gamma > 0 and np.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    x0 = problem.start_point(x0)
    stop = stop or StopRule()
    if problem.best_response is not None:
        evaluate = problem.value_and_grad
    else:
        budget = budget or InnerAscentBudget()
        state = {"y": None}

        def evaluate(x):
            y = problem.approx_response(x, state["y"] if budget.warm_start else None, budget)
            state["y"] = y
            return problem.loss(x, y), problem.grad_x(x, y)

    return Trajectory(*_fixed_rule_loop(evaluate, x0, stop, lambda gn: gamma), MINMAX_CSV_HEADER)
