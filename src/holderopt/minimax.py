"""Backtracking drivers for min-max and min-min problems with inner oracles.

Every driver minimizes the value function g(x) = L(x, y*(x)) while only ever
calling the problem's inner oracle; one oracle call is one unit of
``oracle_calls`` regardless of how much work the inner solve does. Every driver checks its
problem's sense and oracle against its entry in ``holderopt.problems._NEEDS`` and is then one call of the
descent loop of :mod:`holderopt.descent`, which checks the start once with ``start_point`` and
returns the :class:`holderopt.descent.Trajectory`, whose CSV carries :data:`MINMAX_CSV_HEADER`.
The exact-oracle drivers evaluate through the problem's ``value_and_grad``,
which is also that of :class:`holderopt.problems.ValueFunctionView`, so :func:`minmax_backtrack`
and :func:`holderopt.descent.backtrack_holder_gd` on the view run the same code on the same
numbers. A non-monotone probe of ``k - 1`` costs one extra call, or two when it fails. Only
:func:`minmax_heuristic` does without the exact oracle: it evaluates through
an approximate oracle that keeps its last response, the warm start of every
later inner solve and the frozen response of its test.
The loop's budget rule is the same for all: stop when the next step needs an
oracle call and none is left. The heuristic's search needs none, so on an
exhausted budget it takes one more step and closes on a record evaluated
with the last response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .descent import BacktrackParams, StopRule, Trajectory, _descend, backtrack_step

# not called here; perfbench/tracing.py patches this name on this module to time CSV writes
from .descent import write_csv_atomic  # noqa: F401
from .problems import MinMaxProblem, _require, _require_count, _require_positive


@dataclass
class InnerAscentBudget:
    """Budget for an approximate inner solve: ``steps`` fixed-step gradient iterations of size ``step_size``.

    On the quadratic saddle the iterations are returned in closed form, so the cost there does not
    grow with ``steps``; a step size above 2 diverges. The sqrt problem runs them one by one.
    """

    steps: int = 50
    step_size: float = 0.5

    def __post_init__(self):
        _require_count("steps", self.steps, 1)
        _require_positive("step_size", self.step_size)


MINMAX_CSV_HEADER = "n,oracle_calls,L,grad_x_norm,step,k"


class _ApproxOracle:
    """The approximate inner oracle, keeping its last response y.

    ``start_point`` is the problem's own. ``value_and_grad`` at x is one oracle
    call: one inner solve, warm started from the kept response (cold, from
    ``y = None``, on the first call), giving (L(x, y), grad_x L(x, y)).
    ``frozen_loss`` and ``frozen`` evaluate at the kept response and are not
    oracle calls.
    """

    def __init__(self, problem: MinMaxProblem, budget: InnerAscentBudget):
        self.problem, self.budget, self.y = problem, budget, None
        self.start_point = problem.start_point

    def value_and_grad(self, x):
        self.y = self.problem.approx_response(x, self.y, self.budget)
        return self.frozen(x)

    def frozen_loss(self, x):
        return self.problem.loss(x, self.y)

    def frozen(self, x):
        return self.frozen_loss(x), np.asarray(self.problem.grad_x(x, self.y), dtype=float)


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
    _require(problem, "minmax_backtrack")
    params = params or BacktrackParams()
    return _descend(problem, x0, stop, lambda k, gn: backtrack_step(k, gn, params), params, MINMAX_CSV_HEADER)


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
    _require(problem, "minmin_backtrack_nonmonotone")
    params = params or BacktrackParams()
    step_fn = lambda k, gn: backtrack_step(k, gn, params)
    return _descend(problem, x0, stop, step_fn, params, MINMAX_CSV_HEADER, nonmonotone=True)


def minmin_armijo_nonmonotone(
    problem: MinMaxProblem,
    x0,
    params: Optional[BacktrackParams] = None,
    stop: Optional[StopRule] = None,
) -> Trajectory:
    """As :func:`minmin_backtrack_nonmonotone` with the plain geometric step gamma * alpha**k."""
    _require(problem, "minmin_armijo_nonmonotone")
    params = params or BacktrackParams()
    step_fn = lambda k, gn: params.gamma * params.alpha**k
    return _descend(problem, x0, stop, step_fn, params, MINMAX_CSV_HEADER, nonmonotone=True)


def minmax_heuristic(
    problem: MinMaxProblem,
    x0,
    params: Optional[BacktrackParams] = None,
    budget: Optional[InnerAscentBudget] = None,
    stop: Optional[StopRule] = None,
) -> Trajectory:
    """Backtracking with an approximate inner argmax and a frozen-response test.

    Per outer iteration: one approximate inner solve (one oracle call, warm
    started from the previous response), then a backtracking search whose
    acceptance test evaluates L at the trial point with the response frozen;
    those loss evaluations are not oracle calls. The trial exponent resets to
    0 every iteration and the first trial step is exactly gamma.
    """
    _require(problem, "minmax_heuristic")
    params = params or BacktrackParams()
    step_fn = lambda k, gn: backtrack_step(k, gn, params)
    oracle = _ApproxOracle(problem, budget or InnerAscentBudget())
    return _descend(oracle, x0, stop, step_fn, params, MINMAX_CSV_HEADER, frozen=True)


def minmax_constant(
    problem: MinMaxProblem,
    x0,
    gamma: float,
    stop: Optional[StopRule] = None,
) -> Trajectory:
    """Fixed-step driver: x <- x - gamma * grad_x L(x, y*(x)), one exact oracle call per iteration.

    Takes either sense. No monotonicity guarantee.
    """
    _require(problem, "minmax_constant")
    _require_positive("gamma", gamma)
    return _descend(problem, x0, stop, lambda k, gn: gamma, None, MINMAX_CSV_HEADER)
