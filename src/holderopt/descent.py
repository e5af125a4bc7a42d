"""First-order descent drivers for objectives with Holder-continuous gradients.

Two families live here:

* known-constants steps (:func:`holder_step`, :func:`holder_gd`) that need a
  :class:`~holderopt.problems.HolderCertificate`, and
* backtracking drivers (:func:`backtrack_holder_gd`, :func:`armijo_gd`) that
  adapt a trial exponent ``k`` online, never resetting it, so the per-iteration
  search cost stays bounded by :func:`k_bound`.

Every driver here and in :mod:`holderopt.minimax` returns a
:class:`Trajectory` of :class:`TrajectoryRecord` entries. The exact-oracle
min-max and min-min drivers hand
:meth:`holderopt.problems.MinMaxProblem.value_and_grad` to the search loops
below, and :class:`holderopt.problems.ValueFunctionView` evaluates through
that same method, so plain descent on the value function and the min-max
driver agree bit for bit by construction.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .problems import HolderCertificate, SmoothObjective

CONVERGED = "converged"
ITER_BUDGET = "iter_budget"
ORACLE_BUDGET = "oracle_budget"
K_CAP_EXCEEDED = "k_cap_exceeded"


class NumericError(RuntimeError):
    """An oracle returned NaN/Inf. ``iteration`` is the outer index of the bad eval."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


@dataclass
class BacktrackParams:
    """Parameters of the backtracking step rule.

    The step at trial exponent ``k`` for gradient norm ``g`` is
    ``alpha**k * min(1, g**(rho*k)) * gamma``; ``delta`` is the sufficient
    decrease fraction, ``delta_plus`` the stronger threshold used by the
    non-monotone variants to earn a decrement of ``k``, and ``k_max`` a hard
    cap on the trial exponent (a failsafe, not part of the step rule).
    """

    gamma: float = 1.0
    alpha: float = 0.5
    delta: float = 0.25
    rho: float = 0.5
    delta_plus: Optional[float] = None
    k_max: int = 64

    def __post_init__(self):
        if not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not (self.rho > 0 and np.isfinite(self.rho)):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if self.delta_plus is not None and not self.delta < self.delta_plus < 1.0:
            raise ValueError(
                f"delta_plus must lie in (delta, 1), got {self.delta_plus} with delta={self.delta}"
            )
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")


@dataclass
class StopRule:
    """Termination bounds. At least one bound is always finite by construction."""

    grad_tol: float = 1e-8
    max_iters: int = 100_000
    max_oracle_calls: int = 10**12

    def __post_init__(self):
        if self.grad_tol < 0 or not np.isfinite(self.grad_tol):
            raise ValueError(f"grad_tol must be finite and >= 0, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.max_oracle_calls < 1:
            raise ValueError(f"max_oracle_calls must be >= 1, got {self.max_oracle_calls}")


@dataclass
class TrajectoryRecord:
    """State at the start of outer iteration ``n`` plus the step that left it.

    The terminal record has ``step = 0.0`` (no step was taken from it).
    ``oracle_calls`` is cumulative after the iteration's step search finished.
    """

    n: int
    oracle_calls: int
    x: np.ndarray
    f_value: float
    grad_norm: float
    step: float
    k: int


CSV_HEADER = "n,oracle_calls,f,grad_norm,step,k"


def _fmt(v) -> str:
    return repr(float(v))


def write_csv_atomic(path, header: str, rows) -> None:
    """Write CSV text to ``path`` atomically (temp file + rename)."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    lines = [header]
    lines.extend(",".join(r) for r in rows)
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


@dataclass
class Trajectory:
    """Records of one run. ``csv_header`` names the CSV columns; the min-max
    drivers pass :data:`holderopt.minimax.MINMAX_CSV_HEADER`."""

    records: list
    terminal_status: str
    csv_header: str = CSV_HEADER

    def __len__(self):
        return len(self.records)

    @property
    def f_values(self) -> np.ndarray:
        return np.array([r.f_value for r in self.records])

    @property
    def grad_norms(self) -> np.ndarray:
        return np.array([r.grad_norm for r in self.records])

    @property
    def oracle_calls(self) -> np.ndarray:
        return np.array([r.oracle_calls for r in self.records])

    @property
    def ks(self) -> np.ndarray:
        return np.array([r.k for r in self.records])

    @property
    def final_x(self) -> np.ndarray:
        return self.records[-1].x

    def to_csv(self, path) -> None:
        rows = (
            (str(r.n), str(r.oracle_calls), _fmt(r.f_value), _fmt(r.grad_norm), _fmt(r.step), str(r.k))
            for r in self.records
        )
        write_csv_atomic(path, self.csv_header, rows)


def sufficient_decrease_threshold(f_value: float, delta: float, step: float, grad_norm: float) -> float:
    """Acceptance threshold f(x) - delta * step * |grad|^2.

    Drivers and replay checks share this function so the comparison reproduces
    bit for bit.
    """
    return f_value - delta * step * grad_norm * grad_norm


def holder_step(grad_norm: float, cert: HolderCertificate, gamma: float) -> float:
    """Known-constants step gamma * ((nu+1)/beta)**(1/nu - 1) * |grad|**(1/nu - 1).

    Requires 0 < gamma < (nu + 1) / beta.
    """
    hi = (cert.nu + 1.0) / cert.beta
    if not 0.0 < gamma < hi:
        raise ValueError(f"gamma must lie in (0, {hi}), got {gamma}")
    expo = 1.0 / cert.nu - 1.0
    return gamma * hi**expo * grad_norm**expo


def optimal_holder_gamma(cert: HolderCertificate) -> float:
    """The gamma minimizing the known-constants rate bound: ((nu+1)/beta) * (1/(nu+1))**(1/nu)."""
    return (cert.nu + 1.0) / cert.beta * (1.0 / (cert.nu + 1.0)) ** (1.0 / cert.nu)


def backtrack_step(k: int, grad_norm: float, params: BacktrackParams) -> float:
    """Trial step alpha**k * min(1, grad_norm**(rho*k)) * gamma.

    The gradient-norm power is taken in log space so large ``rho * k`` cannot
    overflow intermediate powers. At k = 0 this returns gamma exactly.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if grad_norm < 0 or not np.isfinite(grad_norm):
        raise ValueError(f"grad_norm must be finite and >= 0, got {grad_norm}")
    if grad_norm >= 1.0:
        return params.alpha**k * params.gamma
    if grad_norm == 0.0:
        return params.gamma if k == 0 else 0.0
    return math.exp(k * math.log(params.alpha) + params.rho * k * math.log(grad_norm)) * params.gamma


def k_bound(params: BacktrackParams, cert: HolderCertificate) -> float:
    """Upper bound on the trial exponent reached by the monotone backtracking driver.

    1 + (1/nu) * max( log((1-delta)(nu+1) / (gamma**nu * beta)) / log(alpha),
    (1-nu)/rho ). Holds when the certificate is global.
    """
    t1 = math.log((1.0 - params.delta) * (cert.nu + 1.0) / (params.gamma**cert.nu * cert.beta))
    t1 /= math.log(params.alpha)
    t2 = (1.0 - cert.nu) / params.rho
    return 1.0 + max(t1, t2) / cert.nu


def _check_finite(value: float, grad: np.ndarray, iteration: int) -> None:
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise NumericError("oracle returned a non-finite value or gradient", iteration)


def _stop_status(stop: StopRule, grad_norm: float, n: int, calls: int) -> Optional[str]:
    """The terminal status that ``stop`` assigns at the start of iteration ``n``, if any."""
    if grad_norm <= stop.grad_tol:
        return CONVERGED
    if n >= stop.max_iters:
        return ITER_BUDGET
    if calls >= stop.max_oracle_calls:
        return ORACLE_BUDGET
    return None


def _fixed_rule_loop(evaluate, x0, stop: StopRule, step_of: Callable[[float], float]):
    """Driver loop for step rules with no search: one eval per iteration."""
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    value, grad = evaluate(x)
    calls = 1
    _check_finite(value, grad, 0)
    records = []
    n = 0
    while True:
        gn = float(np.linalg.norm(grad))
        status = _stop_status(stop, gn, n, calls)
        if status is not None:
            records.append(TrajectoryRecord(n, calls, np.array(x), value, gn, 0.0, 0))
            return records, status
        step = step_of(gn)
        x_next = x - step * grad
        value_next, grad_next = evaluate(x_next)
        calls += 1
        _check_finite(value_next, grad_next, n + 1)
        records.append(TrajectoryRecord(n, calls, np.array(x), value, gn, step, 0))
        x, value, grad = x_next, value_next, grad_next
        n += 1


def _backtracking_loop(
    evaluate,
    x0,
    params: BacktrackParams,
    stop: StopRule,
    step_fn: Callable[[int, float], float],
    k_init: int,
    nonmonotone: bool,
):
    """Shared search loop.

    ``evaluate(x) -> (value, grad)`` costs one oracle call. The trial
    exponent ``k`` persists across iterations (never reset). In the
    non-monotone mode each iteration first tests the inherited step against the
    stronger ``delta_plus`` threshold and, on success with k > 0, decrements k
    once and recomputes the trial (one extra call) before the standard
    ``delta`` loop guards acceptance.
    """
    if nonmonotone and params.delta_plus is None:
        raise ValueError("non-monotone mode needs params.delta_plus")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    value, grad = evaluate(x)
    calls = 1
    _check_finite(value, grad, 0)
    records = []
    k = k_init
    n = 0
    while True:
        gn = float(np.linalg.norm(grad))
        status = _stop_status(stop, gn, n, calls)
        if status is not None:
            records.append(TrajectoryRecord(n, calls, np.array(x), value, gn, 0.0, k))
            return records, status

        step = step_fn(k, gn)
        trial = x - step * grad
        t_value, t_grad = evaluate(trial)
        calls += 1
        _check_finite(t_value, t_grad, n)

        out_of = None
        if (
            nonmonotone
            and k > 0
            and t_value < sufficient_decrease_threshold(value, params.delta_plus, step, gn)
        ):
            k -= 1
            if calls >= stop.max_oracle_calls:
                out_of = ORACLE_BUDGET
            else:
                step = step_fn(k, gn)
                trial = x - step * grad
                t_value, t_grad = evaluate(trial)
                calls += 1
                _check_finite(t_value, t_grad, n)

        while out_of is None and t_value > sufficient_decrease_threshold(value, params.delta, step, gn):
            k += 1
            if k > params.k_max:
                out_of = K_CAP_EXCEEDED
                break
            if calls >= stop.max_oracle_calls:
                out_of = ORACLE_BUDGET
                break
            step = step_fn(k, gn)
            trial = x - step * grad
            t_value, t_grad = evaluate(trial)
            calls += 1
            _check_finite(t_value, t_grad, n)

        if out_of is not None:
            records.append(TrajectoryRecord(n, calls, np.array(x), value, gn, 0.0, k))
            return records, out_of

        records.append(TrajectoryRecord(n, calls, np.array(x), value, gn, step, k))
        x, value, grad = trial, t_value, t_grad
        n += 1


def holder_gd(
    obj: SmoothObjective,
    x0,
    cert: HolderCertificate,
    gamma: Optional[float] = None,
    stop: Optional[StopRule] = None,
) -> Trajectory:
    """Gradient descent with the known-constants Holder step.

    ``gamma=None`` uses :func:`optimal_holder_gamma`. Requires a global
    certificate. One oracle call per iteration; records carry k = 0.
    """
    if not cert.global_flag:
        raise ValueError("holder_gd needs a certificate valid on the whole region visited")
    if gamma is None:
        gamma = optimal_holder_gamma(cert)
    stop = stop or StopRule()
    # validate gamma once up front so a bad range fails before any oracle call
    holder_step(1.0, cert, gamma)
    return Trajectory(*_fixed_rule_loop(obj.eval, x0, stop, lambda gn: holder_step(gn, cert, gamma)))


def constant_gd(obj: SmoothObjective, x0, gamma: float, stop: Optional[StopRule] = None) -> Trajectory:
    """Fixed-step gradient descent baseline. No monotonicity guarantee."""
    if not (gamma > 0 and np.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    stop = stop or StopRule()
    return Trajectory(*_fixed_rule_loop(obj.eval, x0, stop, lambda gn: gamma))


def backtrack_holder_gd(
    obj: SmoothObjective, x0, params: Optional[BacktrackParams] = None, stop: Optional[StopRule] = None
) -> Trajectory:
    """Monotone backtracking descent with the gradient-norm-scaled step rule.

    The trial exponent starts at 0, is inherited across iterations, and only
    grows; each while-loop trial costs one oracle call, so the total call count
    is (iterations) + (k increments) + 1 for the initial evaluation.
    """
    params = params or BacktrackParams()
    stop = stop or StopRule()
    step_fn = lambda k, gn: backtrack_step(k, gn, params)
    return Trajectory(*_backtracking_loop(obj.eval, x0, params, stop, step_fn, k_init=0, nonmonotone=False))


def armijo_gd(
    obj: SmoothObjective, x0, params: Optional[BacktrackParams] = None, stop: Optional[StopRule] = None
) -> Trajectory:
    """Monotone backtracking with the plain geometric step gamma * alpha**k.

    Identical skeleton to :func:`backtrack_holder_gd`; only the step formula
    differs (no gradient-norm factor).
    """
    params = params or BacktrackParams()
    stop = stop or StopRule()
    step_fn = lambda k, gn: params.gamma * params.alpha**k
    return Trajectory(*_backtracking_loop(obj.eval, x0, params, stop, step_fn, k_init=0, nonmonotone=False))
