"""First-order descent drivers for objectives with Holder-continuous gradients.

Two drivers live here: the known-constants step (:func:`holder_step`,
:func:`holder_gd`), which needs a :class:`~holderopt.problems.HolderCertificate`
and at ``nu = 1`` is the fixed step ``gamma``, and backtracking
(:func:`backtrack_holder_gd`), which adapts a trial exponent ``k`` online,
never resetting it, so the per-iteration search cost stays bounded by
:func:`k_bound`.

Every driver here and in :mod:`holderopt.minimax` is a thin wrapper over one
loop, ``_descend``: a step rule ``step_fn(k, |grad|)`` and an acceptance test,
which is none (fixed steps), the ``delta`` decrease test on the trial's
evaluation (optionally with the non-monotone ``delta_plus`` decrement), or the
min-max heuristic's frozen-response loss. The loop builds every
:class:`TrajectoryRecord`, assigns every terminal status and counts every
oracle call, with one budget rule: stop when the next step needs an oracle
call and none is left. It also checks the start once, with the problem's or objective's
``start_point``, evaluates through its ``value_and_grad`` and returns the run's :class:`Trajectory`
with the driver's CSV header; :func:`holderopt.minimax.minmax_heuristic` alone evaluates through an
approximate oracle. :class:`holderopt.problems.ValueFunctionView`'s ``value_and_grad`` is the
problem's own, so plain descent on the value function and the min-max driver agree bit for bit.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import HolderCertificate, RunError, SmoothObjective, _require_count, _require_interval, _require_positive

CONVERGED = "converged"
ITER_BUDGET = "iter_budget"
ORACLE_BUDGET = "oracle_budget"
K_CAP_EXCEEDED = "k_cap_exceeded"


class NumericError(RunError):
    """An oracle returned NaN/Inf.

    ``iteration`` is the index of the iteration that made the bad call: 0 for
    the start point and n for every trial of step n, a fixed step's one trial
    included. An iteration of :func:`holderopt.minimax.minmax_heuristic`
    begins with a fresh inner solve at x_n, which is iteration n's call.
    """

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
    delta_plus: float = 0.95
    k_max: int = 64

    def __post_init__(self):
        _require_positive("gamma", self.gamma)
        _require_interval("alpha", self.alpha, 0.0, 1.0, "(0, 1)")
        _require_interval("delta", self.delta, 0.0, 1.0, "(0, 1)")
        _require_positive("rho", self.rho)
        _require_interval("delta_plus", self.delta_plus, self.delta, 1.0, f"(delta={self.delta}, 1)")
        _require_count("k_max", self.k_max, 1)


@dataclass
class StopRule:
    """Termination bounds. At least one bound is always finite by construction."""

    grad_tol: float = 1e-8
    max_iters: int = 100_000
    max_oracle_calls: int = 10**12

    def __post_init__(self):
        tol = self.grad_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < math.inf:
            raise ValueError(f"grad_tol must be finite and >= 0, got {self.grad_tol}")
        _require_count("max_iters", self.max_iters, 1)
        _require_count("max_oracle_calls", self.max_oracle_calls, 1)


@dataclass(slots=True)
class TrajectoryRecord:
    """State at the start of outer iteration ``n`` plus the step that left it.

    The terminal record has ``step = 0.0`` (no step was taken from it).
    ``oracle_calls`` is cumulative after the iteration's step search finished.
    ``x`` is the loop's own iterate, an array that nothing writes after it is
    made; record 0 holds a copy of the start point, so the caller's ``x0``
    may change afterwards.
    """

    n: int
    oracle_calls: int
    x: np.ndarray
    f_value: float
    grad_norm: float
    step: float
    k: int


CSV_HEADER = "n,oracle_calls,f,grad_norm,step,k"


# rows joined into one write; the writer holds at most this many at a time
_CSV_CHUNK_ROWS = 1024


def _write_atomic(path, pieces) -> None:
    """The writer of every output file, CSV and SVG: the strings of ``pieces`` go in order
    to ``<path>.tmp``, opened before ``pieces`` is consumed, which is then renamed onto
    ``path``. On any exception, ``KeyboardInterrupt`` included, the temp file is removed
    and the exception re-raised, so ``path`` keeps what it held before. An ``OSError``
    of the open or the rename names ``path``, not the removed temp file, and keeps its
    errno and type."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise type(exc)(exc.errno, exc.strerror, path).with_traceback(exc.__traceback__) from None
        raise


def write_csv_atomic(path, header: str, rows) -> None:
    """Write the ``header`` line and the formatted ``rows``, one line each, to
    ``path`` with :func:`_write_atomic`. ``rows`` is consumed lazily,
    ``_CSV_CHUNK_ROWS`` lines per write, so no whole CSV is held in memory."""
    rows = iter(rows)
    chunks = iter(lambda: list(itertools.islice(rows, _CSV_CHUNK_ROWS)), [])
    _write_atomic(path, itertools.chain([header + "\n"], ("\n".join(c) + "\n" for c in chunks)))


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
        # float() first: under numpy 2 the repr of an np.float64 is "np.float64(...)"
        rows = (
            f"{r.n},{r.oracle_calls},{float(r.f_value)!r},{float(r.grad_norm)!r},{float(r.step)!r},{r.k}"
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
    if grad_norm < 0 or not math.isfinite(grad_norm):
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


def _checked_norm(value: float, grad: np.ndarray, shape: tuple, iteration: int) -> float:
    """|grad| of a float64 ``grad``, once its shape is the point's ``shape`` and
    ``value`` and the norm are finite, and with them every entry.

    ``np.vdot`` runs the same BLAS dot as ``grad.dot(grad)``, so the norm has
    the same bits, but numpy checks no floating-point flag after it: an
    overflowing norm comes back as inf, without a RuntimeWarning, and raises
    :class:`NumericError` here with no ``np.errstate`` to enter per call. It
    also flattens its inputs, hence the shape check first.
    """
    if grad.shape != shape:
        raise ValueError(
            f"oracle returned a gradient of shape {grad.shape} at a point of shape {shape} (iteration {iteration})"
        )
    grad_norm = math.sqrt(np.vdot(grad, grad))
    if not (math.isfinite(value) and math.isfinite(grad_norm)):
        raise NumericError("oracle returned a non-finite value, gradient or gradient norm", iteration)
    return grad_norm


@np.errstate(over="ignore", invalid="ignore")
def _descend(obj, x0, stop, step_fn, params=None, header=CSV_HEADER, *, nonmonotone=False, frozen=False):
    """The one descent loop behind every driver; returns the run's :class:`Trajectory`,
    whose CSV carries ``header``.

    ``obj.start_point(x0)`` checks the start, before any oracle call, and gives the fresh float
    vector that record 0 keeps. ``obj.value_and_grad(x) -> (value, grad)`` is one oracle call,
    ``grad`` a float64 array of ``x``'s shape (another shape raises ValueError); the first is at
    the start. Iteration n ends the run on ``stop``'s gradient tolerance or iteration budget;
    otherwise it steps by ``step_fn(k, |grad|)`` along ``-grad``, to a fresh array. The
    acceptance test is one of:

    * none (``params is None``): the trial's evaluation is the next iterate's;
    * the ``params.delta`` decrease test on ``value_and_grad(trial)``, one call per
      trial. ``k`` starts at 0, or at 1 with ``nonmonotone``. Each rejection
      raises ``k``, which carries over between iterations; ``nonmonotone``
      first lowers ``k`` by one when the inherited step clears
      ``params.delta_plus``. That probe at ``k - 1`` is one call; when it
      fails the ``delta`` test, ``k`` rises back and the inherited step is
      evaluated again, a third call at the point of the first;
    * with ``frozen``, the same test on ``obj.frozen_loss(trial)``, which
      is no oracle call. ``k`` restarts at 0 each iteration, and the accepted
      point is evaluated afresh.

    Budget rule: stop with :data:`ORACLE_BUDGET` when the next step needs an
    oracle call and none is left. A frozen search needs none, so it still
    takes its step, and the loop's next pass closes on ``obj.frozen(x)``,
    evaluated with the last response. ``k > params.k_max`` stops with :data:`K_CAP_EXCEEDED`.
    Each record is made at one site and the trajectory returned at another, that close
    included. Floating-point overflow and invalid operations warn nowhere in the loop (a
    solve may set its own policy): a non-finite value, gradient or gradient norm raises
    :class:`NumericError` naming its iteration.
    """
    stop = stop or StopRule()
    grad_tol, max_iters, max_calls = stop.grad_tol, stop.max_iters, stop.max_oracle_calls
    if params is not None:
        delta, delta_plus, k_max = params.delta, params.delta_plus, params.k_max
    x = obj.start_point(x0)
    shape, evaluate = x.shape, obj.value_and_grad
    records, status, n, k = [], None, 0, 1 if nonmonotone else 0
    value, grad = evaluate(x)
    calls = 1
    gn = _checked_norm(value, grad, shape, 0)
    while True:
        if frozen:
            k = 0
        status = status or (CONVERGED if gn <= grad_tol else ITER_BUDGET if n >= max_iters else None)
        decrement = nonmonotone and k > 0
        while status is None:
            if not frozen and calls >= max_calls:
                status = ORACLE_BUDGET
                break
            step = step_fn(k, gn)
            trial = x - step * grad
            if frozen:
                t_value = obj.frozen_loss(trial)
                # the step reuses the gradient already checked at x
                if not math.isfinite(t_value):
                    raise NumericError("oracle returned a non-finite value, gradient or gradient norm", n)
            else:
                t_value, t_grad = evaluate(trial)
                calls += 1
                t_gn = _checked_norm(t_value, t_grad, shape, n)
            if params is None:
                break
            if decrement and t_value < sufficient_decrease_threshold(value, delta_plus, step, gn):
                k -= 1
                decrement = False
                continue
            decrement = False
            if t_value <= sufficient_decrease_threshold(value, delta, step, gn):
                break
            k += 1
            if k > k_max:
                status = K_CAP_EXCEEDED

        records.append(TrajectoryRecord(n, calls, x, value, gn, 0.0 if status else step, k))
        if status:
            return Trajectory(records, status, header)
        x = trial
        n += 1
        if not frozen:
            value, grad, gn = t_value, t_grad, t_gn
        elif calls < max_calls:
            value, grad = evaluate(x)
            calls += 1
            gn = _checked_norm(value, grad, shape, n)
        else:
            # no call left: the loop's next pass closes on x, evaluated with the last response
            value, grad = obj.frozen(x)
            gn, status = _checked_norm(value, grad, shape, n), ORACLE_BUDGET


def _require_certificate(cert) -> None:
    """Raise ValueError unless ``cert`` is a :class:`HolderCertificate`, which :func:`holder_gd` needs."""
    if not isinstance(cert, HolderCertificate):
        raise ValueError(f"holder_gd needs a smoothness certificate, got {cert!r}")


def holder_gd(
    obj: SmoothObjective,
    x0,
    cert: HolderCertificate,
    gamma: Optional[float] = None,
    stop: Optional[StopRule] = None,
) -> Trajectory:
    """Gradient descent with the known-constants Holder step.

    ``gamma=None`` uses :func:`optimal_holder_gamma`. ``cert`` is taken as a
    global bound, as the caller asserts it; nothing checks it against ``obj``.
    One oracle call per iteration; records carry k = 0.
    """
    _require_certificate(cert)
    if gamma is None:
        gamma = optimal_holder_gamma(cert)
    # validate gamma once up front so a bad range fails before any oracle call
    _require_positive("gamma", gamma)
    holder_step(1.0, cert, gamma)
    return _descend(obj, x0, stop, lambda k, gn: holder_step(gn, cert, gamma))


def backtrack_holder_gd(
    obj: SmoothObjective, x0, params: Optional[BacktrackParams] = None, stop: Optional[StopRule] = None
) -> Trajectory:
    """Monotone backtracking descent with the gradient-norm-scaled step rule.

    The trial exponent starts at 0, is inherited across iterations, and only
    grows; each while-loop trial costs one oracle call, so the total call count
    is (iterations) + (k increments) + 1 for the initial evaluation.
    """
    params = params or BacktrackParams()
    return _descend(obj, x0, stop, lambda k, gn: backtrack_step(k, gn, params), params)

