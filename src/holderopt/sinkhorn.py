"""Entropic optimal transport between uniform unit marginals.

Solves ``min_P <P, C> + eps * sum_ij P_ij log P_ij`` over nonnegative square
plans whose rows and columns each sum to one (total mass n, not 1), by
scaling iterations on a stabilized kernel ``K_ij = exp((U_i + V_j - C_ij) / eps)``:
each iteration updates the scalings ``a, b``, and the plan is
``P_ij = a_i K_ij b_j``. The row scaling comes from a plain sweep, two
matrix-vector products, until the sweeps' contraction rate shows that they
would be slow; from then on it comes from damped Newton steps on the joint
dual (Brauer, Clason, Lorenz & Wirth, "A Sinkhorn-Newton method for entropic
optimal transport", arXiv:1710.06635, 2017). Before a scaling leaves a fixed
range it is absorbed: the sweep runs in the log domain, its potentials become
the new ``U, V`` and ``K`` is rebuilt from them. The optimal plan is the
gradient of the transport objective with respect to the cost matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SinkhornError(RuntimeError):
    """Raised when the scaling iterations do not reach the marginal tolerance."""

    def __init__(self, message: str, marginal_error: float):
        super().__init__(message)
        self.marginal_error = marginal_error


@dataclass
class TransportPlan:
    """Converged plan with its dual certificates.

    ``sweeps`` counts iterations, plain sweeps and Newton steps alike, and
    ``dual_values`` holds the concave dual objective after each of them. Every
    update is an exact block maximization or a Newton step that passes the
    Armijo test, so the values never decrease, which is a useful health check.
    """

    plan: np.ndarray
    dual_row: np.ndarray
    dual_col: np.ndarray
    epsilon: float
    marginal_error: float
    sweeps: int
    dual_values: np.ndarray


# a kernel sweep keeps the scalings a and b within exp(+-_MAX_LOG_SCALING), so a
# plan entry a_i K_ij b_j whose kernel entry underflows is below e^100 * 2.3e-308
_MAX_LOG_SCALING = 50.0

# the Armijo constant and the shortest step of the Newton line search
_ARMIJO = 1e-4
_MIN_NEWTON_STEP = 2.0**-10


def _sweeps_before_newton(n: int) -> float:
    """The sweeps left, at the last contraction rate, above which Newton takes over.

    That is the cost of two Newton steps. One step, a (2n-1) x (2n-1) solve,
    costs about as much as 4 + n^2 / 512 plain sweeps on one core (measured:
    2 to 4 at n <= 32, 9 to 19 at 64, 40 to 95 at 128, 84 at 192): a Newton
    solve takes a handful of steps where plain sweeps would take hundreds,
    while solves that converge in a few dozen sweeps never switch.
    """
    return 8.0 + n * n / 256.0


def _check_cost(cost) -> np.ndarray:
    C = np.asarray(cost, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] < 1:
        raise ValueError(f"cost must be a square matrix, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise ValueError("cost entries must be finite")
    if np.any(C < 0):
        raise ValueError("cost entries must be nonnegative")
    return C


def _logsumexp(a, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis`` of a finite 2-d array, overwriting ``a``."""
    a_max = a.max(axis=axis, keepdims=True)
    a -= a_max
    np.exp(a, out=a)
    return np.log(a.sum(axis=axis)) + a_max.reshape(-1)


def _half_sweep(potential, C, epsilon, work, axis: int) -> np.ndarray:
    """-eps * logsumexp((potential - C) / eps) along ``axis``, formed in ``work``."""
    np.subtract(potential, C, out=work)
    np.divide(work, epsilon, out=work)
    return -epsilon * _logsumexp(work, axis)


def entropic_objective(plan, cost, epsilon: float) -> float:
    """<P, C> + eps * sum P log P with the 0 log 0 = 0 convention."""
    P = np.asarray(plan, dtype=float)
    C = np.asarray(cost, dtype=float)
    pos = P > 0
    ent = np.where(pos, P * np.log(np.where(pos, P, 1.0)), 0.0)
    return float(np.sum(P * C) + epsilon * np.sum(ent))


def _kernel(U, V, C, epsilon, work) -> np.ndarray:
    """K = exp((U_i + V_j - C_ij) / eps), formed in ``work``."""
    np.add(U[:, None], V[None, :], out=work)
    work -= C
    work /= epsilon
    return np.exp(work, out=work)


def _newton_row_scaling(K) -> np.ndarray | None:
    """log a after one damped Newton step on the dual from a = b = 1, or None.

    The step d solves the joint system for both log scalings, with the gauge
    fixed by d_b[-1] = 0; in units of eps the dual's gradient is (1 - r, 1 - c)
    and its Hessian is minus the matrix below, for the row and column sums
    r, c of K. The step length t starts where max |t d| = _MAX_LOG_SCALING or
    at 1, and halves until the Armijo test holds. None means the system is
    singular, d is not finite or not an ascent direction, or t fell below
    _MIN_NEWTON_STEP.
    """
    n, m = K.shape[0], 2 * K.shape[0] - 1
    r, c = K.sum(axis=1), K.sum(axis=0)
    # [[diag r, K'], [K'^T, diag c'] ] with K' = K[:, :-1] and c' = c[:-1]
    diagonal = np.concatenate((r, c[:-1]))
    system = np.zeros((m, m))
    system[:n, n:] = K[:, :-1]
    system[n:, :n] = K[:, :-1].T
    system.flat[:: m + 1] = diagonal
    grad = 1.0 - diagonal
    try:
        d = np.linalg.solve(system, grad)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(d)):
        return None
    slope = grad.dot(d)
    if not slope > 0:
        return None
    d_a, d_b = d[:n], np.append(d[n:], 0.0)
    t = min(1.0, _MAX_LOG_SCALING / np.abs(d).max())
    while t >= _MIN_NEWTON_STEP:
        ea, eb = np.expm1(t * d_a), np.expm1(t * d_b)
        # the dual's gain sum(t d) - sum_ij K_ij (e^(t (d_a_i + d_b_j)) - 1), summed
        # from terms of the step's own size rather than as a difference of two duals
        gain = (t * d_a - r * ea).sum() + (t * d_b - c * eb).sum() - ea.dot(K.dot(eb))
        if gain >= _ARMIJO * t * slope:
            return t * d_a
        t /= 2.0
    return None


def sinkhorn_solve(cost, epsilon: float, tol: float = 1e-9, max_sweeps: int = 100_000) -> TransportPlan:
    """Run scaling iterations until both marginals are within ``tol`` in max norm.

    One iteration obtains a row scaling, then makes the exact column update
    for it, then records the dual objective and tests the marginals.
    ``max_sweeps`` bounds the number of iterations. Raises
    :class:`SinkhornError` if the tolerance is not reached within
    ``max_sweeps``, or if the arithmetic overflows, as it does for an
    ``epsilon`` far below the cost's scale.

    The potentials are kept as base potentials ``U, V`` plus scalings
    ``u = U + eps log a`` and ``v = V + eps log b``, so that a sweep is two
    matrix-vector products with the kernel ``K = exp((U_i + V_j - C_ij) / eps)``
    and the plan is ``P_ij = a_i K_ij b_j``. The row scaling is the exact row
    update ``a = 1 / (K b)`` (a plain sweep) until, after some sweep, the
    ratio of the last two marginal errors predicts more further sweeps than
    two Newton steps cost (:func:`_sweeps_before_newton`), or the error
    stopped falling.
    From then on each iteration folds ``a, b`` into ``U, V``, rebuilds ``K``
    and takes one damped Newton step on the joint dual (see
    :func:`_newton_row_scaling`), keeping its row part as ``log a``. If the
    Newton system is singular, its direction is no ascent or the line search
    falls below ``_MIN_NEWTON_STEP``, plain sweeps finish the solve. A 1x1
    cost converges in one sweep and never switches.

    A column update whose ``b`` would leave ``exp(+-_MAX_LOG_SCALING)``, for
    example where a column of ``K`` underflowed, runs its column and row
    updates in the log domain instead and absorbs them: they become the new
    ``U, V``, ``K`` is rebuilt from them, ``b = 1`` and
    ``a = exp((u - U) / eps)`` keeps the row potentials ``u`` (Schmitzer,
    "Stabilized sparse scaling algorithms for entropy regularized transport
    problems", SIAM J. Sci. Comput. 41(3), 2019). Every iteration then shares
    one computation of the row sums, the dual value, the stopping test and
    the plan, whose two marginals are checked before it is returned.
    """
    C = _check_cost(cost)
    if not (epsilon > 0 and np.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")

    n = C.shape[0]
    lo, hi = math.exp(-_MAX_LOG_SCALING), math.exp(_MAX_LOG_SCALING)
    work = np.empty_like(C)
    duals = []
    err = np.inf
    # newton: the next row scaling comes from a Newton step; may_switch: it still may
    newton, may_switch = False, n > 1
    switch_after = _sweeps_before_newton(n)
    try:
        # overflow, division by zero or an invalid value ends the solve; underflow is expected
        with np.errstate(all="raise", under="ignore"):
            V = np.zeros(n)
            U = _half_sweep(V[None, :], C, epsilon, work, axis=1)
            K = _kernel(U, V, C, epsilon, work)
            base = U.sum() + V.sum()
            a, la = np.ones(n), np.zeros(n)
            for sweep in range(1, max_sweeps + 1):
                col = a.dot(K)
                if lo <= col.min() and col.max() <= hi:
                    b = 1.0 / col
                    lb = np.log(b)
                else:
                    # absorb: the log-domain sweep's potentials become U, V, with b = 1
                    u = U + epsilon * la
                    V = _half_sweep(u[:, None], C, epsilon, work, axis=0)
                    U = _half_sweep(V[None, :], C, epsilon, work, axis=1)
                    K = _kernel(U, V, C, epsilon, work)
                    base = U.sum() + V.sum()
                    la = (u - U) / epsilon
                    a, b, lb = np.exp(la), np.ones(n), np.zeros(n)
                Kb = K.dot(b)
                # row sums of the current plan: sum_j P_ij = a_i (K b)_i
                row_sums = a * Kb
                duals.append(base + epsilon * (la.sum() + lb.sum() + n - row_sums.sum()))
                last_err, err = err, float(np.abs(row_sums - 1.0).max())
                if err <= tol:
                    P = a[:, None] * K * b[None, :]
                    err = max(
                        float(np.abs(P.sum(axis=1) - 1.0).max()),
                        float(np.abs(P.sum(axis=0) - 1.0).max()),
                    )
                    if err <= tol:
                        return TransportPlan(
                            plan=P,
                            dual_row=U + epsilon * la,
                            dual_col=V + epsilon * lb,
                            epsilon=float(epsilon),
                            marginal_error=err,
                            sweeps=sweep,
                            dual_values=np.array(duals),
                        )
                if may_switch and not newton and sweep > 1:
                    # sweeps left at the last contraction rate err / last_err, if it holds
                    newton = math.log(tol / err) < switch_after * math.log(err / last_err)
                if newton:
                    # fold a, b into U, V, so that the step starts at a = b = 1 with P = K
                    U, V = U + epsilon * la, V + epsilon * lb
                    K = _kernel(U, V, C, epsilon, work)
                    base = U.sum() + V.sum()
                    la = _newton_row_scaling(K)
                    if la is not None:
                        a = np.exp(la)
                        continue
                    newton = may_switch = False
                    Kb = K.sum(axis=1)
                a = 1.0 / Kb
                la = np.log(a)
    except FloatingPointError as exc:
        raise SinkhornError(f"sinkhorn arithmetic failed at epsilon {epsilon:g} ({exc})", err) from exc
    raise SinkhornError(
        f"sinkhorn did not reach marginal tolerance {tol:g} within {max_sweeps} iterations "
        f"(marginal error {err:.3e})",
        err,
    )


def sinkhorn_divergence(cost, epsilon: float, tol: float = 1e-9, max_sweeps: int = 100_000) -> float:
    """Objective value <P, C> + eps * sum P log P at the converged plan."""
    C = _check_cost(cost)
    result = sinkhorn_solve(C, epsilon, tol=tol, max_sweeps=max_sweeps)
    return entropic_objective(result.plan, C, epsilon)
