"""Entropic optimal transport between uniform unit marginals.

Solves ``min_P <P, C> + eps * sum_ij P_ij log P_ij`` over nonnegative square
plans whose rows and columns each sum to one (total mass n, not 1), by
scaling sweeps on a stabilized kernel ``K_ij = exp((U_i + V_j - C_ij) / eps)``:
each sweep is two matrix-vector products that update the scalings ``a, b``,
and the plan is ``P_ij = a_i K_ij b_j``. Before a scaling leaves a fixed
range it is absorbed: the sweep runs in the log domain, its potentials become
the new ``U, V`` and ``K`` is rebuilt from them. The optimal plan is the
gradient of the transport objective with respect to the cost matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SinkhornError(RuntimeError):
    """Raised when the scaling sweeps do not reach the marginal tolerance."""

    def __init__(self, message: str, marginal_error: float):
        super().__init__(message)
        self.marginal_error = marginal_error


@dataclass
class TransportPlan:
    """Converged plan with its dual certificates.

    ``dual_values`` holds the concave dual objective after each sweep; block
    coordinate ascent makes it nondecreasing, which is a useful health check.
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


def sinkhorn_solve(cost, epsilon: float, tol: float = 1e-9, max_sweeps: int = 100_000) -> TransportPlan:
    """Run scaling sweeps until both marginals are within ``tol`` in max norm.

    One sweep is a row update followed by a column update of the dual
    potentials, each an exact block maximization of the dual, so the recorded
    dual objective never decreases. Raises :class:`SinkhornError` if the
    tolerance is not reached within ``max_sweeps``, or if the arithmetic
    overflows, as it does for an ``epsilon`` far below the cost's scale.

    The potentials are kept as base potentials ``U, V`` plus scalings
    ``u = U + eps log a`` and ``v = V + eps log b``, so that a sweep is two
    matrix-vector products with the kernel ``K = exp((U_i + V_j - C_ij) / eps)``
    and the plan is ``P_ij = a_i K_ij b_j``. ``U`` is always the exact row
    update for ``V``, so each row of ``K`` sums to one and ``a = 1 / (K b)``
    stays between ``1 / max b`` and ``1 / min b``. A sweep whose ``b`` would
    leave ``exp(+-_MAX_LOG_SCALING)``, for example where a column of ``K``
    underflowed, runs its two updates in the log domain instead and absorbs
    them: they become the new ``U, V``, ``K`` is rebuilt from them, ``b = 1``
    and ``a = exp((u - U) / eps)`` keeps the sweep's row potentials ``u``
    (Schmitzer, "Stabilized sparse scaling algorithms for entropy regularized
    transport problems", SIAM J. Sci. Comput. 41(3), 2019). Both kinds of
    sweep then share one computation of the row sums, the dual value, the
    stopping test and the plan.
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
                err = float(np.abs(row_sums - 1.0).max())
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
                a = 1.0 / Kb
                la = np.log(a)
    except FloatingPointError as exc:
        raise SinkhornError(f"sinkhorn arithmetic failed at epsilon {epsilon:g} ({exc})", err) from exc
    raise SinkhornError(
        f"sinkhorn did not reach marginal tolerance {tol:g} within {max_sweeps} sweeps "
        f"(marginal error {err:.3e})",
        err,
    )


def sinkhorn_divergence(cost, epsilon: float, tol: float = 1e-9, max_sweeps: int = 100_000) -> float:
    """Objective value <P, C> + eps * sum P log P at the converged plan."""
    C = _check_cost(cost)
    result = sinkhorn_solve(C, epsilon, tol=tol, max_sweeps=max_sweeps)
    return entropic_objective(result.plan, C, epsilon)
