"""Entropic optimal transport between uniform unit marginals.

Solves ``min_P <P, C> + eps * sum_ij P_ij log P_ij`` over nonnegative square
plans whose rows and columns each sum to one (total mass n, not 1), by
scaling sweeps on a stabilized kernel: matrix-vector products on
``exp((U_i + V_j - C_ij) / eps)``, with the scalings absorbed into the
log-domain potentials ``U, V`` before they leave a fixed range. The optimal
plan is ``P_ij = exp((u_i + v_j - C_ij) / eps)`` and is the gradient of the
transport objective with respect to the cost matrix.
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
    """log(sum(exp(a))) along ``axis`` of a real 2-d array, overwriting ``a``.

    Same arithmetic as ``scipy.special.logsumexp`` (scipy 1.17), the log1p
    form of Blanchard, Higham & Higham, "Accurately computing the log-sum-exp
    and softmax functions", IMA J. Numer. Anal. 41(4), 2021: the maxima are
    taken out of the sum, so the result is bit-identical to scipy's without
    its per-call overhead.
    """
    a_max = a.max(axis=axis, keepdims=True)
    finite = np.isfinite(a_max)
    if not finite.all():
        # a line whose maximum is +-inf or nan sums to exactly that maximum
        out = _logsumexp(np.where(finite, a, 0.0), axis)
        return np.where(finite.reshape(-1), out, a_max.reshape(-1))
    a -= a_max
    top = a == 0.0  # the maxima, now exactly zero
    np.exp(a, out=a)
    np.copyto(a, 0.0, where=top)  # they enter the result as m, not in the sum
    s = a.sum(axis=axis, keepdims=True)
    if np.count_nonzero(top) == top.shape[1 - axis]:
        # one maximum per line: m == 1, so s / m == s and log(m) == +0
        return (np.log1p(s) + a_max).reshape(-1)
    m = top.sum(axis=axis, keepdims=True, dtype=float)
    return (np.log1p(s / m) + np.log(m) + a_max).reshape(-1)


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
    tolerance is not reached within ``max_sweeps``.

    The potentials are kept as base potentials ``U, V`` plus scalings
    ``u = U + eps log a`` and ``v = V + eps log b``, so that a sweep is two
    matrix-vector products with the kernel ``K = exp((U_i + V_j - C_ij) / eps)``.
    ``U`` is always the exact row update for ``V``, so each row of ``K`` sums
    to one and ``a = 1 / (K b)`` stays between ``1 / max b`` and ``1 / min b``.
    A sweep whose ``b`` would leave ``exp(+-_MAX_LOG_SCALING)``, for example
    where a column of ``K`` underflowed, runs in the log domain instead; its
    potentials become the new ``U, V`` and ``K`` is rebuilt from them
    (Schmitzer, "Stabilized sparse scaling algorithms for entropy regularized
    transport problems", SIAM J. Sci. Comput. 41(3), 2019).
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
    V = np.zeros(n)
    U = _half_sweep(V[None, :], C, epsilon, work, axis=1)
    K = _kernel(U, V, C, epsilon, work)
    base = U.sum() + V.sum()
    a, la = np.ones(n), np.zeros(n)
    duals = []
    err = np.inf
    for sweep in range(1, max_sweeps + 1):
        col = a.dot(K)
        kernel_sweep = lo <= col.min() and col.max() <= hi
        if kernel_sweep:
            b = 1.0 / col
            Kb = K.dot(b)
            # row sums of the current plan: sum_j P_ij = a_i (K b)_i
            row_sums = a * Kb
            lb = np.log(b)
            duals.append(base + epsilon * (la.sum() + lb.sum() + n - row_sums.sum()))
        else:
            # b would leave its range: this sweep runs on the log-domain potentials
            u = U + epsilon * la
            v = _half_sweep(u[:, None], C, epsilon, work, axis=0)
            row_lse = _half_sweep(v[None, :], C, epsilon, work, axis=1)
            row_sums = np.exp(np.minimum((u - row_lse) / epsilon, 700.0))
            duals.append(u.sum() + v.sum() + epsilon * (n - row_sums.sum()))
        err = float(np.abs(row_sums - 1.0).max())
        if err <= tol:
            if kernel_sweep:
                u, v = U + epsilon * la, V + epsilon * lb
            P = np.exp((u[:, None] + v[None, :] - C) / epsilon)
            marginal_error = max(
                float(np.max(np.abs(P.sum(axis=1) - 1.0))),
                float(np.max(np.abs(P.sum(axis=0) - 1.0))),
            )
            if marginal_error <= tol:
                return TransportPlan(
                    plan=P,
                    dual_row=u,
                    dual_col=v,
                    epsilon=float(epsilon),
                    marginal_error=marginal_error,
                    sweeps=sweep,
                    dual_values=np.array(duals),
                )
            err = marginal_error
        if kernel_sweep:
            a = 1.0 / Kb
            la = np.log(a)
        else:
            U, V = row_lse, v
            K = _kernel(U, V, C, epsilon, work)
            base = U.sum() + V.sum()
            a, la = np.ones(n), np.zeros(n)
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
