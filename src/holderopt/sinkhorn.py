"""Entropic optimal transport between uniform unit marginals.

Solves ``min_P <P, C> + eps * sum_ij P_ij log P_ij`` over nonnegative square
plans whose rows and columns each sum to one (total mass n, not 1), by
scaling iterations on a stabilized kernel ``K_ij = exp((U_i + V_j - C_ij) / eps)``:
each iteration updates the scalings ``a, b``, and the plan is
``P_ij = a_i K_ij b_j``. The row scaling comes from a plain sweep, two
matrix-vector products, until the sweeps' contraction rate shows that they
would be slow; from then on each iteration takes a Newton column step, then
the exact row update for it: the column part of a damped Newton step on the
joint dual (Brauer, Clason, Lorenz & Wirth, "A Sinkhorn-Newton method for
entropic optimal transport", arXiv:1710.06635, 2017), damped on the dual
after an exact row update. The step is taken on the current plan
``a K b``, with ``K`` left as it is, and its row update is added to
``log a``. Where a Newton step fails, that iteration takes a plain sweep, and
the rule decides again. Before a scaling leaves a fixed range it is absorbed:
the sweep runs in the log domain, its potentials become the new ``U, V`` and
``K`` is rebuilt from them. A solve of plain sweeps returns ``a K b``; one
that took a Newton step returns the plan built from its potentials, since
``a K b`` drifts from them where ``K`` underflowed. The optimal plan is the
gradient of the transport objective with respect to the cost matrix.

A solve may start from a given column potential. :class:`holderopt.gan.GanObjective`
passes on the one of its last solve, since consecutive oracle calls of a step
search solve nearby costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import RunError, _require_count, _require_positive


class SinkhornError(RunError):
    """Raised when the scaling iterations do not reach the marginal tolerance.

    ``sweeps``, ``newton_steps`` and ``newton_failures`` count the work done
    before the failure, as on :class:`TransportPlan`; ``sweeps`` includes an
    iteration that failed part-way.
    """

    def __init__(
        self, message: str, marginal_error: float, sweeps: int = 0, newton_steps: int = 0, newton_failures: int = 0
    ):
        super().__init__(message)
        self.marginal_error = marginal_error
        self.sweeps = sweeps
        self.newton_steps = newton_steps
        self.newton_failures = newton_failures


@dataclass
class TransportPlan:
    """Converged plan with its dual certificates.

    ``sweeps`` counts iterations, plain sweeps and Newton steps alike;
    ``newton_steps`` counts the accepted Newton steps among them, and
    ``newton_failures`` the Newton attempts whose iteration fell back to a
    plain sweep. ``dual_values`` holds the concave dual objective after each
    iteration. Every update is an exact block maximization or a Newton step
    that passes the Armijo test, so the values never decrease, which is a
    useful health check.
    """

    plan: np.ndarray
    dual_row: np.ndarray
    dual_col: np.ndarray
    epsilon: float
    marginal_error: float
    sweeps: int
    dual_values: np.ndarray
    newton_steps: int = 0
    newton_failures: int = 0


# a kernel sweep keeps the scalings a and b within exp(+-_MAX_LOG_SCALING), so a
# plan entry a_i K_ij b_j whose kernel entry underflows is below e^100 * 2.3e-308
_MAX_LOG_SCALING = 50.0

# the Armijo constant and the shortest step of the Newton line search; at colder eps
# the capped start _MAX_LOG_SCALING / max|d_b| often lies below 2^-10 and still gains,
# while a refused step costs its iteration a plain sweep
_ARMIJO = 1e-4
_MIN_NEWTON_STEP = 2.0**-30


def _sweeps_before_newton(n: int) -> float:
    """The sweeps left, at the last contraction rate, above which Newton takes over.

    That is the cost of two Newton steps. One step, the scaled plan a K b,
    an (n-1) x (n-1) solve and the exact row update, costs at most about as
    much as 4 + n^2 / 512 plain sweeps on one core (measured on clouds at
    eps 0.05, one BLAS thread, near convergence, on a noisy 2-core host: 3 to
    11 at n <= 32, 6 to 11 at 64, 16 to 32 at 128, 29 to 60 at 192): a
    Newton solve takes a handful of steps where plain sweeps would take
    hundreds, while solves that converge in a few dozen sweeps never switch.
    """
    return 8.0 + n * n / 256.0


def _check_cost(cost) -> np.ndarray:
    C = np.asarray(cost, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] < 1:
        raise ValueError(f"cost must be a square matrix, got shape {C.shape}")
    # NaN propagates through min and max, so the finite check sees it first
    low, high = float(C.min()), float(C.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError("cost entries must be finite")
    if low < 0:
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
    """<P, C> + eps * sum P log P with the 0 log 0 = 0 convention; P and C must have one shape."""
    P = np.asarray(plan, dtype=float)
    C = np.asarray(cost, dtype=float)
    if P.shape != C.shape:
        raise ValueError(f"plan shape {P.shape} does not match cost shape {C.shape}")
    log_p = np.log(P, out=np.zeros_like(P), where=P > 0)
    return float(np.sum(P * C) + epsilon * np.sum(P * log_p))


def _kernel(U, V, C, epsilon, work) -> np.ndarray:
    """K = exp((U_i + V_j - C_ij) / eps), formed in ``work``."""
    np.add(U[:, None], V[None, :], out=work)
    work -= C
    work /= epsilon
    return np.exp(work, out=work)


def _scaled_plan(K, a, b, out) -> np.ndarray:
    """The plan a_i K_ij b_j, formed in ``out``."""
    np.multiply(K, a[:, None], out=out)
    out *= b
    return out


def _newton_row_scaling(K, r, row_starts) -> np.ndarray | None:
    """The log row update after one damped Newton column step on the plan K, or None.

    ``K`` is the current plan, with row sums ``r``, and the step starts from
    its scalings a = b = 1. ``row_starts`` is ``np.arange(0, n * n, n)``, the
    flat index of each row's first entry, made once by a caller that steps
    many times. ``K`` is left as it was.

    The step d_b is the column part of the Newton step on the joint dual, with
    the gauge fixed by d_b[-1] = 0; in units of eps the dual's gradient is
    g = (1 - r, 1 - c) and its Hessian is minus
    [[diag r, K'], [K'^T, diag c']], for the row and column sums r, c of K,
    K' = K[:, :-1] and c' = c[:-1]. Eliminating the row part leaves one
    (n-1) x (n-1) system S d_b' = 1 - W'.sum(axis=0) on the Schur complement
    S = diag(c') - K'^T W', with W = K / r by rows and W' = W[:, :-1]; its
    right-hand side is the column error after an exact row update. It is
    solved as -S d_b' = -g, which gives the same bits and spares negating
    the block K'^T W'.

    S's diagonal c_j - sum_i K_ij^2 / r_i cancels where a row's mass sits in
    one entry, as it does for a plan near a permutation (and so does a
    pivoted LU of the joint system, which pivots on diag r). It is summed as
    sum_i W_ij (r_i - K_ij) instead, where r_i - K_ij is the sum of row i's
    other entries when K_ij is the row's largest, and is at least r_i / 2
    otherwise.

    The row part of the joint step is not used: the step is taken on the
    semi-dual psi(lb) = sum(lb) - sum_i log (K e^lb)_i, the dual after an exact
    row update (Cuturi & Peyre, "A Smoothed Dual Approach for Variational
    Wasserstein Problems", SIAM J. Imaging Sci. 9(1), 2016), and the row
    update returned is that exact update for the accepted column step. The
    step length t starts where max |t d_b| = _MAX_LOG_SCALING or at 1, and
    halves until the Armijo test on psi holds. None means a row of K sums to
    at most exp(-_MAX_LOG_SCALING), the system is singular, max |d_b| is not
    finite or exceeds _MAX_LOG_SCALING / _MIN_NEWTON_STEP (about 5.4e10, where
    the start of t lies below _MIN_NEWTON_STEP), d_b is not an ascent direction
    (as at n = 1, where no column moves), or t fell below _MIN_NEWTON_STEP.
    """
    n = K.shape[0]
    if not r.min() > math.exp(-_MAX_LOG_SCALING):
        return None
    W = K / r[:, None]
    # -(r_i - K_ij); where K_ij is the row's largest, minus the sum of the row's
    # other entries, taken with the largest set to 0 and then put back
    rest = K - r[:, None]
    top = row_starts + K.argmax(axis=1)
    largest = K.take(top)
    K.put(top, 0.0)
    rest.put(top, -K.sum(axis=1))
    K.put(top, largest)
    rest *= W
    minus_schur = K.T.dot(W)[:-1, :-1]
    minus_schur.flat[::n] = rest.sum(axis=0)[:-1]
    g = (1.0 - W.sum(axis=0))[:-1]
    try:
        d = np.linalg.solve(minus_schur, -g)
    except np.linalg.LinAlgError:
        return None
    # Past this bound t would start below its floor. Testing it first also
    # refuses NaN and inf, and bounds the sums below (|g_j| < n), which must
    # not overflow: sinkhorn_solve raises on overflow. At n = 1, d is empty.
    d_max = np.abs(d).max(initial=0.0)
    if not d_max <= _MAX_LOG_SCALING / _MIN_NEWTON_STEP:
        return None
    slope = float(g.dot(d))
    if not slope > 0.0:
        return None
    d_b, total = np.zeros(n), d.sum()
    d_b[:-1] = d
    t = min(1.0, _MAX_LOG_SCALING / d_max)
    while t >= _MIN_NEWTON_STEP:
        # (K e^(t d_b))_i / r_i - 1; at -1 in float64 row i keeps no mass
        e = W.dot(np.expm1(t * d_b))
        if e.min() > -1.0:
            lw = np.log1p(e)
            # psi's gain, summed from terms of the step's own size rather than
            # as a difference of two duals
            if t * total - lw.sum() >= _ARMIJO * t * slope:
                return -(np.log(r) + lw)
        t /= 2.0
    return None


def sinkhorn_solve(
    cost, epsilon: float, tol: float = 1e-9, max_sweeps: int = 100_000, *, dual_col=None
) -> TransportPlan:
    """Run scaling iterations until both marginals are within ``tol`` in max norm.

    ``dual_col`` is the column potential ``V`` to start from, a finite vector
    of shape ``(n,)``, for example the ``dual_col`` of a solve of a nearby
    cost; ``None`` starts from ``V = 0``. The first row update is the exact
    one for that ``V``, so a start that is already optimal stops after one
    iteration. The start changes how many iterations a solve takes and the
    last bits of its plan, never its tolerance.

    One iteration obtains a row scaling, then makes the exact column update
    for it, then records the dual objective and tests the marginals.
    ``max_sweeps``, an integer >= 1, bounds the number of iterations. Raises
    :class:`SinkhornError` if the tolerance is not reached within
    ``max_sweeps``, or if the arithmetic overflows, as it does for an
    ``epsilon`` far below the cost's scale. The plan and the error both count
    the iterations, the accepted Newton steps and the failed Newton attempts.

    The potentials are kept as base potentials ``U, V`` plus scalings
    ``u = U + eps log a`` and ``v = V + eps log b``, so that a sweep is two
    matrix-vector products with the kernel ``K = exp((U_i + V_j - C_ij) / eps)``
    and the plan is ``P_ij = a_i K_ij b_j``. The row scaling is the exact row
    update ``a = 1 / (K b)`` (a plain sweep) until, after some sweep, the
    ratio of the last two marginal errors predicts more further sweeps than
    two Newton steps cost (:func:`_sweeps_before_newton`), or the error
    stopped falling.
    From then on each iteration forms the current plan ``a K b``, takes a
    Newton column step on it and adds the exact row update for that step to
    ``log a``; ``U, V`` and ``K`` stay as they are, and the next column
    update is the exact one for the new ``a``. The column step is the column
    part of the damped Newton step
    on the joint dual, from one (n-1) x (n-1) system, the Schur complement
    left after eliminating the row update, with a diagonal summed so that it
    does not cancel when the plan nears a permutation; its line search tests
    the dual after the exact row update (see :func:`_newton_row_scaling`). If
    a row of ``K`` sums to at most ``exp(-_MAX_LOG_SCALING)``, the system is
    singular, its direction is no ascent or the line search falls below
    ``_MIN_NEWTON_STEP``, that iteration takes a plain sweep, and the rule
    decides again. A 1x1 cost converges in one sweep and never switches.

    A column update whose ``b`` would leave ``exp(+-_MAX_LOG_SCALING)``, for
    example where a column of ``K`` underflowed, runs its column and row
    updates in the log domain instead and absorbs them: they become the new
    ``U, V``, ``K`` is rebuilt from ``U`` and ``V``, ``b = 1`` and
    ``a = exp((u - U) / eps)`` keeps the row potentials ``u`` (Schmitzer,
    "Stabilized sparse scaling algorithms for entropy regularized transport
    problems", SIAM J. Sci. Comput. 41(3), 2019). The start and each absorb
    build ``K`` one way, :func:`_kernel`. Every iteration then shares one
    computation of the row sums, the dual value and the stopping test. Each
    solve makes one n x n plan buffer and forms every plan in it, so the
    plan returned is the solve's own array. It is ``a K b``, formed by
    :func:`_scaled_plan` as for a Newton step, after plain sweeps only.
    After a Newton step it is the plan that :func:`_kernel` builds from the
    returned potentials, ``exp((dual_row_i + dual_col_j - C_ij) / eps)``:
    where ``K`` underflowed, ``a K b`` drifts from that by up to 1.4e-6
    relative. Either plan's two
    marginals are checked before it is returned.
    """
    C = _check_cost(cost)
    _require_positive("epsilon", epsilon)
    _require_positive("tol", tol)
    _require_count("max_sweeps", max_sweeps, 1)
    n = C.shape[0]
    if dual_col is None:
        V = np.zeros(n)
    else:
        V = np.array(dual_col, dtype=float)
        if V.shape != (n,) or not np.all(np.isfinite(V)):
            raise ValueError(f"dual_col must be a finite vector of shape ({n},), got shape {V.shape}")

    lo, hi = math.exp(-_MAX_LOG_SCALING), math.exp(_MAX_LOG_SCALING)
    work = np.empty_like(C)
    # every plan this solve forms, for a Newton step or to return, so the plan returned
    # is this solve's own array
    plan = np.empty_like(C)
    row_starts = np.arange(0, n * n, n)
    duals = []
    err = np.inf
    sweep = newton_steps = newton_failures = 0
    # the next row scaling comes from a Newton step
    newton = False
    switch_after = _sweeps_before_newton(n)
    try:
        # overflow, division by zero or an invalid value ends the solve; underflow is expected
        with np.errstate(all="raise", under="ignore"):
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
                    u, v = U + epsilon * la, V + epsilon * lb
                    # after a Newton step, a K b drifts from the potentials where K underflowed
                    P = _kernel(u, v, C, epsilon, plan) if newton_steps else _scaled_plan(K, a, b, plan)
                    err = max(
                        float(np.abs(P.sum(axis=1) - 1.0).max()),
                        float(np.abs(P.sum(axis=0) - 1.0).max()),
                    )
                    if err <= tol:
                        return TransportPlan(
                            plan=P,
                            dual_row=u,
                            dual_col=v,
                            epsilon=float(epsilon),
                            marginal_error=err,
                            sweeps=sweep,
                            dual_values=np.array(duals),
                            newton_steps=newton_steps,
                            newton_failures=newton_failures,
                        )
                if not newton and sweep > 1:
                    # sweeps left at the last contraction rate err / last_err, if it holds
                    newton = math.log(tol / err) < switch_after * math.log(err / last_err)
                if newton:
                    # the step starts from the current plan, whose row sums are row_sums
                    step = _newton_row_scaling(_scaled_plan(K, a, b, plan), row_sums, row_starts)
                    if step is not None:
                        newton_steps += 1
                        la += step
                        a = np.exp(la)
                        continue
                    newton_failures += 1
                    newton = False
                a = 1.0 / Kb
                la = np.log(a)
    except FloatingPointError as exc:
        raise SinkhornError(
            f"sinkhorn arithmetic failed at epsilon {epsilon:g} ({exc})", err, sweep, newton_steps, newton_failures
        ) from exc
    raise SinkhornError(
        f"sinkhorn did not reach marginal tolerance {tol:g} within {max_sweeps} iterations "
        f"(marginal error {err:.3e})",
        err,
        sweep,
        newton_steps,
        newton_failures,
    )


def sinkhorn_divergence(cost, epsilon: float, tol: float = 1e-9) -> float:
    """Objective value <P, C> + eps * sum P log P at the converged plan."""
    return entropic_objective(sinkhorn_solve(cost, epsilon, tol=tol).plan, cost, epsilon)
