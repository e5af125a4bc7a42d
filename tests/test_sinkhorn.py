"""Entropic transport solver against closed forms and brute-force minimization."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from holderopt import (
    SinkhornError,
    entropic_objective,
    sinkhorn_divergence,
    sinkhorn_solve,
)
from holderopt import sinkhorn as sinkhorn_module
from holderopt.sinkhorn import _logsumexp

SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def two_point_closed_form(eps):
    """Optimal diagonal weight and objective for the 2x2 swap cost."""
    a = 1.0 / (1.0 + np.exp(-1.0 / eps))
    div = 2.0 * (1.0 - a) + 2.0 * eps * (a * np.log(a) + (1.0 - a) * np.log(1.0 - a))
    return a, div


def test_single_point_plan_is_one():
    result = sinkhorn_solve([[0.7]], epsilon=0.3)
    np.testing.assert_allclose(result.plan, [[1.0]], atol=1e-12)
    assert sinkhorn_divergence([[0.7]], epsilon=0.3) == pytest.approx(0.7, abs=1e-12)


@pytest.mark.parametrize("eps", [0.05, 0.2, 1.0])
def test_two_point_closed_form(eps):
    a, div = two_point_closed_form(eps)
    result = sinkhorn_solve(SWAP2, epsilon=eps)
    np.testing.assert_allclose(result.plan, [[a, 1 - a], [1 - a, a]], atol=1e-8)
    assert sinkhorn_divergence(SWAP2, epsilon=eps) == pytest.approx(div, abs=1e-8)


def test_two_point_against_scalar_brute_force():
    """The 2x2 symmetric problem reduces to one scalar, minimized independently."""
    eps = 0.25

    def objective(a):
        return 2.0 * (1.0 - a) + 2.0 * eps * (a * np.log(a) + (1.0 - a) * np.log(1.0 - a))

    brute = minimize_scalar(objective, bounds=(1e-12, 1.0 - 1e-12), method="bounded")
    assert sinkhorn_divergence(SWAP2, epsilon=eps) == pytest.approx(brute.fun, abs=1e-8)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_marginals_within_tolerance(n):
    rng = np.random.default_rng(n)
    C = rng.random((n, n)) * 2.0
    result = sinkhorn_solve(C, epsilon=0.3, tol=1e-9)
    assert result.marginal_error <= 1e-9
    np.testing.assert_allclose(result.plan.sum(axis=0), np.ones(n), atol=1e-9)
    np.testing.assert_allclose(result.plan.sum(axis=1), np.ones(n), atol=1e-9)
    assert np.all(result.plan > 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_plan_matches_finite_difference_gradient(n):
    """d(divergence)/dC_ij equals the plan entry, checked by central differences."""
    rng = np.random.default_rng(10 + n)
    C = rng.random((n, n)) + 0.5
    result = sinkhorn_solve(C, epsilon=0.5, tol=1e-12)
    plan = result.plan
    h = 1e-5
    for i in range(n):
        for j in range(n):
            Cp, Cm = C.copy(), C.copy()
            Cp[i, j] += h
            Cm[i, j] -= h
            fd = (
                sinkhorn_divergence(Cp, 0.5, tol=1e-12)
                - sinkhorn_divergence(Cm, 0.5, tol=1e-12)
            ) / (2 * h)
            assert fd == pytest.approx(plan[i, j], abs=1e-5)


def test_dual_values_never_decrease():
    rng = np.random.default_rng(3)
    C = rng.random((5, 5)) * 3.0
    result = sinkhorn_solve(C, epsilon=0.05, tol=1e-10)
    assert np.all(np.diff(result.dual_values) >= -1e-10)


def test_dual_meets_primal_at_convergence():
    rng = np.random.default_rng(7)
    C = rng.random((4, 4)) * 2.0
    result = sinkhorn_solve(C, epsilon=0.4, tol=1e-11)
    primal = entropic_objective(result.plan, C, 0.4)
    assert result.dual_values[-1] == pytest.approx(primal, abs=1e-8)


def test_large_epsilon_spreads_the_plan():
    rng = np.random.default_rng(11)
    C = rng.random((3, 3))
    result = sinkhorn_solve(C, epsilon=1e6)
    np.testing.assert_allclose(result.plan, np.full((3, 3), 1.0 / 3.0), atol=1e-6)


def test_objective_zero_log_zero_convention():
    plan = np.eye(2)
    assert entropic_objective(plan, SWAP2, 0.1) == pytest.approx(0.0, abs=1e-15)


def test_cost_validation():
    with pytest.raises(ValueError, match="square"):
        sinkhorn_solve(np.ones((2, 3)), epsilon=0.1)
    with pytest.raises(ValueError, match="finite"):
        sinkhorn_solve([[np.nan]], epsilon=0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        sinkhorn_solve([[-1.0]], epsilon=0.1)
    with pytest.raises(ValueError, match="epsilon"):
        sinkhorn_solve(SWAP2, epsilon=0.0)
    with pytest.raises(ValueError, match="tol"):
        sinkhorn_solve(SWAP2, epsilon=0.1, tol=0.0)
    with pytest.raises(ValueError, match="max_sweeps"):
        sinkhorn_solve(SWAP2, epsilon=0.1, max_sweeps=0)


def test_sweep_budget_error_carries_marginal_error():
    rng = np.random.default_rng(5)
    C = rng.random((6, 6)) * 4.0
    with pytest.raises(SinkhornError) as info:
        sinkhorn_solve(C, epsilon=0.01, tol=1e-12, max_sweeps=3)
    assert info.value.marginal_error > 0


def test_solve_is_deterministic():
    rng = np.random.default_rng(9)
    C = rng.random((4, 4))
    a = sinkhorn_solve(C, epsilon=0.2)
    b = sinkhorn_solve(C, epsilon=0.2)
    np.testing.assert_array_equal(a.plan, b.plan)
    assert a.sweeps == b.sweeps


# ------------------------------------------- agreement with a scipy reference

# fixed from float64's eps before comparing an unconverged solve: its plain
# sweeps round differently from the log-domain reference, the same loop otherwise
ATOL = 1000 * np.finfo(float).eps
# the reference's tolerance when it stands for the exact plan
REF_TOL = 1e-14


def assert_close_relative(actual, expected):
    """|actual - expected| <= ATOL * max(1, |expected|), entrywise."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.all(np.abs(actual - expected) <= ATOL * np.maximum(1.0, np.abs(expected)))


def assert_certified(result, C, tol):
    """Both marginals within tol, no fall of the dual beyond rounding, and dual
    potentials that give the plan, P_ij = exp((dual_row_i + dual_col_j - C_ij) / eps)."""
    assert result.marginal_error <= tol
    assert np.abs(result.plan.sum(axis=0) - 1.0).max() <= tol
    assert np.abs(result.plan.sum(axis=1) - 1.0).max() <= tol
    duals = result.dual_values
    assert duals.shape == (result.sweeps,)
    assert np.all(np.diff(duals) >= -1e-12 * np.maximum(1.0, np.abs(duals[1:])))
    potentials = result.dual_row[:, None] + result.dual_col[None, :]
    # rounding of (potentials - C) / eps reached 9e-14 relative, at C = 400 and eps = 0.2
    np.testing.assert_allclose(np.exp((potentials - C) / result.epsilon), result.plan, rtol=1e-12, atol=0)


def assert_matches_reference(result, C, reference, tol=1e-9):
    """The plan within tol of a tightly converged reference, the gauge-free sums
    of dual potentials dual_row_i + dual_col_j near the reference's, and certified.

    Marginals within tol move the potentials, to first order, by at most
    eps * sqrt(2n) * tol / (1 - s2) in 2-norm, where s2 is the plan's second
    singular value and 1 - s2 the smallest nonzero eigenvalue of -eps times
    the dual's Hessian; a sum of two potentials moves by sqrt(2) times that.
    The sums came within 0.23 of this bound on the random costs.
    """
    plan, u, v = reference[:3]
    assert np.abs(result.plan - plan).max() <= tol
    n = C.shape[0]
    s2 = np.linalg.svd(plan, compute_uv=False)[1] if n > 1 else 0.0
    potentials = result.dual_row[:, None] + result.dual_col[None, :]
    bound = 2.0 * result.epsilon * np.sqrt(n) * tol / (1.0 - s2)
    assert np.abs(potentials - (u[:, None] + v[None, :])).max() <= bound
    assert_certified(result, C, tol)


def reference_solve(C, epsilon, tol=1e-9, max_sweeps=100_000):
    """The plain sweep loop written directly on scipy.special.logsumexp."""
    n = C.shape[0]
    v = np.zeros(n)
    duals = []
    row_lse = -epsilon * logsumexp((v[None, :] - C) / epsilon, axis=1)
    for sweep in range(1, max_sweeps + 1):
        u = row_lse
        v = -epsilon * logsumexp((u[:, None] - C) / epsilon, axis=0)
        row_lse = -epsilon * logsumexp((v[None, :] - C) / epsilon, axis=1)
        row_sums = np.exp(np.minimum((u - row_lse) / epsilon, 700.0))
        duals.append(u.sum() + v.sum() + epsilon * (n - row_sums.sum()))
        err = float(np.max(np.abs(row_sums - 1.0)))
        if err <= tol:
            P = np.exp((u[:, None] + v[None, :] - C) / epsilon)
            marginal_error = max(
                float(np.max(np.abs(P.sum(axis=1) - 1.0))),
                float(np.max(np.abs(P.sum(axis=0) - 1.0))),
            )
            if marginal_error <= tol:
                return P, u, v, np.array(duals), sweep
            err = marginal_error
    raise SinkhornError("reference solve did not converge", err)


@pytest.mark.parametrize("n", [1, 2, 5, 64])
@pytest.mark.parametrize("eps", [0.2, 0.02])
@pytest.mark.parametrize("grid_cost", [False, True])
def test_solve_matches_scipy_reference(n, eps, grid_cost):
    """The plan within tol of a tightly converged reference, both marginals
    within tol and a dual that never falls."""
    rng = np.random.default_rng(100 + n)
    # costs on a 0.1 grid tie the row and column maxima of (potential - C) / eps
    C = 0.1 * rng.integers(0, 4, (n, n)) if grid_cost else 0.2 * rng.random((n, n))
    assert_matches_reference(sinkhorn_solve(C, eps), C, reference_solve(C, eps, tol=REF_TOL))


def count_newton_steps(monkeypatch):
    calls = []
    newton = sinkhorn_module._newton_row_scaling

    def counted(K):
        calls.append(K.shape)
        return newton(K)

    monkeypatch.setattr(sinkhorn_module, "_newton_row_scaling", counted)
    return calls


def test_unconverged_solve_matches_scipy_reference(monkeypatch):
    """A budget that ends in plain sweeps: the reference's marginal error, within ATOL relative."""
    C = np.random.default_rng(105).random((5, 5)) * 2.0
    with pytest.raises(SinkhornError) as expected:
        reference_solve(C, 1.0, tol=1e-12, max_sweeps=5)
    calls = count_newton_steps(monkeypatch)
    with pytest.raises(SinkhornError) as info:
        sinkhorn_solve(C, 1.0, tol=1e-12, max_sweeps=5)
    assert calls == []
    assert_close_relative(info.value.marginal_error, expected.value.marginal_error)


def count_half_sweeps(monkeypatch):
    calls = []
    half_sweep = sinkhorn_module._half_sweep

    def counted(*args, **kwargs):
        calls.append(kwargs.get("axis"))
        return half_sweep(*args, **kwargs)

    monkeypatch.setattr(sinkhorn_module, "_half_sweep", counted)
    return calls


def test_underflowed_kernel_column_runs_a_log_domain_sweep(monkeypatch):
    """The start's row potentials are at most 1, so the first kernel's column at
    cost 400 is exp((U_i - 400) / 0.2) <= exp(-1995) == 0.0 and 1 / (K^T a) is inf."""
    C = np.random.default_rng(31).random((3, 3))
    C[:, 1] = 400.0
    calls = count_half_sweeps(monkeypatch)
    result = sinkhorn_solve(C, 0.2)
    # the start's row update, then one log-domain column and row update
    assert calls[:3] == [1, 0, 1]
    # the reference's own rounding stalls it between 1e-13 and 1e-12
    assert_matches_reference(result, C, reference_solve(C, 0.2, tol=1e-12))


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_far_apart_clouds_rebuild_the_kernel(monkeypatch, eps):
    """Two 48-point clouds 6 apart: the column scaling outgrows exp(50) and is absorbed."""
    rng = np.random.default_rng(0)
    x = 1.5 * rng.normal(size=(48, 2))
    y = 1.5 * rng.normal(size=(48, 2)) + np.array([6.0, 0.0])
    C = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1))
    calls = count_half_sweeps(monkeypatch)
    result = sinkhorn_solve(C, eps)
    assert 0 in calls  # a log-domain column update ran
    # at eps 0.05 the reference's rounding stalls it between 1e-14 and 3e-14
    assert_matches_reference(result, C, reference_solve(C, eps, tol={0.1: REF_TOL, 0.05: 3e-14}[eps]))


def test_stalled_plain_sweeps_converge_by_newton_steps(monkeypatch):
    """Plain sweeps converge like 1 / (2k) here, since a plan entry is about
    e^-50: about 5e8 of them would reach the default tol."""
    C = np.array([[1.0, 0.0], [2.0, 2.0]])
    calls = count_newton_steps(monkeypatch)
    result = sinkhorn_solve(C, 0.02)
    assert result.sweeps <= 50
    assert calls
    assert_certified(result, C, 1e-9)


def test_failed_newton_system_falls_back_to_plain_sweeps(monkeypatch):
    """A Newton system that cannot be solved leaves the solve to plain sweeps,
    which take as many as the reference."""
    rng = np.random.default_rng(64)
    C = rng.random((64, 64))
    solves = []

    def singular(system, rhs):
        solves.append(system.shape)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(sinkhorn_module.np.linalg, "solve", singular)
    result = sinkhorn_solve(C, 0.02)
    assert solves == [(127, 127)]  # tried once, then plain sweeps for the rest
    assert result.sweeps == reference_solve(C, 0.02)[-1]
    assert_certified(result, C, 1e-9)


def test_newton_steps_take_fewer_iterations_than_plain_sweeps():
    C = np.random.default_rng(105).random((5, 5))
    result = sinkhorn_solve(C, 0.02)
    assert result.sweeps < reference_solve(C, 0.02)[-1]
    assert_certified(result, C, 1e-9)


@pytest.mark.parametrize("axis", [0, 1])
def test_logsumexp_matches_scipy_with_ties(axis):
    rng = np.random.default_rng(21)
    a = rng.integers(-3, 3, (40, 40)).astype(float)
    a[3] = 2.0  # a whole line of maxima
    b = rng.normal(size=(40, 40)) * 30.0
    eps = np.finfo(float).eps
    for x in (a, b, a / 7.0):
        expected = logsumexp(x, axis=axis)
        actual = _logsumexp(x.copy(), axis)
        assert np.all(np.abs(actual - expected) <= 4 * eps * np.maximum(1.0, np.abs(expected)))


def test_extreme_epsilon_still_raises():
    C = np.random.default_rng(4).random((4, 4))
    with pytest.raises(SinkhornError):
        sinkhorn_solve(C, epsilon=1e-300, max_sweeps=50)


@pytest.mark.parametrize(
    "cost, eps",
    [
        (np.random.default_rng(4).random((4, 4)), 1e-305),
        (np.random.default_rng(4).random((4, 4)), 1e-310),
        (np.random.default_rng(4).random((4, 4)), 5e-324),
        (np.array([[0.0, 1e300], [1e300, 0.0]]), 1e-10),
    ],
)
def test_overflowing_epsilon_raises_sinkhorn_error(cost, eps):
    """Arithmetic that leaves float64's range ends the solve, with no warning."""
    with pytest.raises(SinkhornError):
        sinkhorn_solve(cost, epsilon=eps, max_sweeps=50)
