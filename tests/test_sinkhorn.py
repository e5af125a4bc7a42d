"""Entropic transport solver against closed forms and brute-force minimization."""

import concurrent.futures
import functools
import itertools
import multiprocessing
import pickle
import re

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


@pytest.mark.parametrize("shape", [(1, 3), (3,), (3, 1), (9,)], ids=lambda shape: "x".join(map(str, shape)))
def test_objective_refuses_a_plan_of_another_shape(shape):
    """A plan that would broadcast against the cost is refused, not summed as if it were 3 x 3."""
    with pytest.raises(ValueError, match=re.escape(f"plan shape {shape} does not match cost shape (3, 3)")):
        entropic_objective(np.ones(shape), np.ones((3, 3)), 0.1)


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


@pytest.mark.parametrize(
    "cost",
    [
        [[np.nan, -1.0], [0.0, 0.0]],
        [[-1.0, 0.0], [0.0, np.nan]],
        [[0.0, -np.inf], [0.0, 0.0]],
        [[0.0, np.inf], [-1.0, 0.0]],
    ],
)
def test_a_nonfinite_cost_is_reported_before_a_negative_one(cost):
    with pytest.raises(ValueError, match="finite"):
        sinkhorn_solve(cost, epsilon=0.1)


@pytest.mark.parametrize("max_sweeps", [2.5, 3.0, True])
def test_max_sweeps_must_be_an_integer(max_sweeps):
    """2.5 failed inside range() and True ran one iteration."""
    with pytest.raises(ValueError, match="max_sweeps"):
        sinkhorn_solve(SWAP2, epsilon=0.1, max_sweeps=max_sweeps)


def test_numpy_integer_max_sweeps_is_accepted():
    assert sinkhorn_solve(SWAP2, epsilon=0.1, max_sweeps=np.int64(50)).sweeps <= 50


def test_sweep_budget_error_carries_marginal_error():
    rng = np.random.default_rng(5)
    C = rng.random((6, 6)) * 4.0
    with pytest.raises(SinkhornError) as info:
        sinkhorn_solve(C, epsilon=0.01, tol=1e-12, max_sweeps=3)
    assert info.value.marginal_error > 0


def test_sinkhorn_error_survives_pickling():
    error = pickle.loads(pickle.dumps(SinkhornError("no convergence", 0.5, 7, 3, 2)))
    assert type(error) is SinkhornError
    assert str(error) == "no convergence"
    fields = (error.marginal_error, error.sweeps, error.newton_steps, error.newton_failures)
    assert fields == (0.5, 7, 3, 2)


def test_a_solve_that_fails_in_a_worker_process_raises_its_error_in_the_parent():
    """An error that does not pickle reaches the parent as BrokenProcessPool instead."""
    C = np.random.default_rng(4).random((16, 16))
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        future = pool.submit(functools.partial(sinkhorn_solve, C, 1e-4, max_sweeps=2))
        with pytest.raises(SinkhornError) as info:
            future.result(timeout=120)
    assert np.isfinite(info.value.marginal_error)
    assert info.value.sweeps == 2
    assert info.value.newton_steps + info.value.newton_failures <= 1


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


def assert_certified(result, C, tol, plan_atol=0.0, plan_rtol=1e-12):
    """Both marginals within tol, no fall of the dual beyond rounding, and dual
    potentials that give the plan, P_ij = exp((dual_row_i + dual_col_j - C_ij) / eps),
    to plan_rtol relative plus plan_atol."""
    assert result.marginal_error <= tol
    assert np.abs(result.plan.sum(axis=0) - 1.0).max() <= tol
    assert np.abs(result.plan.sum(axis=1) - 1.0).max() <= tol
    duals = result.dual_values
    assert duals.shape == (result.sweeps,)
    assert np.all(np.diff(duals) >= -1e-12 * np.maximum(1.0, np.abs(duals[1:])))
    potentials = result.dual_row[:, None] + result.dual_col[None, :]
    # rounding of (potentials - C) / eps reached 9e-14 relative, at C = 400 and eps = 0.2
    np.testing.assert_allclose(np.exp((potentials - C) / result.epsilon), result.plan, rtol=plan_rtol, atol=plan_atol)


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


def test_unconverged_solve_matches_scipy_reference():
    """A budget that ends in plain sweeps: the reference's marginal error, within ATOL relative."""
    C = np.random.default_rng(105).random((5, 5)) * 2.0
    with pytest.raises(SinkhornError) as expected:
        reference_solve(C, 1.0, tol=1e-12, max_sweeps=5)
    with pytest.raises(SinkhornError) as info:
        sinkhorn_solve(C, 1.0, tol=1e-12, max_sweeps=5)
    assert (info.value.sweeps, info.value.newton_steps, info.value.newton_failures) == (5, 0, 0)
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


def test_stalled_plain_sweeps_converge_by_newton_steps():
    """Plain sweeps converge like 1 / (2k) here, since a plan entry is about
    e^-50: about 5e8 of them would reach the default tol."""
    C = np.array([[1.0, 0.0], [2.0, 2.0]])
    result = sinkhorn_solve(C, 0.02)
    assert result.sweeps <= 50
    assert result.newton_steps > 0
    assert_certified(result, C, 1e-9)


def test_failed_newton_system_falls_back_to_plain_sweeps(monkeypatch):
    """A Newton system that cannot be solved leaves its iteration to a plain
    sweep; with every system failing the solve takes as many sweeps as the
    reference, and the rule asks for Newton again along the way."""
    rng = np.random.default_rng(64)
    C = rng.random((64, 64))
    solves = []

    def singular(system, rhs):
        solves.append(system.shape)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(sinkhorn_module.np.linalg, "solve", singular)
    result = sinkhorn_solve(C, 0.02)
    assert len(solves) > 1
    # the (n - 1) x (n - 1) Schur complement, not the (2n - 1) x (2n - 1) joint system
    assert all(shape == (63, 63) for shape in solves)
    assert result.sweeps == reference_solve(C, 0.02)[-1]
    # every attempt failed, and each counts as a failure
    assert (result.newton_steps, result.newton_failures) == (0, len(solves))
    assert_certified(result, C, 1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_gaussian_clouds_converge_after_a_failed_newton_step(seed):
    """Two standard-normal 64-point clouds at eps 0.02. On most seeds a first
    Newton step fails its line search; plain sweeps from there still stand at
    a marginal error of 3e-5 to 1.5e-4 after 20 000 iterations, while retrying
    Newton after the next sweep converges in 16 to 44 iterations."""
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((64, 2)), rng.standard_normal((64, 2))
    C = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1))
    assert_certified(sinkhorn_solve(C, 0.02, max_sweeps=100), C, 1e-9)


def random_cloud_cases(seed=2026, eps_range=(0.01, 0.1)):
    """Cost and eps of each random cloud pair, in draw order: two n-point
    standard-normal clouds, the second moved right by an offset in [0, 3),
    with eps log-uniform in ``eps_range``."""
    rng = np.random.default_rng(seed)
    low, high = np.log(eps_range[0]), np.log(eps_range[1])
    while True:
        n = int(rng.integers(8, 65))
        eps = float(np.exp(rng.uniform(low, high)))
        off = rng.uniform(0, 3)
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal((n, 2)) + [off, 0.0]
        yield np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)), eps


@pytest.mark.parametrize(
    "case, n, eps", [(102, 9, 0.026), (103, 45, 0.0128), (107, 18, 0.0113), (174, 24, 0.0123), (230, 8, 0.0119)]
)
def test_random_clouds_near_a_permutation_converge(case, n, eps):
    """Near convergence some row of these plans holds its mass in one entry, so
    that entry equals the row sum in float64. A Newton system eliminated on
    diag r then cancels, every step fails its line search and plain sweeps
    take 647 iterations (case 102) or stall past 100 000; the Schur
    complement's diagonal, summed without that difference, takes 15 to 130.
    On all but case 107 a trial step of the line search empties a row in
    float64, which the step must reject before it takes that row's log."""
    C, case_eps = next(itertools.islice(random_cloud_cases(), case, None))
    assert C.shape == (n, n) and case_eps == pytest.approx(eps, abs=5e-5)
    assert_certified(sinkhorn_solve(C, case_eps, max_sweeps=200), C, 1e-9)


def test_random_cloud_sweep_converges():
    """Every one of the 300 cases is certified at the default budget, in at
    most 7 876 iterations in all, the count when each Newton step kept the
    joint step's row part; keeping its column part takes 6 357 with a Newton
    step floor of 2^-10 and 4 367 with 2^-30. Of its 3 767 Newton attempts,
    310 fall back to a plain sweep."""
    total = steps = failures = 0
    for C, eps in itertools.islice(random_cloud_cases(), 300):
        result = sinkhorn_solve(C, eps)
        assert_certified(result, C, 1e-9)
        total += result.sweeps
        steps += result.newton_steps
        failures += result.newton_failures
    assert total <= 7876
    assert (steps + failures, failures) == (3767, 310)


def cold_cloud_cases():
    """The random clouds at colder eps, log-uniform in [0.003, 0.01]."""
    return random_cloud_cases(seed=7, eps_range=(0.003, 0.01))


def test_cold_cloud_case_83_converges():
    """n = 8 at eps 0.00384, certified within 5 000 iterations (it takes 236).
    Its marginal error stalls at 2.2e-7 unless each absorb rebuilds K from U
    and V, so this case guards that rebuild."""
    C, eps = next(itertools.islice(cold_cloud_cases(), 83, None))
    assert C.shape == (8, 8) and eps == pytest.approx(0.00384, abs=5e-6)
    assert_certified(sinkhorn_solve(C, eps, max_sweeps=5000), C, 1e-9)


def test_cold_cloud_set_converges():
    """Every one of the 100 cold cases is certified within 5 000 iterations,
    in at most 18 753 in all, the count with a Newton step floor of 2^-10;
    the floor of 2^-30 takes 10 713. Of its 10 513 Newton attempts, 7 873
    fall back to a plain sweep."""
    # at these eps some plan entries are subnormal, and hold fewer bits than 1e-12 relative
    plan_atol = 1e-12 * np.finfo(float).tiny
    total = steps = failures = 0
    for C, eps in itertools.islice(cold_cloud_cases(), 100):
        result = sinkhorn_solve(C, eps, max_sweeps=5000)
        assert_certified(result, C, 1e-9, plan_atol)
        total += result.sweeps
        steps += result.newton_steps
        failures += result.newton_failures
    assert total <= 18753
    assert (steps + failures, failures) == (10513, 7873)


@pytest.mark.parametrize("case", ["cold case 0", "uniform 64"])
def test_a_newton_touched_plan_is_built_from_its_potentials(case):
    """After a Newton step the plan returned is exp((dual_row_i + dual_col_j
    - C_ij) / eps) bit for bit; a K b drifts from it where K underflowed."""
    if case == "cold case 0":
        C, eps = next(cold_cloud_cases())
    else:
        C, eps = np.random.default_rng(64).random((64, 64)), 0.02
    result = sinkhorn_solve(C, eps, max_sweeps=5000)
    potentials = result.dual_row[:, None] + result.dual_col[None, :]
    assert np.array_equal(result.plan, np.exp((potentials - C) / eps))
    assert result.newton_steps > 0


def test_each_solve_returns_a_plan_of_its_own():
    """A plain-only solve and two that take Newton steps, one after another: no returned plan shares
    memory with another, and each keeps its values through the later solves, as the read-only plans
    that GanObjective keeps must."""
    C = np.random.default_rng(5).random((5, 5))
    results, copies = [], []
    for eps in (1.0, 0.2, 0.02):
        results.append(sinkhorn_solve(C, eps))
        copies.append(results[-1].plan.copy())
    assert [r.newton_steps > 0 for r in results] == [False, True, True]
    for first, second in itertools.combinations(results, 2):
        assert not np.shares_memory(first.plan, second.plan)
    for result, copy in zip(results, copies):
        assert np.array_equal(result.plan, copy)


def test_overflowing_newton_direction_falls_back_to_a_plain_sweep():
    """Case 8 of the random clouds at eps in [1e-4, 3e-4], n = 24 at eps
    0.000205: some Newton directions are finite but overflow their slope
    g . d. The step must return None there, so that the iteration takes a
    plain sweep; raising instead ended the solve with `sinkhorn arithmetic
    failed (overflow encountered in dot)`. Certified in 3 462 iterations."""
    C, eps = next(itertools.islice(random_cloud_cases(seed=11, eps_range=(1e-4, 3e-4)), 8, None))
    assert C.shape == (24, 24) and eps == pytest.approx(0.000205, abs=5e-7)
    # C / eps reaches 3.2e4, where one ulp of the exponent is 7e-12 of the plan entry
    plan_rtol = 4 * np.finfo(float).eps * C.max() / eps
    assert_certified(sinkhorn_solve(C, eps, max_sweeps=5000), C, 1e-9, 1e-12 * np.finfo(float).tiny, plan_rtol)


def joint_newton_step(K):
    """d_b of the (2n - 1) x (2n - 1) joint Newton system, with d_b[-1] = 0 appended."""
    n, m = K.shape[0], 2 * K.shape[0] - 1
    diagonal = np.concatenate((K.sum(axis=1), K.sum(axis=0)[:-1]))
    system = np.zeros((m, m))
    system[:n, n:] = K[:, :-1]
    system[n:, :n] = K[:, :-1].T
    system.flat[:: m + 1] = diagonal
    return np.append(np.linalg.solve(system, 1.0 - diagonal)[n:], 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64])
def test_newton_step_matches_the_joint_system(n):
    """A kernel near an eps = 1 plan: the full step passes the line search, and
    the row scaling is the exact row update -log(K e^d_b) for the joint
    system's column part d_b, to 1e-10 relative. At n = 1 no column moves, so
    there is no step."""
    rng = np.random.default_rng(300 + n)
    plan = sinkhorn_solve(rng.random((n, n)), 1.0).plan
    K = plan * np.exp(0.05 * rng.standard_normal((n, 1))) * np.exp(0.05 * rng.standard_normal((1, n)))
    K_before = K.copy()
    with np.errstate(all="raise", under="ignore"):
        la = sinkhorn_module._newton_row_scaling(K, K.sum(axis=1), np.arange(0, n * n, n))
    assert np.array_equal(K, K_before)
    if n == 1:
        assert la is None
        return
    expected = -np.log(K.dot(np.exp(joint_newton_step(K))))
    assert np.abs(la - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.parametrize("row", [0.0, 1e-310])
def test_newton_step_on_a_zero_or_subnormal_row_is_none(row):
    """No step, and no floating-point error: a zero row sum would divide by
    zero, and a subnormal one would give a row scaling that overflows."""
    K = np.random.default_rng(7).random((5, 5))
    K[2] = row
    with np.errstate(all="raise", under="ignore"):
        assert sinkhorn_module._newton_row_scaling(K, K.sum(axis=1), np.arange(0, 25, 5)) is None


def test_newton_steps_take_fewer_iterations_than_plain_sweeps():
    C = np.random.default_rng(105).random((5, 5))
    result = sinkhorn_solve(C, 0.02)
    assert result.sweeps < reference_solve(C, 0.02)[-1]
    assert_certified(result, C, 1e-9)


@pytest.mark.parametrize("n, eps", [(2, 0.2), (5, 0.02), (64, 0.2), (64, 0.02)])
def test_start_at_a_converged_dual_col_stops_after_one_iteration(n, eps):
    """From its own converged column potential, a solve's first row update
    already meets the tolerance; at n 5 and eps 0.02 the cold solve ends in
    Newton steps."""
    C = 0.2 * np.random.default_rng(100 + n).random((n, n))
    cold = sinkhorn_solve(C, eps)
    warm = sinkhorn_solve(C, eps, dual_col=cold.dual_col)
    assert cold.sweeps > 1
    assert warm.sweeps == 1
    assert_matches_reference(warm, C, reference_solve(C, eps, tol=REF_TOL))


@pytest.mark.parametrize("dual_col", [np.zeros(3), np.zeros((4, 1)), [0.0, np.nan, 0.0, 0.0], [0.0, 0.0, np.inf, 0.0]])
def test_dual_col_validation(dual_col):
    with pytest.raises(ValueError, match="dual_col"):
        sinkhorn_solve(np.ones((4, 4)), epsilon=0.1, dual_col=dual_col)


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
