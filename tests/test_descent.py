"""Step rules, backtracking drivers, trajectories, CSV output."""

import math
import os
import re

import numpy as np
import pytest

from holderopt import (
    BacktrackParams,
    GanObjective,
    HolderCertificate,
    InnerAscentBudget,
    MlpSpec,
    NumericError,
    SmoothObjective,
    StopRule,
    Trajectory,
    TrajectoryRecord,
    ValueFunctionView,
    backtrack_holder_gd,
    backtrack_step,
    holder_gd,
    holder_step,
    k_bound,
    make_quadratic_minmin,
    make_sqrt_problem,
    minmax_constant,
    minmin_armijo_nonmonotone,
    optimal_holder_gamma,
    sinkhorn_solve,
    sufficient_decrease_threshold,
)
from holderopt.descent import CSV_HEADER, CONVERGED, ITER_BUDGET, K_CAP_EXCEEDED, ORACLE_BUDGET


def quadratic(dim=1):
    return SmoothObjective(dim, lambda x: (0.5 * float(x @ x), np.array(x, dtype=float)))


# ---------------------------------------------------------------- step rules


def test_holder_step_values():
    cert = HolderCertificate(beta=1.0, nu=0.5)
    # exponent 1/nu - 1 = 1, so step = gamma * 1.5 * grad_norm
    assert holder_step(2.0, cert, 1.0) == 3.0
    cert1 = HolderCertificate(beta=1.0, nu=1.0)
    # Lipschitz case: the step ignores the gradient norm
    assert holder_step(5.0, cert1, 0.5) == 0.5
    assert holder_step(0.0, cert1, 0.5) == 0.5


def test_holder_step_gamma_range():
    cert = HolderCertificate(beta=1.0, nu=0.5)
    with pytest.raises(ValueError):
        holder_step(1.0, cert, 1.5)  # upper limit (nu+1)/beta is excluded
    with pytest.raises(ValueError):
        holder_step(1.0, cert, 0.0)
    holder_step(1.0, cert, 1.4999)


def test_optimal_holder_gamma():
    assert optimal_holder_gamma(HolderCertificate(1.0, 0.5)) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert optimal_holder_gamma(HolderCertificate(2.0, 1.0)) == 0.5


def test_backtrack_step_at_k0_is_gamma_exactly():
    for g in (0.0, 0.37, 1.0, 42.0):
        assert backtrack_step(0, g, BacktrackParams(gamma=0.7)) == 0.7


def test_backtrack_step_values():
    p = BacktrackParams(gamma=1.0, alpha=0.5, rho=0.5)
    # large gradients: the norm factor saturates at 1
    assert backtrack_step(2, 4.0, p) == 0.25
    # small gradients: alpha**k * g**(rho k), here 0.25 * 0.25
    assert backtrack_step(2, 0.25, p) == pytest.approx(0.0625, rel=1e-12)
    # zero gradient with k > 0 collapses the step
    assert backtrack_step(3, 0.0, p) == 0.0


def test_backtrack_step_no_overflow_at_large_k():
    p = BacktrackParams(gamma=1.0, alpha=0.5, rho=2.0)
    s = backtrack_step(400, 1e-8, p)
    assert s == 0.0 or (s > 0 and np.isfinite(s))


def test_backtrack_step_validation():
    p = BacktrackParams()
    with pytest.raises(ValueError):
        backtrack_step(-1, 1.0, p)
    with pytest.raises(ValueError):
        backtrack_step(0, -1.0, p)
    with pytest.raises(ValueError):
        backtrack_step(0, float("inf"), p)


def test_k_bound_values():
    base = dict(gamma=1.0, alpha=0.5, delta=0.25)
    assert k_bound(BacktrackParams(rho=0.5, **base), HolderCertificate(1.0, 1.0)) == 1.0
    assert k_bound(BacktrackParams(rho=0.5, **base), HolderCertificate(1.0, 0.5)) == 3.0
    assert k_bound(BacktrackParams(rho=1.0, **base), HolderCertificate(1.0, 0.5)) == 2.0


def test_k_bound_grows_with_gamma():
    cert = HolderCertificate(1.0, 1.0)
    small = k_bound(BacktrackParams(gamma=1.0), cert)
    large = k_bound(BacktrackParams(gamma=100.0), cert)
    assert large > small


def test_sufficient_decrease_threshold_formula():
    assert sufficient_decrease_threshold(1.0, 0.25, 1.0, 2.0) == 0.0
    assert sufficient_decrease_threshold(3.0, 0.5, 0.5, 1.0) == 2.75


# ------------------------------------------------------------- param checks


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(gamma=0.0),
        dict(gamma=-1.0),
        dict(alpha=0.0),
        dict(alpha=1.0),
        dict(delta=0.0),
        dict(delta=1.0),
        dict(rho=0.0),
        dict(delta_plus=0.25),  # must exceed delta
        dict(delta_plus=1.0),
        dict(k_max=0),
    ],
)
def test_backtrack_params_validation(kwargs):
    with pytest.raises(ValueError):
        BacktrackParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(grad_tol=-1.0),
        dict(grad_tol=float("nan")),
        dict(max_iters=0),
        dict(max_oracle_calls=0),
        dict(grad_tol=True),
        dict(grad_tol="0.1"),
    ],
)
def test_stop_rule_validation(kwargs):
    with pytest.raises(ValueError):
        StopRule(**kwargs)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda v: StopRule(max_iters=v), "max_iters"),
        (lambda v: StopRule(max_oracle_calls=v), "max_oracle_calls"),
        (lambda v: BacktrackParams(k_max=v), "k_max"),
    ],
    ids=["max_iters", "max_oracle_calls", "k_max"],
)
@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_count_fields_refuse_bools_and_non_integers(make, field, value):
    """A count of 2.5 would be spent as 3 (calls, or k before the cap), and True as 1."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1"):
        make(value)


def _gan_objective(**fields):
    points = np.zeros((4, 2))
    return GanObjective(MlpSpec((2, 3, 2)), points, points, **{"epsilon": 0.2, **fields})


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda v: BacktrackParams(gamma=v), "gamma"),
        (lambda v: BacktrackParams(rho=v), "rho"),
        (lambda v: HolderCertificate(beta=v, nu=1.0), "beta"),
        (lambda v: InnerAscentBudget(step_size=v), "step_size"),
        (lambda v: minmax_constant(make_sqrt_problem(), [1.0], gamma=v), "gamma"),
        (lambda v: holder_gd(ValueFunctionView(make_sqrt_problem()), [1.0], HolderCertificate(1.0, 0.5), v), "gamma"),
        (lambda v: _gan_objective(epsilon=v), "epsilon"),
        (lambda v: _gan_objective(sinkhorn_tol=v), "sinkhorn_tol"),
        (lambda v: sinkhorn_solve(np.zeros((2, 2)), v), "epsilon"),
        (lambda v: sinkhorn_solve(np.zeros((2, 2)), 0.2, tol=v), "tol"),
    ],
    ids=[
        "gamma", "rho", "beta", "step_size", "minmax_constant", "holder_gd", "gan_epsilon", "gan_tol", "epsilon", "tol"
    ],
)
@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan, True, "0.1"])
def test_positive_fields_refuse_zero_negatives_and_non_finite_values(make, field, value):
    """True would be taken as 1, and a string would fail in a comparison that names no field."""
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got {value}$"):
        make(value)


@pytest.mark.parametrize(
    "make, field, interval",
    [
        (lambda v: BacktrackParams(alpha=v), "alpha", "(0, 1)"),
        (lambda v: BacktrackParams(delta=v), "delta", "(0, 1)"),
        (lambda v: BacktrackParams(delta_plus=v), "delta_plus", "(delta=0.25, 1)"),
        (lambda v: HolderCertificate(beta=1.0, nu=v), "nu", "(0, 1]"),
    ],
    ids=["alpha", "delta", "delta_plus", "nu"],
)
@pytest.mark.parametrize("value", [0.0, 1.5, math.nan, True, None, "0.5"])
def test_interval_fields_refuse_out_of_range_and_non_real_values(make, field, interval, value):
    """Refused by name: True would be taken as 1, and None or a string would fail in a comparison
    that names no field."""
    with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must lie in {interval}, got {value}')}$"):
        make(value)


def test_count_fields_take_numpy_integers():
    stop = StopRule(max_iters=np.int64(4), max_oracle_calls=np.int32(50))
    traj = backtrack_holder_gd(quadratic(), [1.0], BacktrackParams(gamma=0.01, k_max=np.int64(3)), stop)
    assert traj.terminal_status == ITER_BUDGET
    assert len(traj) == 5


# ------------------------------------------------------------------ drivers


def test_backtrack_on_quadratic_one_step():
    traj = backtrack_holder_gd(quadratic(), [1.0])
    assert traj.terminal_status == CONVERGED
    assert len(traj) == 2
    r0, r1 = traj.records
    assert (r0.f_value, r0.grad_norm, r0.step, r0.k) == (0.5, 1.0, 1.0, 0)
    assert (r1.f_value, r1.grad_norm, r1.step) == (0.0, 0.0, 0.0)
    assert r1.oracle_calls == 2  # initial eval plus one accepted trial


def test_start_at_critical_point():
    traj = backtrack_holder_gd(quadratic(2), [0.0, 0.0])
    assert traj.terminal_status == CONVERGED
    assert len(traj) == 1
    assert traj.records[0].oracle_calls == 1
    assert traj.records[0].step == 0.0


def test_holder_gd_one_step_on_sqrt():
    """Optimal gamma sends x0 = 1 to the minimizer in a single step (up to rounding)."""
    view = ValueFunctionView(make_sqrt_problem())
    traj = holder_gd(view, [1.0], view.certificate)
    assert traj.terminal_status == CONVERGED
    assert len(traj) == 2
    assert traj.f_values[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert traj.f_values[-1] <= 1e-20
    assert abs(traj.final_x[0]) <= 1e-15


def test_holder_gd_rejects_bad_gamma_before_any_oracle_call():
    problem = make_sqrt_problem()
    best_response = problem.best_response
    calls = []
    problem.best_response = lambda x: calls.append(x) or best_response(x)
    view = ValueFunctionView(problem)
    with pytest.raises(ValueError):
        holder_gd(view, [1.0], view.certificate, gamma=2.0)
    assert len(calls) == 0


def counted_objectives(calls):
    """The sqrt value function as a view and as a plain objective, each appending to ``calls`` per oracle call."""
    problem = make_sqrt_problem()
    best_response = problem.best_response
    problem.best_response = lambda x: calls.append(x) or best_response(x)
    plain = SmoothObjective(1, lambda x: calls.append(x) or (0.5 * float(x @ x), np.array(x)))
    return {"view": ValueFunctionView(problem), "plain": plain}


@pytest.mark.parametrize("kind", ["view", "plain"])
@pytest.mark.parametrize(
    "run",
    [
        lambda obj, x0: holder_gd(obj, x0, HolderCertificate(1.0, 0.5)),
        lambda obj, x0: backtrack_holder_gd(obj, x0),
    ],
    ids=["holder_gd", "backtrack_holder_gd"],
)
@pytest.mark.parametrize(
    "x0, message",
    [
        ([math.nan], "must be finite"),
        ([math.inf], "must be finite"),
        ([-math.inf], "must be finite"),
        ([1.0, 2.0], r"must have shape \(1,\)"),
    ],
    ids=["nan", "inf", "-inf", "shape"],
)
def test_descent_drivers_refuse_a_bad_start_before_any_oracle_call(kind, run, x0, message):
    """The start is refused by name, as the min-max drivers refuse it; the oracle is not blamed."""
    calls = []
    with pytest.raises(ValueError, match=f"^start point for problem.* {message}"):
        run(counted_objectives(calls)[kind], x0)
    assert calls == []


# here and below, holder_gd at nu = 1 is the fixed step gamma, for any gamma < 2 / beta
@pytest.mark.filterwarnings("ignore:overflow")
def test_fixed_step_divergence_raises():
    with pytest.raises(NumericError) as info:
        holder_gd(quadratic(), [1.0], HolderCertificate(0.1, 1.0), gamma=2.5)
    assert info.value.iteration > 0


def nan_at(call):
    """``quadratic()`` whose evaluation number ``call`` returns a NaN value."""
    calls = [0]

    def fn(x):
        calls[0] += 1
        return (math.nan if calls[0] == call else 0.5 * float(x @ x)), np.array(x, dtype=float)

    return SmoothObjective(1, fn)


# call 1 evaluates x0 (iteration 0); call n + 2 evaluates the trial of step n
@pytest.mark.parametrize("call, iteration", [(1, 0), (2, 0), (4, 2)])
def test_numeric_error_names_the_iteration_of_a_fixed_step(call, iteration):
    with pytest.raises(NumericError) as info:
        holder_gd(nan_at(call), [1.0], HolderCertificate(1.0, 1.0), gamma=0.5)
    assert info.value.iteration == iteration


# step 0 tries k = 0, 1, 2 (calls 2 to 4); steps 1 and 2 accept k = 2 at once (calls 5 and 6)
@pytest.mark.parametrize("call, iteration", [(1, 0), (3, 0), (4, 0), (5, 1), (6, 2)])
def test_numeric_error_names_the_iteration_of_a_backtracking_trial(call, iteration):
    with pytest.raises(NumericError) as info:
        backtrack_holder_gd(nan_at(call), [1.0], BacktrackParams(gamma=4.0, alpha=0.6))
    assert info.value.iteration == iteration


def overflow_at(call):
    """``quadratic()`` in the plane whose evaluation number ``call`` returns the
    gradient [1e200, 1e200]: every entry is finite, its norm overflows."""
    calls = [0]

    def fn(x):
        calls[0] += 1
        return 0.5 * float(x @ x), (np.full(2, 1e200) if calls[0] == call else np.array(x, dtype=float))

    return SmoothObjective(2, fn)


# from [1, 0] both drivers take the steps of the one-dimensional runs above, so
# the overflow at the start point (call 1) and at the point after one step
# names the iteration pinned for a NaN at the same call
@pytest.mark.parametrize("call, iteration", [(1, 0), (2, 0)])
def test_gradient_norm_overflow_in_a_fixed_step_is_a_numeric_error(call, iteration):
    with pytest.raises(NumericError) as info:
        holder_gd(overflow_at(call), [1.0, 0.0], HolderCertificate(1.0, 1.0), gamma=0.5)
    assert info.value.iteration == iteration


@pytest.mark.parametrize("call, iteration", [(1, 0), (4, 0), (5, 1)])
def test_gradient_norm_overflow_in_a_backtracking_trial_is_a_numeric_error(call, iteration):
    with pytest.raises(NumericError) as info:
        backtrack_holder_gd(overflow_at(call), [1.0, 0.0], BacktrackParams(gamma=4.0, alpha=0.6))
    assert info.value.iteration == iteration


@pytest.mark.parametrize(
    "dim, grad, shape",
    [
        (3, lambda x: 1.0, r"\(\)"),  # a scalar stands in for every entry
        (1, lambda x: x[0], r"\(\)"),  # a 0-d gradient at dim 1 too
        (3, lambda x: x.reshape(3, 1), r"\(3, 1\)"),  # the same entries as a column
    ],
    ids=["scalar", "0-d", "column"],
)
def test_gradient_of_the_wrong_shape_is_refused(dim, grad, shape):
    obj = SmoothObjective(dim, lambda x: (0.5 * float(x @ x), grad(x)))
    message = rf"gradient of shape {shape} at a point of shape \({dim},\) \(iteration 0\)"
    with pytest.raises(ValueError, match=message):
        backtrack_holder_gd(obj, np.arange(1.0, dim + 1), stop=StopRule(max_iters=5))


def test_gradient_of_the_wrong_shape_names_the_iteration():
    """Call 5 is the trial of step 1 in the pins above; no step is taken from it."""
    calls = [0]

    def fn(x):
        calls[0] += 1
        return 0.5 * float(x @ x), (x[:1] if calls[0] == 5 else np.array(x))

    with pytest.raises(ValueError, match=r"shape \(1,\) at a point of shape \(2,\) \(iteration 1\)"):
        backtrack_holder_gd(SmoothObjective(2, fn), [1.0, 0.0], BacktrackParams(gamma=4.0, alpha=0.6))
    assert calls[0] == 5


def test_fixed_step_converges_with_small_step():
    traj = holder_gd(quadratic(), [1.0], HolderCertificate(1.0, 1.0), gamma=0.5, stop=StopRule(grad_tol=1e-10))
    assert traj.terminal_status == CONVERGED
    assert traj.f_values[-1] <= 1e-19


def test_iter_budget_status():
    traj = holder_gd(quadratic(), [1.0], HolderCertificate(1.0, 1.0), gamma=0.05, stop=StopRule(max_iters=10))
    assert traj.terminal_status == ITER_BUDGET
    assert len(traj) == 11
    assert traj.records[-1].step == 0.0


def test_oracle_budget_status():
    traj = backtrack_holder_gd(
        quadratic(), [1.0], params=BacktrackParams(gamma=0.01), stop=StopRule(max_oracle_calls=5)
    )
    assert traj.terminal_status == ORACLE_BUDGET
    assert traj.records[-1].oracle_calls == 5


def test_k_cap_status():
    view = ValueFunctionView(make_sqrt_problem())
    params = BacktrackParams(gamma=1e6, k_max=3)
    traj = backtrack_holder_gd(view, [1.0], params=params)
    assert traj.terminal_status == K_CAP_EXCEEDED


def test_k_never_decreases_in_monotone_drivers():
    rng = np.random.default_rng(2)
    view = ValueFunctionView(make_sqrt_problem())
    for _ in range(5):
        x0 = [float(rng.uniform(0.5, 8.0))]
        traj = backtrack_holder_gd(view, x0, params=BacktrackParams(gamma=2.0))
        assert np.all(np.diff(traj.ks) >= 0)
        # cumulative calls grow with every accepted step; the terminal
        # record repeats the final count
        diffs = np.diff(traj.oracle_calls)
        assert np.all(diffs[:-1] > 0)
        assert diffs[-1] >= 0


def test_accepted_steps_satisfy_recorded_decrease():
    """Replaying the stored records against the shared threshold reproduces acceptance."""
    view = ValueFunctionView(make_sqrt_problem())
    params = BacktrackParams(gamma=2.0)
    traj = backtrack_holder_gd(view, [5.0], params=params)
    assert traj.terminal_status == CONVERGED
    for before, after in zip(traj.records[:-1], traj.records[1:]):
        limit = sufficient_decrease_threshold(
            before.f_value, params.delta, before.step, before.grad_norm
        )
        assert after.f_value <= limit


def test_monotone_driver_values_never_increase():
    view = ValueFunctionView(make_sqrt_problem())
    traj = backtrack_holder_gd(view, [9.0], params=BacktrackParams(gamma=3.0))
    assert np.all(np.diff(traj.f_values) <= 0)


def test_armijo_step_has_no_gradient_factor():
    """With a tiny gradient the Armijo step is still gamma * alpha at its starting k = 1."""
    params = BacktrackParams()
    stop = StopRule(grad_tol=1e-12, max_iters=3)
    traj = minmin_armijo_nonmonotone(make_quadratic_minmin(1), [1e-6], params, stop)
    assert traj.records[0].grad_norm < 1e-6
    assert traj.records[0].step == params.gamma * params.alpha


def test_known_rate_bound_on_sqrt():
    """(n+1) * min grad^3 stays below (f0 - f*) * beta^2 * 3 under the optimal step."""
    view = ValueFunctionView(make_sqrt_problem())
    cert = view.certificate
    traj = holder_gd(view, [1.0], cert, stop=StopRule(grad_tol=0.0, max_iters=50))
    f0 = traj.f_values[0]
    bound = f0 * cert.beta**2 * 3.0
    running = np.minimum.accumulate(traj.grad_norms**3)
    n = np.arange(len(traj))
    assert np.all((n + 1) * running <= bound)


def test_deterministic_rerun():
    view = ValueFunctionView(make_sqrt_problem())
    a = backtrack_holder_gd(view, [3.0], params=BacktrackParams(gamma=1.7))
    b = backtrack_holder_gd(view, [3.0], params=BacktrackParams(gamma=1.7))
    np.testing.assert_array_equal(a.f_values, b.f_values)
    np.testing.assert_array_equal(a.grad_norms, b.grad_norms)
    np.testing.assert_array_equal(a.final_x, b.final_x)
    assert a.terminal_status == b.terminal_status


# ---------------------------------------------------------------------- csv


def test_csv_output(tmp_path):
    traj = backtrack_holder_gd(quadratic(), [1.0])
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(traj)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] == "0.5"  # repr of the float value
    assert not (tmp_path / "run.csv.tmp").exists()


def test_csv_bytes_are_reproducible(tmp_path):
    view = ValueFunctionView(make_sqrt_problem())
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    backtrack_holder_gd(view, [2.0]).to_csv(pa)
    backtrack_holder_gd(view, [2.0]).to_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("kind", [float, np.float64])
def test_csv_floats_are_plain_reprs(tmp_path, kind):
    """Each float field is written as repr(float(v)), whether the record holds a
    float or an np.float64, whose numpy 2 repr is np.float64(...)."""
    values = [-0.0, 5e-324, 1e16, 1e-5, float(np.finfo(float).max)]
    records = [TrajectoryRecord(i, i + 1, np.zeros(1), kind(v), kind(v), kind(v), i) for i, v in enumerate(values)]
    path = tmp_path / "run.csv"
    Trajectory(records, CONVERGED).to_csv(path)
    rows = [f"{i},{i + 1},{v!r},{v!r},{v!r},{i}" for i, v in enumerate(values)]
    assert path.read_bytes() == ("\n".join([CSV_HEADER, *rows]) + "\n").encode()


def test_trajectory_helpers():
    traj = backtrack_holder_gd(quadratic(3), [1.0, 2.0, 2.0])
    assert len(traj) == len(traj.records)
    assert traj.f_values.shape == (len(traj),)
    assert traj.grad_norms[0] == 3.0
    assert traj.ks.dtype.kind == "i"
    np.testing.assert_array_equal(traj.final_x, traj.records[-1].x)
