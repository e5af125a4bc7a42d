"""Min-max/min-min drivers, the reduction to plain descent, oracle accounting."""

import math
import warnings

import numpy as np
import pytest

from holderopt import (
    BacktrackParams,
    InnerAscentBudget,
    MinMaxProblem,
    NumericError,
    StopRule,
    ValueFunctionView,
    backtrack_holder_gd,
    holder_gd,
    make_quadratic_minmin,
    make_quadratic_saddle,
    make_sqrt_problem,
    minmax_backtrack,
    minmax_constant,
    minmax_heuristic,
    minmin_armijo_nonmonotone,
    minmin_backtrack_nonmonotone,
    sufficient_decrease_threshold,
)
from holderopt.minimax import MINMAX_CSV_HEADER


def counting(problem):
    """Wrap both oracles so the test can see how often the driver called them."""
    counts = {"best": 0, "approx": 0}
    if problem.best_response is not None:
        inner_best = problem.best_response

        def best(x):
            counts["best"] += 1
            return inner_best(x)

        problem.best_response = best
    if problem.approx_response is not None:
        inner_approx = problem.approx_response

        def approx(x, y_warm, budget):
            counts["approx"] += 1
            return inner_approx(x, y_warm, budget)

        problem.approx_response = approx
    return problem, counts


# ------------------------------------------------------------ exact drivers


def test_reduction_to_plain_descent_is_bitwise():
    """The min-max driver and plain descent on the value function view agree bit for bit."""
    params = BacktrackParams(gamma=0.3)
    stop = StopRule(grad_tol=1e-10)
    mm = minmax_backtrack(make_quadratic_saddle(3), np.array([1.0, -2.0, 0.5]), params, stop)
    gd = backtrack_holder_gd(
        ValueFunctionView(make_quadratic_saddle(3)), np.array([1.0, -2.0, 0.5]), params, stop
    )
    assert mm.terminal_status == gd.terminal_status
    assert len(mm) == len(gd)
    for a, b in zip(mm.records, gd.records):
        assert a.n == b.n
        assert a.oracle_calls == b.oracle_calls
        assert a.k == b.k
        assert a.step == b.step
        assert a.f_value == b.f_value
        assert a.grad_norm == b.grad_norm
        np.testing.assert_array_equal(a.x, b.x)


def test_sense_and_oracle_preconditions():
    saddle = make_quadratic_saddle(2)
    minmin = make_quadratic_minmin(2)
    with pytest.raises(ValueError, match="min-max"):
        minmax_backtrack(minmin, np.ones(2))
    with pytest.raises(ValueError, match="min-min"):
        minmin_backtrack_nonmonotone(saddle, np.ones(2))
    with pytest.raises(ValueError, match="min-min"):
        minmin_armijo_nonmonotone(saddle, np.ones(2))
    with pytest.raises(ValueError, match="min-max"):
        minmax_heuristic(minmin, np.ones(2))
    saddle.best_response = None
    with pytest.raises(ValueError, match="best_response"):
        minmax_backtrack(saddle, np.ones(2))


@pytest.mark.parametrize("driver", [minmin_backtrack_nonmonotone, minmin_armijo_nonmonotone])
def test_nonmonotone_default_delta_plus_is_095(driver):
    x0 = np.array([3.0, -2.0])
    default = driver(make_quadratic_minmin(2), x0, params=BacktrackParams(gamma=2.0))
    explicit = driver(make_quadratic_minmin(2), x0, params=BacktrackParams(gamma=2.0, delta_plus=0.95))
    assert len(default.records) == len(explicit.records) > 2
    assert default.terminal_status == explicit.terminal_status
    for a, b in zip(default.records, explicit.records):
        np.testing.assert_array_equal(a.x, b.x)
        assert (a.oracle_calls, a.f_value, a.step, a.k) == (b.oracle_calls, b.f_value, b.step, b.k)


def test_delta_at_or_above_the_default_delta_plus_needs_delta_plus():
    with pytest.raises(ValueError, match="delta_plus"):
        BacktrackParams(delta=0.96)
    BacktrackParams(delta=0.96, delta_plus=0.98)


def test_record_values_match_value_function():
    """Recorded L and gradient norm are exactly the value function's numbers."""
    prob = make_quadratic_saddle(2)
    view = ValueFunctionView(make_quadratic_saddle(2))
    traj = minmax_backtrack(prob, np.array([2.0, 1.0]), BacktrackParams(gamma=0.4))
    for r in traj.records[:5]:
        v, g = view.eval(r.x)
        assert r.f_value == v
        assert r.grad_norm == float(np.linalg.norm(g))


def test_minmax_backtrack_converges_on_sqrt():
    traj = minmax_backtrack(make_sqrt_problem(), [4.0])
    assert traj.terminal_status == "converged"
    assert traj.f_values[-1] <= 1e-12
    assert np.all(np.diff(traj.f_values) <= 0)


@pytest.mark.parametrize("driver", [minmin_backtrack_nonmonotone, minmin_armijo_nonmonotone])
def test_nonmonotone_k_floor_and_single_decrements(driver):
    """k starts at 1, may fall by at most one per outer step, never below zero."""
    prob = make_quadratic_minmin(2)
    params = BacktrackParams(gamma=0.3, delta_plus=0.95)
    traj = driver(prob, prob.x0_default, params=params, stop=StopRule(grad_tol=1e-10))
    ks = traj.ks
    assert ks[0] >= 0
    assert np.all(ks >= 0)
    drops = np.diff(ks)
    assert np.all(drops >= -1)
    # the quadratic eventually earns the aggressive step and k reaches 0
    assert ks.min() == 0
    assert traj.terminal_status == "converged"


@pytest.mark.parametrize(
    "driver", [minmin_backtrack_nonmonotone, minmin_armijo_nonmonotone]
)
def test_nonmonotone_accepted_steps_still_satisfy_delta(driver):
    """Aggressive steps are only kept when the plain delta test also passes."""
    prob = make_quadratic_minmin(3)
    params = BacktrackParams(gamma=2.0, delta_plus=0.95)
    traj = driver(prob, [3.0, -1.0, 2.0], params=params)
    assert len(traj) > 2
    for before, after in zip(traj.records[:-1], traj.records[1:]):
        limit = sufficient_decrease_threshold(
            before.f_value, params.delta, before.step, before.grad_norm
        )
        assert after.f_value <= limit


def test_oracle_accounting_monotone():
    """Every best-response invocation shows up in oracle_calls: init + steps + k raises."""
    prob, counts = counting(make_quadratic_saddle(4))
    traj = minmax_backtrack(prob, 3.0 * np.ones(4), BacktrackParams(gamma=4.0))
    assert counts["best"] == traj.records[-1].oracle_calls
    steps = len(traj) - 1
    k_raises = int(traj.records[-1].k) - 0
    assert traj.records[-1].oracle_calls == 1 + steps + k_raises


@pytest.mark.parametrize("driver", [minmin_backtrack_nonmonotone, minmin_armijo_nonmonotone])
def test_oracle_accounting_nonmonotone(driver):
    """Instrumented call count equals the recorded cumulative total."""
    prob, counts = counting(make_quadratic_minmin(3))
    traj = driver(prob, [2.0, 2.0, -1.0], stop=StopRule(grad_tol=1e-10))
    assert counts["best"] == traj.records[-1].oracle_calls
    # a decrement costs one extra trial beyond the plain accounting identity
    steps = len(traj) - 1
    raises = int(np.sum(np.clip(np.diff(traj.ks), 0, None)))
    drops = int(np.sum(np.clip(np.diff(traj.ks), None, 0) * -1))
    assert traj.records[-1].oracle_calls == 1 + steps + raises + drops


def test_rejected_probe_costs_two_extra_calls():
    """A probe at k - 1 that fails the delta test is followed by a second
    evaluation of the inherited step: three calls at one k, the third at the
    point of the first."""
    prob = make_quadratic_minmin(1)
    best_response, points = prob.best_response, []
    prob.best_response = lambda x: points.append(np.array(x)) or best_response(x)
    traj = minmin_backtrack_nonmonotone(prob, [2.0], BacktrackParams(gamma=5.0), StopRule(max_iters=40))
    assert len(points) == traj.records[-1].oracle_calls
    # the calls of step n >= 1 follow those counted in record n - 1
    searches = [
        (before.oracle_calls, after.oracle_calls - before.oracle_calls, after.k - before.k)
        for before, after in zip(traj.records[:-2], traj.records[1:-1])
    ]
    assert len(searches) == 39
    repeated = [first for first, calls, dk in searches if calls == 3 and dk == 0]
    assert len(repeated) == 25
    for first in repeated:
        np.testing.assert_array_equal(points[first + 2], points[first])
        assert np.any(points[first + 1] != points[first])


def test_oracle_calls_monotone_in_records():
    prob = make_quadratic_minmin(2)
    traj = minmin_backtrack_nonmonotone(prob, prob.x0_default)
    assert np.all(np.diff(traj.oracle_calls) >= 0)


def test_constant_driver_divergence_raises():
    prob = make_quadratic_minmin(1)
    with pytest.raises(NumericError):
        minmax_constant(prob, [1.0], gamma=10.0)


# the saddle's value function is |x|^2 / 2, so from [1, 0] the steps are those
# of test_descent's backtracking pins: call 4 evaluates the point after one step
@pytest.mark.parametrize("call, iteration", [(1, 0), (4, 0), (5, 1)])
@pytest.mark.parametrize("bad", [np.nan, 1e200])
def test_non_finite_gradient_norm_names_the_iteration(call, iteration, bad):
    """A NaN gradient and a gradient whose norm overflows fail alike."""
    prob = make_quadratic_saddle(2)
    grad_x, calls = prob.grad_x, [0]

    def counted(x, y):
        calls[0] += 1
        return np.full(2, bad) if calls[0] == call else grad_x(x, y)

    prob.grad_x = counted
    with pytest.raises(NumericError) as info:
        minmax_backtrack(prob, [1.0, 0.0], BacktrackParams(gamma=4.0, alpha=0.6))
    assert info.value.iteration == iteration


def test_heuristic_non_finite_frozen_loss_names_the_iteration():
    """The heuristic's search evaluates the frozen loss at each trial without an oracle call: an
    infinite one fails as an oracle's would, naming the iteration whose search made it."""
    prob = MinMaxProblem(
        dim_x=1,
        dim_y=1,
        loss=lambda x, y: math.inf if abs(x[0]) >= 10.0 else 0.5 * float(x @ x),
        grad_x=lambda x, y: x.copy(),
        approx_response=lambda x, y_warm, budget: x.copy(),
    )
    with pytest.raises(NumericError) as info:
        minmax_heuristic(prob, [5.0], BacktrackParams(gamma=10.0))
    assert info.value.iteration == 0
    assert str(info.value) == "oracle returned a non-finite value, gradient or gradient norm (iteration 0)"


def test_constant_driver_validation():
    prob = make_quadratic_minmin(1)
    with pytest.raises(ValueError):
        minmax_constant(prob, [1.0], gamma=0.0)


def test_constant_driver_counts_one_call_per_iteration():
    prob, counts = counting(make_quadratic_saddle(2))
    traj = minmax_constant(prob, np.ones(2), gamma=0.5, stop=StopRule(max_iters=20))
    assert counts["best"] == traj.records[-1].oracle_calls
    assert counts["best"] == len(traj)  # init eval plus one per accepted step


# --------------------------------------------------------- inexact drivers


def test_heuristic_tracks_exact_solver():
    """With a generous inner budget the heuristic lands where the exact driver does."""
    prob = make_quadratic_saddle(2)
    budget = InnerAscentBudget(steps=60, step_size=0.5)
    traj = minmax_heuristic(prob, np.array([1.5, -0.5]), budget=budget, stop=StopRule(grad_tol=1e-6))
    assert traj.terminal_status == "converged"
    assert np.linalg.norm(traj.final_x) <= 1e-5


def test_heuristic_counts_only_inner_solves():
    """Frozen-response loss probes during the search are free; inner solves are not."""
    prob, counts = counting(make_quadratic_saddle(2))
    probes = {"loss": 0}
    inner_loss = prob.loss

    def loss(x, y):
        probes["loss"] += 1
        return inner_loss(x, y)

    prob.loss = loss
    traj = minmax_heuristic(prob, np.array([2.0, 1.0]), stop=StopRule(grad_tol=1e-6))
    assert counts["approx"] == traj.records[-1].oracle_calls
    assert counts["best"] == 0
    assert probes["loss"] > counts["approx"]  # the search probed more than it solved


def test_heuristic_first_trial_step_is_gamma():
    """k resets every outer iteration, so accepted k=0 records carry step == gamma."""
    params = BacktrackParams(gamma=0.8)
    prob = make_quadratic_saddle(2)
    traj = minmax_heuristic(prob, np.array([1.0, 1.0]), params=params, stop=StopRule(grad_tol=1e-6))
    accepted = [r for r in traj.records[:-1] if r.k == 0]
    assert accepted
    for r in accepted:
        assert r.step == params.gamma


def test_heuristic_inner_solves_start_from_the_previous_response():
    """The first inner solve starts cold; every later one from the response before it."""
    prob = make_quadratic_saddle(2)
    approx, solves = prob.approx_response, []

    def recorded(x, y_warm, budget):
        y = approx(x, y_warm, budget)
        solves.append((y_warm, y))
        return y

    prob.approx_response = recorded
    budget = InnerAscentBudget(steps=12, step_size=0.5)
    traj = minmax_heuristic(prob, np.array([2.0, -1.0]), budget=budget, stop=StopRule(max_iters=40))
    assert len(solves) == traj.records[-1].oracle_calls > 2
    assert solves[0][0] is None
    for (_, previous), (y_warm, _) in zip(solves, solves[1:]):
        assert y_warm is previous


def test_heuristic_divergent_inner_budget_raises_numeric_error():
    """A step size above 2 makes the inner ascent diverge; its response overflows to inf, never OverflowError."""
    prob = make_quadratic_saddle(8)
    budget = InnerAscentBudget(steps=2000, step_size=3.0)
    with warnings.catch_warnings(record=True) as caught, pytest.raises(NumericError):
        warnings.simplefilter("always")
        minmax_heuristic(prob, prob.x0_default, budget=budget)
    assert caught == []


def test_heuristic_requires_approx_oracle():
    prob = make_quadratic_saddle(2)
    prob.approx_response = None
    prob.best_response = lambda x: x
    with pytest.raises(ValueError, match="approx_response"):
        minmax_heuristic(prob, np.ones(2))


def test_constant_driver_requires_best_response():
    prob, counts = counting(make_quadratic_saddle(2))
    prob.best_response = None
    with pytest.raises(ValueError, match="best_response"):
        minmax_constant(prob, np.ones(2), gamma=0.5)
    assert counts["approx"] == 0


@pytest.mark.parametrize(
    "run",
    [
        lambda prob, x0: minmax_constant(prob, x0, gamma=1e-12, stop=StopRule(max_iters=1)),
        lambda prob, x0: minmax_backtrack(prob, x0, stop=StopRule(max_iters=1)),
    ],
    ids=["minmax_constant", "minmax_backtrack"],
)
def test_integer_gradient_norm_does_not_wrap(run):
    """An int64 gradient is taken as float64: its squares would wrap in int64 arithmetic."""
    prob = make_quadratic_saddle(2)
    prob.grad_x = lambda x, y: np.array([3_000_000_000, 4_000_000_000], dtype=np.int64)
    traj = run(prob, np.ones(2))
    assert traj.records[0].grad_norm == 5e9


# (problem maker, run(problem, x0)) for each min-max driver, on its defaults
MINMAX_RUNS = [
    (make_quadratic_saddle, minmax_backtrack),
    (make_quadratic_minmin, minmin_backtrack_nonmonotone),
    (make_quadratic_minmin, minmin_armijo_nonmonotone),
    (make_quadratic_saddle, minmax_heuristic),
    (make_quadratic_saddle, lambda prob, x0: minmax_constant(prob, x0, gamma=0.1)),
]


@pytest.mark.parametrize("maker, run", MINMAX_RUNS)
def test_drivers_reject_wrong_length_start(maker, run):
    """A start of the wrong length, or with a NaN or infinite entry, is refused by name before any
    oracle call, exact or approximate."""
    prob, counts = counting(maker(8))
    with pytest.raises(ValueError, match=r"^start point for problem quadratic_\w+:8 must have shape \(8,\), got \(3,\)"):
        run(prob, np.ones(3))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^start point for problem quadratic_\w+:8 must be finite"):
            run(prob, np.r_[np.ones(7), bad])
    assert counts == {"best": 0, "approx": 0}


@pytest.mark.parametrize("maker, run", MINMAX_RUNS)
def test_drivers_refuse_a_gradient_of_the_wrong_length(maker, run):
    """From [0, 1] the gradient's first entry is 0 on both quadratics, so a run
    that took it for the whole gradient would stop there as converged."""
    prob = maker(2)
    grad_x = prob.grad_x
    prob.grad_x = lambda x, y: grad_x(x, y)[:1]
    with pytest.raises(ValueError, match=r"gradient of shape \(1,\) at a point of shape \(2,\) \(iteration 0\)"):
        run(prob, [0.0, 1.0])


def test_inner_budget_validation():
    with pytest.raises(ValueError):
        InnerAscentBudget(steps=0)
    with pytest.raises(ValueError):
        InnerAscentBudget(steps=2.5)
    with pytest.raises(ValueError, match="^steps must be an integer"):
        InnerAscentBudget(steps=True)
    with pytest.raises(ValueError):
        InnerAscentBudget(step_size=0.0)
    assert InnerAscentBudget(steps=np.int64(3)).steps == 3


# ------------------------------------------------------------------ records


def points_seen(problem):
    """Wrap ``grad_x`` to keep a copy of every point it is called at: one per
    evaluation, the heuristic's frozen ones included."""
    points, grad_x = [], problem.grad_x

    def seen(x, y):
        points.append(np.array(x))
        return grad_x(x, y)

    problem.grad_x = seen
    return problem, points


def run_driver(name, prob, x0, stop):
    """Run the driver ``name`` on ``prob``; the two plain-descent drivers run on its value function."""
    view, holder, small = ValueFunctionView(prob), BacktrackParams(gamma=5.0), BacktrackParams(gamma=0.01)
    runs = {
        "holder_gd": lambda: holder_gd(view, x0, prob.certificate, 0.3, stop),
        "backtrack_holder_gd": lambda: backtrack_holder_gd(view, x0, holder, stop),
        "minmax_backtrack": lambda: minmax_backtrack(prob, x0, holder, stop),
        "minmin_backtrack_nonmonotone": lambda: minmin_backtrack_nonmonotone(prob, x0, holder, stop),
        "minmin_armijo_nonmonotone": lambda: minmin_armijo_nonmonotone(prob, x0, small, stop),
        "minmax_constant": lambda: minmax_constant(prob, x0, 0.01, stop),
        "minmax_heuristic": lambda: minmax_heuristic(prob, x0, BacktrackParams(gamma=0.5), stop=stop),
    }
    return runs[name]()


def problem_for(name, dim):
    return make_quadratic_minmin(dim) if name.startswith("minmin") else make_quadratic_saddle(dim)


@pytest.mark.parametrize("name", ["holder_gd", "minmax_backtrack", "minmin_backtrack_nonmonotone", "minmax_heuristic"])
def test_records_own_the_points_the_oracle_saw(name):
    prob, points = points_seen(problem_for(name, 4))
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    traj = run_driver(name, prob, x0, StopRule(grad_tol=0.0, max_oracle_calls=12))
    x0[:] = 99.0
    np.testing.assert_array_equal(traj.records[0].x, [1.0, -2.0, 0.5, 3.0])
    xs = [r.x for r in traj.records]
    assert len(xs) >= 5
    for i, x in enumerate(xs):
        assert any(x.tobytes() == p.tobytes() for p in points)
        assert not any(np.shares_memory(x, other) for other in xs[i + 1 :])


@pytest.mark.parametrize(
    "name",
    [
        "holder_gd",
        "backtrack_holder_gd",
        "minmax_backtrack",
        "minmin_backtrack_nonmonotone",
        "minmin_armijo_nonmonotone",
        "minmax_constant",
    ],
)
def test_record_gradient_norms_are_the_bits_of_sqrt_dot(name):
    """Each record's norm is sqrt(g.dot(g)) of the gradient the oracle gives at its x."""
    prob = problem_for(name, 64)
    x0 = 8.0 * np.random.default_rng(5).standard_normal(64)
    traj = run_driver(name, prob, x0, StopRule(grad_tol=0.0, max_oracle_calls=200))
    assert len(traj) >= 60
    for r in traj.records:
        g = prob.value_and_grad(r.x)[1]
        with np.errstate(over="ignore"):
            assert r.grad_norm == math.sqrt(g.dot(g))


# ---------------------------------------------------------------------- csv


def test_minmax_csv_header_and_bytes(tmp_path):
    prob = make_quadratic_minmin(2)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    minmin_backtrack_nonmonotone(prob, prob.x0_default).to_csv(pa)
    minmin_backtrack_nonmonotone(prob, prob.x0_default).to_csv(pb)
    text = pa.read_text()
    assert text.split("\n", 1)[0] == MINMAX_CSV_HEADER
    assert pa.read_bytes() == pb.read_bytes()
