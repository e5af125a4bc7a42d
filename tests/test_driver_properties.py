"""Driver invariants over random step-rule parameters, problems and stop rules.

Every accepted step replays its decrease test exactly, the trial exponent
stays under its cap, the oracle budget is never overrun, and the monotone
drivers never raise the objective and spend exactly 1 + iterations + k
oracle calls. The heuristic and constant-step min-max drivers spend one
oracle call per iteration, counted the same way on both inner oracles.
"""

import numpy as np
import pytest

from holderopt import (
    K_CAP_EXCEEDED,
    ORACLE_BUDGET,
    BacktrackParams,
    InnerAscentBudget,
    MinMaxProblem,
    StopRule,
    ValueFunctionView,
    backtrack_holder_gd,
    get_problem,
    minmax_backtrack,
    minmax_constant,
    minmax_heuristic,
    minmin_armijo_nonmonotone,
    minmin_backtrack_nonmonotone,
    sufficient_decrease_threshold,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def on_view(driver):
    return lambda problem, x0, params, stop: driver(ValueFunctionView(problem), x0, params, stop)


# name -> (driver on a MinMaxProblem, problem kinds it accepts, monotone)
DRIVERS = {
    "minmax_backtrack": (minmax_backtrack, ("sqrt", "quadratic_saddle"), True),
    "minmin_backtrack_nonmonotone": (minmin_backtrack_nonmonotone, ("quadratic_minmin",), False),
    "minmin_armijo_nonmonotone": (minmin_armijo_nonmonotone, ("quadratic_minmin",), False),
    "backtrack_holder_gd": (on_view(backtrack_holder_gd), ("sqrt", "quadratic_saddle", "quadratic_minmin"), True),
}


@st.composite
def runs(draw, kinds):
    kind = draw(st.sampled_from(kinds))
    problem_id = kind if kind == "sqrt" else f"{kind}:{draw(st.integers(1, 5))}"
    dim = 1 if kind == "sqrt" else int(problem_id.partition(":")[2])
    x0 = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)))
    delta = draw(st.floats(0.01, 0.9))
    params = BacktrackParams(
        gamma=10.0 ** draw(st.floats(-3.0, 3.0)),
        alpha=draw(st.floats(0.05, 0.95)),
        delta=delta,
        rho=draw(st.floats(0.05, 3.0)),
        delta_plus=draw(st.floats(delta, 1.0, exclude_min=True, exclude_max=True)),
        k_max=draw(st.integers(1, 40)),
    )
    stop = StopRule(
        grad_tol=draw(st.sampled_from([0.0, 1e-8])),
        max_iters=draw(st.integers(1, 100)),
        max_oracle_calls=draw(st.integers(1, 200)),
    )
    return problem_id, x0, params, stop


# derandomized, so that a tier-1 run is the same every time
@pytest.mark.parametrize("name", sorted(DRIVERS))
@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_driver_invariants(name, data):
    driver, kinds, monotone = DRIVERS[name]
    problem_id, x0, params, stop = data.draw(runs(kinds))
    problem = get_problem(problem_id)
    best_response = problem.best_response
    calls = [0]

    def counted(x):
        calls[0] += 1
        return best_response(x)

    problem.best_response = counted
    traj = driver(problem, x0, params, stop)
    records = traj.records

    # one best-response call per oracle call, within the budget
    assert calls[0] == records[-1].oracle_calls <= stop.max_oracle_calls

    for before, after in zip(records, records[1:]):
        limit = sufficient_decrease_threshold(before.f_value, params.delta, before.step, before.grad_norm)
        assert after.f_value <= limit

    ks = traj.ks
    if traj.terminal_status == K_CAP_EXCEEDED:
        assert ks[-1] == params.k_max + 1
        ks = ks[:-1]
    assert np.all(ks <= params.k_max)

    if monotone:
        assert np.all(np.diff(traj.f_values) <= 0.0)
        last = records[-1]
        assert last.oracle_calls == 1 + last.n + last.k


def quartic(dim):
    """L(x, y) = sum(x**4)/4 + <x, y> - |y|^2/2 with y*(x) = x.

    L is not linear in x, so the heuristic's frozen-response test can reject
    a trial step; on ``sqrt`` and ``quadratic_saddle`` it never does.
    """

    def loss(x, y):
        return float(np.sum(x**4) / 4.0 + x @ y - 0.5 * (y @ y))

    def grad_x(x, y):
        return x**3 + y

    def best_response(x):
        return np.array(x, dtype=float)

    def approx_response(x, y_warm, budget):
        y = np.zeros(dim) if y_warm is None else np.array(y_warm, dtype=float)
        for _ in range(budget.steps):
            y = y + budget.step_size * (x - y)
        return y

    return MinMaxProblem(dim, dim, loss, grad_x, "min-max", best_response, approx_response, name=f"quartic:{dim}")


# name -> problem kinds
INNER_DRIVERS = {
    "minmax_heuristic": ("sqrt", "quadratic_saddle", "quartic"),
    "minmax_constant": ("sqrt", "quadratic_saddle", "quadratic_minmin", "quartic"),
}


@st.composite
def inner_runs(draw, name):
    kind = draw(st.sampled_from(INNER_DRIVERS[name]))
    dim = 1 if kind == "sqrt" else draw(st.integers(1, 5))
    problem = quartic(dim) if kind == "quartic" else get_problem(kind if kind == "sqrt" else f"{kind}:{dim}")
    x0 = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)))
    # the ranges keep every run finite: the frozen test accepts any step on a
    # problem linear in x, where gamma >= 2 diverges, and a constant step on
    # the quartic is stable only below about 2 / (3 x**2 + 1)
    if name == "minmax_heuristic":
        gamma = 10.0 ** draw(st.floats(-2.0, 3.0 if kind == "quartic" else 0.25))
    else:
        gamma = 10.0 ** draw(st.floats(-3.0, -1.3))
    params = BacktrackParams(
        gamma=gamma,
        alpha=draw(st.floats(0.05, 0.95)),
        delta=draw(st.floats(0.01, 0.9)),
        rho=draw(st.floats(0.05, 3.0)),
        k_max=draw(st.integers(1, 10)),
    )
    budget = InnerAscentBudget(steps=draw(st.integers(1, 5)), step_size=draw(st.floats(0.05, 0.95)))
    stop = StopRule(
        grad_tol=draw(st.sampled_from([0.0, 1e-8])),
        max_iters=draw(st.integers(1, 100)),
        max_oracle_calls=draw(st.integers(1, 200)),
    )
    return problem, x0, params, budget, stop


@pytest.mark.parametrize("name", sorted(INNER_DRIVERS))
@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_inner_oracle_driver_invariants(name, data):
    problem, x0, params, budget, stop = data.draw(inner_runs(name))
    calls = [0]

    def counted(oracle):
        def call(*args):
            calls[0] += 1
            return oracle(*args)

        return call

    problem.best_response = counted(problem.best_response)
    if problem.approx_response is not None:  # quadratic_minmin has none
        problem.approx_response = counted(problem.approx_response)
    if name == "minmax_heuristic":
        traj = minmax_heuristic(problem, x0, params, budget, stop)
    else:
        traj = minmax_constant(problem, x0, params.gamma, stop)
    records = traj.records
    last = records[-1]

    # every inner solve is one oracle call, within the budget
    assert calls[0] == last.oracle_calls <= stop.max_oracle_calls

    if name == "minmax_heuristic":
        for r in records[:-1]:
            assert r.oracle_calls == r.n + 1
            assert r.step > 0.0
        # a budget close is evaluated with the last response, at no oracle call
        assert last.oracle_calls == (last.n if traj.terminal_status == ORACLE_BUDGET else last.n + 1)
        ks = traj.ks
        if traj.terminal_status == K_CAP_EXCEEDED:
            assert ks[-1] == params.k_max + 1
            ks = ks[:-1]
        else:
            assert last.k == 0  # no search was made from it
        assert np.all(ks <= params.k_max)
    else:
        for r in records[:-1]:
            assert r.oracle_calls == r.n + 2
            assert r.step == params.gamma
        assert last.oracle_calls == last.n + 1
        assert np.all(traj.ks == 0)


def test_heuristic_search_backtracks_on_the_quartic():
    # at x = 2 the response is about 2 and |grad| about 10: steps 10 * 2**-k for k <= 4 overshoot;
    # k restarts at 0 each iteration, so it can fall again
    traj = minmax_heuristic(quartic(1), [2.0], BacktrackParams(gamma=10.0), stop=StopRule(max_iters=3))
    assert traj.ks.tolist() == [5, 4, 2, 0]
    # out of oracle calls, the run still takes its free step and closes at the last response
    spent = minmax_heuristic(quartic(1), [2.0], BacktrackParams(gamma=10.0), stop=StopRule(max_oracle_calls=2))
    assert spent.terminal_status == ORACLE_BUDGET
    assert spent.ks.tolist() == [5, 4, 0]
    assert spent.oracle_calls.tolist() == [1, 2, 2]
    capped = minmax_heuristic(quartic(1), [2.0], BacktrackParams(gamma=10.0, k_max=3))
    assert capped.terminal_status == K_CAP_EXCEEDED
    assert capped.ks.tolist() == [4]
