"""Driver invariants over random step-rule parameters, problems and stop rules.

Every accepted step replays its decrease test exactly, the trial exponent
stays under its cap, the oracle budget is never overrun, and the monotone
drivers never raise the objective and spend exactly 1 + iterations + k
oracle calls.
"""

import numpy as np
import pytest

from holderopt import (
    K_CAP_EXCEEDED,
    BacktrackParams,
    StopRule,
    ValueFunctionView,
    armijo_gd,
    backtrack_holder_gd,
    get_problem,
    minmax_backtrack,
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
    "armijo_gd": (on_view(armijo_gd), ("sqrt", "quadratic_saddle", "quadratic_minmin"), True),
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
