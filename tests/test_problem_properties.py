"""The quadratic saddle's closed-form inner ascent against its recurrence, over random budgets."""

import time

import numpy as np
import pytest

from holderopt import InnerAscentBudget, make_quadratic_saddle
from test_problems import ascend

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EPS = np.finfo(float).eps
# no subnormals: their rounding error is absolute, not relative to the largest entry
entries = st.floats(-1e3, 1e3, allow_subnormal=False)


@st.composite
def inner_solves(draw):
    dim = draw(st.integers(1, 16))
    x = np.array(draw(st.lists(entries, min_size=dim, max_size=dim)))
    y_warm = draw(st.one_of(st.none(), st.lists(entries, min_size=dim, max_size=dim).map(np.array)))
    budget = InnerAscentBudget(
        steps=draw(st.integers(1, 200)),
        step_size=draw(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True)),
    )
    return x, y_warm, budget


# derandomized, so that a tier-1 run is the same every time
@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(inner_solves())
def test_closed_form_stays_within_rounding_of_the_recurrence(solve):
    """Within 4 (steps + 1) eps max(|x|, |y_warm|) of the recurrence, in a fresh array that aliases
    neither input; the warm start is left as it was."""
    x, y_warm, budget = solve
    problem = make_quadratic_saddle(x.size)
    y0 = np.zeros(x.size) if y_warm is None else y_warm
    before = y0.copy()
    y = problem.approx_response(x, y_warm, budget)
    scale = max(np.abs(x).max(), np.abs(y0).max())
    assert np.abs(y - ascend(x, y0, budget.step_size, budget.steps)).max() <= 4 * (budget.steps + 1) * EPS * scale
    assert not np.shares_memory(y, x) and not np.shares_memory(y, y0)
    np.testing.assert_array_equal(y0, before)


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
@hypothesis.given(inner_solves(), st.floats(0.001, 1.999))
def test_a_billion_steps_cost_one_step_and_reach_the_argmax(solve, step_size):
    """Any step size in [0.001, 1.999] contracts by 0.999 per step or faster, so after 10**9 steps
    the response is the exact argmax to rounding; the recurrence would run for most of an hour."""
    x, y_warm, _ = solve
    problem = make_quadratic_saddle(x.size)
    start = time.perf_counter()
    y = problem.approx_response(x, y_warm, InnerAscentBudget(steps=10**9, step_size=step_size))
    assert time.perf_counter() - start < 1.0
    assert np.abs(y - problem.best_response(x)).max() <= EPS * np.abs(x).max()
