"""The scaling solver against the scipy reference sweep loop on random costs."""

import numpy as np
import pytest

from holderopt import SinkhornError, sinkhorn_solve
from test_sinkhorn import ATOL, reference_solve

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
arrays = pytest.importorskip("hypothesis.extra.numpy").arrays

TOL = 1e-9
MAX_SWEEPS = 2000


@st.composite
def transport_problems(draw):
    n = draw(st.integers(1, 12))
    scale = draw(st.floats(0.0, 5.0))
    cost = draw(arrays(np.float64, (n, n), elements=st.floats(0.0, scale)))
    epsilon = draw(st.floats(0.1, 2.0))
    return cost, epsilon


# derandomized, so that a tier-1 run is the same every time
@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(transport_problems())
def test_random_costs_match_reference(problem):
    C, eps = problem
    try:
        plan, _, _, _, sweeps = reference_solve(C, eps, tol=TOL, max_sweeps=MAX_SWEEPS)
    except SinkhornError:
        with pytest.raises(SinkhornError):
            sinkhorn_solve(C, eps, tol=TOL, max_sweeps=MAX_SWEEPS)
        return
    result = sinkhorn_solve(C, eps, tol=TOL, max_sweeps=MAX_SWEEPS)
    assert result.sweeps == sweeps
    np.testing.assert_allclose(result.plan, plan, rtol=0, atol=ATOL)
    assert result.marginal_error <= TOL
    assert np.abs(result.plan.sum(axis=0) - 1.0).max() <= TOL
    assert np.abs(result.plan.sum(axis=1) - 1.0).max() <= TOL
    duals = result.dual_values
    assert np.all(np.diff(duals) >= -1e-12 * np.maximum(1.0, np.abs(duals[1:])))
