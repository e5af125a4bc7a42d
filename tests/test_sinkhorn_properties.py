"""The scaling solver against the scipy reference sweep loop on random costs."""

import numpy as np
import pytest

from holderopt import SinkhornError, sinkhorn_solve
from test_sinkhorn import REF_TOL, assert_certified, assert_matches_reference, reference_solve

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
arrays = pytest.importorskip("hypothesis.extra.numpy").arrays

TOL = 1e-9
MAX_SWEEPS = 2000
# the budget of the tightly converged reference
REF_SWEEPS = 10_000


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
    """Where the reference converges, the solver does too. Its plan and dual
    potentials match the reference converged to REF_TOL where plain sweeps get
    there in REF_SWEEPS; otherwise, and where only the solver converges, its
    plan is certified."""
    C, eps = problem
    try:
        reference_solve(C, eps, tol=TOL, max_sweeps=MAX_SWEEPS)
    except SinkhornError:
        try:
            result = sinkhorn_solve(C, eps, tol=TOL, max_sweeps=MAX_SWEEPS)
        except SinkhornError:
            return
        assert_certified(result, C, TOL)
        return
    result = sinkhorn_solve(C, eps, tol=TOL, max_sweeps=MAX_SWEEPS)
    try:
        reference = reference_solve(C, eps, tol=REF_TOL, max_sweeps=REF_SWEEPS)
    except SinkhornError:
        # sweeps that crawl on below TOL do not pin the plan down to TOL
        assert_certified(result, C, TOL)
        return
    assert_matches_reference(result, C, reference, TOL)
