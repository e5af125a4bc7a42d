"""Oracles, value functions, certificates, and what importing the package loads."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import holderopt
from holderopt import (
    HolderCertificate,
    MinMaxProblem,
    SmoothObjective,
    ValueFunctionView,
    finite_diff_gradient,
    get_problem,
    make_quadratic_minmin,
    make_quadratic_saddle,
    make_sqrt_problem,
)

ALL_PROBLEMS = [
    make_sqrt_problem,
    lambda: make_quadratic_saddle(3),
    lambda: make_quadratic_saddle(8),
    lambda: make_quadratic_minmin(4),
]


def test_certificate_validation():
    HolderCertificate(beta=1.0, nu=0.5)
    with pytest.raises(ValueError):
        HolderCertificate(beta=0.0, nu=0.5)
    with pytest.raises(ValueError):
        HolderCertificate(beta=-1.0, nu=0.5)
    with pytest.raises(ValueError):
        HolderCertificate(beta=1.0, nu=0.0)
    with pytest.raises(ValueError):
        HolderCertificate(beta=1.0, nu=1.5)
    with pytest.raises(ValueError):
        HolderCertificate(beta=float("inf"), nu=1.0)


def test_smooth_objective_counts_and_checks_shape():
    calls = []
    obj = SmoothObjective(2, lambda x: calls.append(x) or (float(x @ x), 2.0 * x))
    assert len(calls) == 0
    v, g = obj.eval([1.0, 2.0])
    assert len(calls) == 1
    assert v == 5.0
    np.testing.assert_array_equal(g, [2.0, 4.0])
    with pytest.raises(ValueError):
        obj.eval([1.0, 2.0, 3.0])
    for x in ([np.nan, 1.0], [1.0, -np.inf]):
        with pytest.raises(ValueError, match=r"^start point for problem must be finite"):
            obj.eval(x)
    assert len(calls) == 1


@pytest.mark.parametrize("dim", [0, 2.5, True, np.float64(2.0)])
@pytest.mark.parametrize(
    "make",
    [lambda d: SmoothObjective(d, lambda x: (0.0, x)), make_quadratic_saddle, make_quadratic_minmin],
    ids=["SmoothObjective", "quadratic_saddle", "quadratic_minmin"],
)
def test_dimensions_must_be_positive_integers(make, dim):
    """The shared count check: a float or a bool is refused by name, not taken for its int()."""
    with pytest.raises(ValueError, match="^" + re.escape(f"dim must be an integer >= 1, got {dim!r}") + "$"):
        make(dim)


def test_objective_eval_is_pure():
    """Repeated evaluation at the same point is bit-identical."""
    obj = ValueFunctionView(make_sqrt_problem())
    x = np.array([1.7])
    v1, g1 = obj.eval(x)
    v2, g2 = obj.eval(x)
    assert v1 == v2
    np.testing.assert_array_equal(g1, g2)


def test_minmax_problem_validation():
    loss = lambda x, y: float(x @ y)
    grad = lambda x, y: np.asarray(y, dtype=float)
    with pytest.raises(ValueError, match="sense"):
        MinMaxProblem(1, 1, loss, grad, sense="max-min", best_response=lambda x: x)
    with pytest.raises(ValueError, match="oracle"):
        MinMaxProblem(1, 1, loss, grad, sense="min-max")


def test_value_function_view_requires_exact_oracle():
    prob = make_sqrt_problem()
    prob.best_response = None
    with pytest.raises(ValueError):
        ValueFunctionView(prob)


@pytest.mark.parametrize("maker", ALL_PROBLEMS)
def test_best_response_optimizes_inner_problem(maker):
    """The exact oracle beats random nearby candidates in the problem's sense."""
    prob = maker()
    rng = np.random.default_rng(7)
    sign = 1.0 if prob.sense == "min-max" else -1.0
    for _ in range(25):
        x = rng.uniform(0.2, 2.0, size=prob.dim_x)
        y_star = prob.best_response(x)
        L_star = prob.loss(x, y_star)
        for _ in range(10):
            y = y_star + rng.normal(size=prob.dim_y) * 0.3
            if prob.name == "sqrt":
                y = np.maximum(y, 0.0)
            assert sign * prob.loss(x, y) <= sign * L_star + 1e-12


@pytest.mark.parametrize("maker", ALL_PROBLEMS)
def test_envelope_identity(maker):
    """grad of the value function matches finite differences through the oracle."""
    prob = maker()
    view = ValueFunctionView(prob)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(0.3, 3.0, size=prob.dim_x)
        _, g = view.eval(x)
        fd = finite_diff_gradient(view, x, 1e-6)
        assert np.linalg.norm(g - fd) <= 1e-4


def test_sqrt_value_function_closed_form():
    view = ValueFunctionView(make_sqrt_problem())
    v, g = view.eval([4.0])
    assert v == pytest.approx((2.0 / 3.0) * 8.0, rel=1e-12)
    assert g[0] == 2.0
    # left of the origin the inner argmax sits on the boundary
    v, g = view.eval([-1.0])
    assert v == 0.0
    assert g[0] == 0.0


def test_quadratic_value_functions_closed_form():
    saddle = ValueFunctionView(make_quadratic_saddle(3))
    x = np.array([1.0, -2.0, 0.5])
    v, g = saddle.eval(x)
    assert v == pytest.approx(0.5 * float(x @ x), rel=1e-12)
    np.testing.assert_allclose(g, x, rtol=1e-12)

    minmin = ValueFunctionView(make_quadratic_minmin(3))
    v, g = minmin.eval(x)
    assert v == pytest.approx(0.25 * float(x @ x), rel=1e-12)
    np.testing.assert_allclose(g, 0.5 * x, rtol=1e-12)


@pytest.mark.parametrize("maker", ALL_PROBLEMS)
def test_holder_descent_lemma(maker):
    """f(x) <= f(y) + <grad f(x), x - y> + beta/(nu+1) |y - x|^(nu+1) on random pairs."""
    prob = maker()
    view = ValueFunctionView(prob)
    cert = prob.certificate
    rng = np.random.default_rng(3)
    coef = cert.beta / (cert.nu + 1.0)
    for _ in range(1000):
        x = rng.uniform(-2.0, 4.0, size=prob.dim_x)
        y = rng.uniform(-2.0, 4.0, size=prob.dim_x)
        fx, gx = view.eval(x)
        fy, _ = view.eval(y)
        d = x - y
        bound = fy + float(gx @ d) + coef * np.linalg.norm(d) ** (cert.nu + 1.0)
        assert fx <= bound + 1e-12


@pytest.mark.parametrize("maker", [m for m in ALL_PROBLEMS if m().approx_response is not None])
def test_approx_response_converges_to_exact(maker):
    from holderopt import InnerAscentBudget

    prob = maker()
    rng = np.random.default_rng(5)
    budget = InnerAscentBudget(steps=60, step_size=0.5)
    for _ in range(10):
        x = rng.uniform(0.2, 2.0, size=prob.dim_x)
        y_star = prob.best_response(x)
        y = prob.approx_response(x, None, budget)
        assert np.linalg.norm(y - y_star) <= 2.0 * 0.5**60 + 1e-12
        # warm start from the answer stays at the answer
        y2 = prob.approx_response(x, y_star, budget)
        assert np.linalg.norm(y2 - y_star) <= 1e-12


def ascend(x, y, step_size, steps):
    """The inner ascent's recurrence y <- y + s * (x - y), step by step."""
    for _ in range(steps):
        y = y + step_size * (x - y)
    return y


@pytest.mark.parametrize(
    "maker, closed_form", [(make_quadratic_saddle, lambda x, y, s, steps: x + np.float64(1.0 - s) ** steps * (y - x))]
)
def test_approx_response_bits_match_the_expression(maker, closed_form):
    """The inner ascent gives the bits of its closed form written as one expression, stays within
    4 (steps + 1) eps max(|x|, |y_warm|) of the recurrence, and leaves the warm start as it was."""
    from holderopt import InnerAscentBudget

    rng = np.random.default_rng(8)
    budget = InnerAscentBudget(steps=50, step_size=0.3)
    x, y_warm = rng.standard_normal(16), rng.standard_normal(16)
    for start in (None, y_warm):
        y0 = np.zeros(16) if start is None else start
        before = y_warm.copy()
        y = maker(16).approx_response(x, start, budget)
        np.testing.assert_array_equal(y, closed_form(x, y0, budget.step_size, budget.steps))
        bound = 4 * (budget.steps + 1) * np.finfo(float).eps * max(np.abs(x).max(), np.abs(y0).max())
        assert np.abs(y - ascend(x, y0, budget.step_size, budget.steps)).max() <= bound
        np.testing.assert_array_equal(y_warm, before)


def test_finite_diff_gradient_quadratic():
    obj = SmoothObjective(2, lambda x: (0.5 * float(x @ x), x))
    fd = finite_diff_gradient(obj, [1.0, 2.0], 1e-5)
    np.testing.assert_allclose(fd, [1.0, 2.0], atol=1e-8)


def test_finite_diff_gradient_sqrt_value():
    view = ValueFunctionView(make_sqrt_problem())
    fd = finite_diff_gradient(view, [4.0], 1e-6)
    assert abs(fd[0] - 2.0) <= 1e-6


def test_finite_diff_gradient_constant():
    fd = finite_diff_gradient(lambda x: 3.0, np.zeros(4))
    np.testing.assert_array_equal(fd, np.zeros(4))


def test_registry_ids():
    assert get_problem("sqrt").name == "sqrt"
    p = get_problem("quadratic_saddle:8")
    assert p.dim_x == 8 and p.sense == "min-max"
    p = get_problem("quadratic_minmin:3")
    assert p.dim_x == 3 and p.sense == "min-min"
    with pytest.raises(KeyError):
        get_problem("nope")
    with pytest.raises(KeyError):
        get_problem("quadratic_saddle:x")
    with pytest.raises(KeyError):
        get_problem("quadratic_saddle:")
    # int() takes each of these, but only the canonical decimal names the problem it builds
    for tail in ("8_0", " 8", "+8", "08", "-1", "\uff18"):
        for head in ("quadratic_saddle", "quadratic_minmin"):
            with pytest.raises(KeyError, match="bad dimension in problem id"):
                get_problem(f"{head}:{tail}")


def subprocess_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(holderopt.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_import_loads_no_scipy():
    """holderopt needs no scipy at run time, and importing it loads none."""
    code = "import sys, holderopt; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_network_stack():
    """Importing holderopt loads no HTTP, TLS, mail or SAX module."""
    code = "import sys, holderopt; print([m for m in ('http.client', 'ssl', 'email', 'xml.sax') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
