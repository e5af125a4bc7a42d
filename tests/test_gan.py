"""Dense generator forward/backward passes and the transport fitting objective."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from holderopt import (
    BacktrackParams,
    GanObjective,
    MlpSpec,
    NumericError,
    ValueFunctionView,
    as_minmin_problem,
    entropic_objective,
    init_params,
    minmax_constant,
    minmin_backtrack_nonmonotone,
    mlp_backward,
    mlp_forward,
    pairwise_distances,
    param_count,
    sample_data,
    sample_latents,
    sinkhorn_divergence,
    sinkhorn_solve,
    StopRule,
)
from holderopt.harness import GENERATOR_WIDTHS
from test_sinkhorn import REF_TOL, assert_matches_reference, reference_solve


def transport_divergence(gan, theta):
    """The transport divergence at theta, computed by the Sinkhorn module alone."""
    return sinkhorn_divergence(gan.cost(theta), gan.epsilon, tol=gan.sinkhorn_tol)


def test_param_count():
    assert param_count(MlpSpec((1, 1))) == 2
    assert param_count(MlpSpec((2, 2))) == 6
    assert param_count(MlpSpec((1, 1, 1))) == 4
    assert param_count(MlpSpec((2, 64, 32, 16, 2))) == 2834


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((3,))
    with pytest.raises(ValueError):
        MlpSpec((2, 0, 1))


@pytest.mark.parametrize("width", [8.7, 8.0, True, np.float64(8.0)])
def test_widths_must_be_integers(width):
    """A float width would build the layer of its truncation."""
    with pytest.raises(ValueError, match="widths"):
        MlpSpec((2, width, 2))


def test_numpy_integer_widths_are_plain_ints():
    spec = MlpSpec((np.int64(2), np.uint8(8), 2))
    assert spec.widths == (2, 8, 2)
    assert all(type(w) is int for w in spec.widths)


def test_forward_affine_single_layer():
    spec = MlpSpec((1, 1))
    out = mlp_forward(spec, np.array([2.0, 1.0]), np.array([[3.0]]))
    np.testing.assert_array_equal(out, [[7.0]])


def test_forward_relu_hinge():
    # hidden: pre = z - 1, relu; output: identity passthrough
    spec = MlpSpec((1, 1, 1))
    theta = np.array([1.0, -1.0, 1.0, 0.0])
    np.testing.assert_array_equal(mlp_forward(spec, theta, np.array([[0.5]])), [[0.0]])
    np.testing.assert_array_equal(mlp_forward(spec, theta, np.array([[2.0]])), [[1.0]])


def test_forward_batch_matches_singles():
    spec = MlpSpec((2, 5, 3))
    rng = np.random.default_rng(0)
    theta = rng.normal(size=param_count(spec))
    Z = rng.normal(size=(6, 2))
    batch = mlp_forward(spec, theta, Z)
    assert batch.shape == (6, 3)
    # batched and single-row matmuls may take different BLAS paths, so only
    # agreement to a few ulps is guaranteed
    for i in range(6):
        np.testing.assert_allclose(batch[i : i + 1], mlp_forward(spec, theta, Z[i : i + 1]), rtol=1e-13)


def test_forward_input_validation():
    spec = MlpSpec((2, 1))
    theta = np.zeros(param_count(spec))
    with pytest.raises(ValueError, match="input width"):
        mlp_forward(spec, theta, np.zeros((1, 3)))
    # a single input vector is not a batch
    with pytest.raises(ValueError, match="input width"):
        mlp_forward(spec, theta, np.zeros(2))
    with pytest.raises(ValueError, match="parameters"):
        mlp_forward(spec, np.zeros(5), np.zeros((1, 2)))


def test_backward_matches_finite_differences():
    """Full-coordinate central differences, with pre-activations away from kinks."""
    spec = MlpSpec((2, 5, 3))
    rng = np.random.default_rng(1)
    theta = rng.normal(size=param_count(spec))
    Z = rng.normal(size=(4, 2))
    U = rng.normal(size=(4, 3))
    from holderopt.gan import _forward_full

    pres = _forward_full(spec, theta, Z)[1]
    assert min(np.min(np.abs(p)) for p in pres) > 1e-6

    grad = mlp_backward(spec, theta, Z, U)
    h = 1e-6
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        fd = (
            np.sum(U * mlp_forward(spec, tp, Z)) - np.sum(U * mlp_forward(spec, tm, Z))
        ) / (2 * h)
        assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-9)


def test_backward_zero_derivative_at_kink():
    # pre-activation sits exactly at zero; only the output bias sees gradient
    spec = MlpSpec((1, 1, 1))
    theta = np.array([1.0, 0.0, 1.0, 0.0])
    grad = mlp_backward(spec, theta, np.array([[0.0]]), np.array([[1.0]]))
    np.testing.assert_array_equal(grad, [0.0, 0.0, 0.0, 1.0])


def test_backward_upstream_validation():
    spec = MlpSpec((2, 1))
    theta = np.zeros(param_count(spec))
    with pytest.raises(ValueError, match="upstream"):
        mlp_backward(spec, theta, np.zeros((3, 2)), np.zeros((2, 1)))


def test_init_params_deterministic_bounded_zero_bias():
    spec = MlpSpec((2, 64, 32, 16, 2))
    a = init_params(spec, seed=4)
    b = init_params(spec, seed=4)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != init_params(spec, seed=5))
    at = 0
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        W = a[at : at + fan_in * fan_out]
        at += fan_in * fan_out
        bias = a[at : at + fan_out]
        at += fan_out
        assert np.max(np.abs(W)) <= bound
        assert np.std(W) > 0.1 * bound
        np.testing.assert_array_equal(bias, np.zeros(fan_out))


def test_pairwise_distances_plain_euclidean():
    Y = np.array([[0.0, 0.0], [3.0, 4.0]])
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    D = pairwise_distances(Y, X)
    np.testing.assert_allclose(D, [[0.0, 1.0], [5.0, np.sqrt(4 + 16)]])


def test_pairwise_distances_match_the_difference_array_form():
    """The per-coordinate sum gives the same bits as summing an n x m x width array."""
    rng = np.random.default_rng(17)
    for width in (1, 2, 3, 5):
        for _ in range(50):
            n, m = rng.integers(1, 70, size=2)
            scale = rng.exponential(3.0)
            Y, X = rng.normal(size=(n, width)) * scale, rng.normal(size=(m, width)) * scale
            diff = Y[:, None, :] - X[None, :, :]
            np.testing.assert_array_equal(pairwise_distances(Y, X), np.sqrt(np.sum(diff * diff, axis=2)))


def test_pairwise_distances_in_three_dimensions():
    Y = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
    X = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, -2.0]])
    np.testing.assert_array_equal(pairwise_distances(Y, X), [[0.0, 3.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "Y, X",
    [
        (np.zeros((2, 2)), [[0, 0, 5], [3, 4, 0]]),  # X's third coordinate would be dropped
        ([[0, 0, 5], [3, 4, 0]], np.zeros((2, 2))),
        (np.zeros(2), np.zeros((2, 2))),
        (np.zeros((2, 2)), np.zeros((2, 2, 1))),
    ],
    ids=["wider-x", "wider-y", "1-d-y", "3-d-x"],
)
def test_pairwise_distances_refuse_clouds_that_are_not_2d_or_of_one_width(Y, X):
    shapes = f"{np.shape(Y)} and {np.shape(X)}"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        pairwise_distances(Y, X)


def make_small_gan(n=6, eps=0.5):
    spec = MlpSpec((2, 3, 2))
    rng = np.random.default_rng(2)
    latents = rng.random((n, 2))
    data = rng.normal(size=(n, 2)) + 2.0
    return GanObjective(spec, latents, data, epsilon=eps, sinkhorn_tol=1e-12)


def test_gan_objective_validation():
    spec = MlpSpec((2, 3, 2))
    good = np.zeros((4, 2))
    with pytest.raises(ValueError, match="latents"):
        GanObjective(spec, np.zeros((4, 3)), good, epsilon=0.1)
    with pytest.raises(ValueError, match="data"):
        GanObjective(spec, good, np.zeros((4, 3)), epsilon=0.1)
    with pytest.raises(ValueError, match="equally many"):
        GanObjective(spec, good, np.zeros((5, 2)), epsilon=0.1)
    with pytest.raises(ValueError, match="epsilon"):
        GanObjective(spec, good, good, epsilon=-1.0)
    for tol in (0.0, -1e-9, np.nan, np.inf):
        with pytest.raises(ValueError, match="sinkhorn_tol"):
            GanObjective(spec, good, good, epsilon=0.1, sinkhorn_tol=tol)


@pytest.mark.parametrize("name", ["latents", "data"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_gan_objective_refuses_non_finite_clouds(name, value):
    """A non-finite point would make every plan NaN, and the drivers would blame the oracle: refused by name."""
    clouds = {"latents": np.zeros((4, 2)), "data": np.ones((4, 2))}
    clouds[name][2, 1] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        GanObjective(MlpSpec((2, 3, 2)), epsilon=0.1, **clouds)


def test_envelope_gradient_matches_finite_differences():
    """The plan-weighted gradient is the total derivative of the divergence."""
    gan = make_small_gan()
    theta = init_params(gan.spec, seed=3)
    value_of = ValueFunctionView(as_minmin_problem(gan)).eval
    value, grad = value_of(theta)
    assert value == pytest.approx(transport_divergence(gan, theta), abs=1e-12)
    rng = np.random.default_rng(8)
    h = 1e-6
    for i in rng.choice(theta.size, size=8, replace=False):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        fd = (value_of(tp)[0] - value_of(tm)[0]) / (2 * h)
        assert fd == pytest.approx(grad[i], rel=1e-4, abs=1e-7)


def test_coincident_points_give_finite_gradient():
    # constant generator output landing exactly on a data point
    spec = MlpSpec((1, 1))
    data = np.array([[1.5], [2.5]])
    latents = np.zeros((2, 1))
    gan = GanObjective(spec, latents, data, epsilon=0.5)
    theta = np.array([0.0, 1.5])  # G(z) = 1.5 for every z
    value, grad = ValueFunctionView(as_minmin_problem(gan)).eval(theta)
    assert np.all(np.isfinite(grad))
    assert np.isfinite(value)


def test_minmin_problem_wiring():
    gan = make_small_gan(n=4)
    prob = as_minmin_problem(gan)
    assert prob.sense == "min-min"
    assert prob.dim_x == param_count(gan.spec)
    assert prob.dim_y == 16
    assert prob.name == "sinkhorn_gan"
    theta = init_params(gan.spec, seed=0)
    p = prob.best_response(theta)
    assert p.shape == (16,)
    np.testing.assert_allclose(p.reshape(4, 4).sum(axis=0), np.ones(4), atol=1e-9)
    assert prob.loss(theta, p) == pytest.approx(transport_divergence(gan, theta), abs=1e-9)


def count_calls(monkeypatch, *names):
    """Count the calls the generator module makes of each named function."""
    import holderopt.gan

    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(holderopt.gan, name, counting(name, getattr(holderopt.gan, name)))
    return calls


def test_one_oracle_call_evaluates_the_generator_once(monkeypatch):
    """One forward pass, one distance matrix and one back-propagation per oracle
    call; the gradient goes back through the kept pass, so the public passes
    never run, and the loss comes from the solve's potentials."""
    gan = make_small_gan()
    theta = init_params(gan.spec, seed=3)
    names = ("_forward_full", "pairwise_distances", "mlp_forward", "mlp_backward", "_backprop", "entropic_objective")
    calls = count_calls(monkeypatch, *names)
    ValueFunctionView(as_minmin_problem(gan)).eval(theta)
    assert calls == {
        "_forward_full": 1,
        "pairwise_distances": 1,
        "mlp_forward": 0,
        "mlp_backward": 0,
        "_backprop": 1,
        "entropic_objective": 0,
    }


def test_kept_pass_gradient_equals_the_public_backward():
    """After evaluations at θ1 and θ2, grad_x at θ1, then at θ2, each at its own plan, and then at
    θ1 with θ2's plan, which is not the one kept there, is bit for bit ``mlp_backward`` on a fresh
    forward pass, with the upstream the plan gives."""
    from holderopt.gan import _DIST_FLOOR

    gan = make_small_gan()
    n = gan.data.shape[0]
    thetas = [init_params(gan.spec, seed=3), init_params(gan.spec, seed=4)]
    plans = [gan.best_response(theta) for theta in thetas]
    for theta, p in [*zip(thetas, plans), (thetas[0], plans[1])]:
        Y = mlp_forward(gan.spec, theta, gan.latents)
        D = pairwise_distances(Y, gan.data)
        W = p.reshape(n, n) / np.where(D < _DIST_FLOOR, np.inf, D)
        upstream = Y * W.sum(axis=1)[:, None] - W @ gan.data
        expected = mlp_backward(gan.spec, theta, gan.latents, upstream)
        assert gan.grad_x(theta, p).tobytes() == expected.tobytes()


def test_diverging_generator_step_raises_numeric_error_naming_its_iteration():
    """A step so large that the generator's forward pass overflows gives a cost that is not finite:
    the driver raises NumericError for the step whose trial diverged, with no warning."""
    gan = make_small_gan()
    with warnings.catch_warnings(record=True) as caught, pytest.raises(NumericError) as info:
        warnings.simplefilter("always")
        minmax_constant(as_minmin_problem(gan), init_params(gan.spec, seed=0), gamma=1e300)
    assert caught == []
    assert info.value.iteration == 0


def evaluate_along(gan, thetas):
    """(plan, value, gradient) at each θ in turn, as one oracle call makes them."""
    out = []
    for theta in thetas:
        p = gan.best_response(theta)
        out.append((p, gan.loss(theta, p), gan.grad_x(theta, p)))
    return out


def theta_sequence(gan):
    """Nearby θ, as a step search makes them, then a far one and a return."""
    theta = init_params(gan.spec, seed=3)
    direction = init_params(gan.spec, seed=4)
    return [theta - 0.05 * k * direction for k in range(6)] + [direction, theta]


def test_same_calls_give_the_same_bits():
    """Two fresh objectives fed the same θ sequence agree bit for bit, and a
    ``dataclasses.replace`` copy of a used objective starts as a fresh one."""
    thetas = theta_sequence(make_small_gan())
    used = make_small_gan()
    runs = [evaluate_along(make_small_gan(), thetas), evaluate_along(used, thetas)]
    runs.append(evaluate_along(dataclasses.replace(used), thetas))
    for other in runs[1:]:
        for (p, value, grad), (p2, value2, grad2) in zip(runs[0], other):
            assert p.tobytes() == p2.tobytes()
            assert np.float64(value).tobytes() == np.float64(value2).tobytes()
            assert grad.tobytes() == grad2.tobytes()


def test_every_warm_started_plan_is_certified_against_a_cold_solve(monkeypatch):
    """Each solve along the sequence starts from the last one's potentials,
    takes fewer iterations than cold solves in all, and gives a certified plan
    within tol of a cold, tightly converged solve of the same cost."""
    import holderopt.gan

    gan = make_small_gan(eps=0.05)
    results = []

    def recorded(*args, **kwargs):
        results.append(sinkhorn_solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(holderopt.gan, "sinkhorn_solve", recorded)
    thetas = theta_sequence(gan)
    evaluate_along(gan, thetas)
    assert len(results) == len(thetas)
    cold_sweeps = 0
    for theta, result in zip(thetas, results):
        C = gan.cost(theta)
        assert_matches_reference(result, C, reference_solve(C, gan.epsilon, tol=REF_TOL), tol=gan.sinkhorn_tol)
        cold_sweeps += sinkhorn_solve(C, gan.epsilon, tol=gan.sinkhorn_tol).sweeps
    assert sum(result.sweeps for result in results) < cold_sweeps


def test_backtracking_run_counts_its_newton_steps(monkeypatch):
    """Acceptance test 08's backtracking run: 300 solves in 1 534 iterations,
    739 of them Newton steps, none of which falls back to a plain sweep."""
    import holderopt.gan

    spec = MlpSpec(GENERATOR_WIDTHS)
    gan = GanObjective(spec, sample_latents(64, seed=0), sample_data(64, seed=0), epsilon=0.2, sinkhorn_tol=1e-7)
    results = []

    def recorded(*args, **kwargs):
        results.append(sinkhorn_solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(holderopt.gan, "sinkhorn_solve", recorded)
    stop = StopRule(grad_tol=0.0, max_iters=10**9, max_oracle_calls=300)
    minmin_backtrack_nonmonotone(as_minmin_problem(gan), init_params(spec, 0), BacktrackParams(delta_plus=0.95), stop)
    counts = [(r.sweeps, r.newton_steps, r.newton_failures) for r in results]
    assert len(counts) == 300
    assert tuple(map(sum, zip(*counts))) == (1534, 739, 0)


def test_cost_bits_do_not_depend_on_history():
    """cost(θ) never depends on what was evaluated before, nor on the θ object."""
    gan = make_small_gan()
    theta1 = init_params(gan.spec, seed=3)
    theta2 = init_params(gan.spec, seed=4)

    def check(theta):
        gan.best_response(theta)
        assert gan.cost(theta).tobytes() == make_small_gan().cost(theta.copy()).tobytes()

    for theta in (theta1, theta2, theta1):
        check(theta)
    theta1[0] += 0.25  # the object evaluated last, with new values
    check(theta1)


def test_cost_is_read_only():
    gan = make_small_gan()
    C = gan.cost(init_params(gan.spec, seed=3))
    with pytest.raises(ValueError):
        C[0, 0] = 1.0


def paper_gan():
    """The generator instance of acceptance test 08, at its start θ."""
    spec = MlpSpec(GENERATOR_WIDTHS)
    gan = GanObjective(spec, sample_latents(64, 0), sample_data(64, 0), epsilon=0.2, sinkhorn_tol=1e-7)
    return gan, init_params(spec, 0)


def test_a_return_to_the_theta_of_two_calls_before_runs_no_work(monkeypatch):
    """θa, θb, θa, as a fixed step in a period-2 cycle makes them: the third call
    solves nothing and runs no pass, returns the first call's bits and leaves
    the warm start where θb's solve put it."""
    gan, theta_a = paper_gan()
    problem = as_minmin_problem(gan)
    first = problem.value_and_grad(theta_a)
    problem.value_and_grad(theta_a - 0.05 * first[1])
    dual_col = gan._dual_col
    calls = count_calls(monkeypatch, "sinkhorn_solve", "_forward_full")
    value, grad = problem.value_and_grad(theta_a.copy())
    assert calls == {"sinkhorn_solve": 0, "_forward_full": 0}
    assert np.float64(value).tobytes() == np.float64(first[0]).tobytes()
    assert grad.tobytes() == first[1].tobytes()
    assert gan._dual_col is dual_col


def test_a_third_theta_evicts_the_older_entry(monkeypatch):
    gan, theta_a = paper_gan()
    direction = init_params(gan.spec, 1)
    theta_b, theta_c = theta_a + 0.01 * direction, theta_a + 0.02 * direction
    calls = count_calls(monkeypatch, "sinkhorn_solve")
    for theta in (theta_a, theta_b, theta_c, theta_a):
        ValueFunctionView(as_minmin_problem(gan)).eval(theta)
    assert calls == {"sinkhorn_solve": 4}


def test_a_kept_gradient_is_returned_as_a_fresh_array():
    gan, theta = paper_gan()
    problem = as_minmin_problem(gan)
    first = problem.value_and_grad(theta)[1].copy()
    hit = problem.value_and_grad(theta)[1]
    hit += 1.0
    assert problem.value_and_grad(theta)[1].tobytes() == first.tobytes()


def test_loss_at_the_solves_own_plan_comes_from_its_potentials():
    """At the returned plan object the loss is the potentials' sum, within
    rounding of the entropic objective; any other plan, a copy included, is
    the entropic objective itself. Both at eps 0.2 and at the command line's
    default eps, 0.01 times the mean initial cost."""
    gan, theta = paper_gan()
    for eps in (0.2, 0.01 * float(gan.cost(theta).mean())):
        other = dataclasses.replace(gan, epsilon=eps, sinkhorn_tol=1e-9)
        p = other.best_response(theta)
        C = other.cost(theta)
        exact = entropic_objective(p.reshape(C.shape), C, eps)
        assert other.loss(theta, p) == pytest.approx(exact, rel=1e-12, abs=0.0)
        perturbed = p * (1.0 + 0.01 * np.sin(np.arange(p.size)))
        for q in (p.copy(), perturbed):
            expected = entropic_objective(q.reshape(C.shape), C, eps)
            assert np.float64(other.loss(theta, q)).tobytes() == np.float64(expected).tobytes()


def test_a_kept_plan_is_read_only():
    gan, theta = paper_gan()
    p = gan.best_response(theta)
    assert gan.best_response(theta) is p
    with pytest.raises(ValueError):
        p[0] = 1.0
