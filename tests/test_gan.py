"""Dense generator forward/backward passes and the transport fitting objective."""

import numpy as np
import pytest

from holderopt import (
    GanObjective,
    MlpSpec,
    ValueFunctionView,
    as_minmin_problem,
    init_params,
    mlp_backward,
    mlp_forward,
    pairwise_distances,
    param_count,
    sinkhorn_divergence,
)


def transport_divergence(gan, theta):
    """The transport divergence at theta, computed by the Sinkhorn module alone."""
    return sinkhorn_divergence(gan.cost(theta), gan.epsilon, tol=gan.sinkhorn_tol, max_sweeps=gan.max_sweeps)


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


def test_forward_affine_single_layer():
    spec = MlpSpec((1, 1))
    out = mlp_forward(spec, np.array([2.0, 1.0]), np.array([3.0]))
    np.testing.assert_array_equal(out, [7.0])


def test_forward_relu_hinge():
    # hidden: pre = z - 1, relu; output: identity passthrough
    spec = MlpSpec((1, 1, 1))
    theta = np.array([1.0, -1.0, 1.0, 0.0])
    np.testing.assert_array_equal(mlp_forward(spec, theta, np.array([0.5])), [0.0])
    np.testing.assert_array_equal(mlp_forward(spec, theta, np.array([2.0])), [1.0])


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
        np.testing.assert_allclose(batch[i], mlp_forward(spec, theta, Z[i]), rtol=1e-13)


def test_forward_input_validation():
    spec = MlpSpec((2, 1))
    theta = np.zeros(param_count(spec))
    with pytest.raises(ValueError, match="input width"):
        mlp_forward(spec, theta, np.zeros(3))
    with pytest.raises(ValueError, match="parameters"):
        mlp_forward(spec, np.zeros(5), np.zeros(2))


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
    grad = mlp_backward(spec, theta, np.array([0.0]), np.array([1.0]))
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
    np.testing.assert_array_equal(
        prob.grad_x(theta, p), gan.plan_weighted_grad(theta, p.reshape(4, 4))
    )
