"""Tiny dense generator networks and the entropic-transport fitting objective.

The generator is a fully connected ReLU network with identity output, its
parameters packed into one flat vector (per layer: weight matrix row-major,
then bias). Training minimizes the entropic transport divergence between
generated points and data points through the plan-weighted distance gradient,
so the only expensive oracle is one Sinkhorn solve per evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import MinMaxProblem
from .rng import STREAM_INIT, RandomStream
from .sinkhorn import entropic_objective, sinkhorn_solve

# pairs closer than this contribute no gradient (unit vector undefined)
_DIST_FLOOR = 1e-12


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths, input first, output last. Hidden activations are ReLU."""

    widths: tuple

    def __post_init__(self):
        w = tuple(int(v) for v in self.widths)
        object.__setattr__(self, "widths", w)
        if len(w) < 2:
            raise ValueError(f"need at least input and output widths, got {w}")
        if any(v < 1 for v in w):
            raise ValueError(f"widths must be positive, got {w}")


def param_count(spec: MlpSpec) -> int:
    w = spec.widths
    return sum(w[i] * w[i + 1] + w[i + 1] for i in range(len(w) - 1))


def _unpack(spec: MlpSpec, theta: np.ndarray):
    """Views (W, b) per layer into ``theta``; W has shape (fan_out, fan_in), stored row-major.

    This is the one statement of the packing layout: writing through the views
    fills a float parameter or gradient vector.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (param_count(spec),):
        raise ValueError(f"expected {param_count(spec)} parameters, got shape {theta.shape}")
    layers = []
    at = 0
    w = spec.widths
    for fan_in, fan_out in zip(w[:-1], w[1:]):
        W = theta[at : at + fan_in * fan_out].reshape(fan_out, fan_in)
        at += fan_in * fan_out
        b = theta[at : at + fan_out]
        at += fan_out
        layers.append((W, b))
    return layers


def init_params(spec: MlpSpec, seed: int) -> np.ndarray:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases.

    Draws come from the dedicated init stream in packing order, so the seed
    alone fixes every parameter.
    """
    stream = RandomStream(seed, STREAM_INIT)
    theta = np.zeros(param_count(spec))
    for W, _ in _unpack(spec, theta):  # biases stay zero
        bound = np.sqrt(6.0 / sum(W.shape))
        W[...] = bound * (2.0 * stream.uniform(W.size).reshape(W.shape) - 1.0)
    return theta


def _forward_full(spec: MlpSpec, theta, Z):
    """Activations and pre-activations for a batch Z of shape (m, widths[0])."""
    layers = _unpack(spec, theta)
    acts = [Z]
    pres = []
    A = Z
    for i, (W, b) in enumerate(layers):
        pre = A @ W.T + b
        pres.append(pre)
        A = pre if i == len(layers) - 1 else np.maximum(pre, 0.0)
        acts.append(A)
    return acts, pres


def _as_batch(spec: MlpSpec, z):
    Z = np.asarray(z, dtype=float)
    single = Z.ndim == 1
    if single:
        Z = Z[None, :]
    if Z.ndim != 2 or Z.shape[1] != spec.widths[0]:
        raise ValueError(f"expected input width {spec.widths[0]}, got shape {np.shape(z)}")
    return Z, single


def mlp_forward(spec: MlpSpec, theta, z) -> np.ndarray:
    """Network output for a single input (d,) or a batch (m, d)."""
    Z, single = _as_batch(spec, z)
    out = _forward_full(spec, theta, Z)[0][-1]
    return out[0] if single else out


def mlp_backward(spec: MlpSpec, theta, z, upstream) -> np.ndarray:
    """Gradient of <upstream, G(z; theta)> in theta, summed over batch rows.

    ``upstream`` matches the output shape. ReLU contributes zero derivative at
    exactly zero pre-activation.
    """
    Z, single = _as_batch(spec, z)
    U = np.asarray(upstream, dtype=float)
    if single:
        U = U[None, :]
    if U.shape != (Z.shape[0], spec.widths[-1]):
        raise ValueError(f"upstream shape {U.shape} does not match output ({Z.shape[0]}, {spec.widths[-1]})")

    layers = _unpack(spec, theta)
    acts, pres = _forward_full(spec, theta, Z)
    grad = np.zeros(param_count(spec))
    grads = _unpack(spec, grad)
    G = U
    for i in range(len(layers) - 1, -1, -1):
        (W, _), (dW, db) = layers[i], grads[i]
        dW[...] = G.T @ acts[i]
        db[...] = G.sum(axis=0)
        if i > 0:
            G = (G @ W) * (pres[i - 1] > 0.0)
    return grad


def pairwise_distances(Y, X) -> np.ndarray:
    """Euclidean distance matrix D[i, j] = |Y_i - X_j| (not squared)."""
    Y = np.asarray(Y, dtype=float)
    X = np.asarray(X, dtype=float)
    # summed per coordinate, in order, with no n x m x width difference array
    D2 = np.zeros((Y.shape[0], X.shape[0]))
    for k in range(Y.shape[1]):
        diff = Y[:, k, None] - X[None, :, k]
        D2 += diff * diff
    return np.sqrt(D2)


@dataclass
class GanObjective:
    """Entropic transport divergence between generated and data points.

    ``latents`` has shape (n, widths[0]) and ``data`` (n, widths[-1]); the cost
    matrix must be square because both clouds carry unit weights per point.

    ``best_response``, ``loss`` and ``grad_x`` are the oracles of
    :func:`as_minmin_problem`. They share one generator evaluation per θ:
    the generated points Y and cost C of the last θ are kept, read-only, in
    one ``(θ copy, Y, C)`` entry keyed on the bytes of θ. The same θ gives the
    same bits whatever was evaluated before; ``dataclasses.replace`` makes a
    copy with no kept entry.
    """

    spec: MlpSpec
    latents: np.ndarray
    data: np.ndarray
    epsilon: float
    sinkhorn_tol: float = 1e-9

    def __post_init__(self):
        self.latents = np.asarray(self.latents, dtype=float)
        self.data = np.asarray(self.data, dtype=float)
        if self.latents.ndim != 2 or self.latents.shape[1] != self.spec.widths[0]:
            raise ValueError(f"latents must have shape (n, {self.spec.widths[0]})")
        if self.data.ndim != 2 or self.data.shape[1] != self.spec.widths[-1]:
            raise ValueError(f"data must have shape (n, {self.spec.widths[-1]})")
        if self.latents.shape[0] != self.data.shape[0]:
            raise ValueError(
                f"need equally many latents and data points, got {self.latents.shape[0]} "
                f"and {self.data.shape[0]}"
            )
        if not (self.epsilon > 0 and np.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        self._kept = None

    def _generated(self, theta):
        """(Y, C) at theta, computed once per distinct θ (bitwise; 0.0 and -0.0 differ)."""
        theta = np.asarray(theta, dtype=float)
        kept = self._kept
        if kept is not None and kept[0].shape == theta.shape and kept[0].tobytes() == theta.tobytes():
            return kept[1], kept[2]
        Y = mlp_forward(self.spec, theta, self.latents)
        C = pairwise_distances(Y, self.data)
        Y.flags.writeable = C.flags.writeable = False
        self._kept = (theta.copy(), Y, C)
        return Y, C

    def cost(self, theta) -> np.ndarray:
        """The read-only cost matrix C(θ)[i, j] = |G(z_i; θ) - x_j|."""
        return self._generated(theta)[1]

    def best_response(self, theta) -> np.ndarray:
        """The flat optimal plan at θ from one Sinkhorn solve."""
        return sinkhorn_solve(self.cost(theta), self.epsilon, tol=self.sinkhorn_tol).plan.ravel()

    def loss(self, theta, p) -> float:
        n = self.data.shape[0]
        return entropic_objective(p.reshape(n, n), self.cost(theta), self.epsilon)

    def grad_x(self, theta, p) -> np.ndarray:
        """d/dθ of <P, C(θ)> at a fixed flat plan p (unit-vector chain rule)."""
        n = self.data.shape[0]
        Y, C = self._generated(theta)
        W = p.reshape(n, n) / np.where(C < _DIST_FLOOR, np.inf, C)
        upstream = Y * W.sum(axis=1)[:, None] - W @ self.data
        return mlp_backward(self.spec, theta, self.latents, upstream)


def as_minmin_problem(gan: GanObjective) -> MinMaxProblem:
    """The fitting problem as a min-min coupling: inner variable is the flat plan.

    ``best_response`` runs one Sinkhorn solve; the drivers in
    :mod:`holderopt.minimax` count each such call as one oracle unit.
    """
    n = gan.data.shape[0]
    return MinMaxProblem(
        dim_x=param_count(gan.spec),
        dim_y=n * n,
        loss=gan.loss,
        grad_x=gan.grad_x,
        sense="min-min",
        best_response=gan.best_response,
        name="sinkhorn_gan",
    )
