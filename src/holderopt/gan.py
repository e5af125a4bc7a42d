"""Tiny dense generator networks and the entropic-transport fitting objective.

The generator is a fully connected ReLU network with identity output, its
parameters packed into one flat vector (per layer: weight matrix row-major,
then bias). Training minimizes the entropic transport divergence between
generated points and data points through the plan-weighted distance gradient,
so the only expensive oracle is one Sinkhorn solve per evaluation at a new θ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import MinMaxProblem, _require_count, _require_positive
from .rng import STREAM_INIT, RandomStream
from .sinkhorn import entropic_objective, sinkhorn_solve

# pairs closer than this contribute no gradient (unit vector undefined)
_DIST_FLOOR = 1e-12


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths, input first, output last. Hidden activations are ReLU."""

    widths: tuple

    def __post_init__(self):
        w = tuple(self.widths)
        if len(w) < 2:
            raise ValueError(f"need at least input and output widths, got {w}")
        for v in w:
            _require_count("widths", v, 1)
        object.__setattr__(self, "widths", tuple(int(v) for v in w))


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
    """Activations, pre-activations and the layer views of theta, for a batch Z of shape (m, widths[0])."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != spec.widths[0]:
        raise ValueError(f"expected a batch of input width {spec.widths[0]}, got shape {Z.shape}")
    layers = _unpack(spec, theta)
    acts = [Z]
    pres = []
    A = Z
    for i, (W, b) in enumerate(layers):
        pre = A @ W.T + b
        pres.append(pre)
        A = pre if i == len(layers) - 1 else np.maximum(pre, 0.0)
        acts.append(A)
    return acts, pres, layers


def _backprop(layers, acts, G) -> np.ndarray:
    """Gradient in theta of <G, output>, back through the activations ``acts`` of a pass through ``layers``."""
    # per layer, last first: bias, then weights, so the reversed list is in packing order
    pieces = []
    for i in range(len(layers) - 1, -1, -1):
        pieces.append(G.sum(axis=0))
        pieces.append((G.T @ acts[i]).ravel())
        if i > 0:
            # a ReLU output is positive exactly where its pre-activation is
            G = (G @ layers[i][0]) * (acts[i] > 0.0)
    return np.concatenate(pieces[::-1])


def mlp_forward(spec: MlpSpec, theta, z) -> np.ndarray:
    """Network outputs (m, widths[-1]) for a batch z of shape (m, widths[0])."""
    return _forward_full(spec, theta, z)[0][-1]


def mlp_backward(spec: MlpSpec, theta, z, upstream) -> np.ndarray:
    """Gradient of <upstream, G(z; theta)> in theta, summed over batch rows.

    ``upstream`` matches the output shape. ReLU contributes zero derivative at
    exactly zero pre-activation.
    """
    acts, _, layers = _forward_full(spec, theta, z)
    U = np.asarray(upstream, dtype=float)
    if U.shape != acts[-1].shape:
        raise ValueError(f"upstream shape {U.shape} does not match output {acts[-1].shape}")
    return _backprop(layers, acts, U)


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


@dataclass(slots=True)
class _Kept:
    """What :class:`GanObjective` keeps at one θ: the pass and cost, then the solve's plan, loss and gradient."""

    key: bytes  # θ's bytes, which a call must match
    theta: np.ndarray  # a copy, which ``layers`` view
    layers: list
    acts: list
    C: np.ndarray  # read-only
    plan: Optional[np.ndarray] = None  # flat, read-only
    value: Optional[float] = None  # loss and gradient at ``plan``
    grad: Optional[np.ndarray] = None


@dataclass
class GanObjective:
    """Entropic transport divergence between generated and data points.

    ``latents`` has shape (n, widths[0]) and ``data`` (n, widths[-1]); the cost
    matrix must be square because both clouds carry unit weights per point.

    ``best_response``, ``loss`` and ``grad_x`` are the oracles of
    :func:`as_minmin_problem`. They share what is kept at the last two
    distinct θ, matched on their bytes (0.0 and -0.0 differ), most recent
    first; a third θ evicts the older entry. An entry holds a θ copy, its
    layer views, the activations of its one generator forward pass and the
    read-only cost C, so ``cost(θ)`` has the same bits whatever was evaluated
    before and every gradient back-propagates through the kept activations.
    The first solve at θ also computes the loss and the gradient at its plan,
    since an oracle call asks for all three, and the entry holds them with
    the read-only flat plan.

    At a kept θ that has a plan, ``best_response`` returns the kept plan
    without a solve, and ``loss`` and ``grad_x`` at that plan object return
    the kept value and a fresh copy of the kept gradient; any other plan is
    evaluated afresh. Two entries, because fixed steps that oscillate come
    back: in the paper's comparison the γ = 0.05 and 0.1 baselines settle
    into period-2 cycles, and at seed 0 188 of the three baselines' 900
    calls return to the θ of two calls before, none to the θ just before,
    so they make 712 solves.

    ``loss`` at a solve's own plan is ``sum_i u_i r_i + sum_j v_j c_j`` from
    the solve's potentials ``u, v`` and the plan's row and column sums
    ``r, c``: since ``eps log P_ij = u_i + v_j - C_ij``, that is
    ``<P, C> + eps sum P log P`` without an n x n log. Any other plan goes
    through :func:`holderopt.sinkhorn.entropic_objective`.

    Each Sinkhorn solve starts from the column potential of the last solve
    that ran (gauge ``V[-1] = 0``), since consecutive calls of a step search
    come at nearby θ; the first solve starts from zero. Results therefore
    depend on the calls made before, under a three-part contract:

    * the same sequence of calls gives the same bits, so reruns write the
      same trajectories;
    * every plan is a solve certified to ``sinkhorn_tol``: within that
      tolerance of a tightly converged solve started from zero;
    * a call at one of the last two θ returns what the first call there
      returned.

    ``dataclasses.replace`` makes a copy with nothing kept, which starts cold.
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
        _require_positive("epsilon", self.epsilon)
        _require_positive("sinkhorn_tol", self.sinkhorn_tol)
        self._kept = []
        self._dual_col = None

    def _entry(self, theta) -> _Kept:
        """The kept entry at θ, moved to the front; made, evicting the older of two, at a new θ."""
        theta = np.asarray(theta, dtype=float)
        key = theta.tobytes()
        kept = self._kept
        for i, entry in enumerate(kept):
            if entry.key == key and entry.theta.shape == theta.shape:
                if i:
                    kept.insert(0, kept.pop(i))
                return entry
        theta = theta.copy()
        acts, _, layers = _forward_full(self.spec, theta, self.latents)
        C = pairwise_distances(acts[-1], self.data)
        acts[-1].flags.writeable = C.flags.writeable = False
        entry = _Kept(key, theta, layers, acts, C)
        self._kept = [entry, *kept[:1]]
        return entry

    def cost(self, theta) -> np.ndarray:
        """The read-only cost matrix C(θ)[i, j] = |G(z_i; θ) - x_j|."""
        return self._entry(theta).C

    def best_response(self, theta) -> np.ndarray:
        """The read-only flat optimal plan at θ: the kept one, or one Sinkhorn solve started from the last one's.
        A cost that is not finite, from a diverged generator pass, gets no solve but a NaN plan, loss and gradient."""
        entry = self._entry(theta)
        if entry.plan is None and not math.isfinite(entry.C.max()):
            entry.plan, entry.value, entry.grad = np.full(entry.C.size, np.nan), np.nan, entry.theta * np.nan
        elif entry.plan is None:
            result = sinkhorn_solve(entry.C, self.epsilon, tol=self.sinkhorn_tol, dual_col=self._dual_col)
            self._dual_col = result.dual_col - result.dual_col[-1]
            P = result.plan
            P.flags.writeable = False
            entry.value = float(result.dual_row.dot(P.sum(axis=1)) + result.dual_col.dot(P.sum(axis=0)))
            entry.plan, entry.grad = P.ravel(), self._gradient(entry, P)
        return entry.plan

    def loss(self, theta, p) -> float:
        """<P, C(θ)> + eps sum P log P at a flat plan p, from the potentials when p is the solve's own plan."""
        entry = self._entry(theta)
        if p is entry.plan:
            return entry.value
        return entropic_objective(p.reshape(entry.C.shape), entry.C, self.epsilon)

    def grad_x(self, theta, p) -> np.ndarray:
        """d/dθ of <P, C(θ)> at a fixed flat plan p (unit-vector chain rule)."""
        entry = self._entry(theta)
        if p is entry.plan:
            return entry.grad.copy()
        return self._gradient(entry, p)

    def _gradient(self, entry: _Kept, p) -> np.ndarray:
        C = entry.C  # p is a plan of C's shape, or flat
        W = p.reshape(C.shape) / np.where(C < _DIST_FLOOR, np.inf, C)
        upstream = entry.acts[-1] * W.sum(axis=1)[:, None] - W @ self.data
        return _backprop(entry.layers, entry.acts, upstream)


def as_minmin_problem(gan: GanObjective) -> MinMaxProblem:
    """The fitting problem as a min-min coupling: inner variable is the flat plan.

    ``best_response`` runs one Sinkhorn solve, or returns the plan kept at one
    of the last two θ; the drivers in :mod:`holderopt.minimax` count each
    such call as one oracle unit.
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
