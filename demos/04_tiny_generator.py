"""
A generator small enough to differentiate by hand
=================================================

The point-cloud generator is a dense ReLU network with identity output,
all parameters packed in one flat vector so the descent drivers can
treat it as an ordinary point in R^q. Backpropagation is written out
against that packing; no autograd involved.
"""

import numpy as np

from holderopt import (
    GanObjective,
    MlpSpec,
    ValueFunctionView,
    as_minmin_problem,
    init_params,
    mlp_backward,
    mlp_forward,
    param_count,
    sample_data,
    sample_latents,
)

spec = MlpSpec((2, 64, 32, 16, 2))
print(f"widths {spec.widths} -> {param_count(spec)} parameters")

###############################################################################
# Initialization is reproducible from the seed alone: Glorot-uniform weights
# drawn from a dedicated counter-based stream, biases zero.

theta = init_params(spec, seed=0)
again = init_params(spec, seed=0)
print(f"re-init identical: {np.array_equal(theta, again)}")
print(f"first five weights: {np.round(theta[:5], 4)}")

###############################################################################
# Forward maps latent points to the plane; a batch goes through as one matrix
# product chain.

Z = sample_latents(5, seed=0)
Y = mlp_forward(spec, theta, Z)
print(f"\n5 latents -> outputs with shape {Y.shape}")

###############################################################################
# The backward pass returns d<upstream, G(z)>/dtheta. Compare one coordinate
# against a central difference.

U = np.ones_like(Y)
grad = mlp_backward(spec, theta, Z, U)
i = 137
h = 1e-6
tp, tm = theta.copy(), theta.copy()
tp[i] += h
tm[i] -= h
fd = (np.sum(mlp_forward(spec, tp, Z)) - np.sum(mlp_forward(spec, tm, Z))) / (2 * h)
print(f"grad[{i}] = {grad[i]:.8f}, finite difference {fd:.8f}")

###############################################################################
# The training objective couples the generated cloud to data through the
# entropic transport divergence. Its gradient needs only the transport plan
# (the inner solution), never derivatives of the plan itself.

data = sample_data(32, seed=0)
latents = sample_latents(32, seed=0)
gan = GanObjective(spec, latents, data, epsilon=0.3, sinkhorn_tol=1e-7)
value, g = ValueFunctionView(as_minmin_problem(gan)).eval(theta)
print(f"\ninitial divergence: {value:.4f}")
print(f"gradient norm in theta: {np.linalg.norm(g):.4f} over {g.size} coordinates")
