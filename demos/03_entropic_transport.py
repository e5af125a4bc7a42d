"""
Entropic optimal transport by scaling sweeps and Newton steps
=============================================================

Two clouds of n points each, every point carrying unit mass. The
regularized problem min_P <P, C> + eps * sum P log P over plans with
all-ones marginals is solved by alternating exact updates of the two
dual potential vectors, on a kernel stabilized so that small eps does
not underflow. Once those sweeps slow down, each iteration takes a
Newton step on the column potential instead, then the exact row update
for it.
"""

import numpy as np

from holderopt import sinkhorn_divergence, sinkhorn_solve

###############################################################################
# The two-point swap cost has a closed form: the diagonal weight is the
# logistic value 1 / (1 + exp(-1/eps)).

C = np.array([[0.0, 1.0], [1.0, 0.0]])
for eps in (1.0, 0.2, 0.05):
    result = sinkhorn_solve(C, eps)
    a = 1.0 / (1.0 + np.exp(-1.0 / eps))
    print(f"eps={eps:<4}: plan diag {result.plan[0, 0]:.6f}  closed form {a:.6f}  "
          f"iterations {result.sweeps}")

###############################################################################
# Small eps sharpens the plan toward the unregularized assignment, and plain
# sweeps slow down; the solver then switches to Newton steps, so the
# iteration count stays small. Large eps spreads mass evenly. On a random cost:

rng = np.random.default_rng(0)
C = rng.random((6, 6)) * 2.0
print("\neps sweep on a random 6x6 cost:")
for eps in (2.0, 0.5, 0.1):
    result = sinkhorn_solve(C, eps)
    div = sinkhorn_divergence(C, eps)
    print(f"  eps={eps:<5} divergence={div: .4f}  iterations={result.sweeps:>3}  "
          f"max plan entry={result.plan.max():.3f}")

# a budget too small for the tolerance fails loudly rather than returning a
# plan with broken marginals
from holderopt import SinkhornError

try:
    sinkhorn_solve(C, 0.02, max_sweeps=3)
except SinkhornError as exc:
    print(f"  eps=0.02  -> {exc}")

###############################################################################
# The recorded dual objective is a built-in health check: each half sweep is
# an exact block maximization and each Newton step must pass an Armijo test
# on the dual, so it can only go up.

result = sinkhorn_solve(C, 0.1)
d = result.dual_values
print(f"\ndual objective nondecreasing: {bool(np.all(np.diff(d) >= -1e-12))} "
      f"({d[0]:.4f} -> {d[-1]:.4f} over {len(d)} iterations)")
print(f"marginal error at exit: {result.marginal_error:.2e}")

###############################################################################
# The plan doubles as the gradient of the transport objective in the cost
# matrix, which is what the generator training loop differentiates through.
# Check one entry against a central difference.

plan = result.plan
h = 1e-5
Cp, Cm = C.copy(), C.copy()
Cp[2, 3] += h
Cm[2, 3] -= h
fd = (sinkhorn_divergence(Cp, 0.1, tol=1e-12) - sinkhorn_divergence(Cm, 0.1, tol=1e-12)) / (2 * h)
print(f"\nd(divergence)/dC[2,3]: plan entry {plan[2, 3]:.8f}, finite diff {fd:.8f}")
