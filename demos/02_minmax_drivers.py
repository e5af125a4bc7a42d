"""
Minimizing a max: exact oracles, inexact oracles, and a reduction
=================================================================

For L(x, y) = <x, y> - |y|^2 / 2 the inner maximizer is y = x, so the
value function g(x) = max_y L(x, y) = |x|^2 / 2 is smooth and its
gradient is just the partial gradient of L at the best response. That
identity is what lets an outer descent loop treat the min-max problem
as plain minimization, paying one inner solve per function evaluation.
"""

import numpy as np

from holderopt import (
    BacktrackParams,
    InnerAscentBudget,
    StopRule,
    ValueFunctionView,
    backtrack_holder_gd,
    make_quadratic_minmin,
    make_quadratic_saddle,
    minmax_backtrack,
    minmax_heuristic,
    minmin_backtrack_nonmonotone,
)

saddle = make_quadratic_saddle(4)
x0 = np.array([2.0, -1.0, 0.5, 1.5])

###############################################################################
# 1. The exact driver. Each oracle call below is one best-response solve.

traj = minmax_backtrack(saddle, x0, BacktrackParams(gamma=1.5))
print("exact min-max driver:")
print(f"  {len(traj)} records, {traj.records[-1].oracle_calls} oracle calls, "
      f"status {traj.terminal_status}")
print(f"  final |x| = {np.linalg.norm(traj.final_x):.2e}")

###############################################################################
# 2. It is literally plain descent on the value function view. Same floats,
#    same counters, record for record.

view_traj = backtrack_holder_gd(ValueFunctionView(make_quadratic_saddle(4)), x0,
                                BacktrackParams(gamma=1.5))
same = all(
    np.array_equal(a.x, b.x) and a.k == b.k and a.step == b.step
    for a, b in zip(traj.records, view_traj.records)
)
print(f"\nreduction to plain descent is bit-identical: {same}")

###############################################################################
# 3. When only an approximate inner maximizer is affordable, the heuristic
#    driver runs a few ascent steps from the previous response (warm start)
#    and restarts its step search from scratch each iteration.

budget = InnerAscentBudget(steps=25, step_size=0.5)
htraj = minmax_heuristic(saddle, x0, budget=budget, stop=StopRule(grad_tol=1e-6))
print(f"\nheuristic driver with {budget.steps} inner ascent steps:")
print(f"  {len(htraj)} records, status {htraj.terminal_status}, "
      f"final |x| = {np.linalg.norm(htraj.final_x):.2e}")

###############################################################################
# 4. Min-min problems flip the inner sense, and the non-monotone variant
#    occasionally tries a cheaper step (one counter decrement) when the
#    previous decrease was comfortable. Watch k move both ways.

minmin = make_quadratic_minmin(3)
ntraj = minmin_backtrack_nonmonotone(minmin, [4.0, -2.0, 1.0])
print("\nnon-monotone min-min driver (k starts at 1):")
for r in ntraj.records[8:13]:
    print(f"  n={r.n}  L={r.f_value:.4e}  step={r.step:.3f}  k={r.k}")
print(f"  k sequence: {[int(v) for v in ntraj.ks[:16]]}")
print("  once decreases come in comfortably ahead of the test, k drops a")
print("  notch and the cheaper step sticks")
