"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s or check the
captured output). Tolerances and budgets here are contractual; do not loosen
them to make a failing build green.
"""

import math
import time

import numpy as np
from scipy.optimize import minimize_scalar

from holderopt import (
    BacktrackParams,
    ExperimentConfig,
    GanObjective,
    MlpSpec,
    StopRule,
    ValueFunctionView,
    as_minmin_problem,
    backtrack_holder_gd,
    backtrack_step,
    holder_gd,
    init_params,
    k_bound,
    make_quadratic_minmin,
    make_quadratic_saddle,
    make_sqrt_problem,
    minmax_backtrack,
    minmax_constant,
    minmin_armijo_nonmonotone,
    minmin_backtrack_nonmonotone,
    mlp_backward,
    mlp_forward,
    param_count,
    run_experiment,
    sample_data,
    sample_latents,
    sinkhorn_divergence,
    sinkhorn_solve,
    sufficient_decrease_threshold,
)
from holderopt.problems import finite_diff_gradient


def _verdict(num: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_01_value_function_gradient_is_the_partial_at_the_best_response():
    """Envelope gradient vs central differences, 100 points per problem, 1e-4."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    view = ValueFunctionView(make_quadratic_saddle(8))
    for x in rng.normal(size=(100, 8)):
        _, g = view.eval(x)
        fd = finite_diff_gradient(view, x)
        worst = max(worst, float(np.max(np.abs(g - fd))))
    sqrt_view = ValueFunctionView(make_sqrt_problem())
    xs = rng.uniform(0.05, 3.0, size=100) * rng.choice([-1.0, 1.0], size=100)
    for x in xs:
        _, g = sqrt_view.eval([x])
        fd = finite_diff_gradient(sqrt_view, [x])
        worst = max(worst, float(np.max(np.abs(g - fd))))
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        worst <= 1e-4 and elapsed < 1.0,
        f"envelope gradient matches finite differences at 200 points "
        f"(max err {worst:.2e}, {elapsed:.2f}s)",
    )


def test_02_known_constants_rate_bound():
    """(n+1) * min grad^3 <= (f0 - f*) * beta^2 * 3 along the whole run, exactly."""
    t0 = time.perf_counter()
    view = ValueFunctionView(make_sqrt_problem())
    cert = make_sqrt_problem().certificate
    traj = holder_gd(view, [1.0], cert, stop=StopRule(grad_tol=0.0, max_iters=10_000))
    f0 = traj.f_values[0]
    bound = f0 * cert.beta ** (1.0 / cert.nu) * (cert.nu + 1.0) / cert.nu
    running = np.minimum.accumulate(traj.grad_norms)
    n = np.arange(len(traj))
    lhs = (n + 1) * running ** (1.0 / cert.nu + 1.0)
    ok = bool(np.all(lhs <= bound)) and len(traj) <= 10_001
    if len(traj) < 10_001:
        # the run stopped early, which must mean an exactly critical point was
        # reached; every later n then has running minimum 0 and lhs 0
        ok = ok and traj.terminal_status == "converged" and traj.grad_norms[-1] == 0.0
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        ok and elapsed < 1.0,
        f"known-constants rate bound holds for all n <= 10^4 "
        f"(critical point hit at record {len(traj) - 1}, max lhs {lhs.max():.3g} "
        f"vs bound {bound:.3g}, {elapsed:.2f}s)",
    )


def test_03_backtracking_counter_stays_under_its_bound():
    """20 random admissible parameter sets on both analytic problems."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    problems = [make_sqrt_problem(), make_quadratic_saddle(4)]
    checked = 0
    ok = True
    worst = ""
    for _ in range(20):
        params = BacktrackParams(
            gamma=float(rng.uniform(0.2, 5.0)),
            alpha=float(rng.uniform(0.3, 0.9)),
            delta=float(rng.uniform(0.05, 0.8)),
            rho=float(rng.uniform(0.25, 2.0)),
        )
        for prob in problems:
            cap = math.ceil(k_bound(params, prob.certificate))
            traj = backtrack_holder_gd(
                ValueFunctionView(prob),
                prob.x0_default,
                params,
                StopRule(grad_tol=1e-9, max_iters=150),
            )
            checked += 1
            if int(traj.ks.max()) > cap:
                ok = False
                worst = f" (k={traj.ks.max()} > ceil(bound)={cap} on {prob.name})"
    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        ok and checked == 40 and elapsed < 5.0,
        f"recorded k stayed under its ceiling in {checked} runs{worst} ({elapsed:.2f}s)",
    )


def test_04_every_accepted_step_replays_its_decrease_test():
    """All four backtracking drivers, exact threshold replay, no slack."""
    params = BacktrackParams(gamma=2.0, delta_plus=0.95)
    runs = [
        backtrack_holder_gd(
            ValueFunctionView(make_quadratic_saddle(3)), np.ones(3), params
        ),
        minmax_backtrack(make_quadratic_saddle(3), np.ones(3), params),
        minmin_backtrack_nonmonotone(make_quadratic_minmin(3), 2.0 * np.ones(3), params),
        minmin_armijo_nonmonotone(make_quadratic_minmin(3), 2.0 * np.ones(3), params),
    ]
    steps = 0
    ok = True
    for traj in runs:
        values = traj.f_values
        grads = traj.grad_norms
        for i, before in enumerate(traj.records[:-1]):
            limit = sufficient_decrease_threshold(
                values[i], params.delta, before.step, grads[i]
            )
            ok = ok and values[i + 1] <= limit
            steps += 1
    _verdict(4, ok and steps > 20, f"{steps} accepted steps replay their decrease test exactly")


def test_05_reduction_runs_bit_identical_to_plain_descent():
    """200 iterations on the quadratic saddle: same x, k, and step bit for bit."""
    params = BacktrackParams(gamma=0.2)
    stop = StopRule(grad_tol=0.0, max_iters=200)
    mm = minmax_backtrack(make_quadratic_saddle(8), np.ones(8), params, stop)
    gd = backtrack_holder_gd(
        ValueFunctionView(make_quadratic_saddle(8)), np.ones(8), params, stop
    )
    ok = len(mm) == len(gd) == 201 and mm.terminal_status == gd.terminal_status
    for a, b in zip(mm.records, gd.records):
        ok = (
            ok
            and bool(np.array_equal(a.x, b.x))
            and a.k == b.k
            and a.step == b.step
            and a.oracle_calls == b.oracle_calls
            and a.f_value == b.f_value
        )
    _verdict(5, ok, f"min-max driver and plain descent agree bitwise over {len(mm)} records")


def test_06_transport_solver_against_brute_force():
    """Closed-form 2x2 divergence to 1e-8, marginals to 1e-9, plan = cost gradient to 1e-5."""
    t0 = time.perf_counter()
    eps = 0.25
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])

    def two_point(a):
        return 2.0 * (1.0 - a) + 2.0 * eps * (a * np.log(a) + (1 - a) * np.log(1 - a))

    brute = minimize_scalar(two_point, bounds=(1e-12, 1 - 1e-12), method="bounded").fun
    div_err = abs(sinkhorn_divergence(swap, eps) - brute)

    marg_err = 0.0
    fd_err = 0.0
    for n in (2, 3, 4):
        rng = np.random.default_rng(n)
        C = rng.random((n, n)) + 0.5
        result = sinkhorn_solve(C, 0.5, tol=1e-12)
        marg_err = max(
            marg_err,
            float(np.max(np.abs(result.plan.sum(axis=0) - 1.0))),
            float(np.max(np.abs(result.plan.sum(axis=1) - 1.0))),
        )
        plan = result.plan
        h = 1e-5
        for i in range(n):
            for j in range(n):
                Cp, Cm = C.copy(), C.copy()
                Cp[i, j] += h
                Cm[i, j] -= h
                fd = (
                    sinkhorn_divergence(Cp, 0.5, tol=1e-12)
                    - sinkhorn_divergence(Cm, 0.5, tol=1e-12)
                ) / (2 * h)
                fd_err = max(fd_err, abs(fd - plan[i, j]))
    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        div_err <= 1e-8 and marg_err <= 1e-9 and fd_err <= 1e-5 and elapsed < 5.0,
        f"divergence err {div_err:.1e}, marginal err {marg_err:.1e}, "
        f"plan-vs-FD err {fd_err:.1e} ({elapsed:.2f}s)",
    )


def test_07_generator_size_and_backpropagation():
    """2834 parameters; full-coordinate FD agreement at 1e-5 relative."""
    spec = MlpSpec((2, 64, 32, 16, 2))
    count_ok = param_count(spec) == 2834

    rng = np.random.default_rng(0)
    theta = init_params(spec, seed=0)
    Z = rng.random((4, 2))
    U = rng.normal(size=(4, 2))
    from holderopt.gan import _forward_full

    pres = _forward_full(spec, theta, Z)[1]
    min_pre = min(float(np.min(np.abs(p))) for p in pres)

    grad = mlp_backward(spec, theta, Z, U)
    h = 1e-6
    worst = 0.0
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        fd = (np.sum(U * mlp_forward(spec, tp, Z)) - np.sum(U * mlp_forward(spec, tm, Z))) / (2 * h)
        worst = max(worst, abs(fd - grad[i]) / max(1e-3, abs(grad[i])))
    _verdict(
        7,
        count_ok and min_pre > 1e-7 and worst <= 1e-5,
        f"param count {param_count(spec)}, max relative grad err {worst:.1e} "
        f"(min |preactivation| {min_pre:.1e})",
    )


def test_08_backtracking_beats_constant_steps_on_the_generator():
    """Equal 300-call oracle budget on the transport fitting problem, seed 0.

    The backtracking run must end below the best value any constant-step
    baseline ever reaches. Epsilon is pinned at 0.2 (about a tenth of the mean
    initial cost) so every run finishes in seconds.
    """
    t0 = time.perf_counter()
    spec = MlpSpec((2, 64, 32, 16, 2))
    data = sample_data(64, seed=0)
    latents = sample_latents(64, seed=0)
    theta0 = init_params(spec, seed=0)
    gan = GanObjective(spec, latents, data, epsilon=0.2, sinkhorn_tol=1e-7)
    problem = as_minmin_problem(gan)
    stop = StopRule(grad_tol=0.0, max_iters=10**9, max_oracle_calls=300)

    bh = minmin_backtrack_nonmonotone(
        problem, theta0, BacktrackParams(delta_plus=0.95), stop
    )
    baselines = {
        g: minmax_constant(problem, theta0, gamma=g, stop=stop) for g in (0.01, 0.05, 0.1)
    }

    budgets_ok = bh.terminal_status == "oracle_budget" and all(
        t.terminal_status == "oracle_budget" for t in baselines.values()
    )
    calls_ok = bh.oracle_calls[-1] <= 300 and all(
        t.oracle_calls[-1] <= 300 for t in baselines.values()
    )
    best_baseline = min(float(t.f_values.min()) for t in baselines.values())
    final = float(bh.f_values[-1])
    monotone = bool(np.all(np.diff(bh.f_values) <= 0.0))
    some_baseline_wobbles = any(
        np.any(np.diff(t.f_values) > 0.0) for t in baselines.values()
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        budgets_ok
        and calls_ok
        and monotone
        and some_baseline_wobbles
        and final <= best_baseline
        and elapsed < 300.0,
        f"nonincreasing backtracking run ends at {final:.3f} vs best "
        f"constant-step value {best_baseline:.3f} on a 300-call budget ({elapsed:.1f}s)",
    )


def test_09_tail_inequality_at_the_final_counter():
    """delta * step(k_max, g) * g^2 lower-bounds every drop once |grad| <= 1."""
    params = BacktrackParams(gamma=5.0)
    traj = backtrack_holder_gd(
        ValueFunctionView(make_quadratic_saddle(3)),
        np.ones(3),
        params,
        StopRule(grad_tol=1e-6, max_iters=300),
    )
    k_bar = int(traj.ks.max())
    checked = 0
    min_slack = np.inf
    for i, before in enumerate(traj.records[:-1]):
        g = traj.grad_norms[i]
        if g > 1.0:
            continue
        rhs = params.delta * backtrack_step(k_bar, g, params) * g * g
        drop = traj.f_values[i] - traj.f_values[i + 1]
        min_slack = min(min_slack, drop - rhs)
        checked += 1
    _verdict(
        9,
        k_bar >= 1 and checked > 100 and min_slack >= 0.0,
        f"tail decrease bound holds at k_max={k_bar} for {checked} records "
        f"(min slack {min_slack:.2e})",
    )


def test_10_reruns_write_identical_csv_bytes(tmp_path):
    """Seeded configs reproduce their trajectory files byte for byte."""
    configs = [
        ExperimentConfig(problem="quadratic_saddle:3", algorithm="backtrack_holder"),
        ExperimentConfig(
            problem="sinkhorn_gan",
            algorithm="nonmonotone_holder",
            sample_size=8,
            epsilon=0.5,
            sinkhorn_tol=1e-7,
            stop=StopRule(grad_tol=0.0, max_iters=6),
        ),
    ]
    ok = True
    sizes = []
    for cfg in configs:
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        name = cfg.run_id() + ".csv"
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        ok = ok and a == b and len(a) > 0
        sizes.append(len(a))
    _verdict(
        10,
        ok,
        f"rerun trajectory files are byte-identical ({sizes[0]} and {sizes[1]} bytes)",
    )
