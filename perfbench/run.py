"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload gan_backtrack --seed 0 --seconds 10 --trace 0

With ``--trace 0`` the workload's fixed work repeats until ``--seconds`` have
passed (at least once) and the end-to-end metrics are reported: medians over
the repeats, set-up time over fresh interpreters, peak RSS and the final
objective. With ``--trace 1`` the work runs once untraced and once traced and
the per-layer metrics are reported. Every pass checks every driver run.

The package is imported from ``src/`` beside this directory; nothing is
installed. The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
determinism record (CSV hashes, final objective, counts), which is also
written to ``perfbench/out/<workload>/``. The exit code is 0 when the run
completed, whether or not its checks passed, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# one BLAS thread: the matrices are at most 64 x 64 and one thread keeps
# timings steady on a shared machine (nproc is recorded beside it)
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "final_objective": "objective"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_per_oracle_call")):
        return "ratio"
    if name.endswith("marginal_error_max"):
        return "1"
    return "count"


def measure_setup(workload: str, seed: int, out_dir: str, smoke: bool) -> float:
    """Seconds from starting a fresh interpreter to the workload's first oracle call."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), out_dir, str(int(smoke))]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed ({done.returncode}): {done.stderr.strip()}")
    # CLOCK_MONOTONIC, which perf_counter reads on Linux, is shared by all processes
    return float(done.stdout.split()[-1]) - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="holderopt benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="minimum time spent repeating the work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny budgets, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "holderopt", "__init__.py")):
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)

    import numpy
    import scipy

    import checks
    import workloads
    from holderopt.descent import NumericError
    from holderopt.sinkhorn import SinkhornError

    out_dir = os.path.join(HERE, "out", args.workload)
    try:
        plan = workloads.prepare(args.workload, args.seed, out_dir, args.smoke)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    operation_errors = (SinkhornError, NumericError, workloads.OperationFailed)

    def execute():
        """The timed work: every operation once. Returns (statuses, raised)."""
        statuses, raised = {}, {}
        for op in plan.operations:
            try:
                statuses.update(op.call())
            except operation_errors as exc:
                raised.update((run.label, f"{type(exc).__name__}: {exc}") for run in op.runs)
        return statuses, raised

    passes = []  # per pass: ({label: failures}, {label: sha256})
    first = {}  # the first pass's {label: rows}, and the RSS peak through its work

    def run_pass(work):
        for path in [r.csv_path for r in plan.runs] + [plan.svg_path]:
            if path and os.path.exists(path):
                os.remove(path)
        t0 = time.perf_counter()
        statuses, raised = work()
        wall = time.perf_counter() - t0
        if not passes:
            first["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, rows, hashes = {}, {}, {}
        svg = plan.svg_path
        svg_ok = svg is None or (os.path.isfile(svg) and os.path.getsize(svg) > 0)
        for run in plan.runs:
            if run.label in raised:
                failures[run.label] = [raised[run.label]]
                continue
            if not os.path.isfile(run.csv_path):
                failures[run.label] = ["no trajectory CSV written"]
                continue
            rows[run.label] = checks.read_rows(run.csv_path)
            hashes[run.label] = checks.sha256_of(run.csv_path)
            failures[run.label] = checks.check_run(rows[run.label], run, statuses.get(run.label))
            if not svg_ok:
                failures[run.label].append("comparison SVG missing or empty")
            if passes and hashes[run.label] != passes[0][1].get(run.label):
                failures[run.label].append("trajectory CSV differs from the first pass")
        passes.append((failures, hashes))
        first.setdefault("rows", rows)
        return wall

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if args.trace == 0:
        probes = 1 if args.smoke else SETUP_PROBES
        setup = [measure_setup(args.workload, args.seed, out_dir, args.smoke) for _ in range(probes)]
        walls = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            walls.append(run_pass(execute))
        metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup)}
        metrics["peak_rss_mb"] = first["peak_rss_mb"]
        record["walls_s"] = walls
        record["setups_s"] = setup
    else:
        import tracing

        untraced_wall = run_pass(execute)
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            record["traced_wall_s"] = run_pass(tracer.wrap(tracing.ROOT, execute))
        # the traced pass wrote the same CSVs as the first, or failed a check above
        counts = {label: checks.run_counts(rows) for label, rows in first["rows"].items()}
        metrics, per_run = tracing.analyse(tracer, counts, untraced_wall)
        record["per_run_trace"] = {run.label: traced for run, traced in zip(plan.runs, per_run)}
        failures = passes[-1][0]
        if len(per_run) != len(plan.runs):
            for run in plan.runs:
                failures[run.label].append(f"{len(per_run)} driver spans for {len(plan.runs)} driver runs")
        for run, traced in zip(plan.runs, per_run):
            if run.label not in counts:
                continue
            if plan.sinkhorn_tol is not None and traced["marginal_error_max"] > plan.sinkhorn_tol:
                failures[run.label].append(f"marginal error {traced['marginal_error_max']:.3e} above tol")
            if traced["dual_decreases"]:
                failures[run.label].append(f"{traced['dual_decreases']} sweeps lowered the dual")
            if traced["oracle_spans"] != counts[run.label]["oracle_calls"]:
                failures[run.label].append(
                    f"{traced['oracle_spans']} inner-oracle calls against {counts[run.label]['oracle_calls']} counted"
                )
        trace_path = os.path.join(out_dir, f"spans_seed{args.seed}.json.gz")
        tracer.write(trace_path)
        record["spans"] = os.path.relpath(trace_path, os.path.dirname(HERE))

    first_rows = first["rows"]
    final = plan.final_objective(first_rows) if len(first_rows) == len(plan.runs) else None
    record["final_objective"] = repr(final)
    if args.trace == 0:
        metrics["final_objective"] = 0.0 if final is None else final
    record["csv_sha256"] = passes[0][1]
    record["counts"] = {label: checks.run_counts(rows) for label, rows in first_rows.items()}
    record["failures"] = [{label: f for label, f in failures.items() if f} for failures, _ in passes]
    attempted = len(plan.runs) * len(passes)
    failed = sum(1 for failures, _ in passes for f in failures.values() if f)

    with open(os.path.join(out_dir, f"record_seed{args.seed}_trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    units = END_TO_END_UNITS if args.trace == 0 else {name: unit_of(name) for name in metrics}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
