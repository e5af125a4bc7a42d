"""Self-test of the benchmark: ``python3 -m pytest -q perfbench``.

Every workload runs at tiny budgets in both modes and must print exactly the
metrics BENCHMARK.json declares, with the same units; the decrease-replay
check must reject a trajectory that breaks it.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from holderopt import harness  # noqa: E402
from holderopt.descent import BacktrackParams, StopRule  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1"]
    cmd += ["--seconds", "0", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("end_to_end" if trace == 0 else "per_layer")
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _backtracking_run(tmp_path):
    config = harness.ExperimentConfig(
        problem="quadratic_saddle:3",
        algorithm="backtrack_holder",
        params=BacktrackParams(gamma=5.0),
        stop=StopRule(grad_tol=0.0, max_iters=10**9, max_oracle_calls=200),
    )
    traj = harness.run_experiment(config, out_dir=str(tmp_path))
    run = workloads._driver_run(config, str(tmp_path), 200, delta=config.params.delta)
    return checks.read_rows(run.csv_path), run, traj.terminal_status


def test_a_real_backtracking_trajectory_passes(tmp_path):
    rows, run, status = _backtracking_run(tmp_path)
    assert checks.check_run(rows, run, status) == []


def test_a_step_that_breaks_the_decrease_replay_fails(tmp_path):
    rows, run, status = _backtracking_run(tmp_path)
    i = next(i for i, r in enumerate(rows[:-1]) if r.step > 0.0)
    a, b = rows[i], rows[i + 1]
    # still below the previous value, so only the replay can catch it
    threshold = a.value - run.delta * a.step * a.grad_norm**2
    rows[i + 1] = b._replace(value=(threshold + a.value) / 2.0)
    failures = checks.check_run(rows, run, status)
    assert len(failures) == 1 and "decrease replay" in failures[0]


def test_a_rising_objective_and_a_blown_budget_fail(tmp_path):
    rows, run, status = _backtracking_run(tmp_path)
    rows[-1] = rows[-1]._replace(value=rows[0].value + 1.0)
    tight = dataclasses.replace(run, budget=run.budget - 1)
    failures = checks.check_run(rows, tight, status)
    assert any("rose" in f for f in failures) and any("budget" in f for f in failures)
