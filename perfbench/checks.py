"""Correctness checks on the trajectory CSVs the drivers write.

The CSV holds every value a check needs, written with ``repr`` so it reads
back bit for bit; checking the file rather than the in-memory trajectory
treats the CLI workload like the others.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from holderopt.descent import sufficient_decrease_threshold


class Row(NamedTuple):
    n: int
    calls: int
    value: float
    grad_norm: float
    step: float
    k: int


def read_rows(path) -> list:
    """Rows of a trajectory CSV (either header flavour: f or L in column 3)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    rows = []
    for line in lines:
        n, calls, value, grad_norm, step, k = line.split(",")
        rows.append(Row(int(n), int(calls), float(value), float(grad_norm), float(step), int(k)))
    return rows


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_run(rows: list, run, status) -> list:
    """Failed checks of one driver run; an empty list means it passed.

    ``run`` is a :class:`workloads.DriverRun`; ``status`` the terminal status
    the public call reported for it.
    """
    failures = []
    if not rows:
        return ["trajectory CSV is empty"]
    if status != run.expected_status:
        failures.append(f"terminal status {status!r}, expected {run.expected_status!r}")
    calls = [r.calls for r in rows]
    if calls[-1] > run.budget or any(b < a for a, b in zip(calls, calls[1:])):
        failures.append(f"oracle calls {calls[-1]} exceed the budget {run.budget} or decrease")
    if max(r.k for r in rows) > run.k_max:
        failures.append(f"k reached {max(r.k for r in rows)} > k_max {run.k_max}")
    if run.delta is not None:
        rises = sum(1 for a, b in zip(rows, rows[1:]) if b.value > a.value)
        if rises:
            failures.append(f"objective rose on {rises} backtracking steps")
        broken = [
            a.n
            for a, b in zip(rows, rows[1:])
            if a.step > 0.0 and not b.value <= sufficient_decrease_threshold(a.value, run.delta, a.step, a.grad_norm)
        ]
        if broken:
            failures.append(f"{len(broken)} accepted steps fail the decrease replay, first at n={broken[0]}")
    return failures


def run_counts(rows: list) -> dict:
    """Deterministic per-run counts: they repeat exactly between runs of the same code."""
    return {
        "oracle_calls": rows[-1].calls,
        "accepted_steps": sum(1 for r in rows if r.step > 0.0),
        # net rises of k from 0 across the records; for the monotone drivers,
        # whose k starts at 0 and never falls, this is every increment
        "k_increments": sum(max(0, b.k - a.k) for a, b in zip(rows, rows[1:])) + rows[0].k,
    }
