"""Every demo script runs to completion against the package in ``src/``, with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # the comparison demo takes its output directory as its one argument
    args = [str(tmp_path)] if demo.stem == "05_sinkhorn_gan_comparison" else []
    command = [sys.executable, "-X", "dev", "-W", "error", str(demo), *args]
    done = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
