"""Every demo script, and README's quick tour, runs to completion against the
package in ``src/``, with warnings as errors."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-X", "dev", "-W", "error", *args]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # the comparison demo takes its output directory as its one argument
    args = [str(tmp_path)] if demo.stem == "05_sinkhorn_gan_comparison" else []
    done = run_python([str(demo), *args], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quick_tour_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    done = run_python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("converged ")
    assert (tmp_path / "run.csv").read_text().startswith("n,oracle_calls,f,")
