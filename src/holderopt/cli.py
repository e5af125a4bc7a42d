"""Command-line entry point for single runs and multi-algorithm comparisons.

Examples:

    holderopt --problem sqrt --algo backtrack_holder --out runs
    holderopt --config exp.cfg --seed 7 --out runs
    holderopt --problem sinkhorn_gan --algo "constant:0.05,nonmonotone_holder" --out runs

A ``sinkhorn_gan`` run whose config sets neither ``max_iters`` nor
``max_oracle_calls`` stops after 300 oracle calls, the paper's comparison budget.

With several comma-separated algorithms the runs share problem, seed, and
parameters, and a comparison SVG is written next to the per-run CSVs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .harness import compare_and_plot, load_config, run_experiment
from .problems import RunError


def _summary(run_id: str, traj) -> str:
    last = traj.records[-1]
    return (
        f"{run_id}: status={traj.terminal_status} iterations={last.n} "
        f"oracle_calls={int(last.oracle_calls)} objective={last.f_value:.6g}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="holderopt",
        description="Run backtracking-descent experiments and write CSV/SVG outputs.",
    )
    parser.add_argument("--config", metavar="PATH", help="flat key = value config file")
    parser.add_argument("--out", metavar="DIR", default="runs", help="output directory (default: runs)")
    parser.add_argument("--seed", metavar="U64", type=int, help="override the seed")
    parser.add_argument(
        "--algo",
        metavar="NAME",
        help="algorithm, or comma-separated list for a comparison plot "
        "(constant takes an optional step as constant:0.05)",
    )
    parser.add_argument("--problem", metavar="ID", help="problem id (e.g. sqrt, quadratic_saddle:8, sinkhorn_gan)")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, seed=args.seed, problem=args.problem)
        algos = [a.strip() for a in args.algo.split(",") if a.strip()] if args.algo else [config.algorithm]
        if not algos:
            raise ValueError("--algo must name at least one algorithm")

        if len(algos) == 1:
            config = dataclasses.replace(config, algorithm=algos[0])
            traj = run_experiment(config, out_dir=args.out)
            print(_summary(config.run_id(), traj))
        else:
            configs = [dataclasses.replace(config, algorithm=a) for a in algos]
            svg_path = os.path.join(args.out, "comparison.svg")
            results = compare_and_plot(configs, svg_path, out_dir=args.out)
            for run_id, traj in results:
                print(_summary(run_id, traj))
            print(f"wrote {svg_path}")
    except (ValueError, KeyError, OSError, RunError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
