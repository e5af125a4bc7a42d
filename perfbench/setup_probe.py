"""Set-up probe: a fresh interpreter runs a workload up to its first oracle call.

    python3 perfbench/setup_probe.py <workload> <seed> <out_dir> <smoke 0|1>

run.py starts this with ``PYTHONPATH`` pointing at ``src/``. At the first
inner-oracle call the probe prints the monotonic clock and exits at once, so
the parent's set-up time covers interpreter start, importing the package,
building the problem and, for the CLI workload, parsing its config.
"""

import os
import sys
import time


def main(workload: str, seed: str, out_dir: str, smoke: str) -> None:
    import workloads
    from holderopt import harness

    build = harness.build_problem

    def stop_at_first_call(field, fn):
        def first_call(*args, **kwargs):
            # straight to fd 1: the CLI workload redirects sys.stdout
            os.write(1, f"{time.perf_counter()!r}\n".encode())
            os._exit(0)

        return first_call

    def build_problem(config):
        problem, x0 = build(config)
        workloads.wrap_oracles(problem, stop_at_first_call)
        return problem, x0

    harness.build_problem = build_problem
    plan = workloads.prepare(workload, int(seed), out_dir, smoke == "1")
    plan.operations[0].call()
    sys.exit("the workload made no oracle call")


if __name__ == "__main__":
    main(*sys.argv[1:])
