#!/usr/bin/env python3
"""One pass of the array-build pipeline at chosen sizes, stage by stage.

    python3 perfbench/ladder.py --sizes 1000,3000 --dense 100,400

For each size in --sizes: parse + elaborate + eval, the sparse slice
`a[n/2], !i` and a replay; for each size in --dense: the dense slice.
Prints one line per size with probe-scaled seconds per stage (see
workloads.py) and the process's peak RSS so far.  This reproduces, through
the benchmark's own pipeline code, single rows at sizes the timed
workloads do not run; it checks outputs like the array_build workload.
"""

import argparse
import resource
import sys

from run import SRC, on_worker

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402
from itml.frontend import parse_criterion  # noqa: E402

FACTOR = 2


def one(n: int, dense: bool) -> str:
    rnd = workloads.Round(False)
    rnd.speed = workloads.PROBE_REF_S / workloads.probe()
    text = workloads.array_build_text(n, FACTOR, -1)
    emap, run, size, _t_run = workloads.run_source(rnd, text)
    checks.check_array_build(run, n, FACTOR)
    if dense:
        criterion, out, _t = workloads.explain(
            rnd, "bwd_dense", run, size, workloads.dense_criterion, emap, text)
    else:
        want = f"a[{n // 2}] = {n // 2 * FACTOR}, !i = {n}"
        criterion, out, _t = workloads.explain(
            rnd, "bwd", run, size, lambda r: parse_criterion(want, r), emap, text)
        workloads.replay(rnd, run, size)
    checks.check_sufficient(criterion, out)
    stages = " ".join(f"{k} {v:.3f}s" for k, v in rnd.stage.items())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return f"n={n} {'dense' if dense else 'sparse'}: {stages}  peak RSS {peak:.0f} MB"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", default="1000,3000")
    parser.add_argument("--dense", default="100,400")
    args = parser.parse_args()
    jobs = [(int(n), False) for n in args.sizes.split(",") if n]
    jobs += [(int(n), True) for n in args.dense.split(",") if n]
    for n, dense in jobs:
        print(on_worker(one, n, dense), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
