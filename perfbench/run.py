#!/usr/bin/env python3
"""Benchmark of itml: one workload in one process.

    python3 perfbench/run.py --workload array_build --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; itml is imported from its src/.
After a timed set-up (imports and inputs made from --seed) the workload
runs rounds of the same operations on a large-stack worker thread until
--seconds are used, checking every output.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: with --trace 0 the end-to-end metrics (medians over rounds),
with --trace 1 the per-layer metrics, which also go, with per-program
samples, to perfbench/out/<workload>.json.  See perfbench/README.md.
"""

import time

_START = time.perf_counter()  # set-up is timed from the first statement

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("array_build", "gauss", "oracle_corpus")

# Eval, slicing and dumps recurse once per dynamic nesting level.
STACK_BYTES = 512 * 1024 * 1024
RECURSION_LIMIT = 1_000_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def on_worker(fn, *args):
    """Run fn on a fresh thread with a large stack; re-raise its error here."""
    box: dict = {}

    def work():
        sys.setrecursionlimit(RECURSION_LIMIT)
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # re-raised on the calling thread
            box["error"] = exc

    old = threading.stack_size(STACK_BYTES)
    try:
        thread = threading.Thread(target=work, name="perfbench")
        thread.start()
        thread.join()
    finally:
        threading.stack_size(old)
    if "error" in box:
        raise box["error"]
    return box["value"]


def run_rounds(workload, seconds: float, detail: bool) -> list:
    """Whole rounds until the next one would take the time measured inside
    timed calls past `seconds`; at least one.  Checks are not counted."""
    from workloads import Round

    rounds = []
    measured = 0.0
    while True:
        gc.collect()
        rnd = Round(detail)
        workload.round(rnd, len(rounds), True)
        rounds.append(rnd)
        measured += rnd.busy
        if measured + rnd.busy > seconds:
            return rounds


def profiled_round(workload):
    """The first round's operations again, under cProfile, unchecked."""
    from workloads import Round

    gc.collect()
    rnd = Round(True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        workload.round(rnd, 0, False)
    finally:
        profiler.disable()
    profiler.create_stats()
    return rnd, profiler.stats


def end_to_end(rounds: list, setup_s: float) -> dict:
    from workloads import ROUND_METRICS, round_metrics

    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    values = round_metrics(rounds)
    for name, unit in ROUND_METRICS.items():
        metrics[name] = {"value": values[name], "unit": unit}
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MB"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "itml" / "__init__.py").is_file():
        print(f"perfbench: no itml sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ITML_STEP_LIMIT", None)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_wall = time.perf_counter() - _START
    speed = workloads.PROBE_REF_S / statistics.median(workloads.probe() for _ in range(3))
    setup_s = setup_wall * speed

    rounds = on_worker(run_rounds, workload, args.seconds, bool(args.trace))
    done = list(rounds)
    if args.trace:
        import layers

        profiled, stats = on_worker(profiled_round, workload)
        done.append(profiled)
        metrics = layers.per_layer(rounds, profiled, stats)
        OUT.mkdir(exist_ok=True)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "rounds": len(rounds),
            "setup_wall_s": setup_wall,
            "end_to_end": end_to_end(rounds, setup_s),
            "per_layer": metrics,
            "samples": [
                {"round": i, "stage": stage, "trace_nodes": size, "seconds": seconds}
                for i, r in enumerate(rounds) for stage, size, seconds in r.samples
            ],
        }
        (OUT / f"{args.workload}.json").write_text(json.dumps(report, indent=1) + "\n")
    else:
        metrics = end_to_end(rounds, setup_s)

    wrong = [msg for r in done for msg in r.wrong]
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r.attempted for r in done),
        "failed": sum(r.failed for r in done),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
