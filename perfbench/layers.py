"""Per-layer numbers for the traced run.

The layers are itml's modules.  Their times come from two sources, both
outside the program: the benchmark's own timing of each public call
(workloads.Round.call), and one extra round run under cProfile, whose
self times and call counts are added up per module file.  A function
that lives outside the itml package (a built-in, or a dataclass-generated
__init__/__eq__) is charged, call by call, to the itml module that called
it.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import statistics
from pathlib import Path
from typing import Optional

import itml
from itml.syntax import THole, Trace

MODULES = ("frontend", "interp", "slicer", "lattice", "syntax", "oracle")
PACKAGE_DIR = Path(itml.__file__).resolve().parent

# Call counters keyed on functions, as (metric, module, dotted name) for one
# function or (metric, module, name prefix + "*") for every top-level
# function of the module with that prefix.  A name that no longer resolves
# is reported absent.
FUNCTION_COUNTERS = (
    ("lattice.writes_contains_calls", "itml.lattice", "WritesIndex.contains"),
    ("syntax.arraycell_set_calls", "itml.syntax", "ArrayCell.set"),
    ("lattice.meet_calls", "itml.lattice", "meet*"),
    ("lattice.join_calls", "itml.lattice", "join*"),
    ("lattice.leq_calls", "itml.lattice", "leq*"),
)

# (metric, stage): median over the unprofiled rounds of the seconds spent in
# that stage's public calls.
STAGE_TIMES = (
    ("frontend.parse_s", "parse"),
    ("frontend.elaborate_s", "elaborate"),
    ("frontend.criterion_s", "criterion"),
    ("frontend.shade_s", "shade"),
    ("interp.eval_s", "eval"),
    ("interp.dump_s", "dump"),
    ("interp.load_s", "load"),
    ("slicer.bwd_s", "bwd"),
    ("slicer.bwd_dense_s", "bwd_dense"),
    ("slicer.fwd_s", "fwd"),
    ("slicer.fwd_loaded_s", "fwd_loaded"),
    ("oracle.generate_s", "generate"),
    ("oracle.adjunction_s", "adjunction"),
    ("oracle.minimality_s", "minimality"),
)

# (metric, stage): log-log slope of a stage's seconds against the trace
# nodes of the run it worked on, over the workload's programs.
SCALING = (
    ("interp.eval_exp", "eval"),
    ("interp.dump_exp", "dump"),
    ("slicer.bwd_exp", "bwd"),
    ("slicer.fwd_exp", "fwd"),
)

# (metric, unit, counter): median over the unprofiled rounds of a work count.
COUNTERS = (
    ("interp.trace_nodes", "count", "trace_nodes"),
    ("interp.dump_bytes", "bytes", "dump_bytes"),
    ("slicer.kept_nodes", "count", "kept_nodes"),
    ("oracle.lattice_points", "count", "lattice_points"),
)


def count_nodes(trace) -> tuple:
    """(nodes, holes) of a trace, walked without recursion."""
    nodes = holes = 0
    stack = [trace]
    while stack:
        t = stack.pop()
        nodes += 1
        if isinstance(t, THole):
            holes += 1
        for f in dataclasses.fields(t):
            child = getattr(t, f.name)
            if isinstance(child, Trace):
                stack.append(child)
    return nodes, holes


def loglog_slope(points: list) -> Optional[float]:
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    xs = [x for x, _ in pts]
    if len(set(xs)) < 2:
        return None
    mx = statistics.fmean(xs)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _module_of(filename: str) -> Optional[str]:
    path = Path(filename)
    if path.suffix != ".py" or path.stem not in MODULES:
        return None
    return path.stem if path.resolve().parent == PACKAGE_DIR else None


def per_module(stats: dict) -> dict:
    """Self seconds and calls per itml module from cProfile stats
    (key -> (primitive calls, calls, self s, cumulative s, callers))."""
    self_s = dict.fromkeys(MODULES, 0.0)
    calls = dict.fromkeys(MODULES, 0)
    modules = {}
    for key in stats:
        if key[0] not in modules:
            modules[key[0]] = _module_of(key[0])
    for key, (_cc, nc, tt, _ct, callers) in stats.items():
        module = modules[key[0]]
        if module is not None:
            self_s[module] += tt
            calls[module] += nc
            continue
        for caller, (c_nc, _c_cc, c_tt, _c_ct) in callers.items():
            module = modules.get(caller[0]) or _module_of(caller[0])
            if module is not None:
                self_s[module] += c_tt
                calls[module] += c_nc
    return {"self_s": self_s, "calls": calls}


def _resolve(module_name: str, dotted: str) -> list:
    """The functions a counter names; empty if the name no longer resolves."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if dotted.endswith("*"):
        prefix = dotted[:-1]
        return [fn for name, fn in vars(module).items()
                if name.startswith(prefix) and inspect.isfunction(fn)
                and fn.__module__ == module_name]
    target = module
    for part in dotted.split("."):
        target = getattr(target, part, None)
        if target is None:
            return []
    return [target] if inspect.isfunction(target) else []


def function_calls(stats: dict) -> dict:
    """Calls per FUNCTION_COUNTERS entry; None where the name is gone."""
    by_site = {(key[0], key[1]): nc for key, (_cc, nc, *_rest) in stats.items()}
    out = {}
    for metric, module_name, dotted in FUNCTION_COUNTERS:
        fns = _resolve(module_name, dotted)
        if not fns:
            out[metric] = None
            continue
        out[metric] = sum(
            by_site.get((fn.__code__.co_filename, fn.__code__.co_firstlineno), 0)
            for fn in fns)
    return out


def per_layer(rounds: list, profiled, stats: dict) -> dict:
    """Every per-layer metric as {"value", "unit"} (value None and an
    "absent" note when it cannot be computed)."""
    out = {}

    def put(name: str, unit: str, value, why: str = "") -> None:
        if value is None:
            out[name] = {"value": None, "unit": unit, "absent": why}
        else:
            out[name] = {"value": value, "unit": unit}

    for name, stage in STAGE_TIMES:
        put(name, "s", statistics.median([r.stage[stage] for r in rounds]))
    for name, unit, key in COUNTERS:
        put(name, unit, statistics.median([r.count[key] for r in rounds]))

    eval_s = out["interp.eval_s"]["value"]
    nodes = out["interp.trace_nodes"]["value"]
    put("interp.eval_nodes_per_s", "nodes/s", nodes / eval_s if eval_s else None,
        "no eval in this workload")
    points = out["oracle.lattice_points"]["value"]
    check_s = out["oracle.adjunction_s"]["value"] + out["oracle.minimality_s"]["value"]
    put("oracle.points_per_s", "1/s", points / check_s if check_s else None,
        "no oracle checks in this workload")

    samples = [s for r in rounds for s in r.samples]
    for name, stage in SCALING:
        slope = loglog_slope([(size, sec) for st, size, sec in samples if st == stage])
        put(name, "1", slope, f"fewer than two sizes for stage {stage}")

    calls = function_calls(stats)
    for name, module, dotted in FUNCTION_COUNTERS:
        put(name, "count", calls[name], f"{module}.{dotted} not found")

    modules = per_module(stats)
    for module in MODULES:
        put(f"{module}.self_s", "s", modules["self_s"][module])
        put(f"{module}.calls", "count", modules["calls"][module])

    # The profiled round repeats the operations of the first round.
    put("bench.trace_overhead_s", "s", profiled.timed - rounds[0].timed)
    return out
