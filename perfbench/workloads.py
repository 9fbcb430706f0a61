"""The benchmark's workloads: inputs made from a seed, and rounds of timed
operations through itml's public functions.

A workload object is built once per process from the seed; building it is
the timed set-up.  Each round then performs the same list of operations,
one per program: the steps of `itml run`, `itml slice`, replay, `itml
trace` + `itml fwd`, and `itml oracle`, each public call timed on its own.
The outputs are checked as they come (see checks.py); the checks are not
timed, and the costly ones run in the first round only, since later rounds
repeat the same computation (on oracle_corpus, each round checks a new
batch in full).
"""

from __future__ import annotations

import random
import statistics
import sys
import traceback
from collections import defaultdict
from time import perf_counter

from itml.frontend import elaborate, parse_criterion, parse_program, render_slice
from itml.interp import dump_trace, eval_comp, load_trace
from itml.oracle import (
    check_adjunction, check_minimality_all, generate_run, input_lattice_size,
    output_lattice_size,
)
from itml.slicer import Criterion, bwd_comp, fwd_comp, validate_criterion
from itml.syntax import EMPTY_ENV, EMPTY_STORE

import checks
from layers import count_nodes

# Explicit fuel for eval_comp, so that ITML_STEP_LIMIT plays no part.
STEP_LIMIT = 10**6

# Machine-speed probe.  On a shared host the speed of the whole machine
# drifts (by up to 1.5x within a minute on the 2-core host of the README,
# for itml and for plain Python loops alike), far more than any repetition
# inside one run can average out.  So before each operation the benchmark
# times a fixed loop of dict stores and small allocations, which shares no
# code with itml, and scales that operation's times by PROBE_REF_S / probe:
# a time is reported in seconds of a machine on which the probe takes
# PROBE_REF_S, its median on that host.  On five minutes of recorded
# array_build rounds, scaling each operation by its own probe cut the
# spread between 20-second windows from 15-30 % to 5-9 %; scaling whole
# rounds or whole windows did worse.
PROBE_REF_S = 0.0021
PROBE_ITERATIONS = 18_000


def probe() -> float:
    """Seconds for the probe loop: the fastest of three tries, so that a
    single interruption does not count as a slow machine."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        cells: dict = {}
        for i in range(PROBE_ITERATIONS):
            cells[i & 1023] = (i, [i])
        best = min(best, perf_counter() - t0)
    return best


# End-to-end metrics a round yields (seconds summed over its programs,
# except oracle throughput).
ROUND_METRICS = {
    "run_s": "s",
    "explain_s": "s",
    "explain_dense_s": "s",
    "replay_s": "s",
    "roundtrip_s": "s",
    "oracle_runs_per_s": "runs/s",
}


class Round:
    """What one round measured: seconds per public call (by stage), seconds
    per end-to-end metric and operation slot, work counters, and (with
    `detail`) per-program samples (stage, trace nodes, seconds) for the
    scaling fits.  Every round of a workload has the same slots: slot i is
    the i-th operation of the round.  Seconds are scaled by the machine
    speed probed before each operation, except `busy`, the wall-clock
    seconds spent inside timed calls."""

    def __init__(self, detail: bool):
        self.detail = detail
        self.stage: dict = defaultdict(float)
        self.by_slot: dict = defaultdict(float)
        self.count: dict = defaultdict(int)
        self.samples: list = []
        self.busy = 0.0
        self.timed = 0.0
        self.speed = 1.0
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []

    def call(self, stage: str, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        wall = perf_counter() - t0
        seconds = wall * self.speed
        self.stage[stage] += seconds
        self.busy += wall
        self.timed += seconds
        return out, seconds

    def size(self, trace) -> int:
        """Trace nodes, counted only when the per-layer report needs them."""
        if not self.detail:
            return 0
        nodes, _holes = count_nodes(trace)
        return nodes

    def sample(self, stage: str, size: int, seconds: float) -> None:
        if self.detail:
            self.samples.append((stage, size, seconds))

    def add(self, metric: str, seconds: float) -> None:
        """Charge seconds to an end-to-end metric for the current operation."""
        self.by_slot[metric, self.attempted - 1] += seconds

    def op(self, fn, *args) -> None:
        """One operation: a program through its pipeline.  An exception
        counts it failed; a failed check marks the round wrong."""
        self.attempted += 1
        self.speed = PROBE_REF_S / probe()
        try:
            fn(self, *args)
        except checks.CheckFailed as exc:
            self.wrong.append(str(exc))
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
        except Exception:  # noqa: BLE001 - any crash of itml is a failed operation
            self.failed += 1
            traceback.print_exc(file=sys.stderr)


def round_metrics(rounds: list) -> dict:
    """Each end-to-end metric over a run's rounds: the per-slot median over
    the rounds, summed over the slots, so that a burst of load during one
    round moves only the slots it overlapped.  Oracle throughput is the
    oracle runs of a round over the summed medians of their seconds."""
    def summed_median(metric: str) -> float:
        slots = {slot for r in rounds for (m, slot) in r.by_slot if m == metric}
        return sum(statistics.median(r.by_slot.get((metric, slot), 0.0) for r in rounds)
                   for slot in slots)

    out = {name: summed_median(name) for name in ROUND_METRICS if name != "oracle_runs_per_s"}
    out["oracle_runs_per_s"] = rounds[0].count["oracle_runs"] / summed_median("oracle_s")
    return out


# ---------------------------------------------------------------------------
# Pipeline steps shared by the workloads.

def traced_eval(rnd: Round, env, store, program):
    """eval_comp with explicit fuel; returns (run, trace nodes, seconds)."""
    run, seconds = rnd.call("eval", eval_comp, env, store, program, STEP_LIMIT)
    size = rnd.size(run.trace)
    rnd.sample("eval", size, seconds)
    rnd.count["trace_nodes"] += size
    return run, size, seconds


def run_source(rnd: Round, text: str):
    """What `itml run` does: parse, elaborate, traced eval."""
    surface, t_parse = rnd.call("parse", parse_program, text)
    (core, emap), t_elab = rnd.call("elaborate", elaborate, surface)
    run, size, t_eval = traced_eval(rnd, EMPTY_ENV, EMPTY_STORE, core)
    seconds = t_parse + t_elab + t_eval
    rnd.add("run_s", seconds)
    return emap, run, size, seconds


def _criterion(make, run):
    criterion = make(run)
    validate_criterion(criterion, run)
    return criterion


def dense_criterion(run) -> Criterion:
    """The whole final store plus the result."""
    return Criterion(run.result, run.out_store)


def explain(rnd: Round, stage: str, run, size: int, make, emap=None, text=None):
    """Criterion, backward slice and, for source programs, the shaded text:
    what `itml slice` does after the run.  Returns (criterion, slice, seconds)."""
    criterion, t_crit = rnd.call("criterion", _criterion, make, run)
    out, t_bwd = rnd.call(stage, bwd_comp, criterion, run.trace)
    rnd.sample(stage, size, t_bwd)
    t_shade = 0.0
    if text is not None:
        _shaded, t_shade = rnd.call("shade", render_slice, out.program, emap, text)
    if rnd.detail and stage == "bwd":
        nodes, holes = count_nodes(out.trace)
        rnd.count["kept_nodes"] += nodes - holes
    return criterion, out, t_crit + t_bwd + t_shade


def _same_outputs(got: tuple, run) -> bool:
    return got == (run.out_store, run.result)


def replay(rnd: Round, run, size: int) -> None:
    """fwd_comp of the full inputs along the in-memory trace, compared with
    the recorded outputs (what replay_check does)."""
    got, t_fwd = rnd.call("fwd", fwd_comp, run.env, run.store, run.program, run.trace)
    rnd.sample("fwd", size, t_fwd)
    same, t_cmp = rnd.call("compare", _same_outputs, got, run)
    rnd.add("replay_s", t_fwd + t_cmp)
    if not same:
        checks.check_replay(got, run)


def roundtrip(rnd: Round, run, size: int, check: bool) -> None:
    """What `itml trace` then `itml fwd` do: dump, load, replay the load."""
    text, t_dump = rnd.call("dump", dump_trace, run.trace)
    rnd.sample("dump", size, t_dump)
    loaded, t_load = rnd.call("load", load_trace, text)
    got, t_fwd = rnd.call("fwd_loaded", fwd_comp, run.env, run.store, run.program, loaded)
    same, t_cmp = rnd.call("compare", _same_outputs, got, run)
    rnd.add("roundtrip_s", t_dump + t_load + t_fwd + t_cmp)
    rnd.count["dump_bytes"] += len(text.encode("utf-8"))
    if not same:
        checks.check_replay(got, run)
    if check:
        checks.check_roundtrip(loaded, run.trace)


def oracle_run(rnd: Round, seed: int, check: bool):
    """What `itml oracle` does for one seed: generate the run, then check
    exhaustive adjunction and exact minimality at the default cap."""
    run, t_gen = rnd.call("generate", generate_run, seed)
    adjunction, t_adj = rnd.call("adjunction", check_adjunction, run)
    minimality, t_min = rnd.call("minimality", check_minimality_all, run)
    rnd.add("oracle_s", t_gen + t_adj + t_min)
    rnd.count["oracle_runs"] += 1
    if rnd.detail:
        rnd.count["lattice_points"] += input_lattice_size(run) * output_lattice_size(run)
    checks.check_oracle_verdicts(adjunction, minimality)
    if check:
        checks.check_lattice_size(run)
    return run


# ---------------------------------------------------------------------------
# Generated oracle corpora, stratified by lattice size.
#
# The cost of checking a run grows with |input lattice| x |output lattice|,
# which spans four orders of magnitude across seeds.  A plain seed range
# would let a few heavy runs decide the throughput, so each batch takes a
# fixed number of runs from each band of floor(log2(|in| x |out|)), in
# about the proportions the generator produces them, from a stream of
# consecutive seeds.

BANDS = ((0, 6), (7, 8), (9, 10), (11, 11), (12, 12), (13, 13), (14, 10**9))
CORPUS_MIX = (7, 3, 4, 2, 4, 1, 1)
CALIBRATION_MIX = (2, 1, 1, 1, 1, 0, 0)


def band_of(run) -> int:
    log2 = (input_lattice_size(run) * output_lattice_size(run)).bit_length() - 1
    return next(i for i, (lo, hi) in enumerate(BANDS) if lo <= log2 <= hi)


def stratified_seeds(start: int, mix: tuple) -> tuple:
    """The first seeds from `start` on that fill `mix`, ordered by band (so
    that slot i of every batch holds a run of the same band); returns them
    with the next unused seed."""
    picked: list = [[] for _ in mix]
    seed = start
    while any(len(p) < want for p, want in zip(picked, mix)):
        band = band_of(generate_run(seed))
        if len(picked[band]) < mix[band]:
            picked[band].append(seed)
        seed += 1
    return [s for p in picked for s in p], seed


def calibration_seeds() -> list:
    """A small fixed batch (from seed 0) that gives oracle_runs_per_s on the
    workloads whose own programs are far over the oracle's lattice cap."""
    return stratified_seeds(0, CALIBRATION_MIX)[0]


# ---------------------------------------------------------------------------
# array_build: the array-build loop of scripts/perf_smoke.py.

def array_build_text(n: int, factor: int, fill: int) -> str:
    return (
        f"let a = array({n}, {fill}) in\n"
        f"let i = ref 0 in\n"
        f"(while !i < {n} do\n"
        f"  a[!i] <- !i * {factor} ;;\n"
        f"  i := !i + 1\n"
        f") ;;\n"
        f"!i\n"
    )


class ArrayBuild:
    """Long, write-only, deeply nested runs.  The ladder gets the sparse
    slice `a[n/2], !i` and a replay; the small rungs get the dense slice
    and the dump round trip, both superlinear today."""

    LADDER = (500, 1000, 2000)
    SMALL = (100, 150)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.factor = rng.randint(2, 9)
        fill = -rng.randint(1, 99)
        self.texts = {n: array_build_text(n, self.factor, fill) for n in self.LADDER + self.SMALL}
        self.calibration = calibration_seeds()

    def round(self, rnd: Round, index: int, check: bool) -> None:
        first = check and index == 0
        for n in self.LADDER:
            rnd.op(self._sparse, n, first)
        for n in self.SMALL:
            rnd.op(self._dense, n, first)
        for seed in self.calibration:
            rnd.op(oracle_run, seed, first)

    def _sparse(self, rnd: Round, n: int, first: bool) -> None:
        text = self.texts[n]
        emap, run, size, t_run = run_source(rnd, text)
        checks.check_array_build(run, n, self.factor)
        mid = n // 2
        element, counter = f"a[{mid}] = {mid * self.factor}", f"!i = {n}"
        both = f"{element}, {counter}"
        criterion, out, t_explain = explain(
            rnd, "bwd", run, size, lambda r: parse_criterion(both, r), emap, text)
        rnd.add("explain_s", t_run + t_explain)
        replay(rnd, run, size)
        if first:
            checks.check_sufficient(criterion, out)
            checks.check_below_inputs(out, run)
            if n == self.LADDER[0]:
                parts = [bwd_comp(parse_criterion(c, run), run.trace) for c in (element, counter)]
                checks.check_join(parts, out)

    def _dense(self, rnd: Round, n: int, first: bool) -> None:
        text = self.texts[n]
        emap, run, size, t_run = run_source(rnd, text)
        checks.check_array_build(run, n, self.factor)
        criterion, out, t_explain = explain(
            rnd, "bwd_dense", run, size, dense_criterion, emap, text)
        rnd.add("explain_dense_s", t_run + t_explain)
        roundtrip(rnd, run, size, first)
        if first:
            checks.check_sufficient(criterion, out)
            checks.check_below_inputs(out, run)


# ---------------------------------------------------------------------------
# gauss: the paper's Gaussian elimination (tests/programs/gauss.itml) on
# generated k x k systems.

GAUSS_MAP = """\
let map = rec map f => fun l =>
  case l of
    inl u => return (inl ())
  | inr c =>
      let h = fst c in
      let t = snd c in
      let r = f h in
      let rest = map f t in
      return (inr (r, rest))
in
"""

GAUSS_FUN = """\
let gauss = rec gauss a => fun b =>
  let dia = ref 0 in
  (while !dia < n do
    let row = ref (!dia + 1) in
    (while !row < n do
      let tmp = a[!row][!dia] / a[!dia][!dia] in
      let col = ref (!dia + 1) in
      (while !col < n do
        a[!row][!col] <- a[!row][!col] - tmp * a[!dia][!col] ;;
        col := !col + 1
      ) ;;
      a[!row][!dia] <- 0.0 ;;
      b[!row] <- b[!row] - tmp * b[!dia] ;;
      row := !row + 1
    ) ;;
    dia := !dia + 1
  ) ;;
  let row = ref (n - 1) in
  let x = array(n, 0.0) in
  (while !row >= 0 do
    let tmp = ref b[!row] in
    let j = ref (n - 1) in
    (while !j > !row do
      tmp := !tmp - x[!j] * a[!row][!j] ;;
      j := !j - 1
    ) ;;
    x[!row] <- !tmp / a[!row][!row] ;;
    row := !row - 1
  ) ;;
  return x
in
"""

DIV_BY_ZERO = "division by zero"


def _literal(values: list) -> str:
    return "[| " + ", ".join(repr(v) for v in values) + " |]"


def gauss_system(rng: random.Random, k: int) -> tuple:
    """Integer-valued float entries; strictly diagonally dominant rows, so
    every pivot of the elimination is non-zero."""
    a = [[float(rng.randint(-5, 5)) for _ in range(k)] for _ in range(k)]
    for i, row in enumerate(a):
        off = sum(abs(v) for j, v in enumerate(row) if j != i)
        row[i] = rng.choice((-1.0, 1.0)) * (off + rng.randint(1, 5))
    b = [float(rng.randint(-20, 20)) for _ in range(k)]
    return a, b


def zero_pivot_system(rng: random.Random, a: list, b: list) -> tuple:
    """A copy of (a, b) whose row 1 starts with c times row 0, for a small
    integer c.  The first elimination step then computes tmp = c and
    a[1][1] = c*a[0][1] - c*a[0][1], exactly 0.0, so the next division by
    the pivot a[1][1] raises."""
    c = float(rng.choice((-3, -2, 2, 3)))
    a2 = [list(row) for row in a]
    a2[1][0] = c * a[0][0]
    a2[1][1] = c * a[0][1]
    return a2, list(b)


def gauss_texts(a: list, b: list, a2: list, b2: list) -> tuple:
    """The solvable form (`gauss as bs`) and the paper's two-system form."""
    defs = (f"let n = {len(b)} in\n"
            f"let as = [| {', '.join(_literal(row) for row in a)} |] in\n"
            f"let bs = {_literal(b)} in\n")
    solve = defs + GAUSS_FUN + "gauss as bs\n"
    pairs = (GAUSS_MAP + defs
             + f"let as' = [| {', '.join(_literal(row) for row in a2)} |] in\n"
             + f"let bs' = {_literal(b2)} in\n"
             + GAUSS_FUN + "map (fun (a, b) => gauss a b) [ (as, bs), (as', bs') ]\n")
    return solve, pairs


class Gauss:
    """Nested loops, closures, floats and exceptions; arrays are read far
    more often than written.  Each size runs a solvable system and the
    paper's two-system form, whose second system raises at a zero pivot."""

    LADDER = (3, 4, 5, 6)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.systems = {}
        for k in self.LADDER:
            a, b = gauss_system(rng, k)
            a2, b2 = zero_pivot_system(rng, a, b)
            solution = checks.gauss_reference(a, b)
            try:
                checks.gauss_reference(a2, b2)
            except ZeroDivisionError:
                pass
            else:
                raise AssertionError("the zero-pivot system did not reach a zero pivot")
            self.systems[k] = gauss_texts(a, b, a2, b2) + (solution,)
        self.calibration = calibration_seeds()

    def round(self, rnd: Round, index: int, check: bool) -> None:
        first = check and index == 0
        for k in self.LADDER:
            rnd.op(self._solve, k, first)
            rnd.op(self._explain, k, first)
        for seed in self.calibration:
            rnd.op(oracle_run, seed, first)

    def _solve(self, rnd: Round, k: int, _first: bool) -> None:
        text, _pairs, solution = self.systems[k]
        _emap, run, size, _t_run = run_source(rnd, text)
        checks.check_solution(run, solution)
        replay(rnd, run, size)

    def _explain(self, rnd: Round, k: int, first: bool) -> None:
        _solve, text, _solution = self.systems[k]
        emap, run, size, t_run = run_source(rnd, text)
        checks.check_raises(run, DIV_BY_ZERO)
        want = f'result = exn "{DIV_BY_ZERO}"'
        criterion, out, t_explain = explain(
            rnd, "bwd", run, size, lambda r: parse_criterion(want, r), emap, text)
        rnd.add("explain_s", t_run + t_explain)
        dense, dense_out, t_dense = explain(
            rnd, "bwd_dense", run, size, dense_criterion, emap, text)
        rnd.add("explain_dense_s", t_run + t_dense)
        replay(rnd, run, size)
        roundtrip(rnd, run, size, first)
        if first:
            checks.check_sufficient(criterion, out)
            checks.check_sufficient(dense, dense_out)
            checks.check_below(checks.slice_parts(out), checks.slice_parts(dense_out),
                               "the exn slice is not below the dense slice")


# ---------------------------------------------------------------------------
# oracle_corpus: generated runs through every stage, and the oracle.

class OracleCorpus:
    """Thousands of tiny lattice enumerations, meets, joins and leq tests;
    the trace-scale mechanisms (write index, deep recursion, array copies)
    do almost nothing.  Each round takes the next stratified batch from the
    seed's stream of generator seeds."""

    BATCHES = 12

    def __init__(self, seed: int):
        start = seed * 100_000
        self.batches = []
        for _ in range(self.BATCHES):
            picked, start = stratified_seeds(start, CORPUS_MIX)
            self.batches.append(picked)

    def round(self, rnd: Round, index: int, check: bool) -> None:
        fresh = check and index < len(self.batches)
        batch = self.batches[index % len(self.batches)]
        for seed in batch:
            rnd.op(self._check, seed, fresh)

    def _check(self, rnd: Round, seed: int, fresh: bool) -> None:
        generated = oracle_run(rnd, seed, fresh)
        run, size, t_eval = traced_eval(rnd, generated.env, generated.store, generated.program)
        rnd.add("run_s", t_eval)
        checks.require(run == generated, f"seed {seed}: a second eval differs from the first")
        criterion, out, t_explain = explain(
            rnd, "bwd", run, size, lambda r: Criterion(r.result, EMPTY_STORE))
        rnd.add("explain_s", t_eval + t_explain)
        dense, dense_out, t_dense = explain(rnd, "bwd_dense", run, size, dense_criterion)
        rnd.add("explain_dense_s", t_eval + t_dense)
        replay(rnd, run, size)
        roundtrip(rnd, run, size, fresh)
        if fresh:
            checks.check_sufficient(criterion, out)
            checks.check_sufficient(dense, dense_out)


WORKLOADS = {
    "array_build": ArrayBuild,
    "gauss": Gauss,
    "oracle_corpus": OracleCorpus,
}
