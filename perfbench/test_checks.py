"""Tests of the benchmark's own checks: each must reject a corrupted output.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.setrecursionlimit(20_000)

import itml.oracle  # noqa: E402
from itml.frontend import parse_and_elaborate, parse_criterion  # noqa: E402
from itml.interp import dump_trace, eval_comp, load_trace  # noqa: E402
from itml.lattice import writes  # noqa: E402
from itml.oracle import check_adjunction, check_minimality_all, generate_run  # noqa: E402
from itml.slicer import BackwardSliceOutput, bwd_comp, fwd_comp  # noqa: E402
from itml.syntax import EMPTY_ENV, EMPTY_STORE, TArrSet, THole, Trace, VNum  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

FACTOR = 3


def _run(text: str):
    core, _emap = parse_and_elaborate(text)
    return eval_comp(EMPTY_ENV, EMPTY_STORE, core, workloads.STEP_LIMIT)


@pytest.fixture(scope="module")
def array_run():
    return _run(workloads.array_build_text(6, FACTOR, -1))


def _with_elem(run, loc: int, index: int, value):
    return dataclasses.replace(run, out_store=run.out_store.set_elem(loc, index, value))


def test_array_build_check_rejects_a_flipped_element(array_run):
    checks.check_array_build(array_run, 6, FACTOR)
    loc = array_run.binding("a").loc
    flipped = _with_elem(array_run, loc, 4, VNum(-4 * FACTOR))
    with pytest.raises(CheckFailed, match=r"a\[4\]"):
        checks.check_array_build(flipped, 6, FACTOR)


def test_gauss_check_rejects_a_wrong_solution_entry():
    rng = random.Random(7)
    a, b = workloads.gauss_system(rng, 3)
    a2, b2 = workloads.zero_pivot_system(rng, a, b)
    solve, pairs = workloads.gauss_texts(a, b, a2, b2)
    expected = checks.gauss_reference(a, b)
    run = _run(solve)
    checks.check_solution(run, expected)
    wrong = _with_elem(run, run.result.value.loc, 1, VNum(expected[1] + 2.0 ** -40))
    with pytest.raises(CheckFailed, match=r"x\[1\]"):
        checks.check_solution(wrong, expected)
    with pytest.raises(ZeroDivisionError):
        checks.gauss_reference(a2, b2)
    checks.check_raises(_run(pairs), workloads.DIV_BY_ZERO)
    with pytest.raises(CheckFailed):
        checks.check_raises(run, workloads.DIV_BY_ZERO)


def _hole_first(t: Trace, pick) -> Trace:
    """t with its first node (in preorder) satisfying `pick` replaced by a
    hole that keeps the node's write set and outcome."""
    found = [False]

    def walk(node):
        if found[0]:
            return node
        if pick(node):
            found[0] = True
            return THole(writes(node), node.k)
        changes = {f.name: walk(getattr(node, f.name)) for f in dataclasses.fields(node)
                   if isinstance(getattr(node, f.name), Trace)}
        return dataclasses.replace(node, **changes) if changes else node

    out = walk(t)
    assert found[0], "no node to replace"
    return out


def test_sufficiency_check_rejects_a_slice_with_a_demanded_node_holed(array_run):
    loc = array_run.binding("a").loc
    criterion = parse_criterion(f"a[3] = {3 * FACTOR}, !i = 6", array_run)
    out = bwd_comp(criterion, array_run.trace)
    checks.check_sufficient(criterion, out)
    checks.check_below_inputs(out, array_run)
    holed = dataclasses.replace(out, trace=_hole_first(
        out.trace, lambda t: isinstance(t, TArrSet) and (t.loc, t.at) == (loc, 3)))
    with pytest.raises(CheckFailed, match="does not cover"):
        checks.check_sufficient(criterion, holed)


def test_join_check_rejects_a_part_slice_that_is_too_big(array_run):
    parts = [bwd_comp(parse_criterion(c, array_run), array_run.trace)
             for c in (f"a[3] = {3 * FACTOR}", "!i = 6")]
    whole = bwd_comp(parse_criterion(f"a[3] = {3 * FACTOR}, !i = 6", array_run), array_run.trace)
    checks.check_join(parts, whole)
    full = BackwardSliceOutput(*checks.run_inputs(array_run))
    with pytest.raises(CheckFailed):
        checks.check_join([parts[0], full], whole)


def test_minimality_check_rejects_the_full_inputs_as_a_slice(monkeypatch):
    run = next(r for r in map(generate_run, range(100)) if workloads.band_of(r) >= 2)
    checks.check_oracle_verdicts(check_adjunction(run), check_minimality_all(run))
    checks.check_lattice_size(run)
    full = BackwardSliceOutput(*checks.run_inputs(run))
    monkeypatch.setattr(itml.oracle, "bwd_comp", lambda criterion, trace: full)
    with pytest.raises(CheckFailed, match="minimality"):
        checks.check_oracle_verdicts(None, check_minimality_all(run))


def test_replay_and_roundtrip_checks_reject_other_outputs(array_run):
    got = fwd_comp(array_run.env, array_run.store, array_run.program, array_run.trace)
    checks.check_replay(got, array_run)
    loc = array_run.binding("a").loc
    with pytest.raises(CheckFailed, match="store"):
        checks.check_replay((got[0].set_elem(loc, 0, VNum(1)), got[1]), array_run)
    loaded = load_trace(dump_trace(array_run.trace))
    checks.check_roundtrip(loaded, array_run.trace)
    with pytest.raises(CheckFailed):
        checks.check_roundtrip(_hole_first(loaded, lambda t: isinstance(t, TArrSet)),
                               array_run.trace)


def test_a_counter_whose_function_is_gone_is_reported_absent(monkeypatch):
    counters = layers.FUNCTION_COUNTERS + (("lattice.gone_calls", "itml.lattice", "NoSuch.fn"),)
    monkeypatch.setattr(layers, "FUNCTION_COUNTERS", counters)
    calls = layers.function_calls({})
    assert calls["lattice.gone_calls"] is None
    assert calls["lattice.writes_contains_calls"] == 0


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gauss", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
