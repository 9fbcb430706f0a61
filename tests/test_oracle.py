"""The brute-force oracle itself, plus generator contracts."""

import random

import pytest

from itml.frontend import parse_and_elaborate
from itml.interp import eval_comp
from itml.lattice import CapExceededError, leq
from itml.oracle import (
    Counterexample, brute_force_bwd, check_adjunction, check_join_preservation,
    check_meet_preservation, check_minimality, check_minimality_all,
    enumerate_outputs, generate_program, generate_run, input_lattice_size,
)
from itml.slicer import Criterion, bwd_comp
from itml.syntax import (
    CAssign, CLet, CRef, CRet, ENum, EUnit, EVar, EMPTY_ENV, EMPTY_STORE,
    Result, ScalarCell, Store, VNum, HOLE, VAL,
)


def _ref_assign_run():
    m = CLet("x", CRef(ENum(1)), CAssign(EVar("x"), ENum(2)))
    return eval_comp(EMPTY_ENV, EMPTY_STORE, m)


def test_brute_force_matches_slicer_on_store_demand():
    run = _ref_assign_run()
    crit = Criterion(Result(VAL, HOLE), Store({0: ScalarCell(VNum(2))}))
    minimum = brute_force_bwd(run, crit)
    fast = bwd_comp(crit, run.trace)
    assert (minimum.env, minimum.store, minimum.program, minimum.trace) == \
        (fast.env, fast.store, fast.program, fast.trace)
    # the minimum retains the literal 2 and the assignment, holes elsewhere
    from itml.syntax import EHole
    assert minimum.program == CLet("x", CRef(EHole()), CAssign(EVar("x"), ENum(2)))


def test_brute_force_consistency():
    run = _ref_assign_run()
    from itml.slicer import fwd_comp
    for store, res in enumerate_outputs(run):
        crit = Criterion(res, store)
        minimum = brute_force_bwd(run, crit)
        out_store, out_res = fwd_comp(
            minimum.env, minimum.store, minimum.program, minimum.trace)
        assert leq(store, out_store) and leq(res, out_res)


def test_empty_criterion_minimum_is_bottom():
    run = eval_comp(EMPTY_ENV, EMPTY_STORE, CRet(ENum(42)))
    crit = Criterion(Result(VAL, HOLE), EMPTY_STORE)
    minimum = brute_force_bwd(run, crit)
    from itml.syntax import CHole, THole
    assert minimum.program == CHole()
    assert isinstance(minimum.trace, THole)
    assert check_adjunction(run) is None


def test_cap_exceeded():
    run = generate_run(3)
    with pytest.raises(CapExceededError):
        brute_force_bwd(run, Criterion(Result(run.result.outcome, HOLE), EMPTY_STORE), cap=2)


def test_generator_budget_zero():
    assert generate_program(0, 0) == CRet(EUnit())


def test_generator_programs_evaluate():
    for seed in range(80):
        program = generate_program(seed, 1 + seed % 4)
        record = eval_comp(EMPTY_ENV, EMPTY_STORE, program)  # no StuckError
        assert record.result.outcome in ("val", "exn")


def test_generated_runs_fit_cap():
    for seed in range(30):
        run = generate_run(seed)
        assert input_lattice_size(run) <= 4096


def test_fault_injection_is_caught():
    """A deliberately wrong backward slicer must produce a counterexample."""
    import itml.oracle as oracle_mod

    run = _ref_assign_run()
    real_bwd = oracle_mod.bwd_comp

    def broken_bwd(criterion, trace):
        out = real_bwd(criterion, trace)
        # pretend nothing is ever needed
        from itml.slicer import BackwardSliceOutput
        from itml.syntax import CHole, THole, EMPTY_ENV as EE
        from itml.lattice import writes, outcome
        return BackwardSliceOutput(
            EE, criterion.store, CHole(), THole(writes(trace), outcome(trace)))

    oracle_mod.bwd_comp = broken_bwd
    try:
        cx = check_adjunction(run)
    finally:
        oracle_mod.bwd_comp = real_bwd
    assert isinstance(cx, Counterexample)
    assert cx.kind == "adjunction"


def test_check_minimality_single_criterion():
    run = _ref_assign_run()
    crit = Criterion(Result(VAL, HOLE), Store({0: ScalarCell(VNum(2))}))
    assert check_minimality(run, crit) is None


def test_adjunction_implies_minimality_cross_check():
    # standard Galois fact, asserted on a couple of runs
    for seed in (0, 7, 21):
        run = generate_run(seed)
        assert check_adjunction(run) is None
        assert check_minimality_all(run) is None


def test_preservation_checks_pass():
    rng = random.Random(5)
    for seed in (2, 9, 33):
        run = generate_run(seed)
        assert check_meet_preservation(run, rng, 20) is None
        assert check_join_preservation(run, rng, 15) is None


def test_an_elided_array_read_is_not_a_write():
    """Slicing for a[0] drops the read y = a[0]: a read changes no store.
    The input lattice (6561 points) is above the generator's cap."""
    core, _emap = parse_and_elaborate("let a = array(1, 7) in let y = a[0] in ()")
    run = eval_comp(EMPTY_ENV, EMPTY_STORE, core)
    assert check_minimality_all(run, cap=10**6) is None
