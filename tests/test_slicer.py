"""Forward/backward slicing rules and their round-trip laws."""

import pytest

from itml.interp import DIV_BY_ZERO, eval_comp
from itml.lattice import leq, outcome, writes
from itml.slicer import (
    BackwardSliceOutput, Criterion, ShapeMismatchError, bwd_comp, bwd_expr,
    fwd_comp, fwd_expr, validate_criterion,
)
from itml.syntax import (
    CAssign, CHole, CLet, CRef, CRet, EFst, EHole, ENum, EPair, EPrim, EVar,
    EMPTY_ENV, EMPTY_STORE, Env, Result, ScalarCell, Store, TAssign, TFail,
    THole, VHole, VLoc, VNum, VPair, VStr, VUnit, HOLE, UNIT, VAL, EXN,
)


def test_fwd_expr_hole_propagation():
    # (_ + 1, 1) forward-slices to (_, 1)
    e = EPair(EPrim("+", (EHole(), ENum(1))), ENum(1))
    assert fwd_expr(EMPTY_ENV, e) == VPair(HOLE, VNum(1))
    assert fwd_expr(EMPTY_ENV, EHole()) == HOLE


def test_fwd_expr_projection_of_partial_pair():
    env = Env({"x": VPair(VNum(1), HOLE)})
    from itml.syntax import ESnd
    assert fwd_expr(env, ESnd(EVar("x"))) == HOLE
    assert fwd_expr(env, EFst(EVar("x"))) == VNum(1)


def test_bwd_expr_hole_demand():
    rho, e = bwd_expr(HOLE, EPair(ENum(1), ENum(2)), EMPTY_ENV)
    assert rho == EMPTY_ENV and e == EHole()


def test_bwd_expr_variable_demand():
    rho, e = bwd_expr(VNum(3), EVar("x"), Env({"x": VNum(3)}))
    assert rho == Env({"x": VNum(3)})
    assert e == EVar("x")


def test_bwd_expr_projection_demand():
    # demanding (_, 4) of (1, fst (1,2) + 3) keeps only the addition chain
    e = EPair(ENum(1), EPrim("+", (EFst(EPair(ENum(1), ENum(2))), ENum(3))))
    rho, sliced = bwd_expr(VPair(HOLE, VNum(4)), e, EMPTY_ENV)
    assert rho == EMPTY_ENV
    assert sliced == EPair(
        EHole(),
        EPrim("+", (EFst(EPair(ENum(1), EHole())), ENum(3))),
    )


def test_bwd_expr_rejects_non_prefix_demand():
    with pytest.raises(ShapeMismatchError):
        bwd_expr(VNum(5), ENum(3), EMPTY_ENV)


def _ref_assign_run():
    m = CLet("x", CRef(ENum(1)), CAssign(EVar("x"), ENum(2)))
    return eval_comp(EMPTY_ENV, EMPTY_STORE, m)


def test_fwd_trace_hole_erases_and_tags():
    run = _ref_assign_run()
    store = Store({0: ScalarCell(VNum(2))})
    hole = THole(frozenset([0]), VAL)
    out_store, res = fwd_comp(EMPTY_ENV, store, run.program, hole)
    assert out_store == EMPTY_STORE  # location 0 erased
    assert res == Result(VAL, HOLE)


def test_fwd_comp_hole_uses_trace_writes():
    run = _ref_assign_run()
    store = Store({0: ScalarCell(VNum(2)), 9: ScalarCell(VNum(7))})
    out_store, res = fwd_comp(EMPTY_ENV, store, CHole(), run.trace)
    assert out_store == Store({9: ScalarCell(VNum(7))})
    assert res == Result(VAL, HOLE)


def test_fwd_assign_with_holed_target():
    # target unknown: the recorded cell is clobbered, unit result survives
    run = _ref_assign_run()
    assign_trace = run.trace.body
    assert isinstance(assign_trace, TAssign)
    store = Store({0: ScalarCell(VNum(1))})
    out_store, res = fwd_comp(
        Env({"x": HOLE}), store, CAssign(EHole(), ENum(2)), assign_trace)
    assert out_store == EMPTY_STORE
    assert res == Result(VAL, UNIT)


def test_fwd_full_inputs_reproduce_run():
    run = _ref_assign_run()
    out_store, res = fwd_comp(run.env, run.store, run.program, run.trace)
    assert out_store == run.out_store and res == run.result


def test_bwd_empty_criterion_collapses_to_annotated_hole():
    run = _ref_assign_run()
    crit = Criterion(Result(VAL, HOLE), EMPTY_STORE)
    out = bwd_comp(crit, run.trace)
    assert out.env == EMPTY_ENV
    assert out.store == EMPTY_STORE
    assert out.program == CHole()
    assert out.trace == THole(writes(run.trace), outcome(run.trace))


def test_bwd_store_demand_keeps_assignment():
    run = _ref_assign_run()
    crit = Criterion(Result(VAL, HOLE), Store({0: ScalarCell(VNum(2))}))
    validate_criterion(crit, run)
    out = bwd_comp(crit, run.trace)
    # the literal 2 and the assignment survive; the initializer is elided
    assert out.program == CLet("x", CRef(EHole()), CAssign(EVar("x"), ENum(2)))
    assert out.store == EMPTY_STORE
    assert out.env == EMPTY_ENV
    assert leq(out.trace, run.trace)


def test_bwd_assign_degenerate_case():
    # unit result demanded, target cell not: the assignment collapses to
    # _ := _ (it reproduces val () with everything elided)
    run = _ref_assign_run()
    crit = Criterion(Result(VAL, UNIT), EMPTY_STORE)
    out = bwd_comp(crit, run.trace)
    assert out.program == CLet("x", CHole(), CAssign(EHole(), EHole()))
    store, res = fwd_comp(out.env, out.store, out.program, out.trace)
    assert res == Result(VAL, UNIT)


def test_validate_criterion():
    run = _ref_assign_run()
    validate_criterion(Criterion(Result(VAL, HOLE), EMPTY_STORE), run)
    with pytest.raises(ShapeMismatchError):
        validate_criterion(Criterion(Result(VAL, VNum(3)), EMPTY_STORE), run)
    with pytest.raises(ShapeMismatchError):
        validate_criterion(Criterion(Result(EXN, HOLE), EMPTY_STORE), run)
    with pytest.raises(ShapeMismatchError):
        validate_criterion(
            Criterion(Result(VAL, HOLE), Store({0: ScalarCell(VNum(9))})), run)


def test_bwd_division_failure_demands_both_operands():
    m = CLet("y", CRet(ENum(0)), CRet(EPrim("/", (ENum(6), EVar("y")))))
    run = eval_comp(EMPTY_ENV, EMPTY_STORE, m)
    assert run.result == Result(EXN, DIV_BY_ZERO)
    crit = Criterion(Result(EXN, DIV_BY_ZERO), EMPTY_STORE)
    out = bwd_comp(crit, run.trace)
    assert out.program == CLet(
        "y", CRet(ENum(0)), CRet(EPrim("/", (ENum(6), EVar("y")))))
    # and the slice really re-raises under fwd
    store, res = fwd_comp(out.env, out.store, out.program, out.trace)
    assert res == Result(EXN, DIV_BY_ZERO)
    # with only the outcome demanded, everything collapses
    out2 = bwd_comp(Criterion(Result(EXN, HOLE), EMPTY_STORE), run.trace)
    assert out2.program == CHole()
    assert out2.trace == THole(frozenset(), EXN)


def test_galois_round_trips_on_a_run():
    run = _ref_assign_run()
    crit = Criterion(Result(VAL, HOLE), Store({0: ScalarCell(VNum(2))}))
    out = bwd_comp(crit, run.trace)
    # consistency: fwd(bwd(Y)) >= Y
    store, res = fwd_comp(out.env, out.store, out.program, out.trace)
    assert leq(crit.store, store) and leq(crit.result, res)
    # output is a prefix of the originals
    assert leq(out.env, run.env) and leq(out.store, run.store)
    assert leq(out.program, run.program) and leq(out.trace, run.trace)


def test_fwd_outcome_always_matches_trace():
    m = CLet("x", CRet(ENum(4)), CRet(EPrim("/", (EVar("x"), ENum(2)))))
    run = eval_comp(EMPTY_ENV, EMPTY_STORE, m)
    for prog in (run.program, CHole()):
        _, res = fwd_comp(EMPTY_ENV, EMPTY_STORE, prog, run.trace)
        assert res.outcome == outcome(run.trace)


def test_fwd_program_trace_shape_mismatch_raises():
    run = _ref_assign_run()
    with pytest.raises(ShapeMismatchError):
        fwd_comp(EMPTY_ENV, EMPTY_STORE, CRet(ENum(1)), run.trace)


def test_bwd_rejects_a_reloaded_dump():
    # dumps carry no environment decorations, which backward slicing reads
    from itml.frontend import parse_and_elaborate, parse_criterion
    from itml.interp import dump_trace, load_trace
    from conftest import program_text

    core, _ = parse_and_elaborate(program_text("loop_array.itml"))
    run = eval_comp(EMPTY_ENV, EMPTY_STORE, core)
    with pytest.raises(ShapeMismatchError, match="no environment decorations"):
        bwd_comp(parse_criterion("!s = 2", run), load_trace(dump_trace(run.trace)))
