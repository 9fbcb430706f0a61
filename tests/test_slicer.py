"""Forward/backward slicing rules and their round-trip laws."""

import tracemalloc

import pytest

from itml.cli import run_deep
from itml.frontend import parse_and_elaborate
from itml.interp import DIV_BY_ZERO, eval_comp
from itml.lattice import leq, outcome, writes
from itml.slicer import (
    BackwardSliceOutput, Criterion, ShapeMismatchError, bwd_comp, bwd_expr,
    fwd_comp, fwd_expr, validate_criterion,
)
from itml.syntax import (
    ArrayCell, CArrSet, CAssign, CHole, CLet, CRef, CRet, EFst, EHole, ENum,
    EPair, EPrim, EVar, EMPTY_ENV, EMPTY_STORE, Env, Result, ScalarCell,
    Store, TAssign, TFail, THole, VArr, VHole, VLoc, VNum, VPair, VStr, VUnit,
    HOLE, UNIT, VAL, EXN,
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


MU = Store({0: ScalarCell(VNum(5)), 1: ArrayCell(2, {0: VNum(1), 1: VNum(2)})})


def _fwd_hole(store, keys):
    out_store, res = fwd_comp(EMPTY_ENV, store, CHole(), THole(frozenset(keys), VAL))
    assert res == Result(VAL, HOLE)
    return out_store


def test_fwd_hole_erases_its_write_set():
    assert _fwd_hole(MU, []) == MU
    # a scalar key `loc` erases a scalar cell
    assert _fwd_hole(MU, [0]) == Store({1: ArrayCell(2, {0: VNum(1), 1: VNum(2)})})
    # an element key `(loc, i)` erases one array element
    erased = _fwd_hole(MU, [(1, 1)])
    assert erased.get_elem(1, 1) == HOLE
    assert erased.get_elem(1, 0) == VNum(1)
    assert _fwd_hole(erased, [(1, 1)]) == erased  # idempotent
    # keys of unrelated locations, or of the other cell kind, erase nothing
    assert _fwd_hole(MU, [7, (8, 0), (0, 0), 1]) == MU


def _array_write_run():
    # a[0] <- 1 ; a[2] <- 2 over an input array #0 of three zeros
    store = Store({0: ArrayCell(3, dict.fromkeys(range(3), VNum(0))),
                   1: ScalarCell(VNum(9))})
    m = CLet("u", CArrSet(EVar("a"), ENum(0), ENum(1)),
             CArrSet(EVar("a"), ENum(2), ENum(2)))
    return eval_comp(Env({"a": VArr(0, 3)}), store, m)


def test_fwd_leaves_its_input_store_alone():
    run = _array_write_run()
    cells = dict(run.store.cells())
    items = {loc: dict(c.items) for loc, c in cells.items() if isinstance(c, ArrayCell)}
    replayed = fwd_comp(run.env, run.store, run.program, run.trace)
    assert replayed == (run.out_store, run.result)
    # a hole erases the elements the run wrote, keeping the one it did not
    out_store, _ = fwd_comp(run.env, run.store, CHole(), run.trace)
    assert out_store == Store({0: ArrayCell(3, {1: VNum(0)}), 1: ScalarCell(VNum(9))})
    # an array whose every element is erased is absent from the output
    out_store = _fwd_hole(run.store, [(0, 0), (0, 1), (0, 2)])
    assert 0 not in out_store.locs()
    rebuilt = Store(dict(out_store.cells()))
    assert out_store == rebuilt and hash(out_store) == hash(rebuilt)
    assert out_store == Store({1: ScalarCell(VNum(9))})
    # none of these calls touched the input store or its item dicts
    assert dict(run.store.cells()) == cells
    for loc, cell in run.store.cells():
        if isinstance(cell, ArrayCell):
            assert cell is cells[loc] and cell.items == items[loc]


def test_fwd_replays_a_zero_length_array():
    core, _ = parse_and_elaborate("let a = array(0, 1) in a")
    run = eval_comp(EMPTY_ENV, EMPTY_STORE, core)
    assert fwd_comp(run.env, run.store, run.program, run.trace) == (run.out_store, run.result)


def test_fwd_array_build_memory_is_linear():
    # replay owns one working store: element writes do not copy the array
    # and nested rules do not hold stores of their own
    n = 400
    core, _ = parse_and_elaborate(
        f"let a = array({n}, 0) in\n"
        f"let i = ref 0 in\n"
        f"(while !i < {n} do\n"
        f"  a[!i] <- !i * 2 ;;\n"
        f"  i := !i + 1\n"
        f") ;;\n"
        f"!i\n")
    run = run_deep(eval_comp, EMPTY_ENV, EMPTY_STORE, core, 10**6)
    tracemalloc.start()
    try:
        replayed = run_deep(fwd_comp, run.env, run.store, run.program, run.trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert replayed == (run.out_store, run.result)
    assert peak < 2 * 2**20, f"fwd_comp peaked at {peak / 2**20:.1f} MiB"


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
    from itml.frontend import parse_criterion
    from itml.interp import dump_trace, load_trace
    from conftest import program_text

    core, _ = parse_and_elaborate(program_text("loop_array.itml"))
    run = eval_comp(EMPTY_ENV, EMPTY_STORE, core)
    with pytest.raises(ShapeMismatchError, match="no environment decorations"):
        bwd_comp(parse_criterion("!s = 2", run), load_trace(dump_trace(run.trace)))
