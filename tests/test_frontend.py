"""Parsing, elaboration, criteria, shaded rendering."""

import pytest
from hypothesis import given, settings, strategies as st

from itml.frontend import (
    CriterionError, ElabError, SourceError, elaborate, parse_and_elaborate,
    parse_criterion, parse_program, render_slice, slice_regions,
)
from itml.interp import eval_comp
from itml.lattice import leq
from itml.oracle import generate_program
from itml.slicer import Criterion, bwd_comp, validate_criterion
from itml.syntax import (
    CApp, CHole, CLet, CRet, EHole, ENum, EUnit, EVar, EMPTY_ENV,
    EMPTY_STORE, Result, VNum, VStr, VUnit, HOLE, VAL, EXN, render_comp,
)

from conftest import program_text


def elab(text):
    return parse_and_elaborate(text)


def run_text(text, **kw):
    core, emap = elab(text)
    return eval_comp(EMPTY_ENV, EMPTY_STORE, core, **kw), core, emap


def test_parse_return_unit():
    core, _ = elab("return ()")
    assert core == CRet(EUnit())


def test_parse_error_has_position():
    with pytest.raises(SourceError) as err:
        parse_program("(1,")
    assert "line 1" in str(err.value)


def test_unbound_variable():
    with pytest.raises(ElabError):
        elab("return nope")


def test_seq_desugars_to_wildcard_let():
    core, _ = elab("return 1 ;; return 2")
    assert isinstance(core, CLet)
    assert core.name.startswith("_")
    assert core.bound == CRet(ENum(1))
    assert core.body == CRet(ENum(2))


def test_while_false_evaluates_to_unit():
    record, _, _ = run_text("while false do return 1")
    assert record.result == Result(VAL, VUnit())


def test_while_loop_counts():
    record, _, _ = run_text(
        "let i = ref 0 in (while !i < 5 do i := !i + 1) ;; !i")
    assert record.result == Result(VAL, VNum(5))


def test_assignment_lifting_preserves_meaning():
    # s := !s + 1 must read, add, then write
    record, _, _ = run_text("let s = ref 41 in (s := !s + 1) ;; !s")
    assert record.result == Result(VAL, VNum(42))


def test_evaluation_order_is_left_to_right():
    text = """
    let log = ref 0 in
    let bump = fun x => (log := !log * 10 + x) ;; return x in
    let p = ((bump 1) + (bump 2), bump 3) in
    !log
    """
    record, _, _ = run_text(text)
    assert record.result == Result(VAL, VNum(123))


def test_raise_string():
    record, _, _ = run_text('raise "boom"')
    assert record.result == Result(EXN, VStr("boom"))


def test_implicit_return_of_pure_tail():
    record, _, _ = run_text("let x = 2 in x + x")
    assert record.result == Result(VAL, VNum(4))


def test_list_literal_encoding():
    record, _, _ = run_text("case [1] of inl u => return 0 | inr c => fst c")
    assert record.result == Result(VAL, VNum(1))
    record, _, _ = run_text("case [] of inl u => return 9 | inr c => fst c")
    assert record.result == Result(VAL, VNum(9))


def test_pattern_lambda():
    record, _, _ = run_text("let f = fun (a, b) => a - b in f (7, 3)")
    assert record.result == Result(VAL, VNum(4))


def test_curried_rec_function():
    record, _, _ = run_text(
        "let pow = rec pow b e => if e == 0 then return 1 else "
        "(let r = pow b (e - 1) in b * r) in pow 2 10")
    assert record.result == Result(VAL, VNum(1024))


def test_fig_style_program_parses_and_runs():
    record, _, _ = run_text(program_text("loop_array.itml"))
    assert record.result == Result(VAL, VUnit())
    x = record.binding("x")
    cell = record.out_store.cell(x.loc)
    assert [cell.get(i).value for i in range(4)] == [0, 0, 2, 2]
    assert record.out_store.get_value(record.binding("i").loc) == VNum(4)
    assert record.out_store.get_value(record.binding("s").loc) == VNum(2)


def test_criterion_parsing():
    record, core, emap = run_text(program_text("loop_array.itml"))
    crit = parse_criterion("!s = 2", record)
    validate_criterion(crit, record)
    assert crit.result == Result(VAL, HOLE)
    assert crit.store.get_value(record.binding("s").loc) == VNum(2)

    crit = parse_criterion("x[3] = 2, !i = _", record)
    assert crit.store.get_elem(record.binding("x").loc, 3) == VNum(2)

    assert parse_criterion("", record) == Criterion(Result(VAL, HOLE), EMPTY_STORE)

    crit = parse_criterion("result = val ()", record)
    assert crit.result == Result(VAL, VUnit())

    with pytest.raises(CriterionError):
        parse_criterion("!zzz = 1", record)
    with pytest.raises(CriterionError):
        parse_criterion("x[9] = 1", record)
    with pytest.raises(CriterionError):
        parse_criterion("x = 1", record)


def test_criterion_exn_pattern():
    record, _, _ = run_text('raise "boom"')
    crit = parse_criterion('result = exn "boom"', record)
    assert crit.result == Result(EXN, VStr("boom"))
    crit = parse_criterion("result = exn _", record)
    assert crit.result == Result(EXN, HOLE)


def test_render_slice_full_hole_shades_everything():
    text = "let x = ref 1 in x := 2"
    record, core, emap = run_text(text)
    out = bwd_comp(Criterion(Result(VAL, HOLE), EMPTY_STORE), record.trace)
    shaded = render_slice(out.program, emap, text)
    assert shaded == f"⟦{text}⟧"


def test_shading_monotone_in_the_criterion():
    text = program_text("loop_array.itml")
    record, core, emap = run_text(text)
    small = bwd_comp(parse_criterion("", record), record.trace)
    big = bwd_comp(parse_criterion("!s = 2, !i = 4, x[3] = 2", record), record.trace)
    assert leq(small.program, big.program)
    covered_small = _covered(slice_regions(small.program, emap))
    covered_big = _covered(slice_regions(big.program, emap))
    assert covered_big <= covered_small


def _covered(regions):
    chars = set()
    for r in regions:
        chars.update(range(r.start, r.end))
    return chars


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=3))
def test_render_parse_round_trip(seed, budget):
    """Rendered core terms re-parse and re-elaborate to themselves (the
    renderer emits A-normal forms, so elaboration has nothing to lift)."""
    core = generate_program(seed, budget)
    text = render_comp(core)
    reparsed, _ = elab(text)
    assert reparsed == core, text


def test_round_trip_with_holes():
    core = CLet("x", CHole(), CRet(EHole()))
    text = render_comp(core)
    reparsed, _ = elab(text)
    assert reparsed == core


def test_admin_names_do_not_collide():
    # the user owning _t1 must not clash with lifted bindings
    text = "let _t1 = ref 1 in (_t1 := !_t1 + 1) ;; !_t1"
    record, _, _ = run_text(text)
    assert record.result == Result(VAL, VNum(2))
