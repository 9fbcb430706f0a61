"""Traced evaluation: rules, determinism, exceptions, dumps."""

import pytest

from itml.interp import (
    DIV_BY_ZERO, DUMP_FORMAT, NEG_LENGTH, OUT_OF_BOUNDS, ExnSignal, StuckError,
    TraceParseError, apply_prim, dump_trace, eval_comp, eval_expr, load_trace,
    locate_failure, replay_check,
)
from itml.lattice import outcome, writes
from itml.syntax import (
    CApp, CArrGet, CArrMake, CArrSet, CAssign, CCase, CDeref, CHole, CIf, CLet,
    CRaise, CRef, CRet, CTry, EBool, EFun, EFst, EHole, EInl, EInr, ENum, EPair,
    EPrim, ESnd, EStr, EUnit, EVar, EMPTY_ENV, EMPTY_STORE, Env, Result,
    ScalarCell, Store, TApp, TArrGet, TArrMake, TArrSet, TAssign, TCaseInl,
    TCaseInr, TDeref, TFail, THole, TIfFalse, TIfTrue, TLetFail, TLetSucc,
    TRaise, TRef, TRet, TTryFail, TTrySucc, VArr, VBool, VClosure, VLoc, VNum,
    VPair, VStr, VUnit, HOLE, UNIT, VAL, EXN, term_children,
)


def run(m, env=EMPTY_ENV, store=EMPTY_STORE, **kw):
    return eval_comp(env, store, m, **kw)


def test_eval_expr_projection():
    assert eval_expr(EMPTY_ENV, EFst(EPair(ENum(1), ENum(2)))) == VNum(1)


def test_eval_expr_env():
    env = Env({"x": VNum(3)})
    assert eval_expr(env, EPair(EVar("x"), EVar("x"))) == VPair(VNum(3), VNum(3))


def test_eval_expr_closure_captures_env():
    env = Env({"y": VNum(1)})
    v = eval_expr(env, EFun("f", "x", CRet(EVar("y"))))
    assert v == VClosure(env, "f", "x", CRet(EVar("y")))


def test_eval_expr_stuck():
    with pytest.raises(StuckError):
        eval_expr(EMPTY_ENV, EVar("nope"))
    with pytest.raises(StuckError):
        eval_expr(EMPTY_ENV, EFst(ENum(1)))
    with pytest.raises(StuckError):
        eval_expr(EMPTY_ENV, EPrim("+", (ENum(1), EBool(True))))
    with pytest.raises(StuckError):
        eval_expr(EMPTY_ENV, EPrim("+", (ENum(1), ENum(1.0))))


def test_division_signals_not_stuck():
    with pytest.raises(ExnSignal):
        eval_expr(EMPTY_ENV, EPrim("/", (ENum(1), ENum(0))))
    assert apply_prim("/", [VNum(7), VNum(2)]) == VNum(3)
    assert apply_prim("/", [VNum(-7), VNum(2)]) == VNum(-3)  # truncation
    assert apply_prim("/", [VNum(1.0), VNum(4.0)]) == VNum(0.25)


def test_ret_unit():
    record = run(CRet(EUnit()))
    assert record.result == Result(VAL, UNIT)
    assert record.out_store == EMPTY_STORE
    assert record.trace == record.trace


def test_ref_assign_deref():
    m = CLet("x", CRef(ENum(1)),
             CLet("_", CAssign(EVar("x"), ENum(2)), CDeref(EVar("x"))))
    record = run(m)
    assert record.result == Result(VAL, VNum(2))
    assert record.out_store == Store({0: ScalarCell(VNum(2))})
    assert record.alloc_log == (0,)


def test_exceptions_flow_through_let_and_try():
    failing = CLet("x", CRaise(EStr("boom")), CRet(ENum(1)))
    record = run(failing)
    assert record.result == Result(EXN, VStr("boom"))
    caught = CTry(failing, "e", CRet(EVar("e")))
    record = run(caught)
    assert record.result == Result(VAL, VStr("boom"))


def test_try_wrapping_always_succeeds():
    for m in (CRaise(EStr("x")), CRet(ENum(1)),
              CRet(EPrim("/", (ENum(1), ENum(0))))):
        record = run(CTry(m, "e", CRet(EVar("e"))))
        assert record.result.outcome == VAL


def test_division_by_zero_gives_fail_trace():
    record = run(CRet(EPrim("/", (ENum(1), ENum(0)))))
    assert record.result == Result(EXN, DIV_BY_ZERO)
    assert isinstance(record.trace, TFail)
    assert record.trace.path == ("expr", 0)
    assert writes(record.trace) == frozenset()
    assert outcome(record.trace) == EXN


def test_failure_path_locates_nested_division():
    e = EPair(ENum(5), EPrim("+", (ENum(1), EPrim("/", (ENum(1), ENum(0))))))
    record = run(CRet(e))
    assert record.trace.path == ("expr", 0, 1, 1)
    assert locate_failure(EMPTY_ENV, CRet(e)) == ("expr", 0, 1, 1)


def test_array_semantics():
    m = CLet("a", CArrMake(ENum(3), ENum(7)),
             CLet("_", CArrSet(EVar("a"), ENum(1), ENum(9)),
                  CArrGet(EVar("a"), ENum(1))))
    record = run(m)
    assert record.result == Result(VAL, VNum(9))
    cell = record.out_store.cell(0)
    assert [cell.get(i) for i in range(3)] == [VNum(7), VNum(9), VNum(7)]


def test_array_out_of_bounds_raises():
    m = CLet("a", CArrMake(ENum(2), ENum(0)), CArrGet(EVar("a"), ENum(5)))
    record = run(m)
    assert record.result == Result(EXN, OUT_OF_BOUNDS)


def test_array_negative_length_raises():
    record = run(CArrMake(ENum(-1), ENum(0)))
    assert record.result == Result(EXN, NEG_LENGTH)
    assert record.trace.path == ("check",)


def test_application_and_recursion_limit():
    loop = EFun("f", "x", CApp(EVar("f"), EVar("x")))
    with pytest.raises(StuckError):
        run(CApp(loop, ENum(0)), step_limit=64)


def test_if_requires_boolean():
    with pytest.raises(StuckError):
        run(CIf(ENum(1), CRet(ENum(1)), CRet(ENum(2))))


def test_determinism():
    m = CLet("x", CRef(ENum(1)),
             CLet("_", CAssign(EVar("x"), EPrim("+", (ENum(1), ENum(1)))),
                  CDeref(EVar("x"))))
    r1, r2 = run(m), run(m)
    assert r1 == r2


def test_replay_check_and_tampering():
    m = CLet("x", CRef(ENum(1)), CAssign(EVar("x"), ENum(2)))
    record = run(m)
    assert replay_check(record)
    import dataclasses
    tampered = dataclasses.replace(record, out_store=Store({0: ScalarCell(VNum(9))}))
    assert not replay_check(tampered)


def test_top_bindings_recorded():
    m = CLet("x", CRef(ENum(1)), CLet("y", CRet(ENum(5)), CRet(EVar("y"))))
    record = run(m)
    assert record.binding("x") == VLoc(0)
    assert record.binding("y") == VNum(5)
    assert record.binding("zzz") is None


def test_trace_dump_round_trip():
    m = CLet("a", CArrMake(ENum(2), ENum(0)),
             CLet("x", CRef(EStr("s")),
                  CTry(CRaise(ENum(1.5)), "e",
                       CIf(EBool(True), CArrSet(EVar("a"), ENum(0), ENum(3)),
                           CRet(EUnit())))))
    record = run(m)
    text = dump_trace(record.trace)
    assert load_trace(text) == record.trace
    # holes with annotations round-trip too
    hole = THole(frozenset([0, (1, 2)]), EXN)
    assert load_trace(dump_trace(hole)) == hole


def test_trace_dump_is_stable():
    m = CLet("x", CRef(ENum(1)), CDeref(EVar("x")))
    assert dump_trace(run(m).trace) == dump_trace(run(m).trace)
    assert dump_trace(run(m).trace) == "(let-s x\n  (ref #0 1)\n  (deref #0 (var x)))"


def _lets(bound: list, body):
    for name, t in reversed(bound):
        body = TLetSucc(name, t, body)
    return body


def _every_dumped_class():
    """A trace with every class of the dump format and every literal,
    including escapes, a float, negative ints, both kinds of location key
    and both kinds of failure path."""
    fn = EFun("f", "x", CLet(
        "n", CArrMake(ENum(2), EUnit()),
        CCase(EVar("x"), "l", CRet(EHole()), "r",
              CIf(EBool(False), CHole(),
                  CTry(CRaise(EStr('say "hi" \\ bye')), "e",
                       CLet("c", CRef(ENum(-3)),
                            CLet("_", CAssign(EVar("c"), ENum(2.5)),
                                 CLet("_", CDeref(EVar("c")), CApp(EVar("f"), EVar("x"))))))))))
    pair = EPair(EFst(EVar("p")), ESnd(EInl(EInr(EUnit()))))
    div = EPair(ENum(1), EPrim("/", (ENum(1), ENum(0))))
    hole = THole(frozenset({1, (0, 1), (0, 0), 0}), VAL)
    handler = TApp(EVar("f"), EVar("a"), "f", "x", TCaseInr(
        EVar("x"), "l", "r", TIfFalse(EPrim("not", (EBool(True),)), TLetSucc(
            "_", TFail(CArrGet(EVar("a"), ENum(9)), ("check",)), TRaise(EStr("bad"))))))
    return _lets([
        ("f", TRet(fn)),
        ("a", TArrMake(0, 2, ENum(2), ENum(-1))),
        ("_", TArrSet(EVar("a"), ENum(1), 0, 1, pair)),
        ("r", TRef(1, EPrim("+", (ENum(1), ENum(-2))))),
        ("_", TAssign(EVar("r"), 1, ENum(0.5))),
        ("v", TDeref(1, EVar("r"))),
        ("g", TArrGet(EVar("a"), ENum(0), 0, 0)),
        ("_", TTrySucc(TIfTrue(EBool(True), TCaseInl(EVar("s"), "l", hole, "r")), "e")),
    ], TTryFail(TLetFail(TFail(CArrSet(EVar("a"), ENum(0), div), ("expr", 2, 1)), "z"),
                "e", handler))


EVERY_CLASS_DUMP = (
    '(let-s f\n'
    '  (ret (fun f x (let n (arr-make 2 (unit)) (case (var x) l (ret _) r (if false _ '
    '(try (raise "say \\"hi\\" \\\\ bye") e (let c (ref -3) (let _ (assign (var c) 2.5) '
    '(let _ (deref (var c)) (app (var f) (var x)))))))))))\n'
    '  (let-s a\n'
    '    (arr-make #0 2 2 -1)\n'
    '    (let-s _\n'
    '      (arr-set (var a) 1 #0 1 (pair (fst (var p)) (snd (inl (inr (unit))))))\n'
    '      (let-s r\n'
    '        (ref #1 (prim + 1 -2))\n'
    '        (let-s _\n'
    '          (assign (var r) #1 0.5)\n'
    '          (let-s v\n'
    '            (deref #1 (var r))\n'
    '            (let-s g\n'
    '              (arr-get (var a) 0 #0 0)\n'
    '              (let-s _\n'
    '                (try-s e\n'
    '                  (if-t true\n'
    '                    (case-l (var s) l r\n'
    '                      (hole (#0 #0[0] #0[1] #1) val))))\n'
    '                (try-f e\n'
    '                  (let-f z\n'
    '                    (fail (expr 2 1) (arr-set (var a) 0 (pair 1 (prim / 1 0)))))\n'
    '                  (app (var f) (var a) f x\n'
    '                    (case-r (var x) l r\n'
    '                      (if-f (prim not true)\n'
    '                        (let-s _\n'
    '                          (fail (check) (arr-get (var a) 9))\n'
    '                          (raise "bad"))))))))))))))'
)


def test_dump_format_covers_every_class():
    t = _every_dumped_class()
    seen, stack = set(), [t]
    while stack:
        node = stack.pop()
        seen.add(type(node))
        stack.extend(term_children(node))
    assert set(DUMP_FORMAT) | {EHole, CHole, EBool, ENum, EStr} <= seen
    text = dump_trace(t)
    assert text == EVERY_CLASS_DUMP
    assert load_trace(text) == t


@pytest.mark.parametrize("text", [
    "(ret", "()", "(let-s x)", "(arr-make #0 x 1 2)", "(ret 1e)", "(ret 1 2)",
    "(hole () weird)", "(fail (expr x) (ret 1))", "(fail (expr 5) (ret 1))",
    "(fail () (ret 1))", "(ret (prim + 1))", "(arr-make #0 -2 2 0)",
])
def test_malformed_dump_raises_parse_error(text):
    with pytest.raises(TraceParseError):
        load_trace(text)
