"""Cross-cutting properties: elaboration semantics, monotonicity, trace
faithfulness, span provenance."""

import random

from hypothesis import given, settings, strategies as st

from itml.frontend import parse_and_elaborate
from itml.interp import eval_comp, replay_check
from itml.lattice import (
    PrefixWitness, enumerate_prefixes, leq, outcome, writes,
)
from itml.oracle import generate_run
from itml.slicer import Criterion, bwd_comp, fwd_comp
from itml.syntax import (
    EMPTY_ENV, EMPTY_STORE, Result, ScalarCell, ArrayCell, VNum, HOLE, VAL,
    term_children,
)

from conftest import program_text


# ---------------------------------------------------------------------------
# Elaboration preserves meaning on straight-line programs: compare against
# an independent direct-style interpreter over the surface syntax.

def _direct_eval(stmts, final):
    """Reference evaluator for the straight-line subset: variables hold
    ints; refs are a name->int table; expressions are (op, a, b) trees."""
    env: dict = {}
    cells: dict = {}

    def ev(e):
        kind = e[0]
        if kind == "lit":
            return e[1]
        if kind == "var":
            return env[e[1]]
        if kind == "get":
            return cells[e[1]]
        a, b = ev(e[2]), ev(e[3])
        return {"+": a + b, "-": a - b, "*": a * b}[e[1]]

    for stmt in stmts:
        kind = stmt[0]
        if kind == "let":
            env[stmt[1]] = ev(stmt[2])
        elif kind == "ref":
            cells[stmt[1]] = ev(stmt[2])
        elif kind == "set":
            cells[stmt[1]] = ev(stmt[2])
    return ev(final), dict(cells)


def _straight_line_program(rng):
    """Random straight-line surface text plus its reference-evaluator form."""
    stmts = []
    text = []
    ints, refs = [], []
    for i in range(rng.randint(1, 6)):
        name = f"v{i}"

        def expr(depth=2):
            choices = ["lit"]
            if ints:
                choices.append("var")
            if refs:
                choices.append("get")
            if depth > 0:
                choices += ["op", "op"]
            match rng.choice(choices):
                case "lit":
                    n = rng.randint(0, 9)
                    return ("lit", n), str(n)
                case "var":
                    v = rng.choice(ints)
                    return ("var", v), v
                case "get":
                    r = rng.choice(refs)
                    return ("get", r), f"!{r}"
                case _:
                    op = rng.choice(["+", "-", "*"])
                    (ea, ta), (eb, tb) = expr(depth - 1), expr(depth - 1)
                    return ("op", op, ea, eb), f"({ta} {op} {tb})"

        e, t = expr()
        kind = rng.choice(["let", "ref"] + (["set"] * 2 if refs else []))
        if kind == "let":
            stmts.append(("let", name, e))
            text.append(f"let {name} = {t} in")
            ints.append(name)
        elif kind == "ref":
            stmts.append(("ref", name, e))
            text.append(f"let {name} = ref {t} in")
            refs.append(name)
        else:
            target = rng.choice(refs)
            stmts.append(("set", target, e))
            text.append(f"let _ = ({target} := {t}) in")
    final, ft = expr() if ints or refs else (("lit", 0), "0")
    text.append(f"return {ft}")
    return stmts, final, "\n".join(text)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_elaboration_matches_direct_evaluator(seed):
    rng = random.Random(seed)
    stmts, final, text = _straight_line_program(rng)
    want_result, want_cells = _direct_eval(stmts, final)

    core, _emap = parse_and_elaborate(text)
    run = eval_comp(EMPTY_ENV, EMPTY_STORE, core)
    assert run.result == Result(VAL, VNum(want_result))

    got_cells = {}
    for name, value in run.top_bindings:
        from itml.syntax import VLoc
        if isinstance(value, VLoc) and not name.startswith("_"):
            got_cells[name] = run.out_store.get_value(value.loc).value
    assert got_cells == want_cells


# ---------------------------------------------------------------------------
# Monotonicity of both slicing directions on sampled chains.

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_fwd_monotone_on_chains(seed):
    rng = random.Random(seed)
    run = generate_run(seed, max_budget=2)
    inputs = [
        list(enumerate_prefixes(t, 64))
        for t in (run.env, run.store, run.program, run.trace)
    ]
    lower = tuple(rng.choice(options) for options in inputs)
    upper = (run.env, run.store, run.program, run.trace)
    mid = tuple(rng.choice(options) for options in inputs)
    chain = [lower, upper]
    if all(leq(a, b) for a, b in zip(lower, mid)) and \
       all(leq(a, b) for a, b in zip(mid, upper)):
        chain = [lower, mid, upper]
    outs = [fwd_comp(*x) for x in chain]
    for (s1, r1), (s2, r2) in zip(outs, outs[1:]):
        assert leq(s1, s2) and leq(r1, r2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_bwd_monotone_on_chains(seed):
    rng = random.Random(seed)
    run = generate_run(seed, max_budget=2)
    outputs = [
        (store, res)
        for store in enumerate_prefixes(run.out_store, 64)
        for res in enumerate_prefixes(run.result, 64)
    ]
    y1 = rng.choice(outputs)
    y2 = (run.out_store, run.result)
    b1 = bwd_comp(Criterion(y1[1], y1[0]), run.trace)
    b2 = bwd_comp(Criterion(y2[1], y2[0]), run.trace)
    assert leq(b1.env, b2.env) and leq(b1.store, b2.store)
    assert leq(b1.program, b2.program) and leq(b1.trace, b2.trace)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_bwd_trace_keeps_annotations(seed):
    run = generate_run(seed, max_budget=2)
    out = bwd_comp(Criterion(run.result, run.out_store), run.trace)
    assert writes(out.trace) == writes(run.trace)
    assert outcome(out.trace) == outcome(run.trace)
    # and so does the trivial criterion
    out = bwd_comp(Criterion(Result(run.result.outcome, HOLE), EMPTY_STORE), run.trace)
    assert writes(out.trace) == writes(run.trace)
    assert outcome(out.trace) == outcome(run.trace)


# ---------------------------------------------------------------------------
# Trace faithfulness: the write set covers every changed location.

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2000))
def test_writes_cover_store_changes(seed):
    run = generate_run(seed, max_budget=3)
    changed = set()
    for loc in set(run.store.locs()) | set(run.out_store.locs()):
        before, after = run.store.cell(loc), run.out_store.cell(loc)
        if before == after:
            continue
        if isinstance(after, ArrayCell) or isinstance(before, ArrayCell):
            length = (after or before).length
            for i in range(length):
                b = before.get(i) if isinstance(before, ArrayCell) else HOLE
                a = after.get(i) if isinstance(after, ArrayCell) else HOLE
                if a != b:
                    changed.add((loc, i))
        else:
            changed.add(loc)
    assert changed <= writes(run.trace)
    assert run.result.outcome == outcome(run.trace)


def test_prefix_witness():
    run = generate_run(4)
    bottom = next(iter(enumerate_prefixes(run.program, 64)))
    witness = PrefixWitness(run.program, bottom)
    assert leq(witness.partial, witness.full)
    import pytest
    from itml.syntax import CRet, ENum
    with pytest.raises(ValueError):
        PrefixWitness(CRet(ENum(1)), CRet(ENum(2)))


# ---------------------------------------------------------------------------
# Span provenance: child spans nest inside parent spans.

def _walk_spans(node, bound=None):
    span = node.span
    if span is not None:
        if bound is not None:
            assert bound.start <= span.start and span.end <= bound.end, \
                f"span {span} escapes {bound} at {type(node).__name__}"
        bound = span
    for child in term_children(node):
        _walk_spans(child, bound)


def test_spans_nest_in_goldens():
    for name in ("loop_array.itml", "map_div.itml", "gauss.itml"):
        core, _ = parse_and_elaborate(program_text(name))
        _walk_spans(core)


def test_goldens_replay():
    for name in ("loop_array.itml", "map_div.itml"):
        core, _ = parse_and_elaborate(program_text(name))
        run = eval_comp(EMPTY_ENV, EMPTY_STORE, core)
        assert replay_check(run)


# ---------------------------------------------------------------------------
# Full-criterion round trip on elaborated surface programs (loops and
# administrative bindings included): demanding everything must slice to
# something that recomputes everything, and stays below the originals.

def _full_round_trip(text):
    core, _emap = parse_and_elaborate(text)
    run = eval_comp(EMPTY_ENV, EMPTY_STORE, core)
    out = bwd_comp(Criterion(run.result, run.out_store), run.trace)
    store, res = fwd_comp(out.env, out.store, out.program, out.trace)
    assert store == run.out_store and res == run.result
    assert leq(out.env, run.env) and leq(out.store, run.store)
    assert leq(out.program, run.program) and leq(out.trace, run.trace)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_full_criterion_round_trip_random_surface(seed):
    rng = random.Random(seed)
    _stmts, _final, text = _straight_line_program(rng)
    _full_round_trip(text)


def test_full_criterion_round_trip_goldens():
    for name in ("loop_array.itml", "map_div.itml", "gauss.itml"):
        _full_round_trip(program_text(name))
