"""Prefix order, meets/joins, trace annotations, erasure, enumeration."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from itml.interp import eval_comp
from itml.lattice import (
    CapExceededError, UndefinedJoinError, enumerate_prefixes, erase, join,
    lattice_size, leq, meet, outcome, writes,
)
from itml.oracle import generate_run
from itml.syntax import (
    CRet, EHole, ENum, EPair, EPrim, EVar, EMPTY_ENV, EMPTY_STORE, Env,
    Result, ScalarCell, ArrayCell, Store, THole, TRef, TRaise, TRet,
    TLetSucc, VClosure, VNum, VPair, HOLE, VAL, EXN,
)

PAIR12 = EPair(ENum(1), ENum(2))
# one term of each category without a generated run to supply it
CLOSURE = VClosure(Env({"y": VNum(2)}), "f", "x", CRet(EPrim("+", (EVar("x"), EVar("y")))))
ENV = Env({"p": VPair(VNum(1), VNum(1.0)), "f": CLOSURE})
STORE = Store({0: ScalarCell(VNum(5)), 1: ArrayCell(3, {0: VNum(1), 2: VPair(VNum(2), HOLE)})})
PARTIAL_TRACE = TLetSucc("x", THole(frozenset([0]), VAL), TRet(EVar("x")))


def test_leq_pair_prefix():
    assert leq(EPair(ENum(1), EHole()), PAIR12)
    assert not leq(EPair(ENum(2), EHole()), PAIR12)
    assert leq(EHole(), PAIR12)


def test_leq_reflexive_on_examples():
    for t in (PAIR12, EHole(), EPair(EHole(), EHole())):
        assert leq(t, t)


def test_trace_hole_leq_needs_matching_annotations():
    ref_trace = TRef(0, ENum(1))
    assert leq(THole(frozenset([0]), VAL), ref_trace)
    assert not leq(THole(frozenset(), VAL), ref_trace)
    assert not leq(THole(frozenset([0]), EXN), ref_trace)


def test_meet_examples():
    # the two-pair example: shared parts survive, the rest collapses
    assert meet(PAIR12, EPair(ENum(1), EPrim("+", (ENum(2), ENum(2))))) == \
        EPair(ENum(1), EHole())
    assert meet(EPair(ENum(1), EHole()), EPair(EHole(), ENum(2))) == \
        EPair(EHole(), EHole())
    assert meet(PAIR12, EHole()) == EHole()


def test_meet_trace_with_hole_is_hole():
    t = TRet(ENum(1))
    bottom = THole(writes(t), outcome(t))
    assert meet(t, bottom) == bottom
    assert meet(bottom, t) == bottom


def test_join_examples():
    assert join(EPair(ENum(1), EHole()), EPair(EHole(), ENum(2))) == PAIR12
    assert join(PAIR12, EHole()) == PAIR12
    with pytest.raises(UndefinedJoinError):
        join(EPair(ENum(1), EHole()), EPair(ENum(2), EHole()))


def test_writes_and_outcome():
    assert writes(TRet(ENum(1))) == frozenset()
    assert writes(TRef(3, ENum(1))) == frozenset([3])
    assert outcome(TRaise(ENum(1))) == EXN
    assert outcome(THole(frozenset(), VAL)) == VAL
    let = TLetSucc("x", TRef(0, ENum(1)), TRet(EVar("x")))
    assert writes(let) == frozenset([0])
    assert outcome(let) == VAL


def test_writes_arr_make():
    from itml.syntax import TArrMake
    t = TArrMake(5, 3, ENum(3), ENum(0))
    assert writes(t) == frozenset({(5, 0), (5, 1), (5, 2)})


def test_erase():
    mu = Store({0: ScalarCell(VNum(5)), 1: ArrayCell(2, {0: VNum(1), 1: VNum(2)})})
    assert erase(mu, frozenset()) == mu
    assert erase(mu, frozenset([0])) == Store({1: ArrayCell(2, {0: VNum(1), 1: VNum(2)})})
    erased = erase(mu, frozenset([(1, 1)]))
    assert erased.get_elem(1, 1) == HOLE
    assert erased.get_elem(1, 0) == VNum(1)
    assert erase(erased, frozenset([(1, 1)])) == erased  # idempotent


def test_enumerate_pair():
    # every congruence prefix, bottom first, top last; note (_,_) is a
    # distinct element (it is the meet of (1,_) and (_,2))
    elems = list(enumerate_prefixes(PAIR12))
    assert elems[0] == EHole()
    assert elems[-1] == PAIR12
    assert EPair(EHole(), EHole()) in elems
    assert EPair(ENum(1), EHole()) in elems
    assert EPair(EHole(), ENum(2)) in elems
    assert len(elems) == len(set(elems)) == 5
    assert lattice_size(PAIR12) == 5


def test_enumerate_nested_pair_count():
    t = EPair(PAIR12, ENum(3))
    elems = list(enumerate_prefixes(t))
    assert len(elems) == len(set(elems)) == 11
    assert lattice_size(t) == 11


def test_enumerate_hole_singleton():
    assert list(enumerate_prefixes(EHole())) == [EHole()]


def test_enumerate_cap():
    wide = EPair(PAIR12, EPair(PAIR12, EPair(PAIR12, EPair(PAIR12, EPair(PAIR12, PAIR12)))))
    with pytest.raises(CapExceededError):
        list(enumerate_prefixes(wide, point_cap=8))


def test_every_enumerated_prefix_is_leq():
    run = generate_run(5)
    for t in (PAIR12, CLOSURE, ENV, STORE, PARTIAL_TRACE, run.env, run.store,
              run.program, run.trace, run.out_store, run.result):
        prefixes = list(enumerate_prefixes(t, 64))
        assert len(prefixes) == len(set(prefixes)) == lattice_size(t)
        assert meet(t, t) is t
        for p in prefixes:
            assert leq(p, t)


def _random_prefix(rng, t):
    prefixes = list(enumerate_prefixes(t, 64))
    return rng.choice(prefixes)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_partial_order_laws(seed):
    rng = random.Random(seed)
    run = generate_run(seed, max_budget=2)
    t = run.program
    a, b, c = (_random_prefix(rng, t) for _ in range(3))
    assert leq(a, a)
    if leq(a, b) and leq(b, a):
        assert a == b
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_lattice_laws_within_prefixes(seed):
    rng = random.Random(seed)
    run = generate_run(seed, max_budget=2)
    for t in (run.program, run.trace, run.env, run.store, run.out_store,
              run.result, ENV, STORE):
        a, b = _random_prefix(rng, t), _random_prefix(rng, t)
        m, j = meet(a, b), join(a, b)
        assert leq(m, a) and leq(m, b)
        assert leq(a, j) and leq(b, j)
        assert meet(a, a) == a and join(a, a) == a
        assert meet(a, b) == meet(b, a)
        assert join(a, b) == join(b, a)
        assert join(a, m) == a and meet(a, j) == a  # absorption
        bottom = next(iter(enumerate_prefixes(t, 64)))
        assert meet(a, bottom) == bottom
        assert join(a, bottom) == a
        assert leq(a, t)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_prefix_traces_preserve_writes_and_outcome(seed):
    rng = random.Random(seed)
    run = generate_run(seed, max_budget=2)
    t = run.trace
    p = _random_prefix(rng, t)
    assert writes(p) == writes(t)
    assert outcome(p) == outcome(t)


def test_env_store_pointwise_order():
    e1 = Env({"x": VPair(VNum(1), HOLE)})
    e2 = Env({"x": VPair(VNum(1), VNum(2)), "y": VNum(3)})
    assert leq(e1, e2)
    assert not leq(e2, e1)
    assert meet(e2, e1) == e1
    assert join(e1, Env({"y": VNum(3)})) == Env({"x": VPair(VNum(1), HOLE), "y": VNum(3)})
