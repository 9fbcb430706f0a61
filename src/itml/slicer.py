"""Forward and backward slicing over recorded runs.

Forward slicing takes partial inputs (environment, store, program) plus a
partial trace and computes the greatest partial output derivable from
them; it is total on the prefix cone of a run, deterministic, and
meet-preserving.  Backward slicing takes a criterion (partial final store
plus partial result) and the run's trace and computes the least partial
inputs/program/trace sufficient for forward slicing to reproduce the
criterion.  The two form a Galois connection; the oracle module checks
this exhaustively on small runs.

Three conventions matter throughout:

* A whole-trace hole carries its write set and outcome, so slicing away a
  computation still discloses which locations it clobbered and whether it
  returned or raised.  The hole rule is applied preferentially: whenever
  the demanded result value is a hole and the demanded store has no
  information on any written location, the entire sub-run collapses.
  Backward slicing asks whether a sub-run writes a demanded key of one
  `WritesIndex`, built at most once per call by a preorder walk that
  gives every node the position range of its subtree and every key the
  sorted positions of the nodes writing it, so each question is one
  bisect.  Forward slicing applies the rule to an elided sub-run, and to
  a branch whose target it cannot recompute, by erasing that sub-run's
  write set from its working store.

* Forward slicing threads the store linearly: every rule hands the store
  it gets to exactly one successor.  So one `fwd_comp` call copies its
  input store once into a mutable working store, updates that in place
  (allocation, assignment, element writes, erasure), and freezes it once
  into a `Store` at the end, as evaluation does with its cells.  Replay
  time and memory thus stay linear in the length of the run.

* Forward rules evaluate the *meet* of the program's expression and the
  one recorded in the trace.  On mirrored slices (every backward output)
  the two coincide; on arbitrary members of the product lattice the meet
  is what keeps the adjunction exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .interp import RunRecord, apply_prim, eval_expr, ExnSignal, StuckError, \
    DIV_BY_ZERO, OUT_OF_BOUNDS, NEG_LENGTH
from .lattice import WritesIndex, join, leq, meet, outcome, writes
from .syntax import (
    Comp, CApp, CArrGet, CArrMake, CArrSet, CAssign, CCase, CDeref, CHole,
    CIf, CLet, CRaise, CRef, CRet, CTry,
    Expr, EBool, EFun, EHole, ENum, EPair, EPrim, EStr, EUnit, EVar,
    EFst, ESnd, EInl, EInr,
    Env, EMPTY_ENV, ArrayCell, ScalarCell, Store, Result, Value,
    VArr, VBool, VClosure, VHole, VInl, VInr, VLoc, VNum, VPair, VStr, VUnit,
    HOLE, UNIT, VAL, EXN,
    Trace, TApp, TArrGet, TArrMake, TArrSet, TAssign, TCaseInl, TCaseInr,
    TDeref, TFail, THole, TIfFalse, TIfTrue, TLetFail, TLetSucc, TRaise,
    TRef, TRet, TTryFail, TTrySucc, SCHEMA,
    comp_exprs, term_children,
)


class ShapeMismatchError(Exception):
    """Inputs are not prefixes of a common run (bad criterion, or a
    program/trace pair that never belonged together)."""


# ---------------------------------------------------------------------------
# Forward slicing for expressions.
#
# Hole-propagating evaluation: anything that cannot be computed from the
# available parts becomes a hole.  Total: shape mismatches (which cannot
# occur on the prefix cone of a successful evaluation) also yield holes
# rather than getting stuck.  Division never raises here; a computation
# whose recorded run raised is sliced by the TFail rules, which alone may
# re-raise (at the recorded point).

def fwd_expr(env: Env, e: Expr) -> Value:
    match e:
        case EHole():
            return HOLE
        case EVar(x):
            return env.get(x)
        case EUnit():
            return UNIT
        case EBool(b):
            return VBool(b)
        case ENum(n):
            return VNum(n)
        case EStr(s):
            return VStr(s)
        case EPair(e1, e2):
            return VPair(fwd_expr(env, e1), fwd_expr(env, e2))
        case EFst(e1):
            v = fwd_expr(env, e1)
            return v.fst if isinstance(v, VPair) else HOLE
        case ESnd(e1):
            v = fwd_expr(env, e1)
            return v.snd if isinstance(v, VPair) else HOLE
        case EInl(e1):
            return VInl(fwd_expr(env, e1))
        case EInr(e1):
            return VInr(fwd_expr(env, e1))
        case EFun(f, x, body):
            return VClosure(env, f, x, body)
        case EPrim(op, args):
            vals = [fwd_expr(env, a) for a in args]
            if any(isinstance(v, VHole) for v in vals):
                return HOLE
            try:
                return apply_prim(op, vals)
            except (StuckError, ExnSignal):
                return HOLE
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Backward slicing for expressions.
#
# `bwd_expr(v, e, renv)` slices demand v against the recorded expression
# e, yielding the least environment slice and expression slice from which
# forward slicing recomputes at least v.  The hole rule comes first.
# `renv` is the full environment the expression evaluated under (read off
# the trace decoration); it is consulted only to recover the recorded
# operand values of primitive applications, whose results are atomic and
# therefore demand their operands outright.

def bwd_expr(v: Value, e: Expr, renv: Optional[Env]) -> tuple:
    if isinstance(v, VHole):
        return EMPTY_ENV, EHole()
    match e:
        case EVar(x):
            return Env({x: v}), e
        case EUnit():
            _expect(isinstance(v, VUnit), v, e)
            return EMPTY_ENV, e
        case EBool(b):
            _expect(isinstance(v, VBool) and v.value == b, v, e)
            return EMPTY_ENV, e
        case ENum(n):
            _expect(isinstance(v, VNum) and v == VNum(n), v, e)
            return EMPTY_ENV, e
        case EStr(s):
            _expect(isinstance(v, VStr) and v.value == s, v, e)
            return EMPTY_ENV, e
        case EPair(e1, e2):
            _expect(isinstance(v, VPair), v, e)
            rho1, s1 = bwd_expr(v.fst, e1, renv)
            rho2, s2 = bwd_expr(v.snd, e2, renv)
            return join(rho1, rho2), EPair(s1, s2)
        case EFst(e1):
            rho, s1 = bwd_expr(VPair(v, HOLE), e1, renv)
            return rho, EFst(s1)
        case ESnd(e1):
            rho, s1 = bwd_expr(VPair(HOLE, v), e1, renv)
            return rho, ESnd(s1)
        case EInl(e1):
            _expect(isinstance(v, VInl), v, e)
            rho, s1 = bwd_expr(v.arg, e1, renv)
            return rho, EInl(s1)
        case EInr(e1):
            _expect(isinstance(v, VInr), v, e)
            rho, s1 = bwd_expr(v.arg, e1, renv)
            return rho, EInr(s1)
        case EFun(f, x, _body):
            _expect(isinstance(v, VClosure) and v.fname == f and v.xname == x, v, e)
            return v.env, EFun(f, x, v.body)
        case EPrim(op, args):
            # atomic result: every operand's recorded value is demanded
            rho = EMPTY_ENV
            slices = []
            for a in args:
                rec = eval_expr(renv, a)
                rho_a, s_a = bwd_expr(rec, a, renv)
                rho = join(rho, rho_a)
                slices.append(s_a)
            return rho, EPrim(op, tuple(slices))
        case EHole():
            raise ShapeMismatchError("demand on a hole in the reference expression")
    raise TypeError(f"not an expression: {e!r}")


def _expect(ok: bool, v: Value, e: Expr) -> None:
    if not ok:
        raise ShapeMismatchError(f"demand {v!r} is not a prefix of the value of {e!r}")


# ---------------------------------------------------------------------------
# Forward slicing for computations.

def fwd_comp(env: Env, store: Store, m: Comp, t: Trace) -> tuple:
    """Greatest partial (store, result) computable from the partial inputs.

    The result outcome always equals the trace's outcome, and the output
    store agrees with the input store outside the trace's write set.  The
    input store is not mutated: it is copied once into a working store,
    which the rules update in place and which is frozen once at the end.
    """
    cells: dict = {}
    for loc, cell in store.cells():
        if isinstance(cell, ScalarCell):
            cells[loc] = cell.value
        else:
            cells[loc] = [cell.length, dict(cell.items)]
    result = _fwd(env, cells, m, t)
    frozen = {}
    for loc, cell in cells.items():
        if type(cell) is not list:
            frozen[loc] = ScalarCell(cell)
        elif cell[1]:
            frozen[loc] = ArrayCell._trusted(cell[0], cell[1])
    return Store._trusted(frozen), result


# The working store maps a location to its value (a scalar cell) or to
# [length, items] (an array cell, items holding only hole-free elements).
# A scalar hole is never stored; an all-hole array is dropped on freezing.

def _fwd(env: Env, cells: dict, m: Comp, t: Trace) -> Result:
    if isinstance(t, THole) or isinstance(m, CHole):
        return _elided(cells, t)

    match m, t:
        case (CRet(e), TRet(te)):
            return Result(VAL, fwd_expr(env, meet(e, te)))

        case (CLet(x, m1, m2), TLetSucc(_, t1, t2)):
            r1 = _fwd(env, cells, m1, t1)
            return _fwd(env.bind(x, r1.value), cells, m2, t2)

        case (CLet(_, m1, _), TLetFail(t1, _)):
            return _fwd(env, cells, m1, t1)

        case (CApp(e1, e2), TApp(te1, te2, _, _, tb)):
            v1 = fwd_expr(env, meet(e1, te1))
            if not isinstance(v1, VClosure):
                return _elided(cells, tb)
            v2 = fwd_expr(env, meet(e2, te2))
            benv = v1.env.bind(v1.fname, v1).bind(v1.xname, v2)
            return _fwd(benv, cells, v1.body, tb)

        case (CCase(e, lx, m1, _, _), TCaseInl(te, _, tb, _)):
            v = fwd_expr(env, meet(e, te))
            if not isinstance(v, VInl):
                return _elided(cells, tb)
            return _fwd(env.bind(lx, v.arg), cells, m1, tb)

        case (CCase(e, _, _, ry, m2), TCaseInr(te, _, _, tb)):
            v = fwd_expr(env, meet(e, te))
            if not isinstance(v, VInr):
                return _elided(cells, tb)
            return _fwd(env.bind(ry, v.arg), cells, m2, tb)

        case (CIf(c, m1, _), TIfTrue(tc, tb)):
            v = fwd_expr(env, meet(c, tc))
            if not (isinstance(v, VBool) and v.value is True):
                return _elided(cells, tb)
            return _fwd(env, cells, m1, tb)

        case (CIf(c, _, m2), TIfFalse(tc, tb)):
            v = fwd_expr(env, meet(c, tc))
            if not (isinstance(v, VBool) and v.value is False):
                return _elided(cells, tb)
            return _fwd(env, cells, m2, tb)

        case (CRaise(e), TRaise(te)):
            return Result(EXN, fwd_expr(env, meet(e, te)))

        case (CTry(m1, _, _), TTrySucc(t1, _)):
            return _fwd(env, cells, m1, t1)

        case (CTry(m1, x, m2), TTryFail(t1, _, t2)):
            r1 = _fwd(env, cells, m1, t1)
            return _fwd(env.bind(x, r1.value), cells, m2, t2)

        case (CRef(e), TRef(loc, te)):
            _set_value(cells, loc, fwd_expr(env, meet(e, te)))
            return Result(VAL, VLoc(loc))

        case (CAssign(e1, e2), TAssign(te1, loc, te2)):
            v1 = fwd_expr(env, meet(e1, te1))
            if not (isinstance(v1, VLoc) and v1.loc == loc):
                # target unknown: the recorded cell is clobbered, but an
                # assignment's unit result is known regardless
                cells.pop(loc, None)
                return Result(VAL, UNIT)
            _set_value(cells, loc, fwd_expr(env, meet(e2, te2)))
            return Result(VAL, UNIT)

        case (CDeref(e), TDeref(loc, te)):
            v = fwd_expr(env, meet(e, te))
            cell = cells.get(loc, HOLE)
            if not (isinstance(v, VLoc) and v.loc == loc) or type(cell) is list:
                return Result(VAL, HOLE)
            return Result(VAL, cell)

        case (CArrMake(e1, e2), TArrMake(loc, n, te1, te2)):
            v1 = fwd_expr(env, meet(e1, te1))
            v2 = fwd_expr(env, meet(e2, te2))
            known = isinstance(v1, VNum) and v1.value == n
            if known and not isinstance(v2, VHole):
                cells[loc] = [n, dict.fromkeys(range(n), v2)]
            else:
                cells.pop(loc, None)
            return Result(VAL, VArr(loc, n) if known else HOLE)

        case (CArrGet(e1, e2), TArrGet(te1, te2, loc, at)):
            v1 = fwd_expr(env, meet(e1, te1))
            v2 = fwd_expr(env, meet(e2, te2))
            cell = cells.get(loc)
            if not (isinstance(v1, VArr) and v1.loc == loc
                    and isinstance(v2, VNum) and v2.value == at
                    and type(cell) is list):
                return Result(VAL, HOLE)
            return Result(VAL, cell[1].get(at, HOLE))

        case (CArrSet(e1, e2, e3), TArrSet(te1, te2, loc, at, te3)):
            v1 = fwd_expr(env, meet(e1, te1))
            v2 = fwd_expr(env, meet(e2, te2))
            v3 = fwd_expr(env, meet(e3, te3))
            cell = cells.get(loc)
            if cell is not None and type(cell) is not list:
                raise ShapeMismatchError(
                    f"trace writes an element of #{loc}, which holds a scalar")
            known = (isinstance(v1, VArr) and v1.loc == loc
                     and isinstance(v2, VNum) and v2.value == at)
            if known and not isinstance(v3, VHole):
                if cell is None:
                    cell = cells[loc] = [v1.length, {}]
                cell[1][at] = v3
            elif cell is not None:
                cell[1].pop(at, None)
            return Result(VAL, UNIT if known else HOLE)

        case (_, TFail(tm, path)):
            m_eff = meet(m, tm)
            if isinstance(m_eff, CHole):
                return Result(EXN, HOLE)
            return Result(EXN, _fwd_fail_value(env, m_eff, path))

    raise ShapeMismatchError(
        f"program {type(m).__name__} does not match trace {type(t).__name__}"
    )


def _set_value(cells: dict, loc, v: Value) -> None:
    if isinstance(v, VHole):
        cells.pop(loc, None)
    else:
        cells[loc] = v


def _elided(cells: dict, t: Trace) -> Result:
    """The hole rule: a sub-run that is elided, or whose control-flow
    target is unknown, erases everything it wrote and reports only its
    recorded outcome.  A key names a scalar (loc) or an element
    ((loc, i)) and erases only a cell of that kind."""
    for key in writes(t):
        if type(key) is tuple:
            cell = cells.get(key[0])
            if type(cell) is list:
                cell[1].pop(key[1], None)
        elif type(cells.get(key)) is not list:
            cells.pop(key, None)
    return Result(outcome(t), HOLE)


def _fwd_fail_value(env: Env, m: Comp, path: tuple) -> Value:
    """Exception value of a re-sliced failing computation: the recorded
    message if the recorded raise point fires again, else a hole."""
    exprs = comp_exprs(m)
    if path[0] == "expr":
        idx, sub = path[1], path[2:]
        if _div_fires(env, exprs[idx], sub):
            return DIV_BY_ZERO
        return HOLE
    # the node's own check; operands must be recomputable for it to re-fire
    if isinstance(m, CArrMake):
        v1 = fwd_expr(env, exprs[0])
        return NEG_LENGTH if isinstance(v1, VNum) and isinstance(v1.value, int) and v1.value < 0 else HOLE
    if not isinstance(m, (CArrGet, CArrSet)):
        return HOLE
    v1 = fwd_expr(env, exprs[0])
    v2 = fwd_expr(env, exprs[1])
    if (isinstance(v1, VArr) and isinstance(v2, VNum) and isinstance(v2.value, int)
            and not 0 <= v2.value < v1.length):
        return OUT_OF_BOUNDS
    return HOLE


def _div_fires(env: Env, e: Expr, sub: tuple) -> bool:
    """Navigate to the recorded failing division; it re-raises exactly when
    both operands are still recomputable and the divisor is zero."""
    for k in sub:
        if isinstance(e, (EHole, CHole)):
            return False
        kids = term_children(e)
        if k >= len(kids):
            return False
        e = kids[k]
    if not (isinstance(e, EPrim) and e.op == "/"):
        return False
    dividend = fwd_expr(env, e.args[0])
    divisor = fwd_expr(env, e.args[1])
    return (not isinstance(dividend, VHole)
            and isinstance(divisor, VNum) and divisor.value == 0)


# ---------------------------------------------------------------------------
# Criteria

@dataclass(frozen=True)
class Criterion:
    """What the user cares about: a partial result and a partial final store."""

    result: Result
    store: Store

    def __repr__(self) -> str:
        return f"Criterion({self.result!r}, {self.store!r})"


@dataclass(frozen=True)
class BackwardSliceOutput:
    env: Env
    store: Store
    program: Comp
    trace: Trace


def validate_criterion(criterion: Criterion, run: RunRecord) -> None:
    """The criterion must be a prefix of the recorded outputs."""
    if not leq(criterion.result, run.result):
        raise ShapeMismatchError(
            f"result demand {criterion.result!r} is not a prefix of the "
            f"recorded result {run.result!r}"
        )
    if not leq(criterion.store, run.out_store):
        raise ShapeMismatchError("store demand is not a prefix of the final store")


# ---------------------------------------------------------------------------
# Backward slicing for computations.

def bwd_comp(criterion: Criterion, trace: Trace) -> BackwardSliceOutput:
    """Least inputs/program/trace reproducing the criterion under fwd_comp.

    The trace must come from an in-process run: backward slicing reads the
    environment decorations that evaluation leaves on its nodes.  A trace
    without them, such as one reloaded from a dump, raises
    ShapeMismatchError.  The criterion must already be validated against
    the run.
    """
    if trace.env is None:
        raise ShapeMismatchError(
            "trace has no environment decorations (a reloaded dump?); "
            "backward slicing needs the trace of an in-process run")
    slicer = _Bwd(trace)
    rho, store, m, u = slicer.slice(criterion.store, criterion.result, trace)
    return BackwardSliceOutput(rho, store, m, u)


class _Bwd:
    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.index: Optional[WritesIndex] = None

    def touches(self, t: Trace, store: Store) -> bool:
        """Does t write a location the store demands?  The write index is
        built on the first question that has a demand to check."""
        if store.is_bottom():
            return False
        if self.index is None:
            self.index = WritesIndex(self.trace)
        return any(self.index.contains(t, key) for key in store.demanded())

    def slice(self, store: Store, res: Result, t: Trace) -> tuple:
        # the hole rule, applied preferentially
        if isinstance(res.value, VHole) and not self.touches(t, store):
            return EMPTY_ENV, store, CHole(), THole(writes(t), outcome(t))
        if res.outcome != outcome(t):
            raise ShapeMismatchError(
                f"criterion outcome {res.outcome} vs trace outcome {outcome(t)}"
            )

        match t:
            case TRet(e):
                rho, es = bwd_expr(res.value, e, t.env)
                return rho, store, CRet(es), TRet(es)

            case TLetSucc(x, t1, t2):
                rho2x, store2, m2, u2 = self.slice(store, res, t2)
                v = rho2x.get(x)
                rho2 = rho2x.without(x)
                rho1, store3, m1, u1 = self.slice(store2, Result(VAL, v), t1)
                return (join(rho1, rho2), store3,
                        CLet(x, m1, m2), TLetSucc(x, u1, u2))

            case TLetFail(t1, x):
                rho, store2, m1, u1 = self.slice(store, res, t1)
                return rho, store2, CLet(x, m1, CHole()), TLetFail(u1, x)

            case TApp(e1, e2, f, x, tb):
                rho_b, store2, mb, ub = self.slice(store, res, tb)
                v1 = rho_b.get(f)
                v2 = rho_b.get(x)
                rho_clo = rho_b.without(f, x)
                demand1 = join(v1, VClosure(rho_clo, f, x, mb))
                rho2, e2s = bwd_expr(v2, e2, t.env)
                rho1, e1s = bwd_expr(demand1, e1, t.env)
                return (join(rho1, rho2), store2,
                        CApp(e1s, e2s), TApp(e1s, e2s, f, x, ub))

            case TCaseInl(e, lx, tb, ry):
                rho_b, store2, mb, ub = self.slice(store, res, tb)
                v = rho_b.get(lx)
                rho = rho_b.without(lx)
                rho2, es = bwd_expr(VInl(v), e, t.env)
                return (join(rho, rho2), store2,
                        CCase(es, lx, mb, ry, CHole()), TCaseInl(es, lx, ub, ry))

            case TCaseInr(e, lx, ry, tb):
                rho_b, store2, mb, ub = self.slice(store, res, tb)
                v = rho_b.get(ry)
                rho = rho_b.without(ry)
                rho2, es = bwd_expr(VInr(v), e, t.env)
                return (join(rho, rho2), store2,
                        CCase(es, lx, CHole(), ry, mb), TCaseInr(es, lx, ry, ub))

            case TIfTrue(c, tb):
                rho_b, store2, mb, ub = self.slice(store, res, tb)
                rho2, cs = bwd_expr(VBool(True), c, t.env)
                return (join(rho_b, rho2), store2,
                        CIf(cs, mb, CHole()), TIfTrue(cs, ub))

            case TIfFalse(c, tb):
                rho_b, store2, mb, ub = self.slice(store, res, tb)
                rho2, cs = bwd_expr(VBool(False), c, t.env)
                return (join(rho_b, rho2), store2,
                        CIf(cs, CHole(), mb), TIfFalse(cs, ub))

            case TRaise(e):
                rho, es = bwd_expr(res.value, e, t.env)
                return rho, store, CRaise(es), TRaise(es)

            case TTrySucc(t1, x):
                rho, store2, m1, u1 = self.slice(store, res, t1)
                return rho, store2, CTry(m1, x, CHole()), TTrySucc(u1, x)

            case TTryFail(t1, x, t2):
                rho2x, store2, m2, u2 = self.slice(store, res, t2)
                v = rho2x.get(x)
                rho2 = rho2x.without(x)
                rho1, store3, m1, u1 = self.slice(store2, Result(EXN, v), t1)
                return (join(rho1, rho2), store3,
                        CTry(m1, x, m2), TTryFail(u1, x, u2))

            case TRef(loc, e):
                rho, es = bwd_expr(store.get_value(loc), e, t.env)
                return (rho, store.set_value(loc, HOLE),
                        CRef(es), TRef(loc, es))

            case TAssign(e1, loc, e2):
                demanded = store.get_value(loc)
                store2 = store.set_value(loc, HOLE)
                if isinstance(demanded, VHole):
                    # only the unit result was demanded; an assignment
                    # yields it however much is elided
                    return (EMPTY_ENV, store2,
                            CAssign(EHole(), EHole()), TAssign(EHole(), loc, EHole()))
                rho2, e2s = bwd_expr(demanded, e2, t.env)
                rho1, e1s = bwd_expr(VLoc(loc), e1, t.env)
                return (join(rho1, rho2), store2,
                        CAssign(e1s, e2s), TAssign(e1s, loc, e2s))

            case TDeref(loc, e):
                rho, es = bwd_expr(VLoc(loc), e, t.env)
                store2 = store.set_value(
                    loc, join(store.get_value(loc), res.value))
                return rho, store2, CDeref(es), TDeref(loc, es)

            case TArrMake(loc, n, e1, e2):
                demand = HOLE
                cell = store.cell(loc)
                if cell is not None:
                    for v in cell.items.values():
                        demand = join(demand, v)
                rho2, e2s = bwd_expr(demand, e2, t.env)
                rho1, e1s = bwd_expr(VNum(n), e1, t.env)
                return (join(rho1, rho2), store.drop(loc),
                        CArrMake(e1s, e2s), TArrMake(loc, n, e1s, e2s))

            case TArrGet(e1, e2, loc, at):
                arr = eval_expr(t.env, e1)
                rho2, e2s = bwd_expr(VNum(at), e2, t.env)
                rho1, e1s = bwd_expr(arr, e1, t.env)
                joined = join(store.get_elem(loc, at), res.value)
                store2 = store.set_elem(loc, at, joined, length=arr.length)
                return (join(rho1, rho2), store2,
                        CArrGet(e1s, e2s), TArrGet(e1s, e2s, loc, at))

            case TArrSet(e1, e2, loc, at, e3):
                demanded = store.get_elem(loc, at)
                rho3, e3s = bwd_expr(demanded, e3, t.env)
                arr = eval_expr(t.env, e1)
                rho2, e2s = bwd_expr(VNum(at), e2, t.env)
                rho1, e1s = bwd_expr(arr, e1, t.env)
                store2 = store.set_elem(loc, at, HOLE)
                return (join(join(rho1, rho2), rho3), store2,
                        CArrSet(e1s, e2s, e3s), TArrSet(e1s, e2s, loc, at, e3s))

            case TFail(tm, path):
                rho, ms = self._fail_demand(tm, path, t.env)
                return rho, store, ms, TFail(ms, path)

        raise ShapeMismatchError(f"cannot slice trace node {type(t).__name__}")

    def _fail_demand(self, m: Comp, path: tuple, renv: Env) -> tuple:
        """Least program slice that re-raises the recorded exception."""
        exprs = list(comp_exprs(m))
        if path[0] == "expr":
            idx, sub = path[1], path[2:]
            rho, espine = _div_spine(exprs[idx], sub, renv)
            slices = [EHole()] * len(exprs)
            slices[idx] = espine
        else:
            rho = EMPTY_ENV
            slices = [EHole()] * len(exprs)
            if isinstance(m, CArrMake):
                rho, slices[0] = bwd_expr(eval_expr(renv, exprs[0]), exprs[0], renv)
            else:
                rho1, s1 = bwd_expr(eval_expr(renv, exprs[0]), exprs[0], renv)
                rho2, s2 = bwd_expr(eval_expr(renv, exprs[1]), exprs[1], renv)
                rho, slices[0], slices[1] = join(rho1, rho2), s1, s2
        return rho, _fail_comp(m, slices)


def _div_spine(e: Expr, sub: tuple, renv: Env) -> tuple:
    """Demand exactly the constructor spine down to the recorded division
    and both its operands' recorded values; siblings stay holes."""
    if not sub:
        if not (isinstance(e, EPrim) and e.op == "/"):
            raise ShapeMismatchError("recorded failure path does not reach a division")
        rho1, s1 = bwd_expr(eval_expr(renv, e.args[0]), e.args[0], renv)
        rho2, s2 = bwd_expr(eval_expr(renv, e.args[1]), e.args[1], renv)
        return join(rho1, rho2), EPrim("/", (s1, s2))
    k = sub[0]
    kids = term_children(e)
    if not (k < len(kids) and isinstance(kids[k], Expr)):
        raise ShapeMismatchError(f"failure path crosses a non-spine node {e!r}")
    rho, inner = _div_spine(kids[k], sub[1:], renv)
    slices = [EHole()] * len(kids)
    slices[k] = inner
    if isinstance(e, EPrim):
        return rho, EPrim(e.op, tuple(slices))
    return rho, SCHEMA[type(e)].build(e, slices)


def _fail_comp(m: Comp, exprs: list) -> Comp:
    """Rebuild a failing node with the given expression slices; branch
    computations never ran and stay holes."""
    s = SCHEMA[type(m)]
    slices = iter(exprs)
    return s.build(m, [next(slices) if isinstance(k, Expr) else CHole() for k in s.kids(m)])
