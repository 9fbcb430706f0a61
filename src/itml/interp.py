"""Traced big-step evaluation.

Evaluating a computation yields, besides the final store and result, a
*trace*: a proof term of the evaluation recording control-flow choices
(which let/try/case/if path ran), allocated and updated locations, and the
sub-derivations of every sub-computation.  Slicing consumes these traces.

Allocation is a monotone counter so runs are deterministic and traces can
be compared structurally.  Exceptions carry string values; division by
zero, array index violations and negative array lengths raise (they are
not stuck states), recorded as a `TFail` trace node since they abort a
computation before any of its store effects happen.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional

from .syntax import (
    BINARY_OPS, SCHEMA, UNARY_OPS, comp_exprs, term_children,
    Comp, CApp, CArrGet, CArrMake, CArrSet, CAssign, CCase, CDeref, CHole,
    CIf, CLet, CRaise, CRef, CRet, CTry,
    Expr, EBool, EFun, EHole, ENum, EPair, EPrim, EStr, EUnit, EVar,
    EFst, ESnd, EInl, EInr,
    Env, Store, ScalarCell, ArrayCell, Result, Value, VArr, VBool, VClosure,
    VInl, VInr, VLoc, VNum, VPair, VStr, VUnit, UNIT, VAL, EXN,
    Trace, TApp, TArrGet, TArrMake, TArrSet, TAssign, TCaseInl, TCaseInr,
    TDeref, TFail, THole, TIfFalse, TIfTrue, TLetFail, TLetSucc, TRaise,
    TRef, TRet, TTryFail, TTrySucc,
)

DEFAULT_STEP_LIMIT = 10**5
STEP_LIMIT_VAR = "ITML_STEP_LIMIT"

DIV_BY_ZERO = VStr("division by zero")
OUT_OF_BOUNDS = VStr("index out of bounds")
NEG_LENGTH = VStr("negative array length")


class StuckError(Exception):
    """Evaluation reached a state no rule covers (a genuine program error)."""


class ExnSignal(Exception):
    """Internal: an exception raised during the pre-effect phase of a
    computation (division by zero, bounds violation).  Caught by eval_comp
    and turned into an exn result with a TFail trace."""

    def __init__(self, value: Value):
        super().__init__(value)
        self.value = value


def _int_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def apply_prim(op: str, vals: list) -> Value:
    """Strict primitive application; operand shapes must match exactly."""
    if op in ("not", "neg"):
        (v,) = vals
        if op == "not":
            if not isinstance(v, VBool):
                raise StuckError("not applied to non-boolean")
            return VBool(not v.value)
        if not isinstance(v, VNum):
            raise StuckError("negation of non-number")
        return VNum(-v.value)

    a, b = vals
    if op in ("&&", "||"):
        if not (isinstance(a, VBool) and isinstance(b, VBool)):
            raise StuckError(f"{op} applied to non-booleans")
        return VBool(a.value and b.value if op == "&&" else a.value or b.value)

    if op in ("==", "<>"):
        same = None
        for cls in (VNum, VStr, VBool, VUnit, VLoc):
            if isinstance(a, cls) and isinstance(b, cls):
                if cls is VNum and type(a.value) is not type(b.value):
                    raise StuckError("== on numbers of different kinds")
                same = a == b
                break
        if same is None:
            raise StuckError(f"{op} on incomparable values")
        return VBool(same if op == "==" else not same)

    if not (isinstance(a, VNum) and isinstance(b, VNum)):
        raise StuckError(f"{op} applied to non-numbers")
    if type(a.value) is not type(b.value):
        raise StuckError(f"{op} on mixed int/float operands")
    x, y = a.value, b.value
    if op == "+":
        return VNum(x + y)
    if op == "-":
        return VNum(x - y)
    if op == "*":
        return VNum(x * y)
    if op == "/":
        if y == 0:
            raise ExnSignal(DIV_BY_ZERO)
        return VNum(_int_div(x, y) if isinstance(x, int) else x / y)
    if op == "<":
        return VBool(x < y)
    if op == "<=":
        return VBool(x <= y)
    if op == ">":
        return VBool(x > y)
    if op == ">=":
        return VBool(x >= y)
    raise StuckError(f"unknown operator {op}")


def eval_expr(env: Env, e: Expr) -> Value:
    """Pure expression evaluation; deterministic, strict, left-to-right.

    May raise ExnSignal (division by zero) or StuckError; holes are stuck.
    """
    match e:
        case EVar(x):
            if x not in env:
                raise StuckError(f"unbound variable {x}")
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
            v1 = eval_expr(env, e1)
            return VPair(v1, eval_expr(env, e2))
        case EFst(e1):
            v = eval_expr(env, e1)
            if not isinstance(v, VPair):
                raise StuckError("fst of non-pair")
            return v.fst
        case ESnd(e1):
            v = eval_expr(env, e1)
            if not isinstance(v, VPair):
                raise StuckError("snd of non-pair")
            return v.snd
        case EInl(e1):
            return VInl(eval_expr(env, e1))
        case EInr(e1):
            return VInr(eval_expr(env, e1))
        case EFun(f, x, body):
            return VClosure(env, f, x, body)
        case EPrim(op, args):
            vals = [eval_expr(env, a) for a in args]
            return apply_prim(op, vals)
        case EHole():
            raise StuckError("hole in evaluated expression")
    raise StuckError(f"not an expression: {e!r}")


@dataclass(frozen=True)
class RunRecord:
    """One complete traced run: inputs, trace, outputs, allocation order,
    and the values of top-level let bindings (for criterion resolution)."""

    env: Env
    store: Store
    program: Comp
    trace: Trace
    out_store: Store
    result: Result
    alloc_log: tuple
    top_bindings: tuple

    def binding(self, name: str) -> Optional[Value]:
        for n, v in self.top_bindings:
            if n == name:
                return v
        return None


class _Evaluator:
    def __init__(self, store: Store, step_limit: int):
        cells: dict = {}
        for loc, cell in store.cells():
            if isinstance(cell, ScalarCell):
                cells[loc] = cell.value
            else:
                items = [cell.get(i) for i in range(cell.length)]
                cells[loc] = items
        self.cells = cells
        self.next_loc = max(cells, default=-1) + 1
        self.alloc_log: list = []
        self.top_bindings: list = []
        self.depth = 0
        self.step_limit = step_limit

    def alloc(self) -> int:
        loc = self.next_loc
        self.next_loc += 1
        self.alloc_log.append(loc)
        return loc

    def snapshot(self) -> Store:
        out: dict = {}
        for loc, cell in self.cells.items():
            if isinstance(cell, list):
                out[loc] = ArrayCell(len(cell), dict(enumerate(cell)))
            else:
                out[loc] = ScalarCell(cell)
        return Store(out)

    def eval(self, env: Env, m: Comp, spine: bool = False):
        try:
            return self._eval(env, m, spine)
        except ExnSignal as sig:
            path = locate_failure(env, m)
            return TFail(m, path).with_env(env), Result(EXN, sig.value)

    def _eval(self, env: Env, m: Comp, spine: bool):
        match m:
            case CRet(e):
                v = eval_expr(env, e)
                return TRet(e).with_env(env), Result(VAL, v)

            case CLet(x, bound, body):
                t1, r1 = self.eval(env, bound)
                if r1.outcome == EXN:
                    return TLetFail(t1, x).with_env(env), r1
                if spine:
                    self.top_bindings.append((x, r1.value))
                t2, r2 = self.eval(env.bind(x, r1.value), body, spine)
                return TLetSucc(x, t1, t2).with_env(env), r2

            case CApp(e1, e2):
                v1 = eval_expr(env, e1)
                if not isinstance(v1, VClosure):
                    raise StuckError("application of a non-closure")
                v2 = eval_expr(env, e2)
                if self.depth >= self.step_limit:
                    raise StuckError(f"recursion limit {self.step_limit} exceeded")
                self.depth += 1
                try:
                    benv = v1.env.bind(v1.fname, v1).bind(v1.xname, v2)
                    t, r = self.eval(benv, v1.body)
                finally:
                    self.depth -= 1
                return TApp(e1, e2, v1.fname, v1.xname, t).with_env(env), r

            case CCase(e, lx, left, ry, right):
                v = eval_expr(env, e)
                if isinstance(v, VInl):
                    t, r = self.eval(env.bind(lx, v.arg), left)
                    return TCaseInl(e, lx, t, ry).with_env(env), r
                if isinstance(v, VInr):
                    t, r = self.eval(env.bind(ry, v.arg), right)
                    return TCaseInr(e, lx, ry, t).with_env(env), r
                raise StuckError("case scrutinee is not a sum")

            case CIf(c, then, els):
                v = eval_expr(env, c)
                if not isinstance(v, VBool):
                    raise StuckError("if condition is not a boolean")
                if v.value:
                    t, r = self.eval(env, then)
                    return TIfTrue(c, t).with_env(env), r
                t, r = self.eval(env, els)
                return TIfFalse(c, t).with_env(env), r

            case CRaise(e):
                v = eval_expr(env, e)
                return TRaise(e).with_env(env), Result(EXN, v)

            case CTry(body, x, handler):
                t1, r1 = self.eval(env, body)
                if r1.outcome == VAL:
                    return TTrySucc(t1, x).with_env(env), r1
                t2, r2 = self.eval(env.bind(x, r1.value), handler)
                return TTryFail(t1, x, t2).with_env(env), r2

            case CRef(e):
                v = eval_expr(env, e)
                loc = self.alloc()
                self.cells[loc] = v
                return TRef(loc, e).with_env(env), Result(VAL, VLoc(loc))

            case CAssign(e1, e2):
                v1 = eval_expr(env, e1)
                if not isinstance(v1, VLoc):
                    raise StuckError("assignment target is not a reference")
                v2 = eval_expr(env, e2)
                if isinstance(self.cells.get(v1.loc), list):
                    raise StuckError("assignment to an array location")
                self.cells[v1.loc] = v2
                return TAssign(e1, v1.loc, e2).with_env(env), Result(VAL, UNIT)

            case CDeref(e):
                v = eval_expr(env, e)
                if not isinstance(v, VLoc):
                    raise StuckError("dereference of a non-reference")
                if v.loc not in self.cells:
                    raise StuckError(f"dereference of unallocated location #{v.loc}")
                cell = self.cells[v.loc]
                if isinstance(cell, list):
                    raise StuckError("dereference of an array location")
                return TDeref(v.loc, e).with_env(env), Result(VAL, cell)

            case CArrMake(e1, e2):
                v1 = eval_expr(env, e1)
                if not (isinstance(v1, VNum) and isinstance(v1.value, int)):
                    raise StuckError("array length is not an integer")
                v2 = eval_expr(env, e2)
                if v1.value < 0:
                    raise ExnSignal(NEG_LENGTH)
                loc = self.alloc()
                self.cells[loc] = [v2] * v1.value
                t = TArrMake(loc, v1.value, e1, e2).with_env(env)
                return t, Result(VAL, VArr(loc, v1.value))

            case CArrGet(e1, e2):
                arr, i = self._arr_operands(env, e1, e2)
                cell = self.cells.get(arr.loc)
                if not isinstance(cell, list):
                    raise StuckError("array reference to a non-array cell")
                t = TArrGet(e1, e2, arr.loc, i).with_env(env)
                return t, Result(VAL, cell[i])

            case CArrSet(e1, e2, e3):
                arr, i = self._arr_operands(env, e1, e2, bound_check_last=False)
                v3 = eval_expr(env, e3)
                if not 0 <= i < arr.length:
                    raise ExnSignal(OUT_OF_BOUNDS)
                cell = self.cells.get(arr.loc)
                if not isinstance(cell, list):
                    raise StuckError("array reference to a non-array cell")
                cell[i] = v3
                t = TArrSet(e1, e2, arr.loc, i, e3).with_env(env)
                return t, Result(VAL, UNIT)

            case CHole():
                raise StuckError("hole in evaluated computation")

        raise StuckError(f"not a computation: {m!r}")

    def _arr_operands(self, env: Env, e1: Expr, e2: Expr, bound_check_last: bool = True):
        v1 = eval_expr(env, e1)
        if not isinstance(v1, VArr):
            raise StuckError("array operation on a non-array")
        v2 = eval_expr(env, e2)
        if not (isinstance(v2, VNum) and isinstance(v2.value, int)):
            raise StuckError("array index is not an integer")
        if bound_check_last and not 0 <= v2.value < v1.length:
            raise ExnSignal(OUT_OF_BOUNDS)
        return v1, v2.value


def _first_raising(env: Env, terms: tuple) -> Optional[int]:
    """Index of the first expression among terms whose evaluation raises."""
    for k, e in enumerate(terms):
        if isinstance(e, Expr):
            try:
                eval_expr(env, e)
            except ExnSignal:
                return k
    return None


def locate_failure(env: Env, m: Comp) -> tuple:
    """Pinpoint the raise inside a computation whose pre-effect phase
    signalled: either a division within one of its expressions, or the
    node's own length/bounds check.

    A division's path steps into the first child that raises, in
    `term_children` order, so it can be navigated on any prefix of the
    expression.
    """
    exprs = comp_exprs(m)
    i = _first_raising(env, exprs)
    if i is None:
        return ("check",)
    path, e = ("expr", i), exprs[i]
    while (k := _first_raising(env, term_children(e))) is not None:
        path, e = path + (k,), term_children(e)[k]
    return path


def eval_comp(env: Env, store: Store, program: Comp,
              step_limit: Optional[int] = None) -> RunRecord:
    """Run a hole-free computation; deterministic given the inputs."""
    if step_limit is None:
        step_limit = int(os.environ.get(STEP_LIMIT_VAR, DEFAULT_STEP_LIMIT))
    ev = _Evaluator(store, step_limit)
    trace, result = ev.eval(env, program, spine=True)
    return RunRecord(
        env=env,
        store=store,
        program=program,
        trace=trace,
        out_store=ev.snapshot(),
        result=result,
        alloc_log=tuple(ev.alloc_log),
        top_bindings=tuple(ev.top_bindings),
    )


def replay_check(run: RunRecord) -> bool:
    """Forward-slice the full inputs along the full trace and compare with
    the recorded outputs; an honest run always reproduces them exactly."""
    from .slicer import fwd_comp

    out_store, result = fwd_comp(run.env, run.store, run.program, run.trace)
    return out_store == run.out_store and result == run.result


# ---------------------------------------------------------------------------
# Trace dump format: s-expressions, one trace node per line, sub-traces one
# indent deeper, expressions and computations inline, locations as #k (array
# elements #k[i]), stable across runs.  DUMP_FORMAT gives each dumped class
# its tag and field order; a field's annotation picks how it is written and
# read (_FIELD_KINDS).  Only the literals (`_`, true/false, numbers, strings)
# are special.  Tags resolve per category: `ret`, `app` and others name both
# a computation and a trace.

DUMP_FORMAT = {
    EVar: "var name",
    EUnit: "unit",
    EPair: "pair fst snd",
    EFst: "fst arg",
    ESnd: "snd arg",
    EInl: "inl arg",
    EInr: "inr arg",
    EFun: "fun fname xname body",
    EPrim: "prim op args",
    CRet: "ret expr",
    CLet: "let name bound body",
    CApp: "app fn arg",
    CCase: "case scrutinee lname left rname right",
    CIf: "if cond then els",
    CRaise: "raise expr",
    CTry: "try body name handler",
    CRef: "ref expr",
    CAssign: "assign target expr",
    CDeref: "deref expr",
    CArrMake: "arr-make length init",
    CArrGet: "arr-get arr index",
    CArrSet: "arr-set arr index expr",
    THole: "hole locs outcome",
    TRet: "ret expr",
    TLetSucc: "let-s name bound body",
    TLetFail: "let-f name bound",
    TApp: "app fn arg fname xname body",
    TCaseInl: "case-l scrutinee lname rname body",
    TCaseInr: "case-r scrutinee lname rname body",
    TIfTrue: "if-t cond body",
    TIfFalse: "if-f cond body",
    TRaise: "raise expr",
    TTrySucc: "try-s name body",
    TTryFail: "try-f name body handler",
    TRef: "ref loc expr",
    TAssign: "assign target loc expr",
    TDeref: "deref loc expr",
    TArrMake: "arr-make loc length length_expr init",
    TArrGet: "arr-get arr index loc at",
    TArrSet: "arr-set arr index loc at expr",
    TFail: "fail path comp",
}


class TraceParseError(Exception):
    """A trace dump is malformed."""


# --- writer ----------------------------------------------------------------

def dump_trace(t: Trace) -> str:
    """The text of t in the dump format; its last line has no newline."""
    out: list = []
    _write(t, out, "")
    return "".join(out)


def _write(node, out: list, pad: str) -> None:
    """Append node's text; pad is the indent of the line it starts on."""
    fmt = _WRITERS.get(type(node))
    if fmt is None:
        out.append(_literal(node))
        return
    head, puts = fmt
    out.append(head)
    for get, put in puts:
        put(get(node), out, pad)
    out.append(")")


def _literal(node) -> str:
    cls = type(node)
    if cls is EHole or cls is CHole:
        return "_"
    if cls is EBool:
        return "true" if node.value else "false"
    if cls is ENum:
        return str(node.value)
    if cls is EStr:
        return '"' + node.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"not a dumpable term: {node!r}")


def _put_term(v, out: list, pad: str) -> None:
    out.append(" ")
    _write(v, out, pad)


def _put_terms(vs, out: list, pad: str) -> None:
    for v in vs:
        _put_term(v, out, pad)


def _put_trace(v, out: list, pad: str) -> None:
    pad += "  "
    out.append("\n" + pad)
    _write(v, out, pad)


def _put_locs(keys, out: list, pad: str) -> None:
    # a location sorts just before its elements
    keys = sorted(keys, key=lambda k: (k[0], k[1] + 1) if isinstance(k, tuple) else (k, 0))
    texts = (f"#{k[0]}[{k[1]}]" if isinstance(k, tuple) else f"#{k}" for k in keys)
    out.append(" (" + " ".join(texts) + ")")


# --- reader ----------------------------------------------------------------

_TOKEN = re.compile(r'\s*([()]|"[^"\\]*(?:\\.[^"\\]*)*"|[^\s()"]+|")', re.S)
_END = "the end of the dump"  # no token holds a space, so no reader accepts this
_ESCAPE = re.compile(r"\\(.)", re.S)
_UNESCAPE = {"n": "\n", "t": "\t"}
_NAME = re.compile(r'[^\s()"]+')
_NUMBER = re.compile(r"(-?[0-9]+)|-?[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?|-?inf|nan")  # repr's forms
_NAT = re.compile(r"[0-9]+")  # int fields are array lengths and indices
_LOC = re.compile(r"#([0-9]+)")
_LOCKEY = re.compile(r"#([0-9]+)(?:\[([0-9]+)\])?")
_PATH_STEP = re.compile(r"expr|check|[0-9]+")
_CATEGORY_NAMES = {Expr: "an expression", Comp: "a computation", Trace: "a trace"}


def load_trace(text: str) -> Trace:
    """Read a dump_trace dump; malformed input raises TraceParseError."""
    toks = _TOKEN.findall(text.rstrip())
    if not toks:
        raise TraceParseError("empty trace dump")
    toks.append(_END)
    toks.reverse()  # a stack, first token on top
    trace = _read(toks, Trace)
    if len(toks) > 1:
        raise TraceParseError("trailing garbage after trace")
    return trace


def _read(toks: list, category: type):
    tok = toks.pop()
    if tok != "(":
        return _read_literal(tok, category)
    tag = toks.pop()
    cls = _TAGS[category].get(tag)
    if cls is None:
        raise TraceParseError(f"unknown tag {tag} for {_CATEGORY_NAMES[category]}")
    order, readers = _READERS[cls]
    args = []
    for read in readers:
        args.append(read(toks))
    if toks.pop() != ")":
        raise TraceParseError(f"too many fields in ({tag} ...)")
    node = cls(*[args[i] for i in order])
    check = _CHECKS.get(cls)
    if check is not None:
        check(node)
    return node


def _read_literal(tok: str, category: type):
    if tok == "_" and category is not Trace:
        return EHole() if category is Expr else CHole()
    if category is Expr:
        if tok == "true" or tok == "false":
            return EBool(tok == "true")
        if tok[0] == '"':
            if len(tok) == 1:
                raise TraceParseError("unterminated string")
            return EStr(_ESCAPE.sub(lambda m: _UNESCAPE.get(m[1], m[1]), tok[1:-1]))
        number = _NUMBER.fullmatch(tok)
        if number:
            return ENum(int(tok) if number[1] else float(tok))
    raise TraceParseError(f"expected {_CATEGORY_NAMES[category]}, got {tok}")


def _match(toks: list, pattern, what: str):
    tok = toks.pop()
    found = pattern.fullmatch(tok)
    if found is None:
        raise TraceParseError(f"expected {what}, got {tok}")
    return found


def _read_list(toks: list, pattern, what: str) -> list:
    """A parenthesised list of atoms, each matching pattern."""
    if toks.pop() != "(":
        raise TraceParseError(f"expected a list of {what}")
    items = []
    while toks[-1] != ")":
        items.append(_match(toks, pattern, what))
    toks.pop()
    return items


def _read_terms(toks: list) -> tuple:
    """A spread tuple of expressions runs to the node's closing paren."""
    items = []
    while toks[-1] != ")":
        items.append(_read(toks, Expr))
    return tuple(items)


# Atoms that the field kinds alone do not constrain.
_ARITY = dict.fromkeys(BINARY_OPS, 2) | dict.fromkeys(UNARY_OPS, 1)


def _check_prim(e: EPrim) -> None:
    if _ARITY.get(e.op) != len(e.args):
        raise TraceParseError(f"operator {e.op} does not take {len(e.args)} operands")


def _check_hole(t: THole) -> None:
    if t.outcome not in (VAL, EXN):
        raise TraceParseError(f"unknown outcome {t.outcome}")


def _check_fail(t: TFail) -> None:
    path = t.path
    if path == ("check",):
        return
    if path[:1] != ("expr",) or len(path) < 2 or not all(type(p) is int for p in path[1:]):
        raise TraceParseError(f"bad failure path {path}")
    if type(t.comp) is not CHole and path[1] >= len(comp_exprs(t.comp)):
        raise TraceParseError(f"failure path {path} names a missing expression")


_CHECKS = {EPrim: _check_prim, THole: _check_hole, TFail: _check_fail}

# annotation -> (writer, reader) of a field
_FIELD_KINDS = {
    "Expr": (_put_term, lambda toks: _read(toks, Expr)),
    "Comp": (_put_term, lambda toks: _read(toks, Comp)),
    "Trace": (_put_trace, lambda toks: _read(toks, Trace)),
    "tuple[Expr, ...]": (_put_terms, _read_terms),
    "str": (lambda v, out, pad: out.append(f" {v}"),
            lambda toks: _match(toks, _NAME, "a name")[0]),
    "int": (lambda v, out, pad: out.append(f" {v}"),
            lambda toks: int(_match(toks, _NAT, "a non-negative integer")[0])),
    "Loc": (lambda v, out, pad: out.append(f" #{v}"),
            lambda toks: int(_match(toks, _LOC, "a location")[1])),
    "frozenset": (_put_locs, lambda toks: frozenset(
        int(m[1]) if m[2] is None else (int(m[1]), int(m[2]))
        for m in _read_list(toks, _LOCKEY, "location keys"))),
    "tuple": (lambda path, out, pad: out.append(" (" + " ".join(map(str, path)) + ")"),
              lambda toks: tuple(int(m[0]) if m[0].isdigit() else m[0]
                                 for m in _read_list(toks, _PATH_STEP, "failure path steps"))),
}


def _compile(table: dict) -> tuple:
    writers, readers, tags = {}, {}, {Expr: {}, Comp: {}, Trace: {}}
    for cls, line in table.items():
        tag, *names = line.split()
        types = {f.name: f.type for f in fields(cls) if f.name != "span"}
        kinds = [_FIELD_KINDS[types[n]] for n in names]
        writers[cls] = ("(" + tag, tuple((attrgetter(n), k[0]) for n, k in zip(names, kinds)))
        readers[cls] = (tuple(names.index(n) for n in types), tuple(k[1] for k in kinds))
        tags[SCHEMA[cls].category][tag] = cls
    return writers, readers, tags


_WRITERS, _READERS, _TAGS = _compile(DUMP_FORMAT)
