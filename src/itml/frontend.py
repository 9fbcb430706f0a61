"""Surface language: parsing, elaboration into the stratified core, the
criterion mini-language, and shaded rendering of slices.

The surface language is ML-flavoured and unstratified: effectful
operations may appear anywhere.  Elaboration A-normalizes by let-lifting
effectful subterms to fresh administrative variables (in surface
evaluation order), leaving pure subexpressions in place, and desugars

    M1 ;; M2          to  let _ = M1 in M2
    while e do M      to  (rec loop _ => if e then (M ;; loop ()) else return ()) ()
    [| e0, ..., ek |] to  an array allocation followed by one update per element
    [ e0; ...; ek ]   to  inr (e0, inr (... inl ()))

Every core node keeps the source span of the surface construct it stands
for; purely synthetic helpers (literal array lengths, loop unit arguments)
carry no span and therefore never shade.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from .interp import RunRecord
from .syntax import (
    Comp, CApp, CArrGet, CArrMake, CArrSet, CAssign, CCase, CDeref, CHole,
    CIf, CLet, CRaise, CRef, CRet, CTry,
    Expr, EBool, EFun, EFst, EHole, EInl, EInr, ENum, EPair, EPrim, ESnd,
    EStr, EUnit, EVar,
    Result, Span, Store, Value, VArr, VBool, VInl, VInr, VLoc, VNum,
    VPair, VStr, VUnit, HOLE, VAL, EXN,
    hole_regions, merge_regions, shade_source,
)
from .slicer import Criterion


class SourceError(Exception):
    """Parse or elaboration failure, with a position in the source."""

    def __init__(self, msg: str, pos: int, text: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{msg} at line {line}, column {col}")
        self.pos = pos


class CriterionError(Exception):
    """Ill-formed slicing criterion (unknown name, bad index, bad pattern)."""


# ---------------------------------------------------------------------------
# Lexer

KEYWORDS = {
    "let", "in", "fun", "rec", "if", "then", "else", "while", "do", "try",
    "with", "case", "of", "inl", "inr", "raise", "return", "ref", "true",
    "false", "not", "array", "fst", "snd", "val", "exn", "result",
}

_PUNCT = [
    "[|", "|]", ";;", ":=", "<-", "<=", ">=", "==", "<>", "&&", "||", "=>",
    "->", "(", ")", "[", "]", ",", ";", "|", "+", "-", "*", "/", "<", ">",
    "=", "!", "_",
]


@dataclass(frozen=True)
class Token:
    kind: str  # ident, int, float, string, punct, kw, eof
    text: str
    start: int
    end: int
    glued: bool = False  # no whitespace before this token

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)


def tokenize(text: str) -> list:
    tokens: list = []
    i, n = 0, len(text)
    glued = False
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            glued = False
            continue
        if text.startswith("--", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            glued = False
            continue
        start = i
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            isfloat = False
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and j > i and text[j - 1] in "eE")):
                if text[j] in ".eE":
                    isfloat = True
                j += 1
            word = text[i:j]
            tokens.append(Token("float" if isfloat else "int", word, start, j, glued))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            if word == "_":
                tokens.append(Token("punct", "_", start, j, glued))
            elif word in KEYWORDS:
                tokens.append(Token("kw", word, start, j, glued))
            else:
                tokens.append(Token("ident", word, start, j, glued))
            i = j
        elif c == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(text[j + 1], text[j + 1]))
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise SourceError("unterminated string literal", i, text)
            tokens.append(Token("string", "".join(buf), start, j + 1, glued))
            i = j + 1
        else:
            for p in _PUNCT:
                if text.startswith(p, i):
                    tokens.append(Token("punct", p, start, i + len(p), glued))
                    i += len(p)
                    break
            else:
                raise SourceError(f"unexpected character {c!r}", i, text)
        glued = True
    tokens.append(Token("eof", "", n, n, False))
    return tokens


# ---------------------------------------------------------------------------
# Surface terms

@dataclass(frozen=True)
class STerm:
    pass


def _sterm(name, *fields):
    return dataclass(frozen=True)(type(name, (STerm,), {
        "__annotations__": {**{f: object for f in fields}, "span": object},
    }))


SVar = _sterm("SVar", "name")
SUnit = _sterm("SUnit")
SBool = _sterm("SBool", "value")
SNum = _sterm("SNum", "value")
SStr = _sterm("SStr", "value")
SHole = _sterm("SHole")
SPair = _sterm("SPair", "fst", "snd")
SFst = _sterm("SFst", "arg")
SSnd = _sterm("SSnd", "arg")
SInl = _sterm("SInl", "arg")
SInr = _sterm("SInr", "arg")
SFun = _sterm("SFun", "fname", "params", "body")
SPrim = _sterm("SPrim", "op", "args")
SLet = _sterm("SLet", "name", "bound", "body")
SRet = _sterm("SRet", "arg")
SApp = _sterm("SApp", "fn", "arg")
SCase = _sterm("SCase", "scrutinee", "lname", "left", "rname", "right")
SIf = _sterm("SIf", "cond", "then", "els")
SWhile = _sterm("SWhile", "cond", "body")
SSeq = _sterm("SSeq", "first", "second")
SRaise = _sterm("SRaise", "arg")
STry = _sterm("STry", "body", "name", "handler")
SRef = _sterm("SRef", "arg")
SAssign = _sterm("SAssign", "target", "arg")
SDeref = _sterm("SDeref", "arg")
SArrLit = _sterm("SArrLit", "items")
SArrMake = _sterm("SArrMake", "length", "init")
SArrGet = _sterm("SArrGet", "arr", "index")
SArrSet = _sterm("SArrSet", "arr", "index", "arg")
SListLit = _sterm("SListLit", "items")


@dataclass(frozen=True)
class SurfaceProgram:
    source: str
    term: STerm


# ---------------------------------------------------------------------------
# Parser: recursive descent with precedence climbing.

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def at_punct(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text in texts

    def at_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text in words

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise SourceError(f"expected {want!r}, found {tok.text or tok.kind!r}",
                              tok.start, self.text)
        return self.next()

    def binder(self) -> str:
        if self.at_punct("_"):
            self.next()
            return "_"
        return self.expect("ident").text

    # --- term levels ------------------------------------------------------

    def term(self) -> STerm:
        first = self.bindterm()
        if self.at_punct(";;", ";"):
            self.next()
            rest = self.term()
            return SSeq(first, rest, Span(first.span.start, rest.span.end))
        return first

    def bindterm(self) -> STerm:
        tok = self.peek()
        if tok.kind == "kw":
            match tok.text:
                case "let":
                    self.next()
                    name = self.binder()
                    self.expect("punct", "=")
                    bound = self.bindterm()
                    self.expect("kw", "in")
                    body = self.term()
                    return SLet(name, bound, body, Span(tok.start, body.span.end))
                case "fun" | "rec":
                    return self._fun(tok)
                case "if":
                    self.next()
                    cond = self.term()
                    self.expect("kw", "then")
                    then = self.bindterm()
                    self.expect("kw", "else")
                    els = self.bindterm()
                    return SIf(cond, then, els, Span(tok.start, els.span.end))
                case "while":
                    # the body extends as far as possible (through `;;`);
                    # parenthesize the loop or the body to delimit it
                    self.next()
                    cond = self.term()
                    self.expect("kw", "do")
                    body = self.term()
                    return SWhile(cond, body, Span(tok.start, body.span.end))
                case "try":
                    self.next()
                    body = self.bindterm()
                    self.expect("kw", "with")
                    name = self.binder()
                    self.expect("punct", "->")
                    handler = self.bindterm()
                    return STry(body, name, handler, Span(tok.start, handler.span.end))
                case "case":
                    self.next()
                    scrutinee = self.term()
                    self.expect("kw", "of")
                    if self.at_punct("|"):
                        self.next()
                    self.expect("kw", "inl")
                    lname = self.binder()
                    self.expect("punct", "=>")
                    left = self.bindterm()
                    self.expect("punct", "|")
                    self.expect("kw", "inr")
                    rname = self.binder()
                    self.expect("punct", "=>")
                    right = self.bindterm()
                    return SCase(scrutinee, lname, left, rname, right,
                                 Span(tok.start, right.span.end))
                case "raise":
                    self.next()
                    arg = self.opterm()
                    return SRaise(arg, Span(tok.start, arg.span.end))
                case "return":
                    self.next()
                    arg = self.opterm()
                    return SRet(arg, Span(tok.start, arg.span.end))
        return self.opterm()

    def _fun(self, tok: Token) -> STerm:
        rec = tok.text == "rec"
        self.next()
        fname = self.expect("ident").text if rec else None
        params = [self._param()]
        while self.at("ident") or self.at_punct("_", "("):
            if self.at_punct("(") and not self._param_ahead():
                break
            params.append(self._param())
        self.expect("punct", "=>")
        body = self.term()
        return SFun(fname, tuple(params), body, Span(tok.start, body.span.end))

    def _param_ahead(self) -> bool:
        """A '(' opens a pattern parameter only for (x, y) shapes."""
        i = self.pos
        toks = self.toks
        if toks[i].text != "(":
            return False
        depth = 0
        saw_comma = False
        while i < len(toks):
            t = toks[i]
            if t.kind == "punct" and t.text == "(":
                depth += 1
            elif t.kind == "punct" and t.text == ")":
                depth -= 1
                if depth == 0:
                    break
            elif t.kind == "punct" and t.text == ",":
                saw_comma = depth == 1 or saw_comma
            elif t.kind not in ("ident",) and not (t.kind == "punct" and t.text == "_"):
                return False
            i += 1
        return saw_comma

    def _param(self):
        if self.at_punct("("):
            self.next()
            first = self._param()
            self.expect("punct", ",")
            second = self._param()
            self.expect("punct", ")")
            return (first, second)
        return self.binder()

    def opterm(self) -> STerm:
        lhs = self.orterm()
        if self.at_punct(":="):
            self.next()
            rhs = self.orterm()
            return SAssign(lhs, rhs, Span(lhs.span.start, rhs.span.end))
        if self.at_punct("<-"):
            self.next()
            rhs = self.orterm()
            if not isinstance(lhs, SArrGet):
                raise SourceError("'<-' needs an array element on the left",
                                  self.peek().start, self.text)
            return SArrSet(lhs.arr, lhs.index, rhs, Span(lhs.span.start, rhs.span.end))
        return lhs

    def _binop_chain(self, sub, ops) -> STerm:
        lhs = sub()
        while self.at_punct(*ops):
            op = self.next().text
            rhs = sub()
            lhs = SPrim(op, (lhs, rhs), Span(lhs.span.start, rhs.span.end))
        return lhs

    def orterm(self) -> STerm:
        return self._binop_chain(self.andterm, ("||",))

    def andterm(self) -> STerm:
        return self._binop_chain(self.cmpterm, ("&&",))

    def cmpterm(self) -> STerm:
        lhs = self.addterm()
        if self.at_punct("<", "<=", ">", ">=", "==", "<>"):
            op = self.next().text
            rhs = self.addterm()
            return SPrim(op, (lhs, rhs), Span(lhs.span.start, rhs.span.end))
        return lhs

    def addterm(self) -> STerm:
        return self._binop_chain(self.multerm, ("+", "-"))

    def multerm(self) -> STerm:
        return self._binop_chain(self.unary, ("*", "/"))

    def unary(self) -> STerm:
        tok = self.peek()
        if self.at_punct("!"):
            self.next()
            arg = self.unary()
            return SDeref(arg, Span(tok.start, arg.span.end))
        if self.at_punct("-"):
            self.next()
            arg = self.unary()
            if isinstance(arg, SNum) and arg.span.start == tok.end:
                return SNum(-arg.value, Span(tok.start, arg.span.end))
            return SPrim("neg", (arg,), Span(tok.start, arg.span.end))
        if self.at_kw("not"):
            self.next()
            arg = self.unary()
            return SPrim("not", (arg,), Span(tok.start, arg.span.end))
        if self.at_kw("ref"):
            self.next()
            arg = self.unary()
            return SRef(arg, Span(tok.start, arg.span.end))
        if self.at_kw("fst", "snd", "inl", "inr"):
            word = self.next().text
            arg = self.unary()
            cls = {"fst": SFst, "snd": SSnd, "inl": SInl, "inr": SInr}[word]
            return cls(arg, Span(tok.start, arg.span.end))
        return self.appterm()

    def appterm(self) -> STerm:
        fn = self.postfix()
        while self._starts_atom():
            arg = self.postfix()
            fn = SApp(fn, arg, Span(fn.span.start, arg.span.end))
        return fn

    def _starts_atom(self) -> bool:
        tok = self.peek()
        if tok.kind in ("ident", "int", "float", "string"):
            return True
        if tok.kind == "kw" and tok.text in ("true", "false", "array"):
            return True
        if tok.kind == "punct" and tok.text in ("(", "[|", "_"):
            return True
        if tok.kind == "punct" and tok.text == "[" and not tok.glued:
            return True
        return False

    def postfix(self) -> STerm:
        node = self.atom()
        while self.at_punct("[") and self.peek().glued:
            self.next()
            index = self.term()
            close = self.expect("punct", "]")
            node = SArrGet(node, index, Span(node.span.start, close.end))
        return node

    def atom(self) -> STerm:
        tok = self.peek()
        match tok.kind:
            case "int":
                self.next()
                return SNum(int(tok.text), tok.span)
            case "float":
                self.next()
                return SNum(float(tok.text), tok.span)
            case "string":
                self.next()
                return SStr(tok.text, tok.span)
            case "ident":
                self.next()
                return SVar(tok.text, tok.span)
        if self.at_kw("true", "false"):
            self.next()
            return SBool(tok.text == "true", tok.span)
        if self.at_kw("array"):
            self.next()
            self.expect("punct", "(")
            length = self.term()
            self.expect("punct", ",")
            init = self.term()
            close = self.expect("punct", ")")
            return SArrMake(length, init, Span(tok.start, close.end))
        if self.at_punct("_"):
            self.next()
            return SHole(tok.span)
        if self.at_punct("("):
            self.next()
            if self.at_punct(")"):
                close = self.next()
                return SUnit(Span(tok.start, close.end))
            first = self.term()
            if self.at_punct(","):
                self.next()
                second = self.term()
                close = self.expect("punct", ")")
                return SPair(first, second, Span(tok.start, close.end))
            close = self.expect("punct", ")")
            return dataclasses.replace(first, span=Span(tok.start, close.end))
        if self.at_punct("[|"):
            self.next()
            items = []
            if not self.at_punct("|]"):
                items.append(self.bindterm())
                while self.at_punct(",", ";"):
                    self.next()
                    items.append(self.bindterm())
            close = self.expect("punct", "|]")
            return SArrLit(tuple(items), Span(tok.start, close.end))
        if self.at_punct("["):
            self.next()
            items = []
            if not self.at_punct("]"):
                items.append(self.bindterm())
                while self.at_punct(",", ";"):
                    self.next()
                    items.append(self.bindterm())
            close = self.expect("punct", "]")
            return SListLit(tuple(items), Span(tok.start, close.end))
        raise SourceError(f"unexpected {tok.text or tok.kind!r}", tok.start, self.text)


def parse_program(text: str) -> SurfaceProgram:
    parser = _Parser(text)
    term = parser.term()
    parser.expect("eof")
    return SurfaceProgram(text, term)


# ---------------------------------------------------------------------------
# Elaboration

@dataclass(frozen=True)
class ElaborationMap:
    """Span provenance for the elaborated core: the full core term, whose
    nodes carry their source spans (administrative nodes with span = None
    never shade by themselves)."""

    core: Comp


class ElabError(Exception):
    pass


_EFFECTFUL = (SLet, SRet, SApp, SCase, SIf, SWhile, SSeq, SRaise, STry, SRef,
              SAssign, SDeref, SArrLit, SArrMake, SArrGet, SArrSet)


class _Elab:
    """Stratifies surface terms, threading the surface tree path so that
    administrative names are a pure function of the construct's position:
    hole-punching one subterm never renames the bindings of another, which
    keeps separately elaborated partial programs aligned with dumped
    traces."""

    def __init__(self, reserved: set):
        self.reserved = reserved

    def fresh(self, stem: str, path: tuple) -> str:
        name = f"_{stem}" + "".join(f"_{i}" for i in path)
        while name in self.reserved:
            name += "x"
        return name

    # --- computations -----------------------------------------------------

    def comp(self, s: STerm, scope: frozenset, path: tuple) -> Comp:
        match s:
            case SHole(span=sp):
                return CHole(span=sp)
            case SLet(name, bound, body, span=sp):
                bound_c = self.comp(bound, scope, path + (0,))
                body_c = self.comp(body, scope | {name}, path + (1,))
                return CLet(name, bound_c, body_c, span=sp)
            case SRet(arg, span=sp):
                binds: list = []
                e = self.expr(arg, scope, binds, path + (0,))
                return self.wrap(binds, CRet(e, span=sp), sp)
            case SSeq(first, second, span=sp):
                first_c = self.comp(first, scope, path + (0,))
                second_c = self.comp(second, scope, path + (1,))
                return CLet(self.fresh("s", path), first_c, second_c, span=sp)
            case SIf(cond, then, els, span=sp):
                binds = []
                c = self.expr(cond, scope, binds, path + (0,))
                node = CIf(c, self.comp(then, scope, path + (1,)),
                           self.comp(els, scope, path + (2,)), span=sp)
                return self.wrap(binds, node, sp)
            case SWhile():
                return self.while_loop(s, scope, path)
            case SCase(scrutinee, lname, left, rname, right, span=sp):
                binds = []
                e = self.expr(scrutinee, scope, binds, path + (0,))
                node = CCase(e, lname, self.comp(left, scope | {lname}, path + (1,)),
                             rname, self.comp(right, scope | {rname}, path + (2,)),
                             span=sp)
                return self.wrap(binds, node, sp)
            case SRaise(arg, span=sp):
                binds = []
                e = self.expr(arg, scope, binds, path + (0,))
                return self.wrap(binds, CRaise(e, span=sp), sp)
            case STry(body, name, handler, span=sp):
                node = CTry(self.comp(body, scope, path + (0,)), name,
                            self.comp(handler, scope | {name}, path + (1,)), span=sp)
                return node
            case SRef(arg, span=sp):
                binds = []
                e = self.expr(arg, scope, binds, path + (0,))
                return self.wrap(binds, CRef(e, span=sp), sp)
            case SAssign(target, arg, span=sp):
                binds = []
                t = self.expr(target, scope, binds, path + (0,))
                e = self.expr(arg, scope, binds, path + (1,))
                return self.wrap(binds, CAssign(t, e, span=sp), sp)
            case SDeref(arg, span=sp):
                binds = []
                e = self.expr(arg, scope, binds, path + (0,))
                return self.wrap(binds, CDeref(e, span=sp), sp)
            case SArrMake(length, init, span=sp):
                binds = []
                n = self.expr(length, scope, binds, path + (0,))
                v = self.expr(init, scope, binds, path + (1,))
                return self.wrap(binds, CArrMake(n, v, span=sp), sp)
            case SArrGet(arr, index, span=sp):
                binds = []
                a = self.expr(arr, scope, binds, path + (0,))
                i = self.expr(index, scope, binds, path + (1,))
                return self.wrap(binds, CArrGet(a, i, span=sp), sp)
            case SArrSet(arr, index, arg, span=sp):
                binds = []
                a = self.expr(arr, scope, binds, path + (0,))
                i = self.expr(index, scope, binds, path + (1,))
                e = self.expr(arg, scope, binds, path + (2,))
                return self.wrap(binds, CArrSet(a, i, e, span=sp), sp)
            case SApp(fn, arg, span=sp):
                binds = []
                f = self.expr(fn, scope, binds, path + (0,))
                a = self.expr(arg, scope, binds, path + (1,))
                return self.wrap(binds, CApp(f, a, span=sp), sp)
            case SArrLit():
                return self.array_literal(s, scope, path)
            case _:
                # pure term in computation position: implicit return
                sp = s.span
                binds = []
                e = self.expr(s, scope, binds, path)
                return self.wrap(binds, CRet(e, span=sp), sp)

    def wrap(self, binds: list, core: Comp, outer_span: Optional[Span]) -> Comp:
        """Let-bind the lifted computations around `core`, innermost last.

        The administrative lets carry no span of their own (the lifted
        computation keeps its origin span, so elision still shades the
        right extent); the outermost node takes the whole construct's span
        so eliding the full chain shades the full surface statement."""
        for name, comp, span in reversed(binds):
            core = CLet(name, comp, core, span=None)
        if binds and outer_span is not None:
            object.__setattr__(core, "span", outer_span)
        return core

    # --- expressions ------------------------------------------------------

    def expr(self, s: STerm, scope: frozenset, binds: list, path: tuple) -> Expr:
        match s:
            case SHole(span=sp):
                return EHole(span=sp)
            case SVar(name, span=sp):
                if name not in scope:
                    raise ElabError(f"unbound variable {name}")
                return EVar(name, span=sp)
            case SUnit(span=sp):
                return EUnit(span=sp)
            case SBool(v, span=sp):
                return EBool(v, span=sp)
            case SNum(v, span=sp):
                return ENum(v, span=sp)
            case SStr(v, span=sp):
                return EStr(v, span=sp)
            case SPair(a, b, span=sp):
                return EPair(self.expr(a, scope, binds, path + (0,)),
                             self.expr(b, scope, binds, path + (1,)), span=sp)
            case SFst(a, span=sp):
                return EFst(self.expr(a, scope, binds, path + (0,)), span=sp)
            case SSnd(a, span=sp):
                return ESnd(self.expr(a, scope, binds, path + (0,)), span=sp)
            case SInl(a, span=sp):
                return EInl(self.expr(a, scope, binds, path + (0,)), span=sp)
            case SInr(a, span=sp):
                return EInr(self.expr(a, scope, binds, path + (0,)), span=sp)
            case SPrim(op, args, span=sp):
                parts = tuple(
                    self.expr(a, scope, binds, path + (k,))
                    for k, a in enumerate(args))
                return EPrim(op, parts, span=sp)
            case SFun():
                return self.fun(s, scope, path)
            case SListLit(items, span=sp):
                out = EInl(EUnit(), span=None)
                for k in reversed(range(len(items))):
                    item = items[k]
                    head = self.expr(item, scope, binds, path + (k,))
                    pair = EPair(head, out, span=None)
                    out = EInr(pair, span=None)
                object.__setattr__(out, "span", sp)
                return out
            case _ if isinstance(s, _EFFECTFUL):
                name = self.fresh("t", path)
                binds.append((name, self.comp(s, scope, path), s.span))
                return EVar(name, span=s.span)
        raise ElabError(f"cannot elaborate {type(s).__name__}")

    def fun(self, s, scope: frozenset, path: tuple) -> Expr:
        """Curried, possibly recursive function; pair patterns destructure
        through fresh parameters."""
        sp = s.span

        def build(params, scope, outer_fname, k):
            param = params[0]
            pname = param if isinstance(param, str) else self.fresh("p", path + (k,))
            inner_scope = scope | {outer_fname, pname}
            names = [] if isinstance(param, str) else self.pattern_names(param)
            inner_scope |= set(names)
            if len(params) == 1:
                body = self.comp(s.body, inner_scope, path + (0,))
            else:
                nested = build(params[1:], inner_scope,
                               self.fresh("f", path + (k + 1,)), k + 1)
                body = CRet(nested, span=None)
            if not isinstance(param, str):
                body = self.destructure(param, pname, body, path + (k,))
            return EFun(outer_fname, pname, body, span=sp)

        fname = s.fname or self.fresh("f", path + (0,))
        return build(list(s.params), scope, fname, 0)

    def pattern_names(self, pattern) -> list:
        if isinstance(pattern, str):
            return [pattern] if pattern != "_" else []
        return self.pattern_names(pattern[0]) + self.pattern_names(pattern[1])

    def destructure(self, pattern, source: str, body: Comp, path: tuple) -> Comp:
        """let (a, b) = source in body, via fst/snd projections."""
        first, second = pattern
        for idx, (part, proj) in enumerate(((second, ESnd), (first, EFst))):
            if isinstance(part, str):
                if part == "_":
                    continue
                bound = CRet(proj(EVar(source)), span=None)
                body = CLet(part, bound, body, span=None)
            else:
                tmp = self.fresh("p", path + (idx,))
                bound = CRet(proj(EVar(source)), span=None)
                body = self.destructure(part, tmp, body, path + (idx,))
                body = CLet(tmp, bound, body, span=None)
        return body

    def while_loop(self, s, scope: frozenset, path: tuple) -> Comp:
        """(rec loop _ => if cond then (body ;; loop ()) else return ()) ()"""
        sp = s.span
        loop = self.fresh("loop", path)
        arg = self.fresh("u", path)
        body_c = self.comp(s.body, scope, path + (1,))
        call = CApp(EVar(loop), EUnit(), span=None)
        then = CLet(self.fresh("s", path), body_c, call, span=s.body.span)
        els = CRet(EUnit(), span=None)
        binds: list = []
        cond = self.expr(s.cond, scope | {loop, arg}, binds, path + (0,))
        if_node = CIf(cond, then, els, span=None)
        fun_body = self.wrap(binds, if_node, None)
        fun = EFun(loop, arg, fun_body, span=None)
        return CApp(fun, EUnit(), span=sp)

    def array_literal(self, s, scope: frozenset, path: tuple) -> Comp:
        """Allocate, then write each element; element writes carry the
        element spans so slicing shades elements individually."""
        sp = s.span
        arr = self.fresh("a", path)
        make = CArrMake(ENum(len(s.items)), ENum(0), span=None)
        tail: Comp = CRet(EVar(arr), span=None)
        for k in reversed(range(len(s.items))):
            item = s.items[k]
            binds: list = []
            e = self.expr(item, scope, binds, path + (k,))
            set_node = CArrSet(EVar(arr), ENum(k), e, span=item.span)
            set_chain = self.wrap(binds, set_node, item.span)
            tail = CLet(self.fresh("s", path + (k,)), set_chain, tail, span=None)
        return CLet(arr, make, tail, span=sp)


def elaborate(program: SurfaceProgram) -> tuple:
    """Stratify a surface program into the core language.

    Returns the core computation and the span-provenance map; evaluation
    order of the core matches the surface's left-to-right order.
    """
    reserved = {t.text for t in tokenize(program.source) if t.kind == "ident"}
    elab = _Elab(reserved)
    core = elab.comp(program.term, frozenset(), ())
    return core, ElaborationMap(core)


def parse_and_elaborate(text: str) -> tuple:
    return elaborate(parse_program(text))


# ---------------------------------------------------------------------------
# Criterion mini-language:
#   result = val <pat> | result = exn <pat> | !x = <pat> | x[i] = <pat>
# comma-separated; patterns are partial value literals with `_` holes.

def parse_criterion(text: str, run: RunRecord) -> Criterion:
    parser = _Parser(text)
    result: Optional[Result] = None
    store = Store()
    while not parser.at("eof"):
        if parser.at_kw("result"):
            parser.next()
            parser.expect("punct", "=")
            if parser.at_kw("val"):
                outcome = VAL
            elif parser.at_kw("exn"):
                outcome = EXN
            else:
                tok = parser.peek()
                raise CriterionError(f"expected val or exn, found {tok.text!r}")
            parser.next()
            result = Result(outcome, _pattern(parser))
        elif parser.at_punct("!"):
            parser.next()
            name = parser.expect("ident").text
            parser.expect("punct", "=")
            pat = _pattern(parser)
            loc = _resolve_scalar(run, name)
            store = store.set_value(loc, pat)
        elif parser.at("ident"):
            name = parser.next().text
            if not parser.at_punct("["):
                raise CriterionError(
                    f"store criteria are written !{name} = <pat> or {name}[i] = <pat>")
            parser.next()
            idx_tok = parser.expect("int")
            parser.expect("punct", "]")
            parser.expect("punct", "=")
            pat = _pattern(parser)
            arr = _resolve_array(run, name)
            index = int(idx_tok.text)
            if not 0 <= index < arr.length:
                raise CriterionError(
                    f"index {index} out of range for {name} (length {arr.length})")
            store = store.set_elem(arr.loc, index, pat, length=arr.length)
        else:
            tok = parser.peek()
            raise CriterionError(f"cannot parse criterion at {tok.text!r}")
        if parser.at_punct(","):
            parser.next()
        elif not parser.at("eof"):
            tok = parser.peek()
            raise CriterionError(f"expected ',' between criteria, found {tok.text!r}")
    if result is None:
        result = Result(run.result.outcome, HOLE)
    return Criterion(result, store)


def _pattern(parser: _Parser) -> Value:
    tok = parser.peek()
    if parser.at_punct("_"):
        parser.next()
        return HOLE
    if parser.at("int"):
        parser.next()
        return VNum(int(tok.text))
    if parser.at("float"):
        parser.next()
        return VNum(float(tok.text))
    if parser.at_punct("-"):
        parser.next()
        num = parser.peek()
        if parser.at("int"):
            parser.next()
            return VNum(-int(num.text))
        if parser.at("float"):
            parser.next()
            return VNum(-float(num.text))
        raise CriterionError("expected a number after '-'")
    if parser.at("string"):
        parser.next()
        return VStr(tok.text)
    if parser.at_kw("true", "false"):
        parser.next()
        return VBool(tok.text == "true")
    if parser.at_kw("inl"):
        parser.next()
        return VInl(_pattern(parser))
    if parser.at_kw("inr"):
        parser.next()
        return VInr(_pattern(parser))
    if parser.at_punct("("):
        parser.next()
        if parser.at_punct(")"):
            parser.next()
            return VUnit()
        first = _pattern(parser)
        if parser.at_punct(","):
            parser.next()
            second = _pattern(parser)
            parser.expect("punct", ")")
            return VPair(first, second)
        parser.expect("punct", ")")
        return first
    raise CriterionError(f"cannot parse value pattern at {tok.text or tok.kind!r}")


def _resolve_scalar(run: RunRecord, name: str) -> int:
    v = run.binding(name)
    if v is None:
        raise CriterionError(f"unknown name {name}")
    if not isinstance(v, VLoc):
        raise CriterionError(f"{name} is not bound to a reference")
    return v.loc


def _resolve_array(run: RunRecord, name: str) -> VArr:
    v = run.binding(name)
    if v is None:
        raise CriterionError(f"unknown name {name}")
    if not isinstance(v, VArr):
        raise CriterionError(f"{name} is not bound to an array")
    return v


# ---------------------------------------------------------------------------
# Shaded rendering of a slice against its source.

def slice_regions(slice_comp: Comp, emap: ElaborationMap) -> list:
    """Maximal source regions elided by the slice."""
    return merge_regions(hole_regions(emap.core, slice_comp))


def render_slice(slice_comp: Comp, emap: ElaborationMap, source: str,
                 color: bool = False) -> str:
    """The surface source with every sliced-away region wrapped in shade
    markers.  A region is shaded iff every core node carrying that span is
    a hole in the slice; administrative nodes without a span of their own
    never shade."""
    return shade_source(source, slice_regions(slice_comp, emap), color=color)
