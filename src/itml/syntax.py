"""Abstract syntax for the traced imperative core language.

The language is stratified: *expressions* are pure, *computations* carry
effects (references, arrays, exceptions).  Every syntactic category has a
hole constructor, so partial programs, values, stores and traces are
ordinary terms rather than option-wrapped ones.  Traces are proof terms of
big-step evaluations; a fully elided trace keeps its write set and outcome
as annotations.

All nodes are frozen dataclasses.  Structural equality ignores source
spans and any cached attributes, so `a == b` is exactly span-insensitive
term equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Optional, Union

# ---------------------------------------------------------------------------
# Source spans

@dataclass(frozen=True)
class Span:
    """Byte range [start, end) into the surface source."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"bad span {self.start}..{self.end}")


OptSpan = Optional[Span]

# Locations are allocation-order indices; array elements are addressed by
# (location, index) pairs.  A location is scalar or array for its whole
# lifetime, never both.
Loc = int
LocKey = Union[int, tuple]

VAL = "val"
EXN = "exn"

# Operators usable in EPrim nodes.  "neg"/"not" are unary.
BINARY_OPS = ("+", "-", "*", "/", "<", "<=", ">", ">=", "==", "<>", "&&", "||")
UNARY_OPS = ("not", "neg")


# ---------------------------------------------------------------------------
# Expressions

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class EHole(Expr):
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EVar(Expr):
    name: str
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EUnit(Expr):
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EBool(Expr):
    value: bool
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class ENum(Expr):
    """Integer or binary64 literal; 1 and 1.0 are distinct terms."""

    value: Union[int, float]
    span: OptSpan = field(default=None, compare=False, repr=False)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is ENum
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("ENum", type(self.value).__name__, self.value))


@dataclass(frozen=True)
class EStr(Expr):
    value: str
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EPair(Expr):
    fst: Expr
    snd: Expr
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EFst(Expr):
    arg: Expr
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ESnd(Expr):
    arg: Expr
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EInl(Expr):
    arg: Expr
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EInr(Expr):
    arg: Expr
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EFun(Expr):
    """Recursive function literal; fname is bound to the closure itself."""

    fname: str
    xname: str
    body: Comp
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EPrim(Expr):
    op: str
    args: tuple[Expr, ...]
    span: OptSpan = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Computations

class Comp:
    __slots__ = ()


@dataclass(frozen=True)
class CHole(Comp):
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CRet(Comp):
    expr: Expr
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CLet(Comp):
    name: str
    bound: Comp
    body: Comp
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CApp(Comp):
    fn: Expr
    arg: Expr
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CCase(Comp):
    scrutinee: Expr
    lname: str
    left: Comp
    rname: str
    right: Comp
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CIf(Comp):
    cond: Expr
    then: Comp
    els: Comp
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CRaise(Comp):
    expr: Expr
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CTry(Comp):
    body: Comp
    name: str
    handler: Comp
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CRef(Comp):
    expr: Expr
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CAssign(Comp):
    target: Expr
    expr: Expr
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CDeref(Comp):
    expr: Expr
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CArrMake(Comp):
    length: Expr
    init: Expr
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CArrGet(Comp):
    arr: Expr
    index: Expr
    span: OptSpan = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CArrSet(Comp):
    arr: Expr
    index: Expr
    expr: Expr
    span: OptSpan = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Values

class Value:
    __slots__ = ()


@dataclass(frozen=True)
class VHole(Value):
    pass


@dataclass(frozen=True)
class VUnit(Value):
    pass


@dataclass(frozen=True)
class VBool(Value):
    value: bool


@dataclass(frozen=True, eq=False)
class VNum(Value):
    value: Union[int, float]

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is VNum
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("VNum", type(self.value).__name__, self.value))


@dataclass(frozen=True)
class VStr(Value):
    value: str


@dataclass(frozen=True)
class VPair(Value):
    fst: Value
    snd: Value


@dataclass(frozen=True)
class VInl(Value):
    arg: Value


@dataclass(frozen=True)
class VInr(Value):
    arg: Value


@dataclass(frozen=True)
class VClosure(Value):
    env: Env
    fname: str
    xname: str
    body: Comp


@dataclass(frozen=True)
class VLoc(Value):
    loc: Loc


@dataclass(frozen=True)
class VArr(Value):
    """Array reference: backing location plus fixed length."""

    loc: Loc
    length: int


HOLE = VHole()
UNIT = VUnit()


@dataclass(frozen=True)
class Result:
    """val/exn outcome tag plus a (possibly partial) value.

    There is no hole outcome: a partial result always knows whether the
    computation returned or raised.
    """

    outcome: str
    value: Value

    def __post_init__(self) -> None:
        if self.outcome not in (VAL, EXN):
            raise ValueError(f"bad outcome {self.outcome!r}")


# ---------------------------------------------------------------------------
# Environments: finitely supported maps, viewed as total with default hole.
# Entries mapping to hole are dropped, so pointwise comparison over the
# union of supports is antisymmetric.

class Env:
    __slots__ = ("_m",)

    def __init__(self, mapping: Optional[dict] = None):
        m = {}
        if mapping:
            for k, v in mapping.items():
                if not isinstance(v, VHole):
                    m[k] = v
        object.__setattr__(self, "_m", m)

    def get(self, name: str) -> Value:
        return self._m.get(name, HOLE)

    def bind(self, name: str, value: Value) -> "Env":
        new = dict(self._m)
        if isinstance(value, VHole):
            new.pop(name, None)
        else:
            new[name] = value
        return Env._trusted(new)

    def without(self, *names: str) -> "Env":
        new = {k: v for k, v in self._m.items() if k not in names}
        return Env._trusted(new)

    def items(self):
        return self._m.items()

    def __contains__(self, name: str) -> bool:
        return name in self._m

    def __len__(self) -> int:
        return len(self._m)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Env) and self._m == other._m

    def __hash__(self) -> int:
        return hash(frozenset(self._m.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={render_value(v)}" for k, v in sorted(self._m.items()))
        return f"Env({inner})"

    @staticmethod
    def _trusted(m: dict) -> "Env":
        env = Env.__new__(Env)
        object.__setattr__(env, "_m", m)
        return env


EMPTY_ENV = Env()


# ---------------------------------------------------------------------------
# Stores: locations map to scalar cells or fixed-length array cells.

@dataclass(frozen=True)
class ScalarCell:
    value: Value


class ArrayCell:
    """Fixed-length array cell; items holds only hole-free elements."""

    __slots__ = ("length", "items")

    def __init__(self, length: int, items: Optional[dict] = None):
        clean = {}
        if items:
            for i, v in items.items():
                if not isinstance(v, VHole):
                    if not 0 <= i < length:
                        raise ValueError(f"index {i} out of array cell of length {length}")
                    clean[i] = v
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "items", clean)

    def get(self, i: int) -> Value:
        return self.items.get(i, HOLE)

    def set(self, i: int, v: Value) -> "ArrayCell":
        new = dict(self.items)
        if isinstance(v, VHole):
            new.pop(i, None)
        else:
            new[i] = v
        return ArrayCell._trusted(self.length, new)

    @staticmethod
    def _trusted(length: int, items: dict) -> "ArrayCell":
        """A cell over items already known to be hole-free and in range."""
        cell = ArrayCell.__new__(ArrayCell)
        object.__setattr__(cell, "length", length)
        object.__setattr__(cell, "items", items)
        return cell

    def is_bottom(self) -> bool:
        return not self.items

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayCell)
            and other.length == self.length
            and other.items == self.items
        )

    def __hash__(self) -> int:
        return hash((self.length, frozenset(self.items.items())))

    def __repr__(self) -> str:
        return f"ArrayCell({self.length}, {self.items})"


Cell = Union[ScalarCell, ArrayCell]


def _cell_is_bottom(cell: Cell) -> bool:
    if isinstance(cell, ScalarCell):
        return isinstance(cell.value, VHole)
    return cell.is_bottom()


class Store:
    """Finitely supported map location -> cell; unmapped reads yield hole.

    Bottom cells (scalar hole, all-hole array) are dropped at construction,
    so equality and hashing are over the informative entries only.
    """

    __slots__ = ("_m",)

    def __init__(self, mapping: Optional[dict] = None):
        m = {}
        if mapping:
            for k, c in mapping.items():
                if not _cell_is_bottom(c):
                    m[k] = c
        object.__setattr__(self, "_m", m)

    @staticmethod
    def _trusted(m: dict) -> "Store":
        st = Store.__new__(Store)
        object.__setattr__(st, "_m", m)
        return st

    def cell(self, loc: Loc) -> Optional[Cell]:
        return self._m.get(loc)

    def cells(self):
        return self._m.items()

    def locs(self):
        return self._m.keys()

    def get_value(self, loc: Loc) -> Value:
        cell = self._m.get(loc)
        if cell is None:
            return HOLE
        if isinstance(cell, ArrayCell):
            raise TypeError(f"location #{loc} holds an array, not a scalar")
        return cell.value

    def get_elem(self, loc: Loc, i: int) -> Value:
        cell = self._m.get(loc)
        if cell is None:
            return HOLE
        if isinstance(cell, ScalarCell):
            raise TypeError(f"location #{loc} holds a scalar, not an array")
        return cell.get(i)

    def set_value(self, loc: Loc, v: Value) -> "Store":
        new = dict(self._m)
        if isinstance(v, VHole):
            new.pop(loc, None)
        else:
            new[loc] = ScalarCell(v)
        return Store._trusted(new)

    def set_elem(self, loc: Loc, i: int, v: Value, length: Optional[int] = None) -> "Store":
        cell = self._m.get(loc)
        if cell is None:
            if isinstance(v, VHole):
                return self
            if length is None:
                raise TypeError(f"cannot write element of unknown array #{loc}")
            cell = ArrayCell(length)
        if not isinstance(cell, ArrayCell):
            raise TypeError(f"location #{loc} holds a scalar, not an array")
        updated = cell.set(i, v)
        new = dict(self._m)
        if updated.is_bottom():
            new.pop(loc, None)
        else:
            new[loc] = updated
        return Store._trusted(new)

    def drop(self, loc: Loc) -> "Store":
        if loc not in self._m:
            return self
        new = dict(self._m)
        del new[loc]
        return Store._trusted(new)

    def demanded(self) -> Iterator[LocKey]:
        """Keys of all non-hole entries: loc for scalars, (loc, i) for elements."""
        for loc, cell in self._m.items():
            if isinstance(cell, ScalarCell):
                yield loc
            else:
                for i in cell.items:
                    yield (loc, i)

    def is_bottom(self) -> bool:
        return not self._m

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Store) and self._m == other._m

    def __hash__(self) -> int:
        return hash(frozenset(self._m.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"#{k}={cell!r}" for k, cell in sorted(self._m.items()))
        return f"Store({inner})"


EMPTY_STORE = Store()


# ---------------------------------------------------------------------------
# Traces.  Each node caches its outcome (self.k) at construction; the
# interpreter additionally decorates nodes with the environment they ran in
# (self.env), which backward slicing consults to recover recorded values,
# and lattice.writes caches a node's write set (self._writes).  The class
# attributes are the undecorated defaults.  None of them takes part in
# equality.

class Trace:
    __slots__ = ()
    env = None
    _writes = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _trace_outcome(self))

    def with_env(self, env: Env) -> "Trace":
        object.__setattr__(self, "env", env)
        return self


@dataclass(frozen=True)
class THole(Trace):
    """Fully elided trace, annotated with its write set and outcome."""

    locs: frozenset
    outcome: str


@dataclass(frozen=True)
class TRet(Trace):
    expr: Expr


@dataclass(frozen=True)
class TLetSucc(Trace):
    name: str
    bound: Trace
    body: Trace


@dataclass(frozen=True)
class TLetFail(Trace):
    bound: Trace
    name: str


@dataclass(frozen=True)
class TApp(Trace):
    fn: Expr
    arg: Expr
    fname: str
    xname: str
    body: Trace


@dataclass(frozen=True)
class TCaseInl(Trace):
    scrutinee: Expr
    lname: str
    body: Trace
    rname: str


@dataclass(frozen=True)
class TCaseInr(Trace):
    scrutinee: Expr
    lname: str
    rname: str
    body: Trace


@dataclass(frozen=True)
class TIfTrue(Trace):
    cond: Expr
    body: Trace


@dataclass(frozen=True)
class TIfFalse(Trace):
    cond: Expr
    body: Trace


@dataclass(frozen=True)
class TRaise(Trace):
    expr: Expr


@dataclass(frozen=True)
class TTrySucc(Trace):
    body: Trace
    name: str


@dataclass(frozen=True)
class TTryFail(Trace):
    body: Trace
    name: str
    handler: Trace


@dataclass(frozen=True)
class TRef(Trace):
    loc: Loc
    expr: Expr


@dataclass(frozen=True)
class TAssign(Trace):
    target: Expr
    loc: Loc
    expr: Expr


@dataclass(frozen=True)
class TDeref(Trace):
    loc: Loc
    expr: Expr


@dataclass(frozen=True)
class TArrMake(Trace):
    loc: Loc
    length: int
    length_expr: Expr
    init: Expr


@dataclass(frozen=True)
class TArrGet(Trace):
    arr: Expr
    index: Expr
    loc: Loc
    at: int


@dataclass(frozen=True)
class TArrSet(Trace):
    arr: Expr
    index: Expr
    loc: Loc
    at: int
    expr: Expr


@dataclass(frozen=True)
class TFail(Trace):
    """A computation whose pre-effect phase raised: division by zero while
    evaluating an embedded expression, an out-of-bounds array access, or a
    negative array length.  No store effect happened; outcome is exn.

    `path` pins the raise point: ("expr", i, *subpath) is a division inside
    the node's i-th expression, ("check",) the node's own length/bounds
    check.  Forward slicing may only re-raise at this recorded point, which
    keeps it meet-preserving when several raises would be derivable."""

    comp: Comp
    path: tuple


# ---------------------------------------------------------------------------
# Term schema.  Every concrete expression, computation, value and trace
# class is described once, from its field annotations: which fields hold
# child terms (in field order) and which hold atoms (names, operators,
# literals, locations, failure paths).  Source spans are neither.  The
# prefix lattice, child traversal and slice rebuilding all run off it.

# annotations that mark a child term; every other annotated field is an atom
_CHILD_TYPES = frozenset({"Expr", "Comp", "Value", "Env", "Trace", "tuple[Expr, ...]"})


class Schema(NamedTuple):
    category: type           # Expr, Comp, Value or Trace
    children: tuple          # names of the child-term fields, in field order
    atoms: tuple             # names of the atom fields
    kids: Callable           # node -> its children, in field order
    atom_values: Callable    # node -> its atoms, in field order
    build: Callable          # (node, kids) -> fresh node with the same atoms


def _getter(names: tuple) -> Callable:
    """node -> tuple of the named fields."""
    if not names:
        return lambda node: ()
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return attrgetter(*names)


def _schema(cls: type, category: type) -> Schema:
    types = {f.name: f.type for f in fields(cls) if f.name != "span"}
    children = tuple(n for n in types if types[n] in _CHILD_TYPES)
    atoms = tuple(n for n in types if n not in children)
    atom_values = _getter(atoms)
    if atoms:
        # constructor arguments in field order: (is a child, index)
        order = tuple((True, children.index(n)) if n in children else (False, atoms.index(n))
                      for n in types)

        def build(node, kids):
            avs = atom_values(node)
            return cls(*[kids[i] if child else avs[i] for child, i in order])
    else:
        def build(node, kids):
            return cls(*kids)
    return Schema(category, children, atoms, _getter(children), atom_values, build)


def _typed_children(category: type, annotation: str) -> dict:
    return {
        cls: _getter(tuple(f.name for f in fields(cls) if f.type == annotation))
        for cls in category.__subclasses__()
    }


SCHEMA = {
    cls: _schema(cls, category)
    for category in (Expr, Comp, Value, Trace)
    for cls in category.__subclasses__()
}
_COMP_EXPRS = _typed_children(Comp, "Expr")
_TRACE_CHILDREN = _typed_children(Trace, "Trace")


def term_children(node) -> tuple:
    """Child terms of a node in field order, EPrim's arguments spliced in;
    TFail paths index expressions by this order."""
    if type(node) is EPrim:
        return node.args
    return SCHEMA[type(node)].kids(node)


def comp_exprs(m: Comp) -> tuple:
    """Immediate expressions of a computation, in evaluation order."""
    return _COMP_EXPRS[type(m)](m)


def trace_children(t: Trace) -> tuple:
    """Sub-traces of t in evaluation order."""
    return _TRACE_CHILDREN[type(t)](t)


def _trace_outcome(t: Trace) -> str:
    """A trace ends as its last sub-trace does; a leaf returns unless it
    raised."""
    if type(t) is THole:
        return t.outcome
    if type(t) in (TRaise, TLetFail, TFail):
        return EXN
    kids = trace_children(t)
    return kids[-1].k if kids else VAL


def trace_local_writes(t: Trace) -> frozenset:
    """Write set contributed by this node alone (children excluded)."""
    match t:
        case THole(locs, _):
            return locs
        case TRef(loc, _) | TAssign(_, loc, _):
            return frozenset((loc,))
        case TArrMake(loc, length, _, _):
            return frozenset((loc, i) for i in range(length))
        case TArrSet(_, _, loc, at, _):
            # TArrGet reads (loc, at) but changes no store, so forward
            # slicing never needs it to bound an elided sub-run's effects
            return frozenset(((loc, at),))
        case _:
            return frozenset()


# ---------------------------------------------------------------------------
# Rendering.  Plain mode prints parseable surface syntax with `_` for
# holes; shaded mode reproduces the original source with every elided
# region wrapped in shade markers.

SHADE_OPEN = "⟦"   # ⟦
SHADE_CLOSE = "⟧"  # ⟧

_PREC_SEQ = 0
_PREC_ASSIGN = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_CMP = 4
_PREC_ADD = 5
_PREC_MUL = 6
_PREC_UNARY = 7
_PREC_APP = 8
_PREC_ATOM = 9

# (own level, required level of the right operand); the binary operators
# parse left-associatively, so right operands at the same level need parens
_BIN_PREC = {
    "||": (_PREC_OR, _PREC_AND),
    "&&": (_PREC_AND, _PREC_CMP),
    "<": (_PREC_CMP, _PREC_ADD),
    "<=": (_PREC_CMP, _PREC_ADD),
    ">": (_PREC_CMP, _PREC_ADD),
    ">=": (_PREC_CMP, _PREC_ADD),
    "==": (_PREC_CMP, _PREC_ADD),
    "<>": (_PREC_CMP, _PREC_ADD),
    "+": (_PREC_ADD, _PREC_MUL),
    "-": (_PREC_ADD, _PREC_MUL),
    "*": (_PREC_MUL, _PREC_UNARY),
    "/": (_PREC_MUL, _PREC_UNARY),
}


def _wrap(text: str, prec: int, ctx: int) -> str:
    return f"({text})" if prec < ctx else text


def _render_num(n: Union[int, float]) -> str:
    if isinstance(n, float):
        return repr(n)
    return str(n)


def render_expr(e: Expr, ctx: int = 0) -> str:
    match e:
        case EHole():
            return "_"
        case EVar(name):
            return name
        case EUnit():
            return "()"
        case EBool(b):
            return "true" if b else "false"
        case ENum(n):
            text = _render_num(n)
            if text.startswith("-"):
                return _wrap(text, _PREC_UNARY, ctx)
            return text
        case EStr(s):
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'
        case EPair(a, b):
            return f"({render_expr(a)}, {render_expr(b)})"
        case EFst(a):
            return _wrap(f"fst {render_expr(a, _PREC_ATOM)}", _PREC_APP, ctx)
        case ESnd(a):
            return _wrap(f"snd {render_expr(a, _PREC_ATOM)}", _PREC_APP, ctx)
        case EInl(a):
            return _wrap(f"inl {render_expr(a, _PREC_ATOM)}", _PREC_APP, ctx)
        case EInr(a):
            return _wrap(f"inr {render_expr(a, _PREC_ATOM)}", _PREC_APP, ctx)
        case EFun(f, x, body):
            return _wrap(f"rec {f} {x} => {render_comp(body)}", _PREC_SEQ, ctx)
        case EPrim("not", (a,)):
            return _wrap(f"not {render_expr(a, _PREC_ATOM)}", _PREC_UNARY, ctx)
        case EPrim("neg", (a,)):
            return _wrap(f"-{render_expr(a, _PREC_ATOM)}", _PREC_UNARY, ctx)
        case EPrim(op, (a, b)):
            lp, rp = _BIN_PREC[op]
            text = f"{render_expr(a, lp)} {op} {render_expr(b, rp)}"
            return _wrap(text, lp, ctx)
    raise TypeError(f"not an expression: {e!r}")


def render_comp(m: Comp, ctx: int = 0) -> str:
    match m:
        case CHole():
            return "_"
        case CRet(e):
            return _wrap(f"return {render_expr(e, _PREC_ATOM)}", _PREC_APP, ctx)
        case CLet(x, bound, body):
            text = f"let {x} = {render_comp(bound, _PREC_ASSIGN)} in {render_comp(body)}"
            return _wrap(text, _PREC_SEQ, ctx)
        case CApp(f, a):
            return _wrap(f"{render_expr(f, _PREC_APP)} {render_expr(a, _PREC_ATOM)}", _PREC_APP, ctx)
        case CCase(e, lx, left, ry, right):
            text = (
                f"case {render_expr(e)} of inl {lx} => {render_comp(left, _PREC_ASSIGN)}"
                f" | inr {ry} => {render_comp(right, _PREC_ASSIGN)}"
            )
            return _wrap(text, _PREC_SEQ, ctx)
        case CIf(c, t, e):
            text = f"if {render_expr(c)} then {render_comp(t, _PREC_ASSIGN)} else {render_comp(e, _PREC_ASSIGN)}"
            return _wrap(text, _PREC_SEQ, ctx)
        case CRaise(e):
            return _wrap(f"raise {render_expr(e, _PREC_ATOM)}", _PREC_APP, ctx)
        case CTry(body, x, handler):
            text = f"try {render_comp(body, _PREC_ASSIGN)} with {x} -> {render_comp(handler, _PREC_ASSIGN)}"
            return _wrap(text, _PREC_SEQ, ctx)
        case CRef(e):
            return _wrap(f"ref {render_expr(e, _PREC_ATOM)}", _PREC_APP, ctx)
        case CAssign(t, e):
            return _wrap(f"{render_expr(t, _PREC_OR)} := {render_expr(e, _PREC_OR)}", _PREC_ASSIGN, ctx)
        case CDeref(e):
            return _wrap(f"!{render_expr(e, _PREC_ATOM)}", _PREC_UNARY, ctx)
        case CArrMake(n, init):
            return f"array({render_expr(n)}, {render_expr(init)})"
        case CArrGet(a, i):
            return _wrap(f"{render_expr(a, _PREC_ATOM)}[{render_expr(i)}]", _PREC_APP, ctx)
        case CArrSet(a, i, e):
            text = f"{render_expr(a, _PREC_ATOM)}[{render_expr(i)}] <- {render_expr(e, _PREC_OR)}"
            return _wrap(text, _PREC_ASSIGN, ctx)
    raise TypeError(f"not a computation: {m!r}")


def render_value(v: Value) -> str:
    match v:
        case VHole():
            return "_"
        case VUnit():
            return "()"
        case VBool(b):
            return "true" if b else "false"
        case VNum(n):
            return _render_num(n)
        case VStr(s):
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'
        case VPair(a, b):
            return f"({render_value(a)}, {render_value(b)})"
        case VInl(a):
            return f"inl {render_value(a)}" if isinstance(a, (VHole, VUnit, VBool, VNum, VStr)) else f"inl ({render_value(a)})"
        case VInr(a):
            return f"inr {render_value(a)}" if isinstance(a, (VHole, VUnit, VBool, VNum, VStr)) else f"inr ({render_value(a)})"
        case VClosure(_, f, x, _):
            return f"<closure {f} {x}>"
        case VLoc(loc):
            return f"#{loc}"
        case VArr(loc, n):
            return f"<array #{loc} len {n}>"
    raise TypeError(f"not a value: {v!r}")


def render_result(r: Result) -> str:
    return f"{r.outcome} {render_value(r.value)}"


# --- shaded rendering -------------------------------------------------------

def hole_regions(original, sliced) -> list:
    """Spans of maximal subterms of `original` elided (hole) in `sliced`.

    Both arguments are core terms of the same category with `sliced` a
    prefix of `original`; spans are read off the original.  Nodes without a
    span (synthetic, never user-written) contribute nothing themselves but
    are still descended into.
    """
    out: list = []
    _hole_regions(original, sliced, out)
    return sorted(set(out), key=lambda s: (s.start, s.end))


def subtree_extent(node) -> OptSpan:
    """Smallest span covering every span-carrying node of the subtree."""
    lo = hi = None
    stack = [node]
    while stack:
        t = stack.pop()
        span = t.span
        if span is not None:
            lo = span.start if lo is None else min(lo, span.start)
            hi = span.end if hi is None else max(hi, span.end)
        stack.extend(term_children(t))
    return None if lo is None else Span(lo, hi)


def _hole_regions(original, sliced, out: list) -> None:
    if isinstance(sliced, (EHole, CHole)):
        span = subtree_extent(original)
        if span is not None:
            out.append(span)
        return
    if type(original) is not type(sliced):
        raise ValueError(
            f"slice is not a prefix of the original: {type(sliced).__name__} vs {type(original).__name__}"
        )
    for orig_child, sliced_child in zip(term_children(original), term_children(sliced)):
        _hole_regions(orig_child, sliced_child, out)


def merge_regions(regions: list) -> list:
    """Merge overlapping/adjacent spans into maximal non-overlapping ones."""
    merged: list = []
    for span in sorted(regions, key=lambda s: (s.start, s.end)):
        if merged and span.start <= merged[-1].end:
            if span.end > merged[-1].end:
                merged[-1] = Span(merged[-1].start, span.end)
        else:
            merged.append(span)
    return merged


def shade_source(source: str, regions: list, color: bool = False) -> str:
    """Wrap each region of `source` in shade markers (or ANSI reverse video)."""
    merged = merge_regions(regions)
    out = []
    pos = 0
    for span in merged:
        out.append(source[pos:span.start])
        body = source[span.start:span.end]
        if color:
            out.append(f"\x1b[7m{body}\x1b[0m")
        else:
            out.append(f"{SHADE_OPEN}{body}{SHADE_CLOSE}")
        pos = span.end
    out.append(source[pos:])
    return "".join(out)


def render_term(term, mode: str = "plain", original=None, source: Optional[str] = None) -> str:
    """Print a core term.

    plain: parseable surface syntax, holes as `_`.
    shaded: needs the unsliced `original` term and the surface `source`;
    reproduces the source with hole-covered spans wrapped in markers.
    """
    if mode == "plain":
        if isinstance(term, Expr):
            return render_expr(term)
        if isinstance(term, Comp):
            return render_comp(term)
        raise TypeError(f"not a term: {term!r}")
    if mode == "shaded":
        if original is None or source is None:
            raise ValueError("shaded mode needs the original term and its source")
        return shade_source(source, hole_regions(original, term))
    raise ValueError(f"unknown mode {mode!r}")
