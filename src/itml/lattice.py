"""Prefix order, meets and joins on partial terms, plus trace annotations.

Every syntactic category (expressions, computations, values, results,
environments, stores, traces) carries the compatible partial order
generated by `hole <= t`.  The set of prefixes of a fixed term is a finite
lattice: meet is pointwise erasure-intersection, join exists for prefixes
of a common term and is partial otherwise.

Trace holes are annotated: `THole(L, k) <= T` only when `writes(T) == L`
and `outcome(T) == k`, so a fully elided trace still discloses its write
set and outcome.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, product
from math import prod
from operator import is_
from typing import Callable, Iterator

from .syntax import (
    ArrayCell, Comp, CHole, Env, EHole, Expr, Result, ScalarCell, Store,
    Trace, THole, Value, VHole, HOLE, LocKey, SCHEMA,
    trace_children, trace_local_writes,
)


class UndefinedJoinError(Exception):
    """Join requested outside a common prefix lattice: internal slicer bug."""


class UndefinedMeetError(Exception):
    """Meet of traces/results that share no full term (precondition breach)."""


class CapExceededError(Exception):
    """Enumeration request over the configured size cap."""


# ---------------------------------------------------------------------------
# Trace annotations

def outcome(t: Trace) -> str:
    """val/exn outcome of a trace; cached on the node at construction."""
    return t.k


def writes(t: Trace) -> frozenset:
    """The set of locations (or array elements) allocated or updated by t.

    Materialized iteratively and cached only on the queried node, so
    repeatedly asking about disjoint subtrees stays linear overall.
    """
    cached = t._writes
    if cached is not None:
        return cached
    acc: list = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node._writes is not None:
            acc.append(node._writes)
            continue
        acc.append(trace_local_writes(node))
        stack.extend(trace_children(node))
    result = frozenset(chain.from_iterable(acc))
    object.__setattr__(t, "_writes", result)
    return result


class WritesIndex:
    """Membership queries `key in writes(T)` for every node T of one trace.

    One preorder walk numbers the nodes, so each node's subtree is the
    position range [first, end), and lists, per location key, the sorted
    positions of the nodes that write it themselves.  A query is then one
    bisect, and no enclosing node's write set is materialized.
    """

    def __init__(self, trace: Trace) -> None:
        self._first: dict = {}
        self._end: dict = {}
        self._writers: dict = {}
        count = 0
        stack: list = [(trace, False)]
        while stack:
            node, done = stack.pop()
            if done:
                self._end[id(node)] = count
                continue
            self._first[id(node)] = count
            for key in trace_local_writes(node):
                self._writers.setdefault(key, []).append(count)
            count += 1
            stack.append((node, True))
            stack.extend((kid, False) for kid in reversed(trace_children(node)))

    def contains(self, t: Trace, key: LocKey) -> bool:
        """Does t, a node of the indexed trace, write key?"""
        at = self._writers.get(key)
        if at is None:
            return False
        i = bisect_left(at, self._first[id(t)])
        return i < len(at) and at[i] < self._end[id(t)]


# ---------------------------------------------------------------------------
# The generic order, meet and join.  Nodes of the four term categories run
# off the schema: a hole is below everything of its category, and two
# non-hole nodes compare when their classes and atoms agree, child by
# child.  Atoms compare type-exactly, so 1, 1.0 and True stay distinct.
# Environments, stores, results and EPrim's argument tuple are products
# with rules of their own.

_HOLES = frozenset((EHole, CHole, VHole, THole))

# The bottom of each category's prefix lattice below a term.  Meeting
# non-hole nodes of different shapes gives this bottom, except for traces:
# they must be prefixes of one run, so such a meet is undefined.
_BOTTOM = {
    Expr: lambda t: EHole(),
    Comp: lambda t: CHole(),
    Value: lambda t: HOLE,
    Trace: lambda t: THole(writes(t), outcome(t)),
}


def _same_shape(s, a, b) -> bool:
    """b has a's class and a's atoms."""
    if type(b) is not type(a):
        return False
    if not s.atoms:
        return True
    xs, ys = s.atom_values(a), s.atom_values(b)
    return xs == ys and all(map(is_, map(type, xs), map(type, ys)))


def _pointwise(op: Callable, s, a, b):
    """op child by child; a itself when no child changed."""
    kids = s.kids(a)
    if not kids:
        return a
    new = tuple(map(op, kids, s.kids(b)))
    return a if all(map(is_, new, kids)) else s.build(a, new)


def _untyped(t, *_):
    raise TypeError(f"not a partial term: {t!r}")


def leq(a, b) -> bool:
    """Prefix order: a is b with some subterms replaced by holes."""
    if a is b:
        return True
    cls = type(a)
    s = SCHEMA.get(cls)
    if s is None:
        return _LEQ.get(cls, _untyped)(a, b)
    if cls in _HOLES:
        # a trace hole still discloses its write set and outcome
        return cls is not THole or (a.outcome == outcome(b) and a.locs == writes(b))
    return _same_shape(s, a, b) and all(map(leq, s.kids(a), s.kids(b)))


def meet(a, b):
    """Greatest lower bound.  Total on expressions, computations and values
    (mismatched parts meet at the hole); traces and results must be
    prefixes of a common run."""
    if a is b:
        return a
    cls = type(a)
    s = SCHEMA.get(cls)
    if s is None:
        return _MEET.get(cls, _untyped)(a, b)
    if cls in _HOLES:
        return a
    if type(b) in _HOLES:
        return b
    if not _same_shape(s, a, b):
        if s.category is Trace:
            raise UndefinedMeetError(
                f"traces of different shapes: {cls.__name__} vs {type(b).__name__}")
        return _BOTTOM[s.category](a)
    return _pointwise(meet, s, a, b)


def join(a, b):
    """Least upper bound, defined inside the prefix lattice of a common term."""
    if a is b:
        return a
    cls = type(a)
    s = SCHEMA.get(cls)
    if s is None:
        return _JOIN.get(cls, _untyped)(a, b)
    if cls in _HOLES:
        return b
    if type(b) in _HOLES:
        return a
    if not _same_shape(s, a, b):
        raise UndefinedJoinError(f"no upper bound: {a!r} vs {b!r}")
    return _pointwise(join, s, a, b)


def _leq_store(a: Store, b: Store) -> bool:
    for loc, ca in a.cells():
        cb = b.cell(loc)
        if type(cb) is not type(ca):
            return False
        if isinstance(ca, ScalarCell):
            if not leq(ca.value, cb.value):
                return False
        elif cb.length != ca.length or not all(leq(v, cb.get(i)) for i, v in ca.items.items()):
            return False
    return True


def _meet_store(a: Store, b: Store) -> Store:
    out: dict = {}
    for loc, ca in a.cells():
        cb = b.cell(loc)
        if cb is None:
            continue
        if isinstance(ca, ScalarCell) and isinstance(cb, ScalarCell):
            out[loc] = ScalarCell(meet(ca.value, cb.value))
        elif isinstance(ca, ArrayCell) and isinstance(cb, ArrayCell) and ca.length == cb.length:
            items = {i: meet(v, cb.get(i)) for i, v in ca.items.items() if i in cb.items}
            out[loc] = ArrayCell(ca.length, items)
        else:
            raise UndefinedMeetError(f"cell shape mismatch at #{loc}")
    return Store(out)


def _join_store(a: Store, b: Store) -> Store:
    out = dict(a.cells())
    for loc, cb in b.cells():
        ca = out.get(loc)
        if ca is None:
            out[loc] = cb
        elif isinstance(ca, ScalarCell) and isinstance(cb, ScalarCell):
            out[loc] = ScalarCell(join(ca.value, cb.value))
        elif isinstance(ca, ArrayCell) and isinstance(cb, ArrayCell) and ca.length == cb.length:
            items = dict(ca.items)
            for i, v in cb.items.items():
                items[i] = join(items[i], v) if i in items else v
            out[loc] = ArrayCell(ca.length, items)
        else:
            raise UndefinedJoinError(f"cell shape mismatch at #{loc}")
    return Store(out)


def _join_env(a: Env, b: Env) -> Env:
    if not b:
        return a
    out = dict(a.items())
    for k, v in b.items():
        out[k] = join(out[k], v) if k in out else v
    return Env(out)


def _same_outcome(error: type, a: Result, b: Result) -> str:
    if a.outcome != b.outcome:
        raise error(f"outcomes differ: {a.outcome} vs {b.outcome}")
    return a.outcome


_LEQ = {
    Env: lambda a, b: all(leq(v, b.get(k)) for k, v in a.items()),
    Store: _leq_store,
    Result: lambda a, b: a.outcome == b.outcome and leq(a.value, b.value),
    tuple: lambda a, b: len(a) == len(b) and all(map(leq, a, b)),
}
_MEET = {
    Env: lambda a, b: Env({k: meet(v, b.get(k)) for k, v in a.items() if k in b}),
    Store: _meet_store,
    Result: lambda a, b: Result(_same_outcome(UndefinedMeetError, a, b), meet(a.value, b.value)),
    tuple: lambda a, b: tuple(map(meet, a, b)),
}
_JOIN = {
    Env: _join_env,
    Store: _join_store,
    Result: lambda a, b: Result(_same_outcome(UndefinedJoinError, a, b), join(a.value, b.value)),
    tuple: lambda a, b: tuple(map(join, a, b)),
}


# ---------------------------------------------------------------------------
# Exhaustive prefix enumeration (the oracle's workhorse).
#
# Bottom is yielded first and the full term last, the leftmost child
# varying slowest; the count is the product, over non-hole nodes, of
# (1 + product of child counts).  The products (environments, stores and
# their cells, results, argument tuples) have no hole of their own: their
# prefixes are those of their parts, with keys visited in sorted order.

DEFAULT_POINT_CAP = 16


def _map_parts(pairs, make: Callable) -> tuple:
    keys, values = zip(*sorted(pairs)) if pairs else ((), ())
    return values, lambda vs: make(dict(zip(keys, vs)))


_PARTS = {
    tuple: lambda t: (t, tuple),
    Result: lambda r: ((r.value,), lambda vs: Result(r.outcome, *vs)),
    ScalarCell: lambda c: ((c.value,), lambda vs: ScalarCell(*vs)),
    ArrayCell: lambda c: _map_parts(c.items.items(), lambda m: ArrayCell(c.length, m)),
    Env: lambda e: _map_parts(e.items(), Env),
    Store: lambda s: _map_parts(s.cells(), Store),
}


def _hole_points(t) -> int:
    """Number of positions where a hole can be introduced."""
    if type(t) in _HOLES:
        return 0
    s = SCHEMA.get(type(t))
    if s is None:
        return sum(map(_hole_points, _PARTS.get(type(t), _untyped)(t)[0]))
    return 1 + sum(map(_hole_points, s.kids(t)))


def lattice_size(t) -> int:
    """|Prefix(t)| computed by the recursive product formula."""
    if type(t) in _HOLES:
        return 1
    s = SCHEMA.get(type(t))
    if s is None:
        return prod(map(lattice_size, _PARTS.get(type(t), _untyped)(t)[0]))
    return 1 + prod(map(lattice_size, s.kids(t)))


def _enum(t) -> Iterator:
    if type(t) in _HOLES:
        yield t
        return
    s = SCHEMA.get(type(t))
    if s is None:
        parts, make = _PARTS.get(type(t), _untyped)(t)
        for combo in product(*[list(_enum(p)) for p in parts]):
            yield make(combo)
        return
    yield _BOTTOM[s.category](t)
    for combo in product(*[list(_enum(k)) for k in s.kids(t)]):
        yield s.build(t, combo)


def enumerate_prefixes(t, point_cap: int = DEFAULT_POINT_CAP) -> Iterator:
    """Every element of Prefix(t) exactly once, bottom first, top last."""
    points = _hole_points(t)
    if points > point_cap:
        raise CapExceededError(f"{points} hole positions exceed cap {point_cap}")
    return _enum(t)


# ---------------------------------------------------------------------------
# Prefix-with-witness convenience used by property tests.

class PrefixWitness:
    """A partial term together with the full term it is a prefix of."""

    __slots__ = ("full", "partial")

    def __init__(self, full, partial):
        if not leq(partial, full):
            raise ValueError("not a prefix")
        self.full = full
        self.partial = partial

    def __repr__(self) -> str:
        return f"PrefixWitness(partial={self.partial!r})"
