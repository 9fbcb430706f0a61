"""Correctness checks on the benchmark's outputs.

Every check compares an itml output either with a value computed here in
plain Python, apart from itml, or with a property that slicing must have
(the Galois connection between forward and backward slicing).  None
compares with a saved copy of an earlier output.  A failed check raises
CheckFailed with a one-line description.
"""

from __future__ import annotations

from itml.lattice import join, leq
from itml.oracle import enumerate_inputs, input_lattice_size
from itml.slicer import fwd_comp
from itml.syntax import EXN, VAL, ArrayCell, Result, VArr, VLoc, VNum, VStr


class CheckFailed(Exception):
    """An output of itml is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def slice_parts(out) -> tuple:
    return out.env, out.store, out.program, out.trace


def run_inputs(run) -> tuple:
    return run.env, run.store, run.program, run.trace


# ---------------------------------------------------------------------------
# Reference computations, made apart from itml.

def array_build_expected(n: int, factor: int) -> list:
    """The array the build loop leaves behind: a[k] = factor * k."""
    return [factor * k for k in range(n)]


def gauss_reference(a: list, b: list) -> list:
    """Gaussian elimination then back-substitution, in exactly the
    operation order of the itml program, on copies of its inputs.  Raises
    ZeroDivisionError at an exactly zero pivot, as the program raises
    "division by zero"."""
    a = [list(row) for row in a]
    b = list(b)
    n = len(b)
    for dia in range(n):
        for row in range(dia + 1, n):
            tmp = a[row][dia] / a[dia][dia]
            for col in range(dia + 1, n):
                a[row][col] = a[row][col] - tmp * a[dia][col]
            a[row][dia] = 0.0
            b[row] = b[row] - tmp * b[dia]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        tmp = b[row]
        for j in range(n - 1, row, -1):
            tmp = tmp - x[j] * a[row][j]
        x[row] = tmp / a[row][row]
    return x


# ---------------------------------------------------------------------------
# Outputs of evaluation.

def _array_items(run, cell_loc: int, length: int) -> list:
    cell = run.out_store.cell(cell_loc)
    require(isinstance(cell, ArrayCell) and cell.length == length,
            f"location #{cell_loc} does not hold an array of length {length}")
    return [cell.get(i) for i in range(length)]


def check_array_build(run, n: int, factor: int) -> None:
    """!i = n, the result is n, and every a[k] = factor * k."""
    arr = run.binding("a")
    require(isinstance(arr, VArr) and arr.length == n, "a is not an array of length n")
    want = array_build_expected(n, factor)
    got = _array_items(run, arr.loc, n)
    for k, (g, w) in enumerate(zip(got, want)):
        require(g == VNum(w), f"a[{k}] is {g!r}, expected {w}")
    counter = run.binding("i")
    require(isinstance(counter, VLoc), "i is not a reference")
    require(run.out_store.get_value(counter.loc) == VNum(n), f"!i is not {n}")
    require(run.result == Result(VAL, VNum(n)), f"result is not val {n}")


def check_solution(run, expected: list) -> None:
    """The returned array equals the Python elimination, bit for bit."""
    value = run.result.value
    require(run.result.outcome == VAL and isinstance(value, VArr),
            f"result {run.result!r} is not an array")
    got = _array_items(run, value.loc, len(expected))
    for i, (g, w) in enumerate(zip(got, expected)):
        require(g == VNum(float(w)), f"x[{i}] is {g!r}, expected {w!r}")


def check_raises(run, message: str) -> None:
    require(run.result == Result(EXN, VStr(message)),
            f"result {run.result!r} is not exn {message!r}")


def check_replay(got: tuple, run) -> None:
    """Forward slicing of the full inputs reproduces the recorded outputs."""
    store, result = got
    require(store == run.out_store, "replayed store differs from the recorded one")
    require(result == run.result, "replayed result differs from the recorded one")


def check_roundtrip(loaded, trace) -> None:
    require(loaded == trace, "load_trace(dump_trace(t)) differs from t")


# ---------------------------------------------------------------------------
# Properties of slices.

def check_sufficient(criterion, out) -> None:
    """criterion is below fwd(bwd(criterion)): the slice reproduces it."""
    store, result = fwd_comp(out.env, out.store, out.program, out.trace)
    require(leq(criterion.store, store) and leq(criterion.result, result),
            "forward slice of the backward slice does not cover the criterion")


def check_below(small: tuple, big: tuple, what: str) -> None:
    """Each part of `small` is a prefix of the matching part of `big`."""
    require(all(leq(s, b) for s, b in zip(small, big)), what)


def check_below_inputs(out, run) -> None:
    check_below(slice_parts(out), run_inputs(run), "slice is not a prefix of the full inputs")


def check_join(parts: list, whole) -> None:
    """bwd preserves joins: the slices for the parts of a criterion join to
    the slice for the whole criterion."""
    target = slice_parts(whole)
    joined = None
    for part in parts:
        piece = slice_parts(part)
        check_below(piece, target, "slice of a part is not below the slice of the whole")
        joined = piece if joined is None else tuple(join(a, b) for a, b in zip(joined, piece))
    require(joined == target, "slices of the parts do not join to the slice of the whole")


# ---------------------------------------------------------------------------
# Oracle verdicts.

def check_oracle_verdicts(adjunction, minimality) -> None:
    require(adjunction is None, f"adjunction counterexample: {adjunction}")
    require(minimality is None, f"minimality counterexample: {minimality}")


def check_lattice_size(run) -> None:
    """The closed-form size of the input lattice counts its enumeration."""
    counted = sum(1 for _ in enumerate_inputs(run))
    require(counted == input_lattice_size(run),
            f"input_lattice_size says {input_lattice_size(run)}, enumeration yields {counted}")
