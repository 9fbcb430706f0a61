"""Term construction, span-insensitive equality, rendering."""

import dataclasses

import pytest

from itml.syntax import (
    SCHEMA, Comp, Expr, Trace, Value,
    CAssign, CHole, CLet, CRef, CRet, EHole, ENum, EPair, EPrim, EVar, Env,
    Span, Store, ScalarCell, ArrayCell, VHole, VNum, VPair, HOLE,
    hole_regions, merge_regions, render_comp, render_expr,
    render_term, render_value, shade_source, subtree_extent,
)


def test_render_pair_with_hole():
    assert render_expr(EPair(ENum(1), EHole())) == "(1, _)"


def test_render_full_hole_comp():
    assert render_term(CHole()) == "_"


def test_render_precedence():
    e = EPrim("*", (EPrim("+", (ENum(1), ENum(2))), ENum(3)))
    assert render_expr(e) == "(1 + 2) * 3"
    e = EPrim("+", (ENum(1), EPrim("*", (ENum(2), ENum(3)))))
    assert render_expr(e) == "1 + 2 * 3"
    e = EPrim("-", (ENum(1), EPrim("-", (ENum(2), ENum(3)))))
    assert render_expr(e) == "1 - (2 - 3)"


def test_equal_terms_ignores_spans():
    a = CRet(ENum(1, span=Span(0, 1)), span=Span(0, 10))
    b = CRet(ENum(1, span=Span(5, 6)), span=Span(2, 12))
    assert a == b
    assert CRet(ENum(1)) != CRet(EHole())
    assert EHole() == EHole()


def test_equal_terms_is_equivalence():
    terms = [CRet(ENum(1)), CRet(ENum(1)), CRet(ENum(2)), CHole()]
    for t in terms:
        assert t == t
    assert (terms[0] == terms[1]) == (terms[1] == terms[0])


def test_int_and_float_literals_differ():
    assert ENum(1) != ENum(1.0)
    assert VNum(1) != VNum(1.0)
    assert ENum(1) == ENum(1)
    assert render_value(VNum(1.5)) == "1.5"


def test_env_is_hole_normalized():
    env = Env({"x": VNum(1), "y": HOLE})
    assert "y" not in env
    assert env.get("y") == HOLE
    assert env == Env({"x": VNum(1)})
    assert env.bind("x", HOLE) == Env()


def test_store_is_hole_normalized():
    store = Store({0: ScalarCell(HOLE), 1: ArrayCell(2, {0: HOLE, 1: VNum(2)})})
    assert store.cell(0) is None
    assert store.get_value(0) == HOLE
    assert store.get_elem(1, 0) == HOLE
    assert list(store.demanded()) == [(1, 1)]
    # an all-hole array cell is the same bottom as an absent one
    assert store.set_elem(1, 1, HOLE) == Store()


def test_array_cells_keep_length():
    cell = ArrayCell(3, {0: VNum(1)})
    assert cell.length == 3
    with pytest.raises(ValueError):
        ArrayCell(2, {5: VNum(1)})


def test_shade_source_and_merge():
    src = "abcdef"
    out = shade_source(src, [Span(1, 3), Span(3, 4)])
    assert out == "a⟦bcd⟧ef"
    merged = merge_regions([Span(0, 2), Span(1, 4), Span(5, 6)])
    assert merged == [Span(0, 4), Span(5, 6)]


def test_hole_regions_parallel_walk():
    original = CLet(
        "x",
        CRef(ENum(1, span=Span(12, 13)), span=Span(8, 13)),
        CAssign(EVar("x", span=Span(17, 18)), ENum(2, span=Span(22, 23)), span=Span(17, 23)),
        span=Span(0, 23),
    )
    sliced = CLet("x", CHole(), CAssign(EVar("x"), ENum(2)))
    assert hole_regions(original, sliced) == [Span(8, 13)]
    assert subtree_extent(original) == Span(0, 23)
    with pytest.raises(ValueError):
        hole_regions(original, CRet(ENum(1)))


def test_render_shaded_needs_context():
    with pytest.raises(ValueError):
        render_term(CHole(), mode="shaded")


def test_render_shaded_marks_elision():
    source = "let x = ref 1 in x := 2"
    original = CLet(
        "x",
        CRef(ENum(1, span=Span(12, 13)), span=Span(8, 13)),
        CAssign(EVar("x", span=Span(17, 18)), ENum(2, span=Span(22, 23)), span=Span(17, 23)),
        span=Span(0, 23),
    )
    sliced = CLet("x", CRef(EHole()), CAssign(EVar("x"), ENum(2)))
    out = render_term(sliced, mode="shaded", original=original, source=source)
    assert out == "let x = ref ⟦1⟧ in x := 2"


# Annotations an atom field may carry.  A term behind any other annotation
# (say Optional[Expr]) would be compared as an atom, so it must fail here.
ATOM_ANNOTATIONS = {"str", "bool", "int", "Loc", "Union[int, float]", "frozenset", "tuple"}


def _subclasses(base):
    for cls in base.__subclasses__():
        yield cls
        yield from _subclasses(cls)


def test_schema_describes_every_term_class():
    for category in (Expr, Comp, Value, Trace):
        for cls in _subclasses(category):
            schema = SCHEMA[cls]
            assert schema.category is category
            types = {f.name: f.type for f in dataclasses.fields(cls) if f.name != "span"}
            assert sorted(schema.children + schema.atoms) == sorted(types), cls
            assert list(schema.children) == [n for n in types if n in schema.children]
            for name in schema.atoms:
                assert types[name] in ATOM_ANNOTATIONS, f"{cls.__name__}.{name}: {types[name]}"
