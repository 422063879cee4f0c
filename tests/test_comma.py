import pytest

from twocat.builders import pt, walking_two_cell, wtc_to_wa_collapse
from twocat.comma import (OVER, UNDER, comma, comma_diagram,
                          comma_projection, fibre_diagram, projections,
                          representable_diagram, retraction_R, section_jz_iz)
from twocat.core import (OplaxTransformation, TwoCatError, check_cell_map,
                         compose_functors, functor_equal, identity_functor,
                         renaming_morphism, validate, validate_diagram)
from twocat.grothendieck import base_change, grothendieck, projection_functor
from twocat.homology import homology, normalized_chain_complex
from twocat.nerves import diag_nn


def test_comma_point_is_terminal():
    K = comma(identity_functor(pt()), "*", OVER)
    assert K.counts() == (1, 1, 1)


def test_comma_rejects_a_bad_side_or_a_missing_object():
    # neither is read as a default side or builds an empty comma
    I = identity_functor(walking_two_cell())
    with pytest.raises(TwoCatError, match=r"^comma: side 'sideways' is neither 'over' nor 'under'$"):
        comma(I, "b", "sideways")
    with pytest.raises(TwoCatError, match=r"^comma: 'zzz' is not an object of WTC$"):
        comma(I, "zzz", OVER)


def test_slice_of_wtc_over_b():
    # objects are the 1-cells into b
    K = comma(identity_functor(walking_two_cell()), "b", OVER)
    assert set(K.objects) == {("a", "f"), ("a", "g"), ("b", "1b")}
    assert validate(K).ok


def test_comma_object_count_formula(cx):
    for c in ("a", "b"):
        K = comma(cx.F, c, OVER)
        C = cx.F.target
        expected = sum(len(C.hom_one_cells(cx.F.o(a), c))
                       for a in cx.F.source.objects)
        assert len(K.objects) == expected


def test_comma_equals_grothendieck_of_representable(cx):
    # definitional equality, asserted cellwise
    K = comma(cx.F, "b", OVER)
    G = grothendieck(comma_diagram(cx.F, "b", OVER))
    assert K.objects == G.objects
    assert K.one_cells == G.one_cells
    assert K.two_cells == G.two_cells
    assert K.hcomp1 == G.hcomp1 and K.vcomp2 == G.vcomp2 and K.hcomp2 == G.hcomp2


def test_representable_diagram_validates():
    C = walking_two_cell()
    for c in C.objects:
        for side in (OVER, UNDER):
            assert validate_diagram(representable_diagram(C, c, side)).ok


def test_fibre_functor_identity_cases(cx):
    C = cx.F.target
    h = C.id1["b"]
    K = comma(cx.F, "b", OVER)
    Fh = fibre_diagram(cx.F, OVER).one[h]
    assert functor_equal(Fh, identity_functor(K))


def test_fibre_functor_functoriality(cx):
    C = cx.F.target
    # (1_b o f)_* = (1_b)_* o f_* on the over side
    f = "f"
    one = fibre_diagram(cx.F, OVER).one
    comp = compose_functors(one[C.id1["b"]], one[f])
    Fcomp = one[C.comp1(C.id1["b"], f)]
    assert functor_equal(comp, Fcomp)


def test_fibre_transformation_passes(cx):
    psi = "phi"  # f => g in the target of F
    s = fibre_diagram(cx.F, OVER).two[psi]
    assert check_cell_map("two_natural", s).ok


def test_fibre_diagrams_validate(cx):
    for side in (OVER, UNDER):
        fd = fibre_diagram(cx.F, side)
        assert validate_diagram(fd).ok


def test_projections_retraction_and_witness(cx):
    for side in (OVER, UNDER):
        fib, G, Pi, iota, wit = projections(cx.F, side)
        assert validate(G).ok
        assert check_cell_map("two_functor", Pi).ok
        assert check_cell_map("two_functor", iota).ok
        assert functor_equal(compose_functors(Pi, iota),
                             identity_functor(cx.F.source))
        assert check_cell_map("oplax", wit).ok


def _broken_projection_witness(cx, slot):
    """The witness of projections(F, OVER) with its first `slot` entry
    ("comp" or "nat") replaced by a cell of the wrong boundary."""
    wit = projections(cx.F, OVER)[4]
    B = wit.F.target
    comp, nat = dict(wit.comp), dict(wit.nat)
    if slot == "comp":
        key = sorted(comp, key=repr)[0]
        cells, table = B.one_cells, comp
    else:
        key = sorted(nat, key=repr)[0]
        cells, table = B.two_cells, nat
    table[key] = next(x for x in sorted(cells, key=repr)
                      if cells[x] != cells[table[key]])
    return OplaxTransformation(wit.F, wit.G, comp, nat, name=wit.name), key


def test_oplax_checker_rejects_a_naturality_cell_of_the_wrong_boundary(cx):
    bad, m = _broken_projection_witness(cx, "nat")
    rep = check_cell_map("oplax", bad)
    assert rep.violations == [f"naturality component at {m} has wrong boundary"]


def test_oplax_checker_rejects_a_component_of_the_wrong_endpoints(cx):
    bad, o = _broken_projection_witness(cx, "comp")
    rep = check_cell_map("oplax", bad)
    assert rep.violations == [f"component at {o} is not a 1-cell Fa -> Ga"]

def test_retraction_R_covariant(cx):
    for c in cx.collapse.source.base.objects:
        for y in cx.collapse.target.ob[c].objects:
            K, L, R, sec, wit = retraction_R(cx.collapse, c, y)
            assert check_cell_map("two_functor", R).ok
            assert check_cell_map("two_functor", sec).ok
            assert functor_equal(compose_functors(R, sec), identity_functor(L))
            assert check_cell_map("oplax", wit).ok


def test_retraction_R_contravariant(cx):
    g = renaming_morphism(cx.Drep)
    for c in g.source.base.objects:
        for y in g.target.ob[c].objects:
            K, L, R, sec, wit = retraction_R(g, c, y)
            assert check_cell_map("two_functor", R).ok
            assert check_cell_map("two_functor", sec).ok
            assert functor_equal(compose_functors(R, sec), identity_functor(L))
            assert check_cell_map("oplax", wit).ok


def test_section_jz_iz_over(cx):
    for c in ("a", "b"):
        for z in cx.Drep.ob[c].objects:
            K0, K1, jz, pibar, iz, wit = section_jz_iz(cx.F, cx.Drep, c, z)
            assert check_cell_map("two_functor", jz).ok
            assert check_cell_map("two_functor", pibar).ok
            assert check_cell_map("two_functor", iz).ok
            assert functor_equal(compose_functors(pibar, iz),
                                 identity_functor(K0))
            assert check_cell_map("oplax", wit).ok


def test_section_jz_iz_under(cx):
    Fc = wtc_to_wa_collapse()
    for c in ("0", "1"):
        for z in cx.Dcov.ob[c].objects:
            K0, K1, jz, pibar, iz, wit = section_jz_iz(Fc, cx.Dcov, c, z)
            assert check_cell_map("two_functor", jz).ok
            assert check_cell_map("two_functor", pibar).ok
            assert check_cell_map("two_functor", iz).ok
            assert functor_equal(compose_functors(pibar, iz),
                                 identity_functor(K0))
            assert check_cell_map("oplax", wit).ok


def test_jz_commutes_with_projections(cx):
    FD, Fbar = base_change(cx.F, cx.Drep)
    K0, K1, jz, pibar, iz, wit = section_jz_iz(cx.F, cx.Drep, "b", "1b")
    assert functor_equal(compose_functors(projection_functor(FD), jz),
                         comma_projection(cx.F, "b", OVER))


def test_slices_weakly_contractible(cx):
    for c in cx.wtc.objects:
        for side in (OVER, UNDER):
            K = comma(identity_functor(cx.wtc), c, side)
            cc = normalized_chain_complex(diag_nn(K, 4))
            assert homology(cc, 0).betti == 1
            for i in (1, 2):
                h = homology(cc, i)
                assert h.betti == 0 and not h.torsion


def test_slice_equals_assembled_representable(cx):
    # the slice construction is literally the assembly of the restricted
    # representable diagram, also when the restriction is trivial
    G = grothendieck(representable_diagram(cx.wtc, "b", OVER))
    K = comma(identity_functor(cx.wtc), "b", OVER)
    assert K.objects == G.objects and K.two_cells == G.two_cells
    assert K.hcomp1 == G.hcomp1 and K.hcomp2 == G.hcomp2
