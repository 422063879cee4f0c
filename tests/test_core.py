import pytest
from hypothesis import given, strategies as st

from twocat.builders import pt, walking_arrow, walking_two_cell
from twocat.cli import bundled_manifest_path
from twocat.core import (check_cell_map, constant_diagram, diagram_over_opposite,
                         discrete, hom_category, identity_functor, opposite, product,
                         relabel, renaming_morphism, same_category, validate,
                         validate_diagram, validate_diagram_morphism,
                         DiagramMorphism, OplaxTransformation, TwoFunctor,
                         TwoNaturalTransformation)
from twocat.manifest import Manifest, parse
from twocat.verify import run_suite


def test_terminal_validates():
    assert validate(pt()).ok


def test_walking_arrow_validates():
    assert validate(walking_arrow()).ok


def test_walking_two_cell_validates():
    assert validate(walking_two_cell()).ok


def test_malformed_vcomp_pair_reported():
    C = walking_two_cell()
    C.vcomp2[("phi", "phi")] = "phi"  # phi is not vertically self-composable
    rep = validate(C)
    assert not rep.ok
    assert any("non-composable" in v for v in rep.violations)


def test_corrupted_table_entry_reported():
    C = walking_two_cell()
    C.hcomp1[("g", "1a")] = "f"
    assert not validate(C).ok


def without_hcomp1_entry():
    C = walking_two_cell()
    del C.hcomp1[("f", "1a")]
    return C


def with_unknown_source():
    C = walking_two_cell()
    C.two_cells["psi"] = ("zz", "g")
    return C


@pytest.mark.parametrize("build, violations", [
    pytest.param(without_hcomp1_entry, ["hcomp1 missing entry (f, 1a)",
                                        "hcomp2[(ef, e1a)] has wrong boundary",
                                        "hcomp2[(phi, e1a)] has wrong boundary"],
                 id="missing-hcomp1-entry"),
    # a malformed boundary or identity stops the report before the tables
    pytest.param(with_unknown_source, ["2-cell psi: boundary not a 1-cell"],
                 id="unknown-source"),
])
def test_broken_tables_reported_not_raised(build, violations):
    assert validate(build()).violations == violations
    rep = run_suite(Manifest(two_categories={"X": build()}), "identities", 3)
    detail = "; ".join(violations)
    assert rep["status"] == "fail"
    assert [(c["name"], c["status"], c["detail"]) for c in rep["checks"]] == [
        ("validate[X]", "fail", f"axiom: {detail}"),
        *((f"{check}[X]", "fail", f"precondition: category: {detail}")
          for check in ("double_nerve_identities", "wbar_identities", "wbar_repackage"))]


def test_interchange_checked_exhaustively(cx):
    # flipping one horizontal composite on WTC must surface as an
    # interchange or unit violation
    C = walking_two_cell()
    C.hcomp2[("e1b", "phi")] = "ef"
    rep = validate(C)
    assert not rep.ok


def test_opposite_is_involution():
    for C in (pt(), walking_arrow(), walking_two_cell()):
        D = opposite(opposite(C))
        assert D.objects == C.objects
        assert D.one_cells == C.one_cells
        assert D.two_cells == C.two_cells
        assert D.hcomp1 == C.hcomp1
        assert D.hcomp2 == C.hcomp2


def test_opposite_reverses_one_cells_only():
    C = walking_arrow()
    D = opposite(C)
    assert D.one_cells["a"] == ("1", "0")
    assert D.two_cells == C.two_cells
    assert validate(D).ok


def test_product_counts_multiply():
    wa = walking_arrow()
    P = product([wa, wa])
    assert P.counts() == (4, 9, 9)
    assert validate(P).ok


def test_product_single_factor_is_identity():
    C = walking_two_cell()
    assert product([C]) is C


def test_product_with_terminal_same_counts():
    C = walking_two_cell()
    P = product([C, pt()])
    assert P.counts() == C.counts()
    assert validate(P).ok


def test_hom_category_of_wtc():
    H = hom_category(walking_two_cell(), "a", "b")
    assert set(H.objects) == {"f", "g"}
    assert len(H.one_cells) == 3  # ef, eg, phi
    assert validate(H).ok


def test_hom_category_empty():
    H = hom_category(walking_two_cell(), "b", "a")
    assert H.counts() == (0, 0, 0)


def test_hom_category_terminal():
    H = hom_category(pt(), "*", "*")
    assert H.counts() == (1, 1, 1)


def test_identity_functor_passes():
    C = walking_two_cell()
    assert check_cell_map("two_functor", identity_functor(C)).ok


def test_broken_two_cell_map_reported():
    C = walking_two_cell()
    F = identity_functor(C)
    bad = TwoFunctor(C, C, dict(F.on_obj), dict(F.on_one),
                     dict(F.on_two, phi="ef"))
    rep = check_cell_map("two_functor", bad)
    assert not rep.ok
    assert any("boundary" in v for v in rep.violations)


def test_corpus_diagrams_validate(cx):
    assert validate_diagram(cx.Dcov).ok
    assert validate_diagram(cx.Drep).ok


def test_corpus_morphisms_validate(cx):
    assert validate_diagram_morphism(cx.collapse).ok
    assert validate_diagram_morphism(cx.renaming).ok


def _drep_with_phi_into_a_copy():
    """Drep whose transport at phi keeps its cell maps, but whose source
    functor lands in a copy of the fibre with one more 1-cell."""
    D = parse(bundled_manifest_path()).diagrams["Drep"]
    s = D.two["phi"]
    keep = lambda v: v
    other = relabel(s.F.target, keep, keep, keep, "copy")
    other.one_cells["extra"] = other.one_cells[other.id1[other.objects[0]]]
    F = TwoFunctor(s.F.source, other, s.F.on_obj, s.F.on_one, s.F.on_two)
    D.two["phi"] = TwoNaturalTransformation(F, s.G, s.comp)
    return D


def test_two_cell_transport_into_another_category_reported():
    assert validate_diagram(_drep_with_phi_into_a_copy()).violations == [
        "transport at 2-cell phi has wrong boundary functors"]


def test_morphism_out_of_an_ill_typed_diagram_reported():
    # the renaming's components commute with the transports, and its
    # target is well typed: only its source is at fault
    g = renaming_morphism(_drep_with_phi_into_a_copy())
    assert validate_diagram_morphism(g).violations == [
        "source: transport at 2-cell phi has wrong boundary functors"]


def test_morphism_across_bases_reported():
    # components keyed by WA's objects, target fibres by WTC's: reported,
    # not a KeyError
    P = pt()
    D, E = constant_diagram(walking_arrow(), P), constant_diagram(walking_two_cell(), P)
    g = DiagramMorphism(D, E, dict.fromkeys(D.base.objects, identity_functor(P)))
    assert validate_diagram_morphism(g).violations == ["source and target have different bases"]


def test_ends_are_where_each_transport_runs():
    for D in parse(bundled_manifest_path()).diagrams.values():
        for f in D.base.one_cells:
            s, t = D.ends(f)
            assert same_category(D.one[f].source, D.ob[s])
            assert same_category(D.one[f].target, D.ob[t])
            assert diagram_over_opposite(D).ends(f) == (s, t)


def test_functor_fixture_validates(cx):
    assert check_cell_map("two_functor", cx.F).ok


@given(st.integers(min_value=1, max_value=6))
def test_discrete_counts(n):
    C = discrete([f"x{i}" for i in range(n)])
    assert C.counts() == (n, n, n)
    assert validate(C).ok


def test_oplax_transformation_has_one_orientation():
    # nat[f]: Gf o eta_a => eta_b o Ff is the only convention; no field
    # chooses another
    C = walking_two_cell()
    I = identity_functor(C)
    unit = OplaxTransformation(I, I, {c: C.id1[c] for c in C.objects},
                               {f: C.id2[f] for f in C.one_cells})
    assert check_cell_map("oplax", unit).ok
    assert not hasattr(unit, "direction")


@given(st.data())
def test_random_single_entry_corruption_detected(data):
    C = walking_two_cell()
    key = data.draw(st.sampled_from(sorted(C.hcomp1, key=repr)))
    wrong = data.draw(st.sampled_from(sorted(C.one_cells)))
    if wrong == C.hcomp1[key]:
        wrong = next(f for f in sorted(C.one_cells) if f != C.hcomp1[key])
    C.hcomp1[key] = wrong
    assert not validate(C).ok
