import pytest

from twocat.builders import pt, walking_two_cell
from twocat.cli import bundled_manifest_path
from twocat.core import (DiagramMorphism, TwoDiagram, TwoFunctor,
                         check_cell_map, compose_functors, constant_diagram,
                         functor_equal, functor_is_bijective,
                         identity_functor, validate)
from twocat.grothendieck import (base_change, fibre_embedding, grothendieck,
                                 grothendieck_morphism, projection_functor)
from twocat.manifest import parse


def collapse_morphism(D: TwoDiagram) -> DiagramMorphism:
    """The morphism from D onto the constant terminal diagram."""
    P = pt()
    E = constant_diagram(D.base, P, D.variance)
    comp = {c: TwoFunctor(D.ob[c], P,
                          {x: "*" for x in D.ob[c].objects},
                          {f: "1" for f in D.ob[c].one_cells},
                          {a: "11" for a in D.ob[c].two_cells},
                          name=f"!{c}")
            for c in D.base.objects}
    return DiagramMorphism(D, E, comp, name="collapse")


def test_constant_terminal_diagram_recovers_base():
    C = walking_two_cell()
    G = grothendieck(constant_diagram(C, pt()))
    assert G.counts() == C.counts()
    assert validate(G).ok


def test_single_fibre_over_point_recovers_fibre():
    D0 = walking_two_cell()
    G = grothendieck(constant_diagram(pt(), D0))
    assert G.counts() == D0.counts()
    assert validate(G).ok


def test_assembled_corpus_diagrams_validate(cx):
    for D in (cx.Dcov, cx.Drep):
        G = grothendieck(D)
        rep = validate(G)
        assert rep.ok, rep.violations[:3]


def test_cell_count_identities(cx):
    G = grothendieck(cx.Dcov)
    D = cx.Dcov
    assert len(G.objects) == sum(len(D.ob[c].objects) for c in D.base.objects)
    # 1-cell grammar: sum over (f, x, u with dom u = f_* x)
    expected = 0
    for f, (a, b) in D.base.one_cells.items():
        for x in D.ob[a].objects:
            fx = D.one[f].o(x)
            expected += sum(1 for u, (s, _) in D.ob[b].one_cells.items() if s == fx)
    assert len(G.one_cells) == expected


@pytest.mark.parametrize("name", ["Dcov", "Dpt", "Drep"])
def test_projection_and_embedding(name):
    D = parse(bundled_manifest_path()).diagrams[name]
    pr = projection_functor(D)
    assert check_cell_map("two_functor", pr).ok
    for c in D.base.objects:
        emb = fibre_embedding(D, c)
        assert check_cell_map("two_functor", emb).ok
        # injective, image objects exactly {(c, x)}
        assert len(set(emb.on_obj.values())) == len(emb.on_obj)
        assert set(emb.on_obj.values()) == {(c, x) for x in D.ob[c].objects}
        comp = compose_functors(pr, emb)
        assert set(comp.on_obj.values()) == {c}


def test_fibre_embedding_over_point_is_iso():
    D0 = walking_two_cell()
    D = constant_diagram(pt(), D0)
    emb = fibre_embedding(D, "*")
    assert functor_is_bijective(emb)


def test_assembled_morphism_functorial(cx):
    g = cx.renaming
    F = grothendieck_morphism(g)
    assert check_cell_map("two_functor", F).ok
    # identity morphism assembles to the identity
    ident = DiagramMorphism(cx.Dcov, cx.Dcov,
                            {c: identity_functor(cx.Dcov.ob[c])
                             for c in cx.Dcov.base.objects})
    GI = grothendieck_morphism(ident)
    assert functor_equal(GI, identity_functor(F.source))


def test_collapse_assembles_to_projection_shape(cx):
    g = cx.collapse
    F = grothendieck_morphism(g)
    assert check_cell_map("two_functor", F).ok
    # first components survive, second components collapse
    for (a, x), (b, y) in F.on_obj.items():
        assert a == b and y == "*"


def test_base_change_square_commutes(cx):
    FD, Fbar = base_change(cx.F, cx.Drep)
    assert check_cell_map("two_functor", Fbar).ok
    prA = projection_functor(FD)
    prC = projection_functor(cx.Drep)
    lhs = compose_functors(prC, Fbar)
    rhs = compose_functors(cx.F, prA)
    assert functor_equal(lhs, rhs)


def test_base_change_strict_pullback(cx):
    # cells of the pulled-back assembly biject with compatible pairs
    FD, Fbar = base_change(cx.F, cx.Drep)
    GFD, GD = Fbar.source, Fbar.target
    A = cx.F.source
    pairs = {(a, cell) for a in A.objects for cell in GD.objects
             if cell[0] == cx.F.o(a)}
    got = {(o[0], Fbar.on_obj[o]) for o in GFD.objects}
    assert got == pairs and len(GFD.objects) == len(pairs)
    one_pairs = {(f, cell) for f in A.one_cells for cell in GD.one_cells
                 if cell[0] == cx.F.f1(f)}
    got1 = {(m[0], Fbar.on_one[m]) for m in GFD.one_cells}
    assert got1 == one_pairs and len(GFD.one_cells) == len(one_pairs)
    two_pairs = {(t, cell) for t in A.two_cells for cell in GD.two_cells
                 if cell[0] == cx.F.f2(t)}
    got2 = {(m[0], Fbar.on_two[m]) for m in GFD.two_cells}
    assert got2 == two_pairs


def test_base_change_identity_is_identity(cx):
    D = cx.Drep
    FD, Fbar = base_change(identity_functor(D.base), D)
    assert functor_equal(Fbar, identity_functor(Fbar.source))


def test_assembly_functorial_on_composites(cx):
    # assembling a composite morphism equals composing the assemblies
    ren = cx.renaming
    col2 = collapse_morphism(ren.target)
    comp = DiagramMorphism(ren.source, col2.target,
                           {c: compose_functors(col2.at(c), ren.at(c))
                            for c in ren.source.base.objects})
    lhs = grothendieck_morphism(comp)
    rhs = compose_functors(grothendieck_morphism(col2), grothendieck_morphism(ren))
    assert functor_equal(lhs, rhs)
