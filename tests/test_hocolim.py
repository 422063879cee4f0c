import random
import sys

from twocat.builders import pt, walking_arrow, walking_two_cell
from twocat.comma import UNDER, representable_diagram
from twocat.core import (TwoFunctor, check_cell_map, compose_functors, constant_diagram,
                         functor_equal, functor_is_bijective, renaming_morphism)
from twocat.hocolim import (build_E, build_E_pull,
                            check_simplicial_two_category,
                            grothendieck_wbar_comparison, hocolim,
                            hocolim_level_product_iso, hocolim_map,
                            hocolim_wbar_comparison, reversal_bridge_report)
from twocat.homology import is_homology_iso_upto
from twocat.nerves import (double_nerve, map_dn_simplex, nerve_simplicial_twocat,
                           wbar_double_nerve)
from twocat.simplicial import (check_simplicial_identities,
                               check_simplicial_map, simplicial_map, tri_diag,
                               verify_iso)


def test_hocolim_level_counts(cx):
    S = hocolim(cx.Dcov, 3)
    # oracle from the coproduct description: level 1 objects are
    # sum over composable chains (c0, c1) of |Ob D_c0|
    C = cx.Dcov.base
    expected = sum(len(cx.Dcov.ob[c0].objects)
                   for c0 in C.objects for c1 in C.objects
                   if C.hom_one_cells(c0, c1))
    assert len(S.level(1).objects) == expected == 6


def test_hocolim_checks_covariant(cx):
    assert check_simplicial_two_category(hocolim(cx.Dcov, 3)).ok


def test_hocolim_checks_contravariant(cx):
    assert check_simplicial_two_category(hocolim(cx.Drep, 3)).ok


def test_hocolim_over_point_is_constant(cx):
    D = constant_diagram(pt(), walking_two_cell())
    S = hocolim(D, 3)
    for p in range(4):
        assert S.level(p).counts() == walking_two_cell().counts()
    for (p, i), F in S.faces.items():
        assert functor_is_bijective(F)


def test_constant_levels_product_iso(cx):
    D = constant_diagram(cx.wa, walking_two_cell())
    S = hocolim(D, 3)
    for p in range(4):
        iso = hocolim_level_product_iso(S, D, p)
        assert check_cell_map("two_functor", iso).ok
        assert functor_is_bijective(iso)


def test_twisted_face_formula_spot_check(cx):
    # d_0 on a 1-cell (u, gamma): image must be g_* u o gamma_* x
    D = cx.Dcov
    S = hocolim(D, 2)
    d0 = S.face(1, 0)
    C = D.base
    for m in S.level(1).one_cells:
        ch, data = m
        u, g1 = data
        fib0, fib1 = D.ob[ch[0]], D.ob[ch[1]]
        x = fib0.dom1(u) if u in fib0.one_cells else None
        if x is None:
            continue
        want = fib1.comp1(D.one[C.cod2(g1)].f1(u), D.two[g1].at(x))
        assert d0.f1(m)[1] == (want,)


def test_hocolim_map_commutes(cx):
    SD = hocolim(cx.Dcov, 3)
    SE = hocolim(cx.collapse.target, 3)
    maps = hocolim_map(cx.collapse, SD, SE)
    for F in maps:
        assert check_cell_map("two_functor", F).ok
    for p in range(1, 4):
        for i in range(p + 1):
            assert functor_equal(compose_functors(SE.face(p, i), maps[p]),
                                 compose_functors(maps[p - 1], SD.face(p, i)))
    for p in range(3):
        for i in range(p + 1):
            assert functor_equal(compose_functors(SE.degen(p, i), maps[p]),
                                 compose_functors(maps[p + 1], SD.degen(p, i)))


def test_resolution_identities(cx):
    assert check_simplicial_identities(build_E(cx.Dcov, 3)).ok
    assert check_simplicial_identities(build_E_pull(cx.Drep, 3)).ok


def test_resolution_twisted_face_oracle(cx):
    # the twisted vertical face re-whiskers every fibre column; expand the
    # whiskering by hand on sampled simplices
    D = cx.Dcov
    E = build_E(D, 3)
    rng = random.Random(7)
    keys = [(p, n, q) for (p, n, q) in E.cells
            if p >= 1 and q >= 1 and E.cells[(p, n, q)]]
    for key in rng.sample(keys, 10):
        p, n, q = key
        x = rng.choice(E.cells[key])
        base, xs, ucols, phicols = x
        objs, fcols, acols = base
        got = E.face(2, key, q, x)
        for m in range(1, p + 1):
            fib = D.ob[objs[m]]
            whisk = D.two[acols[m - 1][q - 1]].at(xs[m - 1])
            for k in range(n + 1):
                assert got[2][m - 1][k] == fib.comp1(ucols[m - 1][k], whisk)
            for k in range(n):
                assert got[3][m - 1][k] == fib.hcomp(phicols[m - 1][k],
                                                     fib.unit2(whisk))


def test_comparison_isos_covariant(cx):
    f = hocolim_wbar_comparison(cx.Dcov, 3)
    assert check_simplicial_map(f).ok
    assert verify_iso(f)
    g = grothendieck_wbar_comparison(cx.Dcov, 3)
    assert check_simplicial_map(g).ok
    assert verify_iso(g)


def test_comparison_isos_contravariant(cx):
    assert reversal_bridge_report(cx.Drep, 3).ok
    f = hocolim_wbar_comparison(cx.Drep, 3)
    assert check_simplicial_map(f).ok
    assert verify_iso(f)
    g = grothendieck_wbar_comparison(cx.Drep, 3)
    assert check_simplicial_map(g).ok
    assert verify_iso(g)


def test_comparison_isos_degenerate_cases():
    Dct = constant_diagram(walking_two_cell(), pt())
    assert verify_iso(hocolim_wbar_comparison(Dct, 2))
    assert verify_iso(grothendieck_wbar_comparison(Dct, 2))
    Dpt = constant_diagram(pt(), walking_arrow())
    assert verify_iso(hocolim_wbar_comparison(Dpt, 3))
    assert verify_iso(grothendieck_wbar_comparison(Dpt, 3))


def test_invariance_homology(cx):
    g = renaming_morphism(cx.Dcov)
    SD, SE = hocolim(cx.Dcov, 4), hocolim(g.target, 4)
    maps = hocolim_map(g, SD, SE)
    XD = tri_diag(nerve_simplicial_twocat(SD))
    XE = tri_diag(nerve_simplicial_twocat(SE))
    f = simplicial_map(XD, XE, lambda n, x: map_dn_simplex(maps[n], x))
    assert is_homology_iso_upto(f, 2)


def test_resolution_base_line_counts(cx):
    # simplices with no base columns are one fibre object over one base
    # object, at every inner depth
    E = build_E(cx.Dcov, 2)
    expect = sum(len(cx.Dcov.ob[c].objects) for c in cx.Dcov.base.objects)
    for n in range(3):
        for q in range(3):
            assert len(E.level((0, n, q))) == expect


def test_hocolim_constant_terminal_levels_are_nerve_levels(cx):
    D = constant_diagram(cx.wtc, pt())
    S = hocolim(D, 3)
    W = wbar_double_nerve(cx.wtc, 3)
    # objects of level p are the double nerve's (p, 0)-simplices
    dn = double_nerve(cx.wtc, 3)
    for p in range(4):
        assert len(S.level(p).objects) == len(dn.level((p, 0)))


def test_comparison_isos_covariant_base_with_two_cells(cx):
    # covariant diagram over a base whose 2-cells are not all identities:
    # the twisted transports now whisker along genuine 2-cell components
    D = representable_diagram(cx.wtc, "a", UNDER)
    f = hocolim_wbar_comparison(D, 3)
    assert check_simplicial_map(f).ok and verify_iso(f)
    g = grothendieck_wbar_comparison(D, 3)
    assert check_simplicial_map(g).ok and verify_iso(g)


def _swap_faces(S, p, i, j):
    """S with its faces d_i and d_j at level p exchanged."""
    S.faces[(p, i)], S.faces[(p, j)] = S.faces[(p, j)], S.faces[(p, i)]
    return S


def test_hocolim_checks_catch_swapped_faces(cx):
    for D in (cx.Dcov, cx.Drep):
        rep = check_simplicial_two_category(_swap_faces(hocolim(D, 3), 2, 0, 1))
        assert not rep.ok, D.name
        assert any("d_0 d_2" in v for v in rep.violations), (D.name, rep.violations[:3])


def test_reversal_bridge_catches_swapped_opposite_faces(cx, monkeypatch):
    # the covariant colimit over the opposite base gets d_0 and d_2 swapped
    # at level 2, so the reversal no longer exchanges d_0 with d_2 there
    hocolim_module = sys.modules["twocat.hocolim"]  # the package's `hocolim` is the function
    build = hocolim_module.hocolim

    def broken(D, n_max):
        S = build(D, n_max)
        return _swap_faces(S, 2, 0, 2) if D.name.endswith("_redux") else S

    monkeypatch.setattr(hocolim_module, "hocolim", broken)
    rep = reversal_bridge_report(cx.Drep, 3)
    assert not rep.ok
    assert any("d_0" in v and "level 2" in v for v in rep.violations), rep.violations[:3]


def test_hocolim_checks_name_the_broken_structure_map(cx):
    # faces and degeneracies share their (p, i) keys; the report tells them apart
    for maps, kind in (("faces", "face d_0"), ("degens", "degeneracy s_0")):
        S = hocolim(cx.Dcov, 3)
        F = getattr(S, maps)[(1, 0)]
        lost = next(iter(F.on_obj))
        getattr(S, maps)[(1, 0)] = TwoFunctor(
            F.source, F.target, {c: v for c, v in F.on_obj.items() if c != lost},
            F.on_one, F.on_two)
        rep = check_simplicial_two_category(S)
        assert rep.violations[0] == f"{kind} at level 1: object map misses {lost}"


def test_hocolim_checks_fail_on_a_structure_map_between_the_wrong_levels(cx):
    # a degeneracy level 0 -> 1 put where the face d_0 level 1 -> 0 belongs
    S = hocolim(cx.Dcov, 3)
    S.faces[(1, 0)] = S.degens[(0, 0)]
    rep = check_simplicial_two_category(S)
    assert rep.violations == ["face d_0 at level 1: wrong source or target"]
