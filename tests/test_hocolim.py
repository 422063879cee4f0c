import dataclasses
import itertools
import random
import sys
from functools import partial

import pytest

from conftest import cyclic_group, loop_group
from twocat.builders import pt, walking_arrow, walking_two_cell
from twocat.cli import bundled_manifest_path
from twocat.comma import UNDER, representable_diagram
from twocat.core import (CONTRAVARIANT, COVARIANT, DiagramMorphism, TwoCatError,
                         TwoDiagram, TwoFunctor, check_cell_map, compose_functors,
                         constant_diagram, discrete, functor_equal, functor_is_bijective,
                         identity_functor, identity_natural, renaming_morphism,
                         validate_diagram, validate_diagram_morphism)
from twocat.grothendieck import grothendieck_morphism
from twocat.hocolim import (build_E, build_E_pull,
                            check_simplicial_two_category,
                            grothendieck_wbar_comparison, hocolim,
                            hocolim_level_product_iso, hocolim_map,
                            hocolim_wbar_comparison, reversal_bridge_report)
from twocat.homology import is_homology_iso_upto
from twocat.manifest import parse
from twocat.nerves import (_col_degen, _col_face, _col_image, _identity_col, _merge_cols,
                           diag_nn_map, double_nerve, hom_chains, map_dn_simplex,
                           nerve_simplicial_twocat, wbar_double_nerve)
from twocat.simplicial import (_table, check_simplicial_identities,
                               check_simplicial_map, simplicial_map, tri_diag,
                               verify_iso)
from twocat.verify import _homology_iso

MANIFEST = parse(bundled_manifest_path())


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


def test_comparison_builds_each_colimit_once(cx, monkeypatch):
    # the contravariant comparison hands both colimits to its reversal
    # check, and the colimit side's W-bar family builds level p only up to
    # N - p, all that W-bar of the family reads
    module = sys.modules["twocat.hocolim"]  # the package's `hocolim` is the function
    built = {"hocolim": [], "diagram_over_opposite": 0, "simplices": 0}
    real_hocolim, real_opposite, real_wbar = (
        module.hocolim, module.diagram_over_opposite, module.wbar_double_nerve)

    def opposite(D):
        built["diagram_over_opposite"] += 1
        return real_opposite(D)

    def wbar_nerve(C, n):
        X = real_wbar(C, n)
        built["simplices"] += sum(len(X.level(q)) for q in range(n + 1))
        return X

    monkeypatch.setattr(module, "hocolim", lambda D, n: built["hocolim"].append(D.name)
                        or real_hocolim(D, n))
    monkeypatch.setattr(module, "diagram_over_opposite", opposite)
    monkeypatch.setattr(module, "wbar_double_nerve", wbar_nerve)
    assert verify_iso(hocolim_wbar_comparison(cx.Dcov, 3))
    assert built == {"hocolim": ["Dcov"], "diagram_over_opposite": 0, "simplices": 106}
    built.update(hocolim=[], simplices=0)
    assert verify_iso(hocolim_wbar_comparison(cx.Drep, 3))
    assert built["hocolim"] == ["Drep", "Drep_redux"]
    assert built["diagram_over_opposite"] == 1


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


def _to_point(D: TwoDiagram) -> DiagramMorphism:
    """const(B, X) -> const(B, PT), collapsing every fibre cell."""
    P, X = pt(), D.ob[next(iter(D.base.objects))]
    (o,), (e,) = P.objects, P.one_cells
    bang = TwoFunctor(X, P, dict.fromkeys(X.objects, o), dict.fromkeys(X.one_cells, e),
                      dict.fromkeys(X.two_cells, P.id2[e]), name="bang")
    return DiagramMorphism(D, constant_diagram(D.base, P, D.variance),
                           dict.fromkeys(D.base.objects, bang), name=f"bang({D.name})")


def invariance_cases():
    m = MANIFEST
    cases = [pytest.param(renaming_morphism(m.diagrams[name]), "degrees 0..2", id=f"ren({name})")
             for name in sorted(m.diagrams)]
    cases.append(pytest.param(m.diagram_morphisms["collapse"], "degrees 0..2", id="collapse"))
    for B in (m.two_categories["WA"], m.two_categories["WTC"]):
        for variance in (COVARIANT, CONTRAVARIANT):
            g = _to_point(constant_diagram(B, cyclic_group(2), variance))
            cases.append(pytest.param(g, "H_1: Z/2 -> 0, cone H_1 = 0",
                                      id=f"const({B.name},BZ2)-{variance}"))
    return cases


@pytest.mark.parametrize("g,detail", invariance_cases())
def test_invariance_through_the_assembly_agrees_with_hocolim(g, detail):
    # the Homotopy Colimit Theorem: hocolim g and the assembly of g give the
    # same answer, through the trisimplicial nerve or the double nerve
    assert validate_diagram_morphism(g).ok
    SD, SE = hocolim(g.source, 4), hocolim(g.target, 4)
    maps = hocolim_map(g, SD, SE)
    f = simplicial_map(tri_diag(nerve_simplicial_twocat(SD)),
                       tri_diag(nerve_simplicial_twocat(SE)),
                       lambda n, x: map_dn_simplex(maps[n], x))
    verdict = (detail == "degrees 0..2", detail)
    assert _homology_iso(f, 2) == verdict
    assert _homology_iso(diag_nn_map(grothendieck_morphism(g), 4), 2) == verdict


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


# -- E's tables against its per-simplex reference rules -----------------------
#
# The rules below rebuild every image simplex of E from its cells, with a
# fresh `hom_chains` per column, and look it up, as E was once built.  Every
# level and table of E must equal the ones they give.

def _ref_E(D, n_max):
    """(level, face, degen) of E(D): level(key) lists the level in order, and
    face(axis, p, n, q, i, x) / degen(...) give the image of the simplex x."""
    C = D.base
    cov = D.variance == COVARIANT
    dn = double_nerve(C, n_max)

    def col_fibre(objs, m):
        # fibre category hosting column m (1-based)
        return D.ob[objs[m]] if cov else D.ob[objs[m - 1]]

    def col_endpoints(base, xs, m):
        objs, fcols, acols = base
        q = len(fcols[m - 1]) - 1
        if cov:
            return D.one[fcols[m - 1][q]].o(xs[m - 1]), xs[m]
        return xs[m - 1], D.one[fcols[m - 1][0]].o(xs[m])

    def level(key):
        p, n, q = key
        out = []
        for base in dn.level((p, q)):
            objs = base[0]
            for xs in itertools.product(*(D.ob[c].objects for c in objs)):
                cols = [hom_chains(col_fibre(objs, m), *col_endpoints(base, xs, m), n)
                        for m in range(1, p + 1)]
                for combo in itertools.product(*cols):
                    out.append((base, xs, tuple(us for us, _ in combo),
                                tuple(ph for _, ph in combo)))
        return out

    def columnwise(objs, ucols, phicols, rule):
        # rule(m, fibre, column) for each column m, in its hosting fibre
        cols = [rule(m, col_fibre(objs, m), col) for m, col in enumerate(zip(ucols, phicols), 1)]
        return tuple(zip(*cols)) or ((), ())

    def face(axis, p, n, q, i, x):
        base, xs, ucols, phicols = x
        objs, fcols, acols = base
        if axis == 0:
            nbase = dn.face(0, (p, q), i, base)
            if i == 0:
                return (nbase, xs[1:], ucols[1:], phicols[1:])
            if i == p:
                return (nbase, xs[:-1], ucols[:-1], phicols[:-1])
            col1, col2 = (ucols[i - 1], phicols[i - 1]), (ucols[i], phicols[i])
            if cov:
                us, ph = _merge_cols(D.ob[objs[i + 1]], _col_image(D.one[fcols[i][q]], col1), col2)
            else:
                us, ph = _merge_cols(D.ob[objs[i - 1]], col1, _col_image(D.one[fcols[i - 1][0]], col2))
            return (nbase, xs[:i] + xs[i + 1:], ucols[:i - 1] + (us,) + ucols[i + 1:],
                    phicols[:i - 1] + (ph,) + phicols[i + 1:])
        if axis == 1:
            return (base, xs, *columnwise(objs, ucols, phicols, lambda m, F, col: _col_face(F, col, i)))
        nbase = dn.face(1, (p, q), i, base)
        if i != (q if cov else 0):
            return (nbase, xs, ucols, phicols)
        # the twisted face: each column merged with the constant column at the
        # component of the base 2-cell it drops
        def whiskered(m, F, col):
            w = (D.two[acols[m - 1][q - 1]].at(xs[m - 1]) if cov
                 else D.two[acols[m - 1][0]].at(xs[m]))
            whisk = ((w,) * (n + 1), (F.id2[w],) * n)
            return _merge_cols(F, whisk, col) if cov else _merge_cols(F, col, whisk)

        return (nbase, xs, *columnwise(objs, ucols, phicols, whiskered))

    def degen(axis, p, n, q, i, x):
        base, xs, ucols, phicols = x
        objs = base[0]
        if axis == 0:
            us, ph = _identity_col(D.ob[objs[i]], xs[i], n)
            return (dn.degen(0, (p, q), i, base), xs[:i + 1] + (xs[i],) + xs[i + 1:],
                    ucols[:i] + (us,) + ucols[i:], phicols[:i] + (ph,) + phicols[i:])
        if axis == 1:
            return (base, xs, *columnwise(objs, ucols, phicols, lambda m, F, col: _col_degen(F, col, i)))
        return (dn.degen(1, (p, q), i, base), xs, ucols, phicols)

    return level, face, degen


def _partly_empty_diagram():
    """A covariant diagram over WA whose fibre over 0 has no objects and whose
    fibre over 1 is PT."""
    wa, empty, point = walking_arrow(), discrete(()), pt()
    fibres = {"0": empty, "1": point}
    one = {f: (identity_functor(fibres[s]) if s == t else TwoFunctor(empty, point, {}, {}, {}))
           for f, (s, t) in wa.one_cells.items()}
    two = {al: identity_natural(one[f]) for al, (f, _) in wa.two_cells.items()}
    return TwoDiagram(wa, COVARIANT, fibres, one, two, name="empty_0")


def E_cases():
    m = MANIFEST
    cases = [pytest.param(m.diagrams[name], N, id=f"{name}-{N}")
             for name in sorted(m.diagrams) for N in (3, 4)]
    for variance in (COVARIANT, CONTRAVARIANT):
        D = constant_diagram(walking_arrow(), loop_group(2), variance)
        cases.append(pytest.param(D, 3, id=f"const(WA,OZ2)-{variance}"))
    return cases + [pytest.param(constant_diagram(walking_two_cell(), pt()), 3, id="const(WTC,PT)"),
                    pytest.param(constant_diagram(pt(), walking_arrow()), 3, id="const(PT,WA)"),
                    pytest.param(_partly_empty_diagram(), 3, id="empty-fibre")]


@pytest.mark.parametrize("D,N", E_cases())
def test_E_tables_equal_reference_rules(D, N):
    assert validate_diagram(D).ok
    E = (build_E if D.variance == COVARIANT else build_E_pull)(D, N)
    level, face, degen = _ref_E(D, N)
    for key, cells in E.cells.items():
        assert list(cells) == level(key), key
    assert any(E.cells.values())
    for tables, rule, step in ((E.faces, face, -1), (E.degens, degen, 1)):
        for (axis, key, i), table in tables.items():
            target = tuple(k + step * (a == axis) for a, k in enumerate(key))
            want = _table(partial(rule, axis, *key, i), E.cells[key], E.cells[target], repr)
            assert table == want, (axis, key, i)


def test_E_face_leaving_window_raises_at_the_first_simplex():
    # 1b o f = 1a in the fibre: merging the columns f and 1b of a string
    # a -> b -> b gives a column from a to a, so d_1 along axis 0 leaves level
    # (1, 0, 0) at the first simplex whose reference image is not in it
    C = walking_two_cell()
    D = constant_diagram(walking_arrow(), dataclasses.replace(C, hcomp1={**C.hcomp1, ("1b", "f"): "1a"}))
    E = build_E(D, 2)
    face = _ref_E(D, 2)[1]
    where = E.cells[(1, 0, 0)].index
    first = next(x for x in E.level((2, 0, 0)) if face(0, 2, 0, 0, 1, x) not in where)
    with pytest.raises(TwoCatError) as exc:
        E.faces[(0, (2, 0, 0), 1)]
    assert str(exc.value) == f"{E.name}: face axis0 d_1 leaves window at (2, 0, 0) {first!r}"
