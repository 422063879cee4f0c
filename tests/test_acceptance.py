"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Bundled corpus: the manifest `src/twocat/data/corpus.manifest.json`, read
by entity name (the `cx` fixture): the terminal 2-category PT, the walking
arrow WA, the walking 2-cell WTC, the 2-functor F: WA -> WTC, the covariant
diagram Dcov over WA with fibres WTC and WA, the contravariant
representable diagram Drep on WTC at b, and the morphism collapse onto the
constant terminal diagram; with them, `renaming_morphism(Dcov)`, whose
components are cell-level isomorphisms.  Truncation: 3 for the isomorphism
checks, 4 for the homology checks.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

from twocat.builders import pt, walking_two_cell
from twocat.cli import bundled_manifest_path
from twocat.comma import OVER, UNDER, comma, projections, retraction_R, section_jz_iz
from twocat.core import (check_cell_map, compose_functors, constant_diagram,
                         functor_equal, functor_is_bijective,
                         identity_functor, renaming_morphism, validate)
from twocat.grothendieck import grothendieck
from twocat.hocolim import (build_E, build_E_pull,
                            check_simplicial_two_category,
                            grothendieck_wbar_comparison, hocolim,
                            hocolim_level_product_iso, hocolim_map,
                            hocolim_wbar_comparison)
from twocat.homology import (homology, is_homology_iso_upto,
                             normalized_chain_complex)
from twocat.nerves import (diag_nn, diag_nn_map, double_nerve, map_dn_simplex,
                           nerve_category, nerve_simplicial_twocat,
                           repackage_staircase, wbar_double_nerve)
from twocat.simplicial import (aw_map, check_simplicial_identities,
                               check_simplicial_map, simplicial_map, tri_diag,
                               verify_iso, wbar)

ISO_TRUNC = 3
HOM_TRUNC = 4


def report(num, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_1_identity_suite(cx):
    t0 = time.time()
    ok = True
    for C in (cx.pt, cx.wa, cx.wtc):
        ok &= validate(C).ok
        ok &= check_simplicial_identities(double_nerve(C, ISO_TRUNC)).ok
        ok &= check_simplicial_identities(wbar_double_nerve(C, ISO_TRUNC)).ok
    for C in (cx.pt, cx.wa):
        ok &= check_simplicial_identities(nerve_category(C, ISO_TRUNC)).ok
    for D in (cx.Dcov, cx.Drep):
        ok &= validate(grothendieck(D)).ok
        S = hocolim(D, ISO_TRUNC)
        ok &= check_simplicial_two_category(S).ok
        E = build_E(D, ISO_TRUNC) if D.name == "Dcov" else build_E_pull(D, ISO_TRUNC)
        ok &= check_simplicial_identities(E).ok
        ok &= check_simplicial_identities(
            tri_diag(nerve_simplicial_twocat(S))).ok
    elapsed = time.time() - t0
    ok &= elapsed < 60
    report(1, f"identity suite exhaustive in {elapsed:.1f}s (< 60s)", ok)


def test_criterion_2_wbar_correctness(cx):
    ok = True
    for C in (cx.pt, cx.wa, cx.wtc):
        f = repackage_staircase(C, 4)
        ok &= check_simplicial_map(f).ok and verify_iso(f)
    ok &= wbar_double_nerve(cx.wtc, 4).sizes() == [2, 4, 7, 11, 16]
    report(2, "repackaging bijection at N=4 and derived level counts", ok)


def test_criterion_3_diagonal_comparison_homology(cx):
    a1 = aw_map(double_nerve(cx.wtc, HOM_TRUNC))
    ok = check_simplicial_map(a1).ok and is_homology_iso_upto(a1, 2)
    a2 = aw_map(double_nerve(grothendieck(cx.Dcov), HOM_TRUNC))
    ok &= check_simplicial_map(a2).ok and is_homology_iso_upto(a2, 2)
    report(3, "diagonal comparison map induces homology isos in degrees 0..2", ok)


def test_criterion_4_flagship_isos(cx):
    ok = True
    for D in (cx.Dcov, cx.Drep):
        f = hocolim_wbar_comparison(D, ISO_TRUNC)
        ok &= check_simplicial_map(f).ok and verify_iso(f)
        g = grothendieck_wbar_comparison(D, ISO_TRUNC)
        ok &= check_simplicial_map(g).ok and verify_iso(g)
    report(4, "both comparison isomorphisms pass at N=3 on both diagrams", ok)


def test_criterion_5_constant_levels(cx):
    D = constant_diagram(cx.wa, walking_two_cell())
    S = hocolim(D, ISO_TRUNC)
    ok = True
    for p in range(ISO_TRUNC + 1):
        iso = hocolim_level_product_iso(S, D, p)
        ok &= check_cell_map("two_functor", iso).ok and functor_is_bijective(iso)
    report(5, "constant-diagram levels isomorphic to fibre x nerve level", ok)


def test_criterion_6_retraction_witnesses(cx):
    ok = True
    for side in (OVER, UNDER):
        fib, G, Pi, iota, wit = projections(cx.F, side)
        ok &= functor_equal(compose_functors(Pi, iota), identity_functor(cx.wa))
        ok &= check_cell_map("oplax", wit).ok
    for c in cx.Dcov.base.objects:
        for y in cx.collapse.target.ob[c].objects:
            K, L, R, sec, wit = retraction_R(cx.collapse, c, y)
            ok &= functor_equal(compose_functors(R, sec), identity_functor(L))
            ok &= check_cell_map("oplax", wit).ok
    for c in cx.Drep.base.objects:
        for z in cx.Drep.ob[c].objects:
            K0, K1, jz, pibar, iz, wit = section_jz_iz(cx.F, cx.Drep, c, z)
            ok &= functor_equal(compose_functors(pibar, iz), identity_functor(K0))
            ok &= check_cell_map("oplax", wit).ok
    report(6, "retraction equalities and oplax witness axioms", ok)


def test_criterion_7_contractibility(cx):
    ok = True
    for c in cx.wtc.objects:
        for side in (OVER, UNDER):
            K = comma(identity_functor(cx.wtc), c, side)
            cc = normalized_chain_complex(diag_nn(K, HOM_TRUNC))
            hs = [homology(cc, i) for i in range(3)]
            ok &= hs[0].betti == 1 and not hs[0].torsion
            ok &= all(h.betti == 0 and not h.torsion for h in hs[1:])
    report(7, "slices have point homology in degrees 0..2", ok)


def test_criterion_8_projection_homology(cx):
    fib, G, Pi, iota, wit = projections(cx.F, OVER)
    ok = is_homology_iso_upto(diag_nn_map(Pi, HOM_TRUNC), 2)
    report(8, "assembled projection induces homology isos in degrees 0..2", ok)


def test_criterion_9_invariance(cx):
    g = renaming_morphism(cx.Dcov)
    SD, SE = hocolim(cx.Dcov, HOM_TRUNC), hocolim(g.target, HOM_TRUNC)
    maps = hocolim_map(g, SD, SE)
    XD = tri_diag(nerve_simplicial_twocat(SD))
    XE = tri_diag(nerve_simplicial_twocat(SE))
    f = simplicial_map(XD, XE, lambda n, x: map_dn_simplex(maps[n], x))
    ok = is_homology_iso_upto(f, 2)
    report(9, "cellwise-isomorphism morphism induces homology isos 0..2", ok)


def test_criterion_10_fault_sensitivity():
    data = Path(bundled_manifest_path()).parent
    idx = json.loads((data / "mutants" / "index.json").read_text())
    ok = len(idx) == 10
    for item in idx:
        path = data / "mutants" / f"{item['name']}.manifest.json"
        p = subprocess.run([sys.executable, "-m", "twocat.cli", "--manifest",
                            str(path), "verify", item["suite"]],
                           capture_output=True, text=True, timeout=500)
        detected = p.returncode != 0
        ok &= detected
    report(10, "all 10 bundled mutants detected with nonzero exit", ok)
