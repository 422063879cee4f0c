import dataclasses
import gc
import sys
import threading
import tracemalloc
import weakref
from functools import cache, partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cyclic_group, loop_group
from twocat.builders import pt, walking_arrow, walking_two_cell
from twocat.cli import bundled_manifest_path
from twocat.core import TwoCatError, discrete, identity_functor, product
from twocat.hocolim import build_E, build_E_pull
from twocat.manifest import parse
from twocat.nerves import (_identity_col, _merge_cols, _Strings, diag_nn,
                           diag_nn_map, double_nerve, hom_chains, is_category,
                           map_dn_simplex, nerve_category, repackage_staircase,
                           wbar_double_nerve)
from twocat.simplicial import (BudgetError, _table, check_simplicial_identities,
                               check_simplicial_map, diag, simplex_budget,
                               simplicial_map, verify_iso, wbar)

MANIFEST = parse(bundled_manifest_path())


def monotone_maps(p, q):
    """Brute-force count of order-preserving maps [p] -> [q]."""
    def count(pos, last):
        if pos > p:
            return 1
        return sum(count(pos + 1, v) for v in range(last, q + 1))
    return count(0, 0)


def hom_morphism_count(C, a, b):
    return sum(1 for x, (s, _) in C.two_cells.items()
               if C.one_cells[s][0] == a and C.one_cells[s][1] == b)


def hom_object_count(C, a, b):
    return len(C.hom_one_cells(a, b))


def test_nerve_point_singleton():
    N = nerve_category(pt(), 4)
    assert N.sizes() == [1, 1, 1, 1, 1]


@given(st.integers(min_value=0, max_value=5))
@settings(max_examples=6, deadline=None)
def test_nerve_walking_arrow_counts(p):
    # oracle: composable p-chains in the arrow category = monotone [p] -> [1]
    N = nerve_category(walking_arrow(), p)
    assert len(N.level(p)) == monotone_maps(p, 1)


def test_nerve_level_zero_is_object_set():
    N = nerve_category(walking_arrow(), 2)
    assert set(N.level(0)) == {(("0",), (), ()), (("1",), (), ())}


def test_nerve_identities():
    assert check_simplicial_identities(nerve_category(walking_arrow(), 4)).ok


def test_double_nerve_wtc_level_counts():
    C = walking_two_cell()
    dn = double_nerve(C, 3)
    # oracle: sum over object chains of products of hom morphism counts
    def level(p, q):
        total = 0
        chains = [(a,) for a in C.objects]
        for _ in range(p):
            chains = [ch + (b,) for ch in chains for b in C.objects]
        for ch in chains:
            prod = 1
            for m in range(p):
                cnt = 0
                # q-chains of morphisms in the hom category
                cnt = len(hom_chains(C, ch[m], ch[m + 1], q))
                prod *= cnt
            total += prod
        return total

    assert len(dn.level((1, 1))) == 5 == level(1, 1)
    assert len(dn.level((2, 1))) == 8 == level(2, 1)
    assert len(dn.level((0, 3))) == 2


def test_double_nerve_identities():
    assert check_simplicial_identities(double_nerve(walking_two_cell(), 3)).ok


def test_double_nerve_fault_injection_detected():
    dn = double_nerve(walking_two_cell(), 3)
    table = dn.faces[(0, (2, 0), 1)]
    table[0] = next(k for k in range(len(dn.level((1, 0)))) if k != table[0])
    rep = check_simplicial_identities(dn)
    assert not rep.ok


def test_wbar_wtc_level_two_is_seven():
    C = walking_two_cell()
    W = wbar_double_nerve(C, 4)
    # oracle: sum over object triples of |hom objects| x |hom morphisms|
    total = 0
    for c0 in C.objects:
        for c1 in C.objects:
            for c2 in C.objects:
                total += (hom_object_count(C, c0, c1)
                          * hom_morphism_count(C, c1, c2))
    assert total == 7
    assert len(W.level(2)) == 7
    assert W.sizes() == [2, 4, 7, 11, 16]


def test_wbar_generic_matches_explicit_sizes():
    for C in (pt(), walking_arrow(), walking_two_cell()):
        W1 = wbar(double_nerve(C, 3))
        W2 = wbar_double_nerve(C, 3)
        assert W1.sizes() == W2.sizes()


def test_repackaging_keystone():
    # the explicit staircase model repackages bijectively onto the generic
    # codiagonal, commuting with every face and degeneracy
    for C in (pt(), walking_arrow(), walking_two_cell()):
        f = repackage_staircase(C, 4)
        assert check_simplicial_map(f).ok
        assert verify_iso(f)


def test_staircase_identities():
    assert check_simplicial_identities(wbar_double_nerve(walking_two_cell(), 4)).ok


def test_diag_wtc_level_one_is_five():
    X = diag_nn(walking_two_cell(), 3)
    assert X.sizes() == [2, 5, 10, 17]


def test_diag_inherits_identities():
    assert check_simplicial_identities(diag_nn(walking_two_cell(), 3)).ok


def assert_same_simplicial_set(X, Y):
    """The same levels in the same order and equal structure-map tables."""
    assert (X.name, X.n_max) == (Y.name, Y.n_max)
    assert X.cells == Y.cells
    for mine, theirs in ((X.faces, Y.faces), (X.degens, Y.degens)):
        assert list(mine) == list(theirs)
        for key in mine:
            assert mine[key] == theirs[key], key


def two_category_cases():
    C = walking_two_cell()
    cases = [pytest.param(K, 4, id=name) for name, K in sorted(MANIFEST.two_categories.items())]
    return cases + [pytest.param(product([C, C]), 4, id="WTC^2"),
                    pytest.param(product([C, C, C]), 3, id="WTC^3"),
                    pytest.param(product([cyclic_group(3), C]), 4, id="BZ3xWTC")]


@pytest.mark.parametrize("C,N", two_category_cases())
def test_direct_diag_nn_equals_diag_of_double_nerve(C, N):
    assert_same_simplicial_set(diag_nn(C, N), diag(double_nerve(C, N)))


def test_direct_diag_rule_leaving_window_raises_on_read():
    # 1b o f = 1a sends the composite of the columns f and 1b of an (a, b, b)
    # simplex out of the hom from a to b, so d_1 leaves level 1
    C = walking_two_cell()
    X = diag_nn(dataclasses.replace(C, hcomp1={**C.hcomp1, ("1b", "f"): "1a"}), 2)
    assert X.sizes() == diag_nn(C, 2).sizes()
    with pytest.raises(TwoCatError, match=r"^Diag\(NN\(WTC\)\): face d_1 leaves level 1 at "):
        X.face(2, 1, next(x for x in X.level(2) if x[0] == ("a", "b", "b")))


def _bad_wtc():
    """WTC with 1b o f = 1a: composing the columns f and 1b of an (a, b, b)
    simplex leaves the hom from a to b."""
    C = walking_two_cell()
    return dataclasses.replace(C, hcomp1={**C.hcomp1, ("1b", "f"): "1a"})


# -- coded tables against the per-simplex reference rules --------------------
#
# The rules below rebuild every image simplex from its cells and look it up,
# as the double nerve and its diagonals once did.  Every table the library
# fills from column codes must equal the one `_table` makes from them.

def _ref_double_nerve_rules(C):
    """(level, dh, sh, dv, sv) of the double nerve of C: its levels and its
    horizontal (axis 0) and vertical (axis 1) faces and degeneracies."""

    @cache
    def hom(a, b, q):
        return hom_chains(C, a, b, q)

    def level(p, q):
        if p == 0:
            return [((c,), (), ()) for c in C.objects]
        out = []

        def grow(objs, cols):
            if len(cols) == p:
                out.append((objs, tuple(f for f, _ in cols), tuple(a for _, a in cols)))
                return
            for b in C.objects:
                for col in hom(objs[-1], b, q):
                    grow(objs + (b,), cols + [col])

        for a in C.objects:
            grow((a,), [])
        return out

    def dh(p, q, i, x):
        objs, fcols, acols = x
        if i == 0:
            return objs[1:], fcols[1:], acols[1:]
        if i == p:
            return objs[:-1], fcols[:-1], acols[:-1]
        fs, asq = _merge_cols(C, (fcols[i - 1], acols[i - 1]), (fcols[i], acols[i]))
        return (objs[:i] + objs[i + 1:], fcols[:i - 1] + (fs,) + fcols[i + 1:],
                acols[:i - 1] + (asq,) + acols[i + 1:])

    def sh(p, q, i, x):
        objs, fcols, acols = x
        fs, asq = _identity_col(C, objs[i], q)
        return (objs[:i + 1] + (objs[i],) + objs[i + 1:], fcols[:i] + (fs,) + fcols[i:],
                acols[:i] + (asq,) + acols[i:])

    def dv(p, q, j, x):
        objs, fcols, acols = x
        if j == 0:
            return objs, tuple(fs[1:] for fs in fcols), tuple(asq[1:] for asq in acols)
        if j == q:
            return objs, tuple(fs[:-1] for fs in fcols), tuple(asq[:-1] for asq in acols)
        return (objs, tuple(fs[:j] + fs[j + 1:] for fs in fcols),
                tuple(asq[:j - 1] + (C.vcomp(asq[j], asq[j - 1]),) + asq[j + 1:]
                      for asq in acols))

    def sv(p, q, j, x):
        objs, fcols, acols = x
        return (objs, tuple(fs[:j + 1] + (fs[j],) + fs[j + 1:] for fs in fcols),
                tuple(asq[:j] + (C.id2[fs[j]],) + asq[j:] for fs, asq in zip(fcols, acols)))

    return level, dh, sh, dv, sv


def _ref_diag_rules(C):
    """(level, face, degen) of Diag of the double nerve of C: d_i = dh_i dv_i
    and s_i = sh_i sv_i per simplex, the intermediate never looked up."""
    level, dh, sh, dv, sv = _ref_double_nerve_rules(C)
    return (lambda n: level(n, n),
            lambda n, i, x: dh(n, n - 1, i, dv(n, n, i, x)),
            lambda n, i, x: sh(n, n + 1, i, sv(n, n, i, x)))


def _ref_table(rule, key, source, target):
    return _table(partial(rule, *key), source, target, repr)


def assert_simplicial_tables_match(X, level, face, degen):
    for n, cells in X.cells.items():
        assert list(cells) == level(n), n
    for (n, i), table in X.faces.items():
        assert table == _ref_table(face, (n, i), X.cells[n], X.cells[n - 1]), (n, i)
    for (n, i), table in X.degens.items():
        assert table == _ref_table(degen, (n, i), X.cells[n], X.cells[n + 1]), (n, i)


@pytest.mark.parametrize("C,N", two_category_cases())
def test_double_nerve_tables_equal_reference_rules(C, N):
    level, dh, sh, dv, sv = _ref_double_nerve_rules(C)
    B = double_nerve(C, N)
    for (p, q), cells in B.cells.items():
        assert list(cells) == level(p, q), (p, q)
    for tables, rules, step in ((B.faces, (dh, dv), -1), (B.degens, (sh, sv), 1)):
        for (axis, (p, q), i), table in tables.items():
            target = (p + step, q) if axis == 0 else (p, q + step)
            want = _ref_table(rules[axis], (p, q, i), B.cells[(p, q)], B.cells[target])
            assert table == want, (axis, (p, q), i)


@pytest.mark.parametrize("C,N", two_category_cases())
def test_diag_nn_tables_equal_reference_rules(C, N):
    assert_simplicial_tables_match(diag_nn(C, N), *_ref_diag_rules(C))


def _every_table(sets):
    """Every table of every set in `sets`, read in a fixed order."""
    return [tables[key] for X in sets
            for tables in (X.faces, X.degens) for key in tables]


def test_threads_reading_one_set_get_identical_tables():
    # more threads than cores, switching often, all filling the same lazy
    # tables and column memos (and E's code memos) at once
    C = product([walking_two_cell(), walking_two_cell()])
    D, Drep = MANIFEST.diagrams["Dcov"], MANIFEST.diagrams["Drep"]

    def build():
        return [double_nerve(C, 3), diag_nn(C, 3), wbar_double_nerve(C, 3),
                build_E(D, 3), build_E_pull(Drep, 3)]

    sets = build()
    start = threading.Barrier(6)
    seen = [None] * 6

    def read(k):
        start.wait()
        seen[k] = _every_table(sets)

    threads = [threading.Thread(target=read, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(a is b for tables in seen for a, b in zip(tables, seen[0], strict=True))
    assert seen[0] and seen[0] == _every_table(build())


def test_double_nerve_rule_leaving_window_raises_on_read():
    C = _bad_wtc()
    B = double_nerve(C, 2)
    assert {k: len(v) for k, v in B.cells.items()} == \
        {k: len(v) for k, v in double_nerve(walking_two_cell(), 2).cells.items()}
    dh = _ref_double_nerve_rules(C)[1]
    where = B.cells[(1, 0)].index
    first = next(x for x in B.level((2, 0)) if dh(2, 0, 1, x) not in where)
    with pytest.raises(TwoCatError) as exc:
        B.face(0, (2, 0), 1, B.level((2, 0))[-1])
    assert str(exc.value) == f"NN(WTC): face axis0 d_1 leaves window at (2, 0) {first!r}"


# -- the staircase, the nerve of a category and diag_nn_map -------------------
#
# The per-simplex rules these were once built from, kept as the reference.

def _ref_staircase_levels(C, n_max):
    levels = {0: [((c,), (), ()) for c in C.objects]}
    for n in range(1, n_max + 1):
        out = []
        for (objs, fcols, acols) in levels[n - 1]:
            for b in C.objects:
                for col in hom_chains(C, objs[-1], b, n - 1):
                    out.append((objs + (b,), fcols + (col[0],), acols + (col[1],)))
        levels[n] = out
    return levels


def _ref_stair_face(C, n, i, x):
    objs, fcols, acols = x
    cols = list(zip(fcols, acols))
    new_objs = objs[:i] + objs[i + 1:]
    new_cols = []
    for m in range(1, n):
        if m < i:
            new_cols.append(cols[m - 1])
        elif m == i:
            new_cols.append(_merge_cols(C, cols[i - 1], cols[i]))
        else:
            fs, asq = cols[m]  # old column m+1
            if i == 0:
                new_cols.append((fs[1:], asq[1:]))
            else:
                nfs = fs[:i] + fs[i + 1:]
                nas = asq[:i - 1] + (C.vcomp(asq[i], asq[i - 1]),) + asq[i + 1:]
                new_cols.append((nfs, nas))
    return (new_objs, tuple(f for f, _ in new_cols), tuple(a for _, a in new_cols))


def _ref_stair_degen(C, n, i, x):
    objs, fcols, acols = x
    cols = list(zip(fcols, acols))
    new_objs = objs[:i + 1] + (objs[i],) + objs[i + 1:]
    new_cols = []
    for m in range(1, n + 2):
        if m <= i:
            new_cols.append(cols[m - 1])
        elif m == i + 1:
            new_cols.append(_identity_col(C, objs[i], i))
        else:
            fs, asq = cols[m - 2]  # old column m-1
            nfs = fs[:i + 1] + (fs[i],) + fs[i + 1:]
            nas = asq[:i] + (C.id2[fs[i]],) + asq[i:]
            new_cols.append((nfs, nas))
    return (new_objs, tuple(f for f, _ in new_cols), tuple(a for _, a in new_cols))


def _ref_nerve_category_rules(A, n_max):
    """(level, face, degen) of the nerve of A on chains (f_1, ..., f_p),
    level 0 the tuples (c,)."""
    chains = {0: [(c,) for c in A.objects]}
    for p in range(1, n_max + 1):
        nxt = []
        for tail in chains[p - 1]:
            if p == 1:
                src = tail[0]
                nxt.extend((f,) for f in A.one_cells if A.dom1(f) == src)
            else:
                end = A.cod1(tail[-1])
                nxt.extend(tail + (f,) for f in A.one_cells if A.dom1(f) == end)
        chains[p] = nxt

    def face(p, i, x):
        if p == 1:
            return (A.cod1(x[0]),) if i == 0 else (A.dom1(x[0]),)
        if i == 0:
            return x[1:]
        if i == p:
            return x[:-1]
        return x[:i - 1] + (A.comp1(x[i], x[i - 1]),) + x[i + 1:]

    def degen(p, i, x):
        if p == 0:
            return (A.id1[x[0]],)
        obj = A.dom1(x[0]) if i == 0 else A.cod1(x[i - 1])
        return x[:i] + (A.id1[obj],) + x[i:]

    return chains.__getitem__, face, degen


def _as_row_zero(A, p, x):
    """The level-p simplex x of the reference nerve as a simplex of row 0 of
    the double nerve."""
    if p == 0:
        return x, (), ()
    objs = (A.dom1(x[0]),) + tuple(A.cod1(f) for f in x)
    return objs, tuple((f,) for f in x), ((),) * p


@pytest.mark.parametrize("C,N", two_category_cases())
def test_wbar_double_nerve_tables_equal_reference_rules(C, N):
    levels = _ref_staircase_levels(C, N)
    assert_simplicial_tables_match(wbar_double_nerve(C, N), levels.__getitem__,
                                   partial(_ref_stair_face, C), partial(_ref_stair_degen, C))


def category_cases():
    cases = [pytest.param(pt(), id="pt"), pytest.param(walking_arrow(), id="walking_arrow"),
             pytest.param(discrete(["u", "v"]), id="discrete"),
             pytest.param(cyclic_group(4), id="BZ4")]
    return cases + [pytest.param(K, id=name) for name, K in sorted(MANIFEST.two_categories.items())
                    if is_category(K)]


@pytest.mark.parametrize("A", category_cases())
def test_nerve_category_equals_reference_rules_on_row_zero(A):
    N = 4
    X = nerve_category(A, N)
    level, face, degen = _ref_nerve_category_rules(A, N)
    as_row = partial(_as_row_zero, A)
    for n in range(N + 1):
        assert sorted((as_row(n, x) for x in level(n)), key=repr) == \
            sorted(X.level(n), key=repr), n
    for tables, rule, step in ((X.faces, face, -1), (X.degens, degen, 1)):
        for (n, i), table in tables.items():
            index, image = X.cells[n].index, X.cells[n + step].index
            for x in level(n):
                assert table[index[as_row(n, x)]] == image[as_row(n + step, rule(n, i, x))], \
                    (n, i, x)


def test_budget_refuses_a_level_before_enumerating_it():
    # Omega(Z/2)'s diagonal has 2^(n^2) simplices at level n: 512 at n = 3
    # and 65,536 at n = 4.  Level 4 is refused from its count, so the refusal
    # costs about what the kept levels cost, not what the refused one would
    C = loop_group(2)
    tracemalloc.start()
    try:
        with simplex_budget(1000), pytest.raises(BudgetError) as exc:
            diag_nn(C, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == ("level size 65536 exceeds the simplex budget 1000; "
                              "raise it or lower the truncation")
    assert peak < 2 * 2**20


@pytest.mark.parametrize("name", sorted(MANIFEST.two_functors))
def test_diag_nn_map_equals_per_simplex_map(name):
    F = MANIFEST.two_functors[name]
    f = diag_nn_map(F, 4)
    assert f.name == f"DiagNN({F.name})"
    assert f.maps == simplicial_map(f.source, f.target, lambda n, x: map_dn_simplex(F, x)).maps


def test_staircase_rule_leaving_window_raises_on_read():
    C = _bad_wtc()
    W = wbar_double_nerve(C, 2)
    assert W.sizes() == wbar_double_nerve(walking_two_cell(), 2).sizes()
    first = next(x for x in W.level(2) if _ref_stair_face(C, 2, 1, x) not in W.cells[1].index)
    with pytest.raises(TwoCatError) as exc:
        W.face(2, 1, W.level(2)[-1])
    assert str(exc.value) == f"WbarNN(WTC): face d_1 leaves level 1 at {first!r}"


def test_diag_nn_map_image_leaving_target_raises():
    # f sent to 1b: the image of a column from a to b no longer starts at a
    I = identity_functor(walking_two_cell())
    F = dataclasses.replace(I, on_one={**I.on_one, "f": "1b"})
    first = next(x for x in diag_nn(I.source, 2).level(1)
                 if map_dn_simplex(F, x) not in diag_nn(I.target, 2).cells[1].index)
    with pytest.raises(TwoCatError) as exc:
        diag_nn_map(F, 2)
    assert str(exc.value) == f"DiagNN(1_WTC): image of level-1 simplex {first!r} not in target"


def test_staircase_is_freed_by_reference_counting():
    # no cycle ties a set to its tables or to the rank lists they are filled
    # from, and no cache outlives it, so dropping the last reference frees
    # them all at once
    C = product([walking_two_cell(), walking_two_cell()])
    ranks = lambda: sum(isinstance(x, _Strings) for x in gc.get_objects())
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        live = ranks()
        W = wbar_double_nerve(C, 3)
        assert _every_table([W]) and ranks() == live + 1
        ref = weakref.ref(W)
        del W
        assert ref() is None and ranks() == live
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
