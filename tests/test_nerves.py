import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cyclic_group
from twocat.builders import pt, walking_arrow, walking_two_cell
from twocat.cli import bundled_manifest_path
from twocat.core import TwoCatError, product
from twocat.hocolim import hocolim
from twocat.manifest import parse
from twocat.nerves import (diag_nn, double_nerve, nerve_category,
                           nerve_simplicial_twocat, repackage_staircase,
                           tri_diag_nn, wbar_double_nerve)
from twocat.simplicial import (check_simplicial_identities,
                               check_simplicial_map, diag, tri_diag,
                               verify_iso, wbar)

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
    assert set(N.level(0)) == {("0",), ("1",)}


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
                from twocat.nerves import hom_chains
                cnt = len(hom_chains(C, ch[m], ch[m + 1], q))
                prod *= cnt
            total += prod
        return total

    assert len(dn.level(1, 1)) == 5 == level(1, 1)
    assert len(dn.level(2, 1)) == 8 == level(2, 1)
    assert len(dn.level(0, 3)) == 2


def test_double_nerve_identities():
    assert check_simplicial_identities(double_nerve(walking_two_cell(), 3)).ok


def test_double_nerve_fault_injection_detected():
    dn = double_nerve(walking_two_cell(), 3)
    table = dn.hfaces[(2, 0, 1)]
    table[0] = next(k for k in range(len(dn.level(1, 0))) if k != table[0])
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


def direct_diag_cases():
    C = walking_two_cell()
    cases = [pytest.param(K, 4, id=name) for name, K in sorted(MANIFEST.two_categories.items())]
    return cases + [pytest.param(product([C, C]), 3, id="WTC^2"),
                    pytest.param(product([cyclic_group(3), C]), 3, id="BZ3xWTC")]


@pytest.mark.parametrize("C,N", direct_diag_cases())
def test_direct_diag_nn_equals_diag_of_double_nerve(C, N):
    assert_same_simplicial_set(diag_nn(C, N), diag(double_nerve(C, N)))


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("name", sorted(MANIFEST.diagrams))
def test_direct_tri_diag_nn_equals_tri_diag_of_nerve(name, N):
    S = hocolim(MANIFEST.diagrams[name], N)
    assert_same_simplicial_set(tri_diag_nn(S), tri_diag(nerve_simplicial_twocat(S)))


def test_direct_diag_rule_leaving_window_raises_on_read():
    # 1b o f = 1a sends the composite of the columns f and 1b of an (a, b, b)
    # simplex out of the hom from a to b, so d_1 leaves level 1
    C = walking_two_cell()
    X = diag_nn(dataclasses.replace(C, hcomp1={**C.hcomp1, ("1b", "f"): "1a"}), 2)
    assert X.sizes() == diag_nn(C, 2).sizes()
    with pytest.raises(TwoCatError, match=r"^Diag\(NN\(WTC\)\): face d_1 leaves level 1 at "):
        X.face(2, 1, next(x for x in X.level(2) if x[0] == ("a", "b", "b")))
