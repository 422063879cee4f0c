import dataclasses

import pytest

from twocat.builders import pt, walking_arrow, walking_two_cell
from twocat.core import TwoCatError
from twocat.homology import (homology, induced_homology_map,
                             is_homology_iso_upto, mat_mul,
                             normalized_chain_complex, smith_normal_form)
from twocat.nerves import diag_nn, nerve_category
from twocat.simplicial import simplicial_map


def test_snf_known_matrices():
    assert smith_normal_form([[1, 0], [0, 1]])[0] == [1, 1]
    assert smith_normal_form([[2, 4], [6, 8]])[0] == [2, 4]
    assert smith_normal_form([[6, 0], [0, 10]])[0] == [2, 30]
    assert smith_normal_form([[0, 0], [0, 0]])[0] == []
    assert smith_normal_form([[2]])[0] == [2]


def test_snf_transforms_consistent():
    A = [[3, 1, -4], [2, -3, 1], [-4, 4, 0]]
    diag, V, Vinv = smith_normal_form(A)
    # Vinv really inverts V
    n = len(V)
    prod = mat_mul(V, Vinv)
    assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def test_point_homology():
    cc = normalized_chain_complex(nerve_category(pt(), 4))
    assert [cc.dim(n) for n in range(5)] == [1, 0, 0, 0, 0]
    for i, betti in ((0, 1), (1, 0), (2, 0)):
        h = homology(cc, i)
        assert (h.betti, h.torsion) == (betti, ())


def test_walking_arrow_contractible():
    cc = normalized_chain_complex(nerve_category(walking_arrow(), 4))
    assert [cc.dim(n) for n in range(3)] == [2, 1, 0]
    assert homology(cc, 0).betti == 1
    assert homology(cc, 1) == homology(cc, 1).__class__(1, 0, ())


def test_degree_out_of_range_rejected():
    cc = normalized_chain_complex(nerve_category(pt(), 3))
    with pytest.raises(TwoCatError):
        homology(cc, 3)


def test_diag_nn_wtc_boundary_squares_to_zero():
    # construction itself verifies dd = 0
    normalized_chain_complex(diag_nn(walking_two_cell(), 4))


def test_basis_in_repr_order():
    # listing the objects in reverse changes the order of every level but
    # neither the basis nor the boundary matrices
    C = walking_two_cell()
    X = diag_nn(dataclasses.replace(C, objects=C.objects[::-1]), 3)
    assert list(X.level(1)) != sorted(X.level(1), key=repr)
    cc = normalized_chain_complex(X)
    for n in range(4):
        assert list(cc.basis[n]) == sorted(cc.basis[n], key=repr)
    same = normalized_chain_complex(diag_nn(C, 3))
    assert (cc.basis, cc.boundary) == (same.basis, same.boundary)
    ranks = [cc.dim(n) for n in range(4)]
    assert repr(cc) == f"<ChainComplex Diag(NN(WTC)) N=3 ranks={ranks}>"


def test_identity_induces_iso():
    X = diag_nn(walking_two_cell(), 4)
    f = simplicial_map(X, X, lambda n, x: x)
    assert is_homology_iso_upto(f, 3)
    m0 = induced_homology_map(f, 0)
    assert m0 == [[1, 0], [0, 1]] or len(m0) == 2


def test_collapse_to_point_iso_in_degree_zero():
    X = nerve_category(walking_arrow(), 4)
    P = nerve_category(pt(), 4)
    f = simplicial_map(X, P, lambda n, x: P.level(n)[0])
    assert is_homology_iso_upto(f, 3)  # both sides contractible


def test_non_iso_detected():
    # two points vs one point differ in H_0
    from twocat.core import discrete
    X = nerve_category(discrete(["u", "v"]), 3)
    P = nerve_category(pt(), 3)
    f = simplicial_map(X, P, lambda n, x: P.level(n)[0])
    assert not is_homology_iso_upto(f, 1)


from hypothesis import given, settings, strategies as st

matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_snf_invariant_factors_divide(A):
    diag, V, Vinv = smith_normal_form(A)
    assert all(d > 0 for d in diag)
    assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))
    # V is unimodular with the tracked inverse
    n = len(V)
    assert mat_mul(V, Vinv) == [[int(i == j) for j in range(n)] for i in range(n)]
    # invariant factors do not depend on the orientation of the matrix
    At = [[A[i][j] for i in range(len(A))] for j in range(len(A[0]))]
    assert smith_normal_form(At)[0] == diag
