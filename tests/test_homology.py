import dataclasses
import importlib
import math
import random
import signal
from itertools import combinations

import pytest

from conftest import cyclic_group
from twocat.builders import pt, walking_arrow, walking_two_cell
from twocat.cli import bundled_manifest_path
from twocat.core import TwoCatError, TwoFunctor, check_cell_map, discrete, product
from twocat import verify
from twocat.homology import (HomologyResult, chain_map, first_homology_difference,
                             homology, invariant_factors, is_homology_iso_upto,
                             mapping_cone, nondegenerate_levels,
                             normalized_chain_complex, smith_normal_form)
from twocat.manifest import parse
from twocat.nerves import diag_nn, diag_nn_map, nerve_category
from twocat.simplicial import simplicial_map


def dense(columns, rows):
    """The list of rows of the matrix with these `{row: coefficient}` columns."""
    M = [[0] * len(columns) for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            M[i][j] = v
    return M


def sparse(M):
    """The `{row: coefficient}` columns of a matrix given by its rows."""
    return [{i: row[j] for i, row in enumerate(M) if row[j]}
            for j in range(len(M[0]) if M else 0)]


def test_snf_known_matrices():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[6, 0], [0, 10]]) == [2, 30]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[2]]) == [2]


def det(M):
    """The exact determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination."""
    M = [row[:] for row in M]
    n, sign, prev = len(M), 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap], sign = M[swap], M[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


def determinantal_factors(M):
    """The invariant factors d_k = D_k / D_(k-1) up to the rank, where D_k
    is the gcd of all k x k minors of M."""
    m, n = len(M), len(M[0])
    out, prev = [], 1
    for k in range(1, min(m, n) + 1):
        D = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                D = math.gcd(D, det([[M[i][j] for j in cols] for i in rows]))
        if not D:
            break
        out.append(D // prev)
        prev = D
    return out


def test_invariant_factors_match_determinantal_divisors():
    # every third matrix has no unit entry, as a remainder left by the
    # sparse unit phase has none
    rng = random.Random(5)
    for trial in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        values = [v for v in range(-9, 10) if trial % 3 or abs(v) != 1]
        density = rng.random()
        M = [[rng.choice(values) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(m)]
        expected = determinantal_factors(M)
        assert smith_normal_form(M) == expected, M
        assert invariant_factors(sparse(M)) == expected, M


# A seeded 10 x 10 matrix with entries in {0, +-2, 3, 4, 6} and so no unit
# entry.  Smith elimination that keeps its pivot position grows some entry
# of it past thousands of digits and does not finish in seconds.
BLOW_UP = [[2, 6, 3, 2, 6, -2, 3, 6, 3, 4], [3, 2, -2, 2, -2, 0, 6, 2, 3, 3],
           [6, 6, 4, 4, 3, 0, 3, 3, 4, 6], [-2, 0, 2, 2, -2, 0, 4, 2, 0, 6],
           [6, 2, 0, 2, 0, 0, -2, 4, 0, -2], [-2, 0, 6, 2, 6, 4, 0, -2, 2, -2],
           [6, 6, 0, 4, 4, 4, 6, -2, -2, 2], [4, 4, 0, 0, 6, -2, 2, 6, 6, -2],
           [4, 6, 0, 4, -2, 0, 6, 3, 4, 0], [6, 2, 2, -2, 2, -2, -2, 4, 6, 0]]
BLOW_UP_FACTORS = [1, 1, 1, 1, 2, 2, 2, 2, 4, 59660]


def test_snf_without_coefficient_blow_up():
    def timeout(signum, frame):
        raise TimeoutError("Smith normal form still running after 5 s")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        transpose = [list(col) for col in zip(*BLOW_UP)]
        assert smith_normal_form(BLOW_UP) == BLOW_UP_FACTORS
        assert smith_normal_form(transpose) == BLOW_UP_FACTORS
        assert invariant_factors(sparse(BLOW_UP)) == BLOW_UP_FACTORS
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert math.prod(BLOW_UP_FACTORS) == abs(det(BLOW_UP))


def group_map(n, m, k):
    """B(Z/n) -> B(Z/m) induced by g -> k g (m must divide k n)."""
    F = TwoFunctor(cyclic_group(n), cyclic_group(m), {"*": "*"},
                   {f"g{i}": f"g{k * i % m}" for i in range(n)},
                   {f"e{i}": f"e{k * i % m}" for i in range(n)},
                   name=f"x{k}: Z/{n} -> Z/{m}")
    assert check_cell_map("two_functor", F).ok
    return F


def boundaries():
    cats = parse(bundled_manifest_path()).two_categories
    C = walking_two_cell()
    complexes = [normalized_chain_complex(diag_nn(cats[name], 4)) for name in sorted(cats)]
    complexes.append(normalized_chain_complex(diag_nn(product([C, C]), 3)))
    complexes.append(normalized_chain_complex(diag_nn(cyclic_group(4), 4)))
    return [pytest.param(cc.boundary[n], cc.dim(n - 1), id=f"{cc.name}-d{n}")
            for cc in complexes for n in range(1, cc.n_max + 1)]


@pytest.mark.parametrize("columns,rows", boundaries())
def test_invariant_factors_match_dense_snf_on_boundaries(columns, rows):
    assert invariant_factors(columns) == smith_normal_form(dense(columns, rows))


def test_invariant_factors_match_dense_snf_on_random_matrices():
    rng = random.Random(7)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)] + [
        (rng.randint(1, 8), rng.randint(1, 8)) for _ in range(400)]
    for m, n in shapes:
        density = rng.random()
        M = [[rng.choice((1, -1, 2, -2, 3, 4, -6, 9)) if rng.random() < density else 0
              for _ in range(n)] for _ in range(m)]
        for i in rng.sample(range(m), m // 3):
            M[i] = [0] * n
        for j in rng.sample(range(n), n // 3):
            for row in M:
                row[j] = 0
        assert invariant_factors(sparse(M)) == smith_normal_form(M), M


def test_unit_made_by_fill_in_is_pivoted(monkeypatch):
    # clearing the first unit turns the entry 3 into 3 - 2 * 1 = 1; a pivot
    # pushes the units it makes, so this one is eliminated too and nothing
    # is left for the dense Smith normal form
    module = importlib.import_module("twocat.homology")

    def refuse(A):
        raise AssertionError(f"dense Smith normal form called on {A}")

    monkeypatch.setattr(module, "smith_normal_form", refuse)
    assert invariant_factors(sparse([[1, 2], [1, 3]])) == [1, 1]


def test_each_boundary_reduced_once(monkeypatch):
    # the package's `homology` function hides the module of the same name
    module = importlib.import_module("twocat.homology")
    reduced = []
    real = module.invariant_factors
    monkeypatch.setattr(module, "invariant_factors",
                        lambda M: reduced.append(id(M)) or real(M))
    X = diag_nn(walking_two_cell(), 4)
    cc = normalized_chain_complex(X)
    for _ in range(2):
        for i in range(4):
            homology(cc, i)
    assert sorted(reduced) == sorted(id(cc.boundary[n]) for n in range(1, 5))
    reduced.clear()
    assert is_homology_iso_upto(simplicial_map(X, X, lambda n, x: x), 3)
    assert reduced and len(reduced) == len(set(reduced))


def test_cone_detects_non_iso_with_equal_homology():
    # g -> 2g on Z/4 is not an iso on H_1 = Z/4, though source and target
    # have the same H_1: only the mapping cone sees it
    f = diag_nn_map(group_map(4, 4, 2), 3)
    assert is_homology_iso_upto(f, 0)
    assert not is_homology_iso_upto(f, 1)
    cone = mapping_cone(*chain_map(f), 2)
    assert homology(cone, 0) == HomologyResult(0, 0, ())
    assert homology(cone, 1) == HomologyResult(1, 0, (2,))


def test_abstract_clause_detects_non_iso_with_acyclic_cone():
    # Z/4 -> Z/2 is onto on H_1 and an iso on H_0, so the cone has no
    # homology in degrees <= 1; H_1 = Z/4 and Z/2 differ
    f = diag_nn_map(group_map(4, 2, 1), 3)
    assert is_homology_iso_upto(f, 0)
    assert not is_homology_iso_upto(f, 1)
    cone = mapping_cone(*chain_map(f), 2)
    assert [homology(cone, i) for i in range(2)] == [HomologyResult(i, 0, ()) for i in range(2)]


def to_point(n):
    """B(Z/n) -> PT."""
    return TwoFunctor(cyclic_group(n), pt(), {"*": "*"}, {f"g{i}": "1" for i in range(n)},
                      {f"e{i}": "11" for i in range(n)}, name=f"Z/{n} -> pt")


def test_first_homology_difference_names_the_degree():
    f = diag_nn_map(to_point(2), 3)
    assert first_homology_difference(f, 0) is None
    assert first_homology_difference(f, 1) == "H_1: Z/2 -> 0, cone H_1 = 0"
    # the cone alone sees g -> 2g on Z/4
    g = diag_nn_map(group_map(4, 4, 2), 3)
    assert first_homology_difference(g, 1) == "H_1: Z/4 -> Z/4, cone H_1 = Z/2"


def test_failing_invariance_check_says_why(monkeypatch):
    f = diag_nn_map(to_point(2), 3)
    monkeypatch.setattr(verify, "diag_nn_map", lambda F, n: f)
    checks = verify.run_suite(parse(bundled_manifest_path()), "invariance", trunc=3)["checks"]
    projections = [c for c in checks if c["name"].startswith("projection_homology[")]
    assert projections and all(c["status"] == "fail" for c in projections)
    assert {c["detail"] for c in projections} == {"H_1: Z/2 -> 0, cone H_1 = 0"}
    assert all(c["detail"] == "degrees 0..1" for c in checks if c["status"] == "pass")


def test_automorphism_of_cyclic_group_is_iso():
    assert is_homology_iso_upto(diag_nn_map(group_map(4, 4, 3), 4), 2)


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


def _collapse_edge(X, table, k):
    """Point entry k of `table` (into level 1) at the degenerate edge on the
    source vertex of its image: the normalized complex projects that edge to
    zero, where the image had the boundary target - source."""
    vertex = X.face(1, 1, X.level(1)[table[k]])
    table[k] = X.degens[(0, 0)][X.level(0).index[vertex]]


def test_corrupted_face_table_fails_dd():
    X = diag_nn(walking_two_cell(), 3)
    basis = nondegenerate_levels(X)
    k = next(X.level(2).index[x] for x in basis[2] if X.face(2, 0, x) in basis[1])
    _collapse_edge(X, X.faces[(2, 0)], k)
    with pytest.raises(TwoCatError, match=r"^normalized complex of Diag\(NN\(WTC\)\): "
                                          r"dd != 0 at degree 2$"):
        normalized_chain_complex(X)


def test_corrupted_map_level_fails_chain_map():
    X = diag_nn(walking_two_cell(), 3)
    f = simplicial_map(X, X, lambda n, x: x)
    _collapse_edge(X, f.maps[1], X.level(1).index[nondegenerate_levels(X)[1][0]])
    with pytest.raises(TwoCatError, match=r"^chain_map: not a chain map at degree 1$"):
        chain_map(f)


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


def test_collapse_to_point_iso_in_degree_zero():
    X = nerve_category(walking_arrow(), 4)
    P = nerve_category(pt(), 4)
    f = simplicial_map(X, P, lambda n, x: P.level(n)[0])
    assert is_homology_iso_upto(f, 3)  # both sides contractible


def test_non_iso_detected():
    # two points vs one point differ in H_0
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
    diag = smith_normal_form(A)
    assert all(d > 0 for d in diag)
    assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))
    # invariant factors do not depend on the orientation of the matrix
    At = [[A[i][j] for i in range(len(A))] for j in range(len(A[0]))]
    assert smith_normal_form(At) == diag
