import dataclasses
import heapq
import importlib
import itertools
import math
import random
import signal
from collections import namedtuple
from itertools import combinations

import pytest

from conftest import circle, cyclic_group, loop_group
from twocat.builders import pt, walking_arrow, walking_two_cell
from twocat.cli import bundled_manifest_path
from twocat.core import (TwoCatError, TwoFunctor, check_cell_map, coproduct, discrete,
                         identity_functor, opposite, product)
from twocat import verify
from twocat.homology import (HomologyResult, chain_map, first_homology_difference,
                             homology, invariant_factors, is_homology_iso_upto,
                             mapping_cone, nondegenerate_levels,
                             normalized_chain_complex, smith_normal_form)
from twocat.manifest import parse
from twocat.nerves import diag_nn, diag_nn_map, nerve_category, wbar_double_nerve
from twocat.simplicial import TruncatedSimplicialSet, simplicial_map


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


@pytest.mark.parametrize("check", [first_homology_difference, is_homology_iso_upto])
@pytest.mark.parametrize("k", [3, 4])
def test_degree_past_the_truncation_rejected(check, k):
    # both reject degree k >= N before anything reads past the top level
    f = diag_nn_map(identity_functor(walking_two_cell()), 3)
    with pytest.raises(TwoCatError, match=rf"^homology: degree {k} outside validated "
                                          rf"range 0\.\.2$"):
        check(f, k)


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


def test_multiplication_maps_of_cyclic_groups_match_the_closed_form():
    # g -> a g on B(Z/n) -> B(Z/m) is a homology iso in degrees <= d <= 2
    # iff d = 0, or it is an automorphism of Z/n: H_1 is Z/n -> Z/m, H_2 = 0
    verdicts, expected = {}, {}
    for n, m in itertools.product(range(1, 7), repeat=2):
        for a in (a for a in range(m) if a * n % m == 0):
            f = diag_nn_map(group_map(n, m, a), 3)
            for d in range(3):
                verdicts[n, m, a, d] = is_homology_iso_upto(f, d)
                expected[n, m, a, d] = d == 0 or (n == m and math.gcd(a, n) == 1)
    assert len(verdicts) == 183
    assert verdicts == expected


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


LADDER = [pytest.param(n, j, id=f"BZ{n}" + "xWTC" * j) for n, j in ((4, 0), (6, 0), (3, 1))]


def ladder_category(n, j):
    """B(Z/n) x WTC^j."""
    return product([cyclic_group(n)] + [walking_two_cell()] * j)


def ladder_complex(n, j):
    """The normalized complex of diag NN(B(Z/n) x WTC^j) at N = 4."""
    return normalized_chain_complex(diag_nn(ladder_category(n, j), 4))


def stored_nondegenerate(X):
    """The nondegenerate simplices of each level of X, as the level stores them."""
    levels = {}
    for n in range(X.n_max + 1):
        degenerate = {X.degen(n - 1, i, y) for i in range(n) for y in X.level(n - 1)}
        levels[n] = tuple(x for x in X.level(n) if x not in degenerate)
    return levels


@pytest.mark.parametrize("C,N", [pytest.param(walking_two_cell(), 3, id="WTC")]
                         + [pytest.param(ladder_category(*p.values), 4, id=p.id) for p in LADDER])
def test_basis_in_level_order(C, N):
    # listing the objects and 1-cells in reverse reorders the levels and so
    # the bases, but no boundary's invariant factors and no homology group
    X = diag_nn(dataclasses.replace(C, objects=C.objects[::-1],
                                    one_cells=dict(reversed(C.one_cells.items()))), N)
    Y = diag_nn(C, N)
    assert list(X.level(1)) != list(Y.level(1))
    cc, same = normalized_chain_complex(X), normalized_chain_complex(Y)
    assert cc.basis == stored_nondegenerate(X)
    assert same.basis == stored_nondegenerate(Y)
    for n in range(1, N + 1):
        assert cc.factors(n) == same.factors(n), n
    assert [homology(cc, i) for i in range(N)] == [homology(same, i) for i in range(N)]
    ranks = [cc.dim(n) for n in range(N + 1)]
    assert repr(cc) == repr(same) == f"<ChainComplex Diag(NN({C.name})) N={N} ranks={ranks}>"


def test_basis_in_level_order_on_every_verified_complex(monkeypatch):
    module = importlib.import_module("twocat.homology")
    real, seen = module.nondegenerate_levels, []
    monkeypatch.setattr(module, "nondegenerate_levels",
                        lambda X: seen.append((X, real(X))) or seen[-1][1])
    assert verify.run_suite(parse(bundled_manifest_path()), "all")["status"] == "pass"
    assert seen
    for X, levels in seen:
        assert levels == stored_nondegenerate(X), X


def test_basis_keeps_each_level_as_stored():
    # equal entries of other types (1, True, 1.0), 1-tuples, a str and a
    # tuple that print alike, and a namedtuple: each level comes back as
    # stored, with no entry merged into an equal one and none moved
    P = namedtuple("P", "x")
    one, yes, real, t1, t2 = 1, True, 1.0, (1,), (True,)
    level0 = (one, yes, real, "1", "it's", (), t1, t2, (1.0,), ("a",), "a", P(1), (P(0),))
    level1 = ((one, "x"), (yes, "x"), (real, "x"), ("a", ("b",)), (("a",), "b"),
              (t1, ()), (t2, ()), ((), t1), (t1, t1), (t1,), (t2,), ((),), (("",),))
    X = TruncatedSimplicialSet(1, {0: level0, 1: level1}, {}, {(0, 0): []})
    levels = nondegenerate_levels(X)
    assert levels == {0: level0, 1: level1}
    # equal values compare equal above; the entries themselves must match
    assert [list(map(id, levels[n])) for n in (0, 1)] == \
        [list(map(id, level)) for level in (level0, level1)]


@pytest.mark.parametrize("n,j", LADDER)
def test_cyclic_group_homology_closed_form(n, j):
    cc = ladder_complex(n, j)
    assert [homology(cc, i).group for i in range(4)] == ["Z", f"Z/{n}", "0", f"Z/{n}"]


def invariant_form(summands):
    """(rank, invariant factors d_1 | d_2 | ...) of the direct sum of the
    cyclic groups Z/k in `summands`, with k = 0 for Z."""
    rank, torsion = summands.count(0), [k for k in summands if k > 1]
    for i in range(len(torsion)):
        for j in range(i + 1, len(torsion)):
            a, b = torsion[i], torsion[j]
            torsion[i], torsion[j] = math.gcd(a, b), a * b // math.gcd(a, b)
    return rank, tuple(k for k in torsion if k > 1)


def wbar_homology(C):
    """H_0, H_1, H_2 of C through W-bar at N = 4, each as (rank, invariant
    factors)."""
    cc = normalized_chain_complex(wbar_double_nerve(C, 4))
    return [(h.betti, h.torsion) for h in (homology(cc, i) for i in range(3))]


def cyclic_summands(group):
    rank, torsion = group
    return [0] * rank + list(torsion)


def kunneth(hc, hd, n):
    """H_n of a product from the factors' groups: the tensor products in
    degree n and the Tor terms in degree n - 1; Z/a (x) Z/b and Tor(Z/a, Z/b)
    are Z/gcd(a, b), and Z (x) G is G."""
    tensor = [b if a == 0 else a if b == 0 else math.gcd(a, b)
              for i in range(n + 1) for a in hc[i] for b in hd[n - i]]
    tor = [math.gcd(a, b) for i in range(n) for a in hc[i] for b in hd[n - 1 - i] if a and b]
    return invariant_form(tensor + tor)


METAMORPHIC = [
    pytest.param(lambda: cyclic_group(2), lambda: cyclic_group(2), id="BZ2xBZ2"),
    pytest.param(lambda: cyclic_group(2), lambda: cyclic_group(3), id="BZ2xBZ3"),
    pytest.param(circle, lambda: cyclic_group(2), id="S1xBZ2"),
    pytest.param(circle, circle, id="S1xS1"),
    pytest.param(lambda: loop_group(2), lambda: cyclic_group(2), id="OmZ2xBZ2"),
    pytest.param(lambda: cyclic_group(4), walking_two_cell, id="BZ4xWTC"),
]


@pytest.mark.parametrize("left,right", METAMORPHIC)
def test_homology_of_products_coproducts_and_opposites_from_the_parts(left, right):
    # three laws give H of a product (Kuenneth), a coproduct (the direct
    # sum) and an opposite (unchanged) from the parts, with no answer
    # written per input
    C, D = left(), right()
    hc, hd = ([cyclic_summands(g) for g in wbar_homology(X)] for X in (C, D))
    assert wbar_homology(product([C, D])) == [kunneth(hc, hd, n) for n in range(3)]
    assert wbar_homology(coproduct({"l": C, "r": D})) == [
        invariant_form(a + b) for a, b in zip(hc, hd)]
    for X in (C, D, product([C, D])):
        assert wbar_homology(opposite(X)) == wbar_homology(X), X.name


def test_metamorphic_cases_include_nontrivial_homology():
    # the laws above are not checked on zeros alone: H_1 of B(Z/2) x B(Z/3)
    # is Z/6, and H_2 is Z/2 for S1 x B(Z/2) and Z for S1 x S1
    assert wbar_homology(product([cyclic_group(2), cyclic_group(3)]))[1] == (0, (6,))
    assert wbar_homology(product([circle(), cyclic_group(2)]))[2] == (0, (2,))
    assert wbar_homology(product([circle(), circle()]))[2] == (1, ())


@pytest.mark.parametrize("n,j", LADDER)
def test_pivot_heap_pops_at_most_the_nonzeros(monkeypatch, n, j):
    # one heap key per column, pushed again only when a pivot row changes
    # it; a key per +-1 entry made several pops per nonzero
    cc = ladder_complex(n, j)
    pops, real = [0], heapq.heappop

    def counted(heap):
        pops[0] += 1
        return real(heap)

    monkeypatch.setattr(heapq, "heappop", counted)
    for k in range(1, 5):
        pops[0] = 0
        invariant_factors(cc.boundary[k])
        assert pops[0] <= sum(map(len, cc.boundary[k])), k


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
