import pytest

from twocat.builders import pt, walking_two_cell
from twocat.core import TwoCatError, identity_functor
from twocat.hocolim import SimplicialTwoCategory
from twocat.homology import normalized_chain_complex
from twocat.nerves import double_nerve, nerve_simplicial_twocat
from twocat.simplicial import (ShallowWindowError, aw_map, build_bisimplicial,
                               build_simplicial, check_simplicial_identities,
                               check_simplicial_map, diag, simplicial_map,
                               transpose, tri_slice, truncate, verify_iso, wbar)


def test_wbar_point_singletons():
    W = wbar(double_nerve(pt(), 4))
    assert W.sizes() == [1, 1, 1, 1, 1]


def test_wbar_identities_exhaustive():
    for C in (pt(), walking_two_cell()):
        W = wbar(double_nerve(C, 3))
        assert check_simplicial_identities(W).ok


def test_wbar_members_satisfy_compatibility():
    B = double_nerve(walking_two_cell(), 3)
    W = wbar(B)
    for n in range(1, 4):
        for tup in W.level(n):
            for k in range(1, n + 1):
                p, q = n - k, k
                assert B.hface(p + 1, q - 1, 0, tup[k - 1]) == \
                    B.vface(p, q, q, tup[k])


def test_wbar_respects_bound_request():
    B = double_nerve(pt(), 3)
    with pytest.raises(ShallowWindowError):
        wbar(B, n_max=5)


def test_aw_map_is_simplicial():
    B = double_nerve(walking_two_cell(), 3)
    f = aw_map(B)
    assert check_simplicial_map(f).ok


def test_aw_level_zero_and_compatibility():
    B = double_nerve(walking_two_cell(), 3)
    f = aw_map(B)
    D = diag(B)
    for x in D.level(0):
        assert f.at(0, x) == (x,)
    # images land in the enumerated codiagonal, hence satisfy compatibility
    W = wbar(B)
    for n in range(4):
        for x in D.level(n):
            assert f.at(n, x) in set(W.level(n))


def test_aw_not_levelwise_bijective_on_wtc():
    f = aw_map(double_nerve(walking_two_cell(), 3))
    assert not verify_iso(f)  # diagonal level 2 has 10 cells, codiagonal 7


def test_identity_map_verifies_iso():
    X = diag(double_nerve(walking_two_cell(), 3))
    f = simplicial_map(X, X, lambda n, x: x)
    assert verify_iso(f)
    assert check_simplicial_map(f).ok


def test_fault_injected_face_reported():
    X = diag(double_nerve(walking_two_cell(), 3))
    lvl2 = X.level(2)
    victim = lvl2[0]
    images = X.faces[(2, 0)]
    wrong = next(y for y in X.level(1) if y != images[victim])
    images[victim] = wrong
    rep = check_simplicial_identities(X)
    assert not rep.ok
    assert any("d_0" in v for v in rep.violations)


def test_transpose_swaps_directions():
    B = double_nerve(walking_two_cell(), 3)
    T = transpose(B)
    assert T.level(1, 2) == B.level(2, 1)
    assert check_simplicial_identities(T).ok


def test_truncate():
    X = diag(double_nerve(pt(), 4))
    Y = truncate(X, 2)
    assert Y.sizes() == [1, 1, 1]
    with pytest.raises(ShallowWindowError):
        truncate(Y, 3)


def test_diag_wbar_agree_at_level_zero_and_for_categories():
    from twocat.builders import walking_arrow
    # level 0 always coincides (up to the tuple wrapper); all levels coincide
    # when every hom category is discrete
    for C in (walking_arrow(), walking_two_cell()):
        B = double_nerve(C, 2)
        D, W = diag(B), wbar(B)
        assert [x for (x,) in W.level(0)] == list(D.level(0))
    B = double_nerve(walking_arrow(), 3)
    assert diag(B).sizes() == wbar(B).sizes()


# -- tables built on first read ----------------------------------------------

def _poisoned_double_nerve(C, n_max, bad):
    """The double nerve of C rebuilt with an hface rule that raises on the
    table key `bad`."""
    B = double_nerve(C, n_max)

    def hface(p, q, i, x):
        if (p, q, i) == bad:
            raise RuntimeError(f"table {bad} was built")
        return B.hface(p, q, i, x)

    return build_bisimplicial(n_max, n_max, B.level, hface, B.hdegen,
                              B.vface, B.vdegen, name="poisoned")


def test_unread_table_is_never_built():
    # the diagonal reads hface only at (n, n-1): (1, 3, 0) stays unbuilt
    X = _poisoned_double_nerve(walking_two_cell(), 3, (1, 3, 0))
    D = diag(X)
    assert D.sizes() == [2, 5, 10, 17]
    assert check_simplicial_identities(D).ok
    normalized_chain_complex(D)
    with pytest.raises(RuntimeError, match="was built"):
        X.hfaces[(1, 3, 0)]


def test_table_leaving_window_raises_on_read():
    X = build_simplicial(1, lambda n: [(n,)], lambda n, i, x: ("elsewhere",),
                         lambda n, i, x: (1,), name="bad")
    assert X.sizes() == [1, 1]
    assert X.degen(0, 0, (0,)) == (1,)
    with pytest.raises(TwoCatError, match="bad: face d_0 leaves level 0"):
        X.faces[(1, 0)]


def test_table_read_twice_is_the_same_object():
    B = double_nerve(walking_two_cell(), 3)
    assert B.hfaces[(2, 1, 0)] is B.hfaces[(2, 1, 0)]
    # views share the tables of the set they view
    assert transpose(B).vfaces[(1, 2, 0)] is B.hfaces[(2, 1, 0)]
    X = diag(B)
    assert truncate(X, 2).faces[(2, 1)] is X.faces[(2, 1)]
    T = nerve_simplicial_twocat(_constant_simplicial(walking_two_cell(), 2))
    assert tri_slice(T, 0, 1).vfaces[(2, 1, 0)] is T.faces[(2, (1, 2, 1), 0)]


def test_table_membership_does_not_build():
    X = diag(double_nerve(walking_two_cell(), 3))
    assert (1, 0) in X.faces and (3, 3) in X.faces
    assert (0, 0) not in X.faces and (4, 0) not in X.faces
    assert (3, 0) not in X.degens
    assert repr(X.faces) == "<tables 0 of 9 built>"
    X.face(2, 1, X.level(2)[0])
    assert repr(X.faces) == "<tables 1 of 9 built>"
    assert (2, 0) not in truncate(X, 1).faces


def test_short_reprs():
    B = double_nerve(walking_two_cell(), 2)
    T = nerve_simplicial_twocat(_constant_simplicial(walking_two_cell(), 1))
    for obj in (B, T, B.hfaces, T.faces, transpose(B).vfaces, diag(B), aw_map(B)):
        assert len(repr(obj)) < 200 and "0x" not in repr(obj)
    assert repr(B).startswith("<bisSet NN(WTC) ")


def _constant_simplicial(C, n_max):
    """The constant simplicial 2-category at C."""
    one = identity_functor(C)
    return SimplicialTwoCategory(
        n_max, [C] * (n_max + 1),
        {(p, i): one for p in range(1, n_max + 1) for i in range(p + 1)},
        {(p, i): one for p in range(n_max) for i in range(p + 1)}, name="const")
