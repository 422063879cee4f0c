import ast
import random
import re
import threading
from itertools import groupby

import pytest

from conftest import constant_simplicial
from twocat.builders import pt, walking_arrow, walking_two_cell
from twocat.core import TwoCatError, ValidationReport
from twocat.hocolim import build_E
from twocat.homology import normalized_chain_complex
from twocat.nerves import diag_nn, double_nerve, nerve_simplicial_twocat
from twocat.simplicial import (BudgetError, TruncatedMultisimplicialSet, TruncatedSimplicialSet,
                               aw_map, build_bisimplicial, build_simplicial,
                               check_simplicial_identities, check_simplicial_map, diag,
                               pointwise, simplex_budget, simplicial_map, transpose,
                               tri_slice, verify_iso, wbar, _agree)


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
                assert B.face(0, (p + 1, q - 1), 0, tup[k - 1]) == \
                    B.face(1, (p, q), q, tup[k])


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
    images = X.faces[(2, 0)]
    images[0] = next(k for k in range(len(X.level(1))) if k != images[0])
    rep = check_simplicial_identities(X)
    assert not rep.ok
    assert any("d_0" in v for v in rep.violations)


def test_transpose_swaps_directions():
    B = double_nerve(walking_two_cell(), 3)
    T = transpose(B)
    assert T.level((1, 2)) == B.level((2, 1))
    assert check_simplicial_identities(T).ok


def test_diag_wbar_agree_at_level_zero_and_for_categories():
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
    """The double nerve of C rebuilt with a face rule that raises on the
    table key `bad`."""
    B = double_nerve(C, n_max)

    def face(axis, key, i, x):
        if (axis, key, i) == bad:
            raise RuntimeError(f"table {bad} was built")
        return B.face(axis, key, i, x)

    return build_bisimplicial(n_max, n_max, B.level, pointwise(face), pointwise(B.degen),
                              name="poisoned")


def test_unread_table_is_never_built():
    # the diagonal reads axis-0 faces only at (n, n-1): (0, (1, 3), 0) stays unbuilt
    X = _poisoned_double_nerve(walking_two_cell(), 3, (0, (1, 3), 0))
    D = diag(X)
    assert D.sizes() == [2, 5, 10, 17]
    assert check_simplicial_identities(D).ok
    normalized_chain_complex(D)
    with pytest.raises(RuntimeError, match="was built"):
        X.faces[(0, (1, 3), 0)]


def test_table_leaving_window_raises_on_read():
    X = build_simplicial(1, lambda n: [(n,)], pointwise(lambda n, i, x: ("elsewhere",)),
                         pointwise(lambda n, i, x: (1,)), name="bad")
    assert X.sizes() == [1, 1]
    assert X.degen(0, 0, (0,)) == (1,)
    with pytest.raises(TwoCatError, match="bad: face d_0 leaves level 0"):
        X.faces[(1, 0)]


def test_table_read_twice_is_the_same_object():
    B = double_nerve(walking_two_cell(), 3)
    assert B.faces[(0, (2, 1), 0)] is B.faces[(0, (2, 1), 0)]
    # views share the tables of the set they view
    assert transpose(B).faces[(1, (1, 2), 0)] is B.faces[(0, (2, 1), 0)]
    T = nerve_simplicial_twocat(constant_simplicial(walking_two_cell(), 2))
    assert tri_slice(T, 0, 1).faces[(1, (2, 1), 0)] is T.faces[(2, (1, 2, 1), 0)]


def test_table_membership_does_not_build():
    X = diag(double_nerve(walking_two_cell(), 3))
    assert (1, 0) in X.faces and (3, 3) in X.faces
    assert (0, 0) not in X.faces and (4, 0) not in X.faces
    assert (3, 0) not in X.degens
    assert repr(X.faces) == "<tables 0 of 9 built>"
    X.face(2, 1, X.level(2)[0])
    assert repr(X.faces) == "<tables 1 of 9 built>"


def test_short_reprs():
    B = double_nerve(walking_two_cell(), 2)
    T = nerve_simplicial_twocat(constant_simplicial(walking_two_cell(), 1))
    for obj in (B, T, B.faces, T.faces, transpose(B).faces, diag(B), aw_map(B)):
        assert len(repr(obj)) < 200 and "0x" not in repr(obj)
    assert repr(B).startswith("<msSet NN(WTC) bounds=(2, 2) ")


# -- position-list checkers against the per-simplex reference loops ---------
#
# The reference checkers below look up every face and degeneracy of every
# simplex, one at a time, on tables corrupted at random.  On a simplicial
# set the library's checker must return exactly the reference's violation
# list, in the same order.  The bi- and trisimplicial references check a
# set through its rows and slices, so they name a violation differently and
# the trisimplicial one finds each one-axis violation twice; there the
# checker's list must hold each violation of the reference once.

def _ref_simplicial_set(X):
    r = ValidationReport()
    N = X.n_max
    for n in range(2, N + 1):
        for j in range(n + 1):
            for i in range(j):
                for x in X.level(n):
                    if X.face(n - 1, i, X.face(n, j, x)) != X.face(n - 1, j - 1, X.face(n, i, x)):
                        r.add(f"d_{i} d_{j} identity fails at level {n} on {x!r}")
    for n in range(N - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                for x in X.level(n):
                    if X.degen(n + 1, i, X.degen(n, j, x)) != X.degen(n + 1, j + 1, X.degen(n, i, x)):
                        r.add(f"s_{i} s_{j} identity fails at level {n} on {x!r}")
    for n in range(N):
        for j in range(n + 1):
            for i in range(n + 2):
                for x in X.level(n):
                    y = X.degen(n, j, x)
                    got = X.face(n + 1, i, y)
                    if i < j:
                        want = X.degen(n - 1, j - 1, X.face(n, i, x)) if n >= 1 else None
                    elif i in (j, j + 1):
                        want = x
                    else:
                        want = X.degen(n - 1, j, X.face(n, i - 1, x)) if n >= 1 else None
                    if want is not None and got != want:
                        r.add(f"d_{i} s_{j} identity fails at level {n} on {x!r}")
    return r


def _ref_row(B, p):
    """Row p of B: its levels and tables along axis 1."""
    cells = {q: B.level((p, q)) for q in range(B.bounds[1] + 1)}
    faces = {(q, j): B.faces[(a, (pp, q), j)] for a, (pp, q), j in B.faces if (a, pp) == (1, p)}
    degens = {(q, j): B.degens[(a, (pp, q), j)] for a, (pp, q), j in B.degens if (a, pp) == (1, p)}
    return TruncatedSimplicialSet(B.bounds[1], cells, faces, degens)


def _ref_bisimplicial_set(B):
    r = ValidationReport()
    P, Q = B.bounds
    for p in range(P + 1):
        for v in _ref_simplicial_set(_ref_row(B, p)).violations:
            r.add(f"vertical (p={p}): {v}")
    T = transpose(B)
    for q in range(Q + 1):
        for v in _ref_simplicial_set(_ref_row(T, q)).violations:
            r.add(f"horizontal (q={q}): {v}")
    dh = lambda p, q, i, x: B.face(0, (p, q), i, x)
    dv = lambda p, q, j, x: B.face(1, (p, q), j, x)
    sh = lambda p, q, i, x: B.degen(0, (p, q), i, x)
    sv = lambda p, q, j, x: B.degen(1, (p, q), j, x)
    for (p, q), xs in B.cells.items():
        for i in range(p + 1):
            for j in range(q + 1):
                for x in xs:
                    if p >= 1 and q >= 1:
                        if dv(p - 1, q, j, dh(p, q, i, x)) != dh(p, q - 1, i, dv(p, q, j, x)):
                            r.add(f"dh_{i} dv_{j} do not commute at ({p},{q}) on {x!r}")
                    if p >= 1 and q < Q:
                        if sv(p - 1, q, j, dh(p, q, i, x)) != dh(p, q + 1, i, sv(p, q, j, x)):
                            r.add(f"dh_{i} sv_{j} do not commute at ({p},{q}) on {x!r}")
                    if p < P and q >= 1:
                        if dv(p + 1, q, j, sh(p, q, i, x)) != sh(p, q - 1, i, dv(p, q, j, x)):
                            r.add(f"sh_{i} dv_{j} do not commute at ({p},{q}) on {x!r}")
                    if p < P and q < Q:
                        if sv(p + 1, q, j, sh(p, q, i, x)) != sh(p, q + 1, i, sv(p, q, j, x)):
                            r.add(f"sh_{i} sv_{j} do not commute at ({p},{q}) on {x!r}")
    return r


def _ref_trisimplicial_set(T):
    r = ValidationReport()
    for axis in range(3):
        for value in range(T.bounds[axis] + 1):
            for v in _ref_bisimplicial_set(tri_slice(T, axis, value)).violations:
                r.add(f"slice axis{axis}={value}: {v}")
    return r


def _ref_simplicial_map(f):
    r = ValidationReport()
    X, Y = f.source, f.target
    for n in range(1, X.n_max + 1):
        for i in range(n + 1):
            for x in X.level(n):
                if f.at(n - 1, X.face(n, i, x)) != Y.face(n, i, f.at(n, x)):
                    r.add(f"map does not commute with d_{i} at level {n} on {x!r}")
    for n in range(X.n_max):
        for i in range(n + 1):
            for x in X.level(n):
                if f.at(n + 1, X.degen(n, i, x)) != Y.degen(n, i, f.at(n, x)):
                    r.add(f"map does not commute with s_{i} at level {n} on {x!r}")
    return r


def _corrupt(rng, tables, target_of, count):
    """Replace `count` seeded table entries by other positions of the same
    target level."""
    keys = [key for key in tables if len(target_of(key)) >= 2 and tables[key]]
    for _ in range(count):
        key = rng.choice(keys)
        table = tables[key]
        victim = rng.randrange(len(table))
        table[victim] = rng.choice([k for k in range(len(target_of(key)))
                                    if k != table[victim]])


def _moved(key, axis, step):
    out = list(key)
    out[axis] += step
    return tuple(out)


def _corrupt_multisimplicial(rng, X, count):
    _corrupt(rng, X.faces, lambda k: X.level(_moved(k[1], k[0], -1)), count)
    _corrupt(rng, X.degens, lambda k: X.level(_moved(k[1], k[0], 1)), count)


def _simplicial_targets(X):
    return (lambda k: X.level(k[0] - 1)), (lambda k: X.level(k[0] + 1))


def _parsed(v):
    """A violation of the checker or of a reference as (identity, axes, key,
    simplex), the identity's letters and indices as in "d_0 s_1"."""
    fixed = None
    m = re.fullmatch(r"slice axis(\d)=(\d+): (.*)", v, re.S)
    if m:
        fixed, v = (int(m[1]), int(m[2])), m[3]
    m = re.fullmatch(r"axis (\d) at (\(.*?\)): (.*) identity fails at level \d+ on (.*)", v, re.S)
    if m:
        return m[3], (int(m[1]),), ast.literal_eval(m[2]), m[4]
    m = re.fullmatch(r"([ds])(\d)_(\d+) ([ds])(\d)_(\d+) do not commute at (\(.*?\)) on (.*)",
                     v, re.S)
    if m:
        return (f"{m[1]}_{m[3]} {m[4]}_{m[6]}", (int(m[2]), int(m[5])),
                ast.literal_eval(m[7]), m[8])
    # the references' texts, on axes h = 0 and v = 1 of a set or of a slice
    m = re.fullmatch(r"(vertical|horizontal) \([pq]=(\d+)\): (.*) identity fails at level (\d+) "
                     r"on (.*)", v, re.S)
    if m:
        axes = (1,) if m[1] == "vertical" else (0,)
        key = (int(m[2]), int(m[4])) if axes == (1,) else (int(m[4]), int(m[2]))
        identity, simplex = m[3], m[5]
    else:
        m = re.fullmatch(r"([ds])h_(\d+) ([ds])v_(\d+) do not commute at \((\d+),(\d+)\) on (.*)",
                         v, re.S)
        identity, axes, key, simplex = (f"{m[1]}_{m[2]} {m[3]}_{m[4]}", (0, 1),
                                        (int(m[5]), int(m[6])), m[7])
    if fixed:
        axis, value = fixed
        rest = [a for a in range(3) if a != axis]
        axes = tuple(rest[a] for a in axes)
        whole = [value] * 3
        whole[rest[0]], whole[rest[1]] = key
        key = tuple(whole)
    return identity, axes, key, simplex


def _matches_reference(got, want):
    """The checker's violations `got` are the reference's `want`, each once;
    returns the kinds of identity they hit, as (letters, axes)."""
    parsed = [_parsed(v) for v in got]
    assert len(set(parsed)) == len(parsed)
    assert set(parsed) == {_parsed(v) for v in want}
    return {(re.sub(r"_\d+", "", identity), axes) for identity, axes, _, _ in parsed}


def _kinds(n_axes):
    """Every identity kind along every axis and every commutation kind of
    every pair of axes."""
    return ({(k, (a,)) for k in ("d d", "s s", "d s") for a in range(n_axes)}
            | {(k, (a, b)) for k in ("d d", "d s", "s d", "s s")
               for a in range(n_axes) for b in range(a + 1, n_axes)})


@pytest.mark.parametrize("seed", range(6))
def test_simplicial_checker_matches_reference(seed):
    rng = random.Random(seed)
    for X in (diag_nn(walking_two_cell(), 3), wbar(double_nerve(walking_two_cell(), 3))):
        assert check_simplicial_identities(X).violations == []
        face_target, degen_target = _simplicial_targets(X)
        _corrupt(rng, X.faces, face_target, 3)
        _corrupt(rng, X.degens, degen_target, 3)
        got = check_simplicial_identities(X).violations
        assert got and got == _ref_simplicial_set(X).violations


def test_bisimplicial_checker_matches_reference():
    kinds = set()
    for seed in range(6):
        rng = random.Random(seed)
        B = double_nerve(walking_two_cell(), 3)
        _corrupt_multisimplicial(rng, B, 4)
        got = check_simplicial_identities(B).violations
        assert got
        kinds |= _matches_reference(got, _ref_bisimplicial_set(B).violations)
    assert kinds == _kinds(2)


def _trisimplicial_kinds(cx, seed):
    """Corrupt the nerve of constant WTC and E of Dcov, both at N = 2, check
    each and one of its slices against the references, and return the
    kinds of identity the whole sets' violations hit."""
    kinds = set()
    for T in (nerve_simplicial_twocat(constant_simplicial(walking_two_cell(), 2)),
              build_E(cx.Dcov, 2)):
        _corrupt_multisimplicial(random.Random(seed), T, 3)
        got = check_simplicial_identities(T).violations
        assert got
        kinds |= _matches_reference(got, _ref_trisimplicial_set(T).violations)
        S = tri_slice(T, 1, 1)
        _matches_reference(check_simplicial_identities(S).violations,
                           _ref_bisimplicial_set(S).violations)
    return kinds


@pytest.mark.parametrize("seed", range(6))
def test_trisimplicial_checker_matches_reference(cx, seed):
    _trisimplicial_kinds(cx, seed)


def test_trisimplicial_corruptions_hit_every_kind(cx):
    assert set().union(*(_trisimplicial_kinds(cx, seed) for seed in range(6))) == _kinds(3)


@pytest.mark.parametrize("which", ["NN(WTC)", "N(const WTC)", "E(Dcov)"])
def test_each_identity_reported_together_in_level_order(cx, which):
    # with seed 4, each set fails two commutation squares at one (key, i, j),
    # one of them on two or more simplices with a violation of the other
    # between them; each identity's violations must still come as one run,
    # its simplices in the order of their level
    X = {"NN(WTC)": lambda: double_nerve(walking_two_cell(), 3),
         "N(const WTC)": lambda: nerve_simplicial_twocat(
             constant_simplicial(walking_two_cell(), 2)),
         "E(Dcov)": lambda: build_E(cx.Dcov, 2)}[which]()
    _corrupt_multisimplicial(random.Random(4), X, 4)
    runs = [(identity, [simplex for *_, simplex in group]) for identity, group in
            groupby(map(_parsed, check_simplicial_identities(X).violations),
                    key=lambda v: v[:3])]
    assert len(runs) > 1
    assert len({identity for identity, _ in runs}) == len(runs)
    for (_, _, key), simplices in runs:
        order = {repr(x): k for k, x in enumerate(X.level(key))}
        assert [order[x] for x in simplices] == sorted(order[x] for x in simplices)
        assert len(set(simplices)) == len(simplices)


class _Unformattable(str):
    def format(self, *args):
        raise AssertionError("an agreeing identity's text was made")


def test_identity_text_made_only_on_violation():
    r = ValidationReport()
    level = ("x", "y", "z")
    _agree(r, level, [[2, 0, 1], [2, 0, 1]], [[1, 2, 0]], _Unformattable("never {}"), 1)
    _agree(r, level, [[1, 0, 2], [1, 0, 2]], [], _Unformattable("never"))
    assert r.ok
    _agree(r, level, [[1, 2, 0], [2, 0, 1]], [[1, 0, 2]], "fails {} at {}", "d_0", 3)
    _agree(r, level, [[0, 1, 2]], [[2, 1, 0]], "plain")
    assert r.violations == ["fails d_0 at 3 on 'x'", "fails d_0 at 3 on 'y'",
                            "plain on 'x'", "plain on 'z'"]


def test_missing_table_is_reported():
    # a bisimplicial set without its table d_0 along axis 1 at (1, 2): the
    # checker names it instead of failing on the lookup
    B = double_nerve(walking_two_cell(), 2)
    faces = {key: B.faces[key] for key in B.faces if key != (1, (1, 2), 0)}
    X = TruncatedMultisimplicialSet(B.bounds, B.cells, faces, B.degens)
    assert check_simplicial_identities(X).violations == [
        "axis 1 at (1, 2): missing face table d_0 at level 2"]
    X = TruncatedSimplicialSet(1, {0: (0,), 1: (1,)}, {(1, 1): [0]}, {(0, 0): [0]})
    assert check_simplicial_identities(X).violations == ["missing face table d_0 at level 1"]


@pytest.mark.parametrize("seed", range(6))
def test_map_checker_matches_reference(seed):
    rng = random.Random(seed)
    f = aw_map(double_nerve(walking_two_cell(), 3))
    _corrupt(rng, f.maps, f.target.level, 4)
    got = check_simplicial_map(f).violations
    assert got and got == _ref_simplicial_map(f).violations


# -- tables of positions ------------------------------------------------------

def test_tables_are_positions_and_lookups_return_own_simplices():
    X = wbar(double_nerve(walking_two_cell(), 3))
    f = aw_map(double_nerve(walking_two_cell(), 3))
    for tables, source, target in ((X.faces, X.level, lambda n: X.level(n - 1)),
                                   (X.degens, X.level, lambda n: X.level(n + 1)),
                                   (f.maps, f.source.level, f.target.level)):
        for key in tables:
            n = key[0] if isinstance(key, tuple) else key
            table = tables[key]
            assert len(table) == len(source(n))
            assert all(type(k) is int and 0 <= k < len(target(n)) for k in table)
    # a lookup returns the target level's own object, not an equal copy
    own = {n: {id(y) for y in X.level(n)} for n in range(X.n_max + 1)}
    for n, i in X.faces:
        assert all(id(X.face(n, i, x)) in own[n - 1] for x in X.level(n))
    for n, i in X.degens:
        assert all(id(X.degen(n, i, x)) in own[n + 1] for x in X.level(n))
    for n in f.maps:
        own = {id(y) for y in f.target.level(n)}
        assert all(id(f.at(n, x)) in own for x in f.source.level(n))
    # a rule whose image leaves the window still raises the same text
    X = build_simplicial(1, lambda n: [(n,)], pointwise(lambda n, i, x: ("elsewhere",)),
                         pointwise(lambda n, i, x: (1,)), name="bad")
    with pytest.raises(TwoCatError) as exc:
        X.faces[(1, 1)]
    assert str(exc.value) == "bad: face d_1 leaves level 0 at (1,)"
    with pytest.raises(TwoCatError) as exc:
        simplicial_map(X, X, lambda n, x: ("elsewhere",), name="m")
    assert str(exc.value) == "m: image of level-0 simplex (0,) not in target"


def test_simplex_budget_is_local_to_its_thread():
    # one thread holds a budget of 3 while another builds diag_nn(WTC, 3),
    # whose levels are larger: only the holder's own builds hit the budget
    held, built = threading.Event(), threading.Event()
    outcome = {}

    def build(who):
        try:
            diag_nn(walking_two_cell(), 3)
            outcome[who] = "built"
        except BudgetError:
            outcome[who] = "budget"

    def holder():
        with simplex_budget(3):
            held.set()
            built.wait(timeout=60)
            build("holder")

    def other():
        held.wait(timeout=60)
        build("other")
        built.set()

    threads = [threading.Thread(target=holder), threading.Thread(target=other)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert outcome == {"other": "built", "holder": "budget"}
