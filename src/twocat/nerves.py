"""Nerves: of a category, of a 2-category (the double nerve, a
multisimplicial set with axis 0 horizontal and axis 1 vertical), of a
simplicial 2-category (three axes), and the explicit staircase model of the
codiagonal of a double nerve.

Every simplex here is a string of columns (objects, fcols, acols): p+1
objects and p columns, column m a chain of 2-cells f^0 => ... => f^q from
object m-1 to object m, with fcols[m-1] = (f^0, ..., f^q) and acols[m-1]
its q 2-cells (acols[m][k] goes from fcols[m][k] to fcols[m][k+1]).  Each
level of a construction is fixed by its depth tuple, the depths q of its
columns in turn:

    double nerve, level (p, q)         (q,) * p
    its diagonal, level n              (n,) * n
    staircase codiagonal, level n      (0, 1, ..., n-1)
    nerve of a category, level p       (0,) * p

so the nerve of a category is row 0 of its double nerve, with simplices
(objects, ((f_1,), ..., (f_p,)), ((), ..., ())).

One rank fill serves every level (`_Strings`).  A level lists its strings
in lexicographic order of their columns' positions in the lists of all
columns of each depth, so a string's position is a sum of per-column
counts.  A face, degeneracy or map sends each column through a small column
table (vertical face or degeneracy, identity column, merge of two columns,
a 2-functor's image), and its table is filled from those sums; no simplex
is rebuilt or looked up.  A column image that is not a column across the
right objects puts the simplex's image outside its level, which raises with
the set's usual window text.  `diag_nn` enumerates only its own levels;
`simplicial.diag` and `tri_diag` remain for sets that are materialized
anyway.
`repackage_staircase` and `nerve_simplicial_twocat` stay per simplex.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from math import inf

from .core import TwoCategory, TwoFunctor, TwoCatError
from .simplicial import (TruncatedSimplicialSet, TruncatedMultisimplicialSet,
                         SimplicialMap, build_simplicial, build_bisimplicial,
                         build_trisimplicial, check_budget, pointwise,
                         simplicial_map, wbar)


def is_category(A: TwoCategory) -> bool:
    return all(s == t for s, t in A.two_cells.values())


# ---------------------------------------------------------------------------
# columns and strings of columns
# ---------------------------------------------------------------------------

def hom_chains(C: TwoCategory, a, b, q):
    """All (f^0, ..., f^q; al^1, ..., al^q) chains of vertically composable
    2-cells between 1-cells a -> b."""
    out = []
    for f in C.hom_one_cells(a, b):
        out.extend(_extend_chain(C, ((f,), ()), q))
    return out


def _extend_chain(C, chain, q):
    fs, asq = chain
    if len(fs) == q + 1:
        return [chain]
    out = []
    for al, t in C.two_cells_by_source.get(fs[-1], ()):
        out.extend(_extend_chain(C, (fs + (t,), asq + (al,)), q))
    return out


def _merge_cols(C, col1, col2):
    fs1, as1 = col1
    fs2, as2 = col2
    fs = tuple(C.comp1(g, f) for g, f in zip(fs2, fs1))
    asq = tuple(C.hcomp(b, a) for b, a in zip(as2, as1))
    return fs, asq


def _col_image(F, col):
    """The image of a column under the 2-functor F."""
    fs, asq = col
    return tuple(map(F.f1, fs)), tuple(map(F.f2, asq))


def _identity_col(C, c, q):
    e = C.id1[c]
    return ((e,) * (q + 1), (C.id2[e],) * q)


def _col_face(C, col, j):
    fs, asq = col
    q = len(fs) - 1
    if j == 0:
        return fs[1:], asq[1:]
    if j == q:
        return fs[:-1], asq[:-1]
    merged = C.vcomp(asq[j], asq[j - 1])
    return fs[:j] + fs[j + 1:], asq[:j - 1] + (merged,) + asq[j + 1:]

def _col_degen(C, col, j):
    fs, asq = col
    return (fs[:j + 1] + (fs[j],) + fs[j + 1:],
            asq[:j] + (C.id2[fs[j]],) + asq[j:])


# A weight that puts every image it enters past the end of its level.
_MISSING = inf


class _Columns:
    """The depth-q columns of C (`hom_chains`), listed by source object, then
    target object, then hom, with the column tables made from them."""

    def __init__(self, C: TwoCategory, q):
        self.C, self.q = C, q
        self.objects = list(dict.fromkeys(C.objects))
        self.where = {x: a for a, x in enumerate(self.objects)}
        self.cells, self.dom, self.cod = [], [], []
        for a, x in enumerate(self.objects):
            for b, y in enumerate(self.objects):
                for col in hom_chains(C, x, y, q):
                    self.cells.append(col)
                    self.dom.append(a)
                    self.cod.append(b)
        self.index = {col: c for c, col in enumerate(self.cells)}
        self.out = [[] for _ in self.objects]
        for c, a in enumerate(self.dom):
            self.out[a].append(c)
        self._merged = {}

    def code(self, col, a, b):
        """The position of `col` as a column from object a to object b, or
        None if it is not one."""
        c = self.index.get(col)
        return c if c is not None and self.dom[c] == a and self.cod[c] == b else None

    def merge(self, c, d):
        """The position of the horizontal composite of columns c then d, or
        None if either is None or it is not a column across their ends."""
        if c is None or d is None:
            return None
        try:
            return self._merged[c, d]
        except KeyError:
            col = _merge_cols(self.C, self.cells[c], self.cells[d])
            return self._merged.setdefault((c, d), self.code(col, self.dom[c], self.cod[d]))

    @cached_property
    def identities(self) -> list:
        """The position of each object's identity column, or None."""
        return [self.code(_identity_col(self.C, x, self.q), a, a)
                for a, x in enumerate(self.objects)]

    def image(self, target, F: TwoFunctor):
        """The positions in `target` of F's images of the objects and of the
        columns, or None where an image is not one."""
        h = [target.where.get(F.o(x)) for x in self.objects]
        g = [None if h[a] is None or h[b] is None else
             target.code(_col_image(F, col), h[a], h[b])
             for col, a, b in zip(self.cells, self.dom, self.cod)]
        return h, g


class _Strings:
    """The strings of columns of C, ranked.

    A string (o, c_1, ..., c_r) of depths ds = (d_1, ..., d_r) starts at
    object o, and c_m is a column of depth d_m (`cols(d_m)`) from the end of
    the one before.  The strings of one depth tuple are listed in
    lexicographic order of o and the columns' positions, so with
    `start, before, _ = ranks(ds)` a string is at
        start[o] + before[0][c_1] + before[1][c_2] + ... + before[r-1][c_r]:
    start[o] counts the strings from earlier objects, and before[m][c] the
    strings of depths ds[m:] from c's source whose first column comes
    before c.  Every list is made on first use and kept in a dict of the
    instance."""

    def __init__(self, C: TwoCategory):
        self.C = C
        self.objects = list(dict.fromkeys(C.objects))
        self._cols, self._kept = {}, {}

    def _keep(self, key, make, *args):
        try:
            return self._kept[key]
        except KeyError:
            return self._kept.setdefault(key, make(*args))

    def cols(self, q) -> _Columns:
        try:
            return self._cols[q]
        except KeyError:
            return self._cols.setdefault(q, _Columns(self.C, q))

    def ranks(self, ds) -> tuple:
        """(start, before, size) of the strings of depths ds; size is their
        number."""
        return self._keep(("ranks", ds), self._ranks, ds)

    def _ranks(self, ds):
        count, before = [1] * len(self.objects), []
        for q in reversed(ds):
            S = self.cols(q)
            b, total = [0] * len(S.cells), []
            for cs in S.out:
                run = 0
                for c in cs:
                    b[c] = run
                    run += count[S.cod[c]]
                total.append(run)
            count = total
            before.append(b)
        start = list(accumulate(count, initial=0))
        return start[:-1], before[::-1], start[-1]

    def follows(self, ds) -> list:
        """follows[m-1][c]: the columns that may follow the column c at
        position m-1 of a string of depths ds."""
        return self._keep(("follows", ds), self._follows, ds)

    def _follows(self, ds):
        return [[self.cols(q).out[b] for b in self.cols(p).cod] for p, q in zip(ds, ds[1:])]

    def face_codes(self, q, j) -> list:
        """The position among the depth-(q-1) columns of the j-th vertical
        face of each depth-q column, or None where it is not one."""
        return self._keep(("face_codes", q, j), self._vertical, _col_face, q, q - 1, j)

    def degen_codes(self, q, j) -> list:
        """Likewise the j-th vertical degeneracy, among the depth-(q+1)
        columns."""
        return self._keep(("degen_codes", q, j), self._vertical, _col_degen, q, q + 1, j)

    def _vertical(self, rule, q, to, j):
        S, T = self.cols(q), self.cols(to)
        return [T.code(rule(self.C, col, j), a, b) for col, a, b in zip(S.cells, S.dom, S.cod)]

    def level(self, ds) -> list:
        """The strings of depths ds, in order; their number is checked
        against the simplex budget before any is made."""
        check_budget(self.ranks(ds)[2])
        obj = self.objects
        level = [((x,), (), (), a) for a, x in enumerate(obj)]
        for q in ds:
            S = self.cols(q)
            level = [(objs + (obj[S.cod[c]],), fcols + (S.cells[c][0],),
                      acols + (S.cells[c][1],), S.cod[c])
                     for objs, fcols, acols, a in level for c in S.out[a]]
        return [x[:3] for x in level]

    def steps(self, ds, weights) -> list:
        """The weights weights[m][c] of each column c at each position m,
        in the form `fill` takes them."""
        return weights[:1] + [[[w[d] for d in cs] for cs in follow]
                              for follow, w in zip(self.follows(ds), weights[1:])]

    def fill(self, ds, ow, steps) -> list:
        """ow[o] + steps[0][c_1] + steps[1][c_1][k_2] + ... for each string
        of depths ds in order (ow alone when ds is empty): steps[m][c][k]
        weighs the k-th column that may follow c (`follows`)."""
        if not ds:
            return list(ow)
        S, follows = self.cols(ds[0]), self.follows(ds)
        sums = [ow[a] + w for a, w in zip(S.dom, steps[0])]
        last = range(len(S.cells))
        for m, follow in enumerate(follows, 1):
            step = steps[m]
            sums = [s + w for s, c in zip(sums, last) for w in step[c]]
            if m < len(follows):
                last = [d for c in last for d in follow[c]]
        return sums


def _weights(table, codes) -> list:
    """table[c] for each c of `codes`, and _MISSING where c is None; the
    table itself where `codes` is None, which leaves everything in place."""
    if codes is None:
        return table
    return [_MISSING if c is None else table[c] for c in codes]


# Each of the three fills below takes the strings S of the source, the depth
# tuples ds of the source level and dt of the image level and one column
# table per source position (g[m][c] the image of the column c at position m
# among the columns of its new depth, or None), and returns the positions in
# level dt of the images of level ds in order.  A face or degeneracy ranks
# its images among the strings S; a map ranks them among the strings T of
# its target, with the object map h (h[o] among T's objects, or None).  A
# table or map that is None leaves every column or object where it is.

def _face_positions(S, ds, dt, i, g, merged) -> list:
    """The i-th horizontal face: the first or last column dropped, or
    columns i and i + 1 replaced by merged(c_i, c_{i+1})."""
    start, before, _ = S.ranks(dt)
    if i == 0:
        first = [start[b] for b in S.cols(ds[0]).cod]
        return S.fill(ds, [0] * len(S.objects), S.steps(ds, [first] + [
            _weights(before[m - 1], g[m]) for m in range(1, len(ds))]))
    steps = S.steps(ds, [[0] * len(S.cols(q).cells) if m in (i - 1, i) else
                         _weights(before[m - (m > i)], g[m]) for m, q in enumerate(ds)])
    if i < len(ds):
        steps[i] = [[_MISSING if (k := merged(c, d)) is None else before[i - 1][k] for d in cs]
                    for c, cs in enumerate(S.follows(ds)[i - 1])]
    return S.fill(ds, start, steps)


def _degen_positions(S, ds, dt, i, g, ident) -> list:
    """The i-th horizontal degeneracy: the column ident[o] inserted after
    the i-th object o."""
    start, before, _ = S.ranks(dt)
    idw = _weights(before[i], ident)
    weights = [_weights(before[m + (m >= i)], g[m]) for m in range(len(ds))]
    if i == 0:
        start = [w + x for w, x in zip(start, idw)]
    else:
        weights[i - 1] = [w + idw[b] for w, b in zip(weights[i - 1], S.cols(ds[i - 1]).cod)]
    return S.fill(ds, start, S.steps(ds, weights))


def _map_positions(S, T, ds, dt, g, h) -> list:
    """Every column and object mapped, none dropped or inserted."""
    start, before, _ = T.ranks(dt)
    return S.fill(ds, _weights(start, h), S.steps(ds, list(map(_weights, before, g))))


def _within(sums, source, target, fail) -> list:
    """The positions `sums` as the int objects of the level `target`'s own
    index, so that a table costs one pointer per entry, when each lies in
    `target`; otherwise TwoCatError(fail(x)) for the first simplex x of
    `source` whose image does not."""
    own = list(target.index.values())
    try:
        return list(map(own.__getitem__, sums))
    except TypeError:  # an image is _MISSING
        n = len(target)
        raise TwoCatError(fail(source[next(k for k, v in enumerate(sums) if v >= n)])) from None


def _ranked(positions):
    """The table rule (see `simplicial.pointwise`) whose table under a key
    is the list positions(*key)."""
    return lambda key, source, target, fail: _within(positions(*key), source, target, fail)


# ---------------------------------------------------------------------------
# nerve of a category, double nerve and its diagonal
# ---------------------------------------------------------------------------

def _string_face(S, p, q, i) -> list:
    """The i-th horizontal face of the strings of p depth-q columns."""
    ds = (q,) * p
    return _face_positions(S, ds, ds[1:], i, [None] * p, S.cols(q).merge)


def _string_degen(S, p, q, i) -> list:
    """The i-th horizontal degeneracy of the strings of p depth-q columns."""
    ds = (q,) * p
    return _degen_positions(S, ds, ds + (q,), i, [None] * p, S.cols(q).identities)


def nerve_category(A: TwoCategory, n_max: int) -> TruncatedSimplicialSet:
    """Nerve of a 2-category with only identity 2-cells: row 0 of its double
    nerve, so level p holds the composable p-chains as (objects, ((f_1,),
    ..., (f_p,)), ((), ..., ())), and level 0 the objects."""
    if not is_category(A):
        raise TwoCatError("nerve_category: input has non-identity 2-cells")
    S = _Strings(A)
    return build_simplicial(n_max, lambda p: S.level((0,) * p),
                            _ranked(lambda p, i: _string_face(S, p, 0, i)),
                            _ranked(lambda p, i: _string_degen(S, p, 0, i)), name=f"N({A.name})")


def double_nerve(C: TwoCategory, n_max: int) -> TruncatedMultisimplicialSet:
    """Bisimplicial set with (p, q)-simplices the p-columns of q-deep 2-cell
    chains: horizontal faces (axis 0) delete an object and compose columns,
    vertical faces (axis 1) compose the 2-cell stacks columnwise."""
    S = _Strings(C)

    def vertical(p, q, to, table):
        return _map_positions(S, S, (q,) * p, (to,) * p, [table] * p, None)

    def face(axis, key, i):
        p, q = key
        return vertical(p, q, q - 1, S.face_codes(q, i)) if axis else _string_face(S, p, q, i)

    def degen(axis, key, i):
        p, q = key
        return vertical(p, q, q + 1, S.degen_codes(q, i)) if axis else _string_degen(S, p, q, i)

    return build_bisimplicial(n_max, n_max, lambda key: S.level((key[1],) * key[0]),
                              _ranked(face), _ranked(degen), name=f"NN({C.name})")


def _diag_nn(S: _Strings, n_max) -> TruncatedSimplicialSet:
    """`diag_nn` of the 2-category S.C, from its strings S."""

    def face(n, i):
        T, g = S.cols(n - 1), S.face_codes(n, i)
        return _face_positions(S, (n,) * n, (n - 1,) * (n - 1), i, [g] * n,
                               lambda c, d: T.merge(g[c], g[d]))

    def degen(n, i):
        return _degen_positions(S, (n,) * n, (n + 1,) * (n + 1), i, [S.degen_codes(n, i)] * n,
                                S.cols(n + 1).identities)

    return build_simplicial(n_max, lambda n: S.level((n,) * n), _ranked(face), _ranked(degen),
                            name=f"Diag(NN({S.C.name}))")


def diag_nn(C: TwoCategory, n_max: int) -> TruncatedSimplicialSet:
    """Diag of the double nerve, made without its off-diagonal levels: level
    n is the (n, n) level, d_i = dh_i dv_i and s_i = sh_i sv_i, with the
    vertical map applied to each column before the horizontal one.  Equal
    to `diag(double_nerve(C, n_max))`."""
    return _diag_nn(_Strings(C), n_max)


# ---------------------------------------------------------------------------
# staircase (codiagonal) model of the double nerve
# ---------------------------------------------------------------------------

def wbar_double_nerve(C: TwoCategory, n_max: int) -> TruncatedSimplicialSet:
    """Codiagonal of the double nerve in its explicit staircase description:
    an n-simplex has objects c_0..c_n, column m carrying one-cells
    f^0_m..f^{m-1}_m: c_{m-1} -> c_m and two-cells al^k_m: f^{k-1}_m => f^k_m.
    The i-face deletes c_i, composes columns i and i+1, drops the 1-cells
    f^i_m beyond and composes vertically around them; the i-degeneracy
    repeats c_i with an identity column and turns each f^i_m into an
    identity 2-cell."""
    S = _Strings(C)
    stairs = lambda n: tuple(range(n))

    def face(n, i):
        # column i merged with the top face of column i + 1, d^v_i beyond
        g = [None if q <= i else S.face_codes(q, i) for q in range(n)]
        merged = None
        if 0 < i < n:
            top, M = S.face_codes(i, i), S.cols(i - 1)
            merged = lambda c, d: M.merge(c, top[d])
        return _face_positions(S, stairs(n), stairs(n - 1), i, g, merged)

    def degen(n, i):
        # the depth-i identity column inserted, s^v_i beyond
        g = [None if q < i else S.degen_codes(q, i) for q in range(n)]
        return _degen_positions(S, stairs(n), stairs(n + 1), i, g, S.cols(i).identities)

    return build_simplicial(n_max, lambda n: S.level(stairs(n)), _ranked(face),
                            _ranked(degen), name=f"WbarNN({C.name})")


def repackage_staircase(C: TwoCategory, n_max: int) -> SimplicialMap:
    """The canonical bijection from the staircase model onto the generic
    codiagonal of the double nerve: the component at bidegree (n-k, k) is the
    restriction to rows 0..k of columns k+1..n."""
    W_explicit = wbar_double_nerve(C, n_max)
    W_generic = wbar(double_nerve(C, n_max))

    def fn(n, x):
        objs, fcols, acols = x
        tup = []
        for k in range(n + 1):
            cols_f = tuple(fcols[m - 1][:k + 1] for m in range(k + 1, n + 1))
            cols_a = tuple(acols[m - 1][:k] for m in range(k + 1, n + 1))
            tup.append((objs[k:], cols_f, cols_a))
        return tuple(tup)

    return simplicial_map(W_explicit, W_generic, fn, name=f"repack({C.name})")


# ---------------------------------------------------------------------------
# functor actions on nerve cells
# ---------------------------------------------------------------------------

def map_dn_simplex(F: TwoFunctor, x):
    objs, fcols, acols = x
    return (tuple(F.o(c) for c in objs),
            tuple(tuple(F.f1(f) for f in fs) for fs in fcols),
            tuple(tuple(F.f2(a) for a in asq) for asq in acols))


def diag_nn_map(F: TwoFunctor, n_max: int) -> SimplicialMap:
    """Induced map on the diagonals of the double nerves: every object and
    column of a simplex sent through F."""
    S, T = _Strings(F.source), _Strings(F.target)
    src, tgt = _diag_nn(S, n_max), _diag_nn(T, n_max)
    name = f"DiagNN({F.name})"
    maps = {}
    for n in range(n_max + 1):
        h, g = S.cols(n).image(T.cols(n), F)
        maps[n] = _within(_map_positions(S, T, (n,) * n, (n,) * n, [g] * n, h),
                          src.cells[n], tgt.cells[n],
                          lambda x, n=n: f"{name}: image of level-{n} simplex {x!r} not in target")
    return SimplicialMap(src, tgt, maps, name=name)


# ---------------------------------------------------------------------------
# nerve of a simplicial 2-category
# ---------------------------------------------------------------------------

def nerve_simplicial_twocat(S) -> TruncatedMultisimplicialSet:
    """Trisimplicial nerve of a simplicial 2-category: axis 0 is the outer
    simplicial direction, axis 1 the 2-cell depth, axis 2 the 1-cell chain
    length of the levelwise double nerves."""
    n_max = S.n_max
    dns = {p: double_nerve(S.level(p), n_max) for p in range(n_max + 1)}

    def level(key):
        p, n, q = key
        return dns[p].level((q, n))

    # axes 1 and 2 of the nerve are axes 1 and 0 of each double nerve
    def face(axis, key, i, x):
        p, n, q = key
        return dns[p].face(2 - axis, (q, n), i, x) if axis else map_dn_simplex(S.face(p, i), x)

    def degen(axis, key, i, x):
        p, n, q = key
        return dns[p].degen(2 - axis, (q, n), i, x) if axis else map_dn_simplex(S.degen(p, i), x)

    return build_trisimplicial((n_max, n_max, n_max), level, pointwise(face),
                               pointwise(degen), name=f"NN({S.name})")

