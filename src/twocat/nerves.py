"""Nerves: of a category, of a 2-category (double nerve), of a simplicial
2-category, and the explicit staircase model of the codiagonal of a double
nerve.

Double-nerve simplices at bidegree (p, q) are encoded as
    (objects, fcols, acols)
with p+1 objects, fcols a p-tuple of (q+1)-tuples of parallel 1-cells per
column, and acols a p-tuple of q-tuples of 2-cells (acols[m][k] goes from
fcols[m][k] to fcols[m][k+1]).

Staircase simplices (the codiagonal model) at level n are encoded the same
way except column m (1-based) carries m one-cells and m-1 two-cells.

The tables of `double_nerve` and of the diagonals `diag_nn` and
`tri_diag_nn` are filled from column codes.  A (p, q)-simplex is a string of
p composable depth-q columns, and each level lists its strings in
lexicographic order of their columns' positions in the list of all depth-q
columns (`_Columns`).  So a face or degeneracy maps each column through a
small column table (vertical face or degeneracy, identity column, merge of
two columns, a 2-functor's image), and the image's position is a sum of
per-column counts; no simplex is rebuilt or looked up.  A column image that
is not a column across the right objects puts the simplex's image outside
its level, which raises with the set's usual window text.  The diagonals
enumerate only the (n, n) levels (of the double nerve of S_n for
`tri_diag_nn`); `simplicial.diag` and `tri_diag` remain for sets that are
materialized anyway.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import accumulate
from math import inf

from .core import TwoCategory, TwoFunctor, TwoCatError
from .simplicial import (TruncatedSimplicialSet, TruncatedBisimplicialSet,
                         TruncatedTrisimplicialSet, SimplicialMap,
                         build_simplicial, build_bisimplicial,
                         build_trisimplicial, pointwise, simplicial_map, wbar)


# ---------------------------------------------------------------------------
# nerve of a category
# ---------------------------------------------------------------------------

def is_category(A: TwoCategory) -> bool:
    return all(s == t for s, t in A.two_cells.values())


def nerve_category(A: TwoCategory, n_max: int) -> TruncatedSimplicialSet:
    """Nerve of a 2-category with only identity 2-cells: level p is the set
    of composable p-chains, level 0 the object set."""
    if not is_category(A):
        raise TwoCatError("nerve_category: input has non-identity 2-cells")

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

    def level(p):
        return chains[p]

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

    return build_simplicial(n_max, level, pointwise(face), pointwise(degen),
                            name=f"N({A.name})")


# ---------------------------------------------------------------------------
# double nerve
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


def _identity_col(C, c, q):
    e = C.id1[c]
    return ((e,) * (q + 1), (C.id2[e],) * q)


def _col_vface(C, col, j):
    fs, asq = col
    q = len(fs) - 1
    if j == 0:
        return fs[1:], asq[1:]
    if j == q:
        return fs[:-1], asq[:-1]
    merged = C.vcomp(asq[j], asq[j - 1])
    return fs[:j] + fs[j + 1:], asq[:j - 1] + (merged,) + asq[j + 1:]

def _col_vdegen(C, col, j):
    fs, asq = col
    return (fs[:j + 1] + (fs[j],) + fs[j + 1:],
            asq[:j] + (C.id2[fs[j]],) + asq[j:])


# A weight that puts every image it enters past the end of its level.
_MISSING = inf


class _Columns:
    """The depth-q columns of C (`hom_chains`), listed by source object, then
    target object, then hom, with what it takes to rank strings of them.

    Level (r, q) of the double nerve lists the strings of r composable
    columns (for r = 0, the objects) in lexicographic order of their
    columns' positions here.  So the string from object o through columns
    c_1, ..., c_r is at position
        start[r][o] + before[r][c_1] + before[r - 1][c_2] + ... + before[1][c_r]:
    start[r][o] counts the r-strings from earlier objects, and before[k][c]
    the k-strings from c's source whose first column comes before c.  A
    table is filled from these sums; no simplex is built or looked up."""

    def __init__(self, C: TwoCategory, q, r_max):
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
        count = [1] * len(self.objects)
        self.start, self.before = [list(range(len(count)))], [None]
        for _ in range(r_max):
            before, nxt = [0] * len(self.cells), []
            for cs in self.out:
                run = 0
                for c in cs:
                    before[c] = run
                    run += count[self.cod[c]]
                nxt.append(run)
            count = nxt
            self.before.append(before)
            self.start.append(list(accumulate(count, initial=0))[:-1])
        self._merged = {}

    def code(self, col, a, b):
        """The position of `col` as a column from object a to object b, or
        None if it is not one."""
        c = self.index.get(col)
        return c if c is not None and self.dom[c] == a and self.cod[c] == b else None

    def level(self, r):
        """Level (r, q) of the double nerve, in order."""
        obj, cells, cod, out = self.objects, self.cells, self.cod, self.out
        if r == 0:
            return [((x,), (), ()) for x in obj]
        level = []

        def grow(objs, fcols, acols, c):
            fs, asq = cells[c]
            objs, fcols, acols = objs + (obj[cod[c]],), fcols + (fs,), acols + (asq,)
            if len(fcols) == r:
                level.append((objs, fcols, acols))
            else:
                for d in out[cod[c]]:
                    grow(objs, fcols, acols, d)

        for c, a in enumerate(self.dom):
            grow((obj[a],), (), (), c)
        return level

    def fill(self, ow, first, steps) -> list:
        """ow[o] + first[c_1] + steps[0][c_1][k_2] + ... for each string of
        level (1 + len(steps), q) in order (ow[o] alone for level 0 when
        `first` is None): steps[m][c][k] weighs the k-th column that may
        follow c."""
        if first is None:
            return list(ow)
        sums = [ow[a] + w for a, w in zip(self.dom, first)]
        last = range(len(first))
        follow = [self.out[b] for b in self.cod]
        for step in steps:
            sums = [s + w for s, c in zip(sums, last) for w in step[c]]
            last = [d for c in last for d in follow[c]]
        return sums

    def follow(self, weights) -> list:
        """weights[d] for each column d that may follow each column c."""
        return [[weights[d] for d in self.out[b]] for b in self.cod]

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

    def vertical(self, target, rule) -> list:
        """The position in `target` of rule(col) for each column, or None
        where that is not a column across the same objects."""
        return [target.code(rule(col), a, b)
                for col, a, b in zip(self.cells, self.dom, self.cod)]

    def image(self, target, F: TwoFunctor):
        """The positions in `target` of F's images of the objects and of the
        columns, or None where an image is not one."""
        h = [target.where.get(F.o(x)) for x in self.objects]
        g = [None if h[a] is None or h[b] is None else
             target.code((tuple(map(F.f1, fs)), tuple(map(F.f2, asq))), h[a], h[b])
             for (fs, asq), a, b in zip(self.cells, self.dom, self.cod)]
        return h, g

    @property
    def unmoved(self):
        """The column and object maps that leave each where it is."""
        return range(len(self.cells)), range(len(self.objects))


def _columns(C: TwoCategory, n_max):
    """cols(q): the depth-q columns of C, made on first use."""
    return cache(lambda q: _Columns(C, q, n_max))


def _weights(table, codes) -> list:
    """table[c] for each c of `codes`, and _MISSING where c is None."""
    return [_MISSING if c is None else table[c] for c in codes]


# Each of the three fills below takes the columns S of the source strings
# and T of their images, the string length r, and the images g[c] of the
# columns and h[o] of the objects as positions in T (None where there is
# none), and returns the positions in level (·, T.q) of the images of level
# (r, S.q) in order.

def _face_positions(S, T, r, i, g, h, merged) -> list:
    """The i-th horizontal face: the first or last column dropped, or
    columns i and i + 1 replaced by merged(c_i, c_{i+1})."""
    start = _weights(T.start[r - 1], h)
    if i == 0:
        later = [_weights(T.before[r - m + 1], g) for m in range(2, r + 1)]
        return S.fill([0] * len(h), [start[b] for b in S.cod], list(map(S.follow, later)))
    weights = [_weights(T.before[r - m], g) for m in range(1, i)] + [[0] * len(g)]
    steps = list(map(S.follow, weights[1:]))
    if i < r:
        before = T.before[r - i]
        steps.append([[_MISSING if (k := merged(c, d)) is None else before[k]
                       for d in S.out[b]] for c, b in enumerate(S.cod)])
        steps += [S.follow(_weights(T.before[r - m + 1], g)) for m in range(i + 2, r + 1)]
    return S.fill(start, weights[0], steps)


def _degen_positions(S, T, r, i, g, h, ident) -> list:
    """The i-th horizontal degeneracy: the column ident[o] inserted after
    the i-th object o."""
    idw = _weights(T.before[r + 1 - i], ident)
    ow = _weights(T.start[r + 1], h)
    weights = ([_weights(T.before[r + 2 - m], g) for m in range(1, i + 1)]
               + [_weights(T.before[r + 1 - m], g) for m in range(i + 1, r + 1)])
    if i == 0:
        ow = [w + x for w, x in zip(ow, idw)]
    else:
        weights[i - 1] = [w + idw[b] for w, b in zip(weights[i - 1], S.cod)]
    return S.fill(ow, weights[0] if r else None, list(map(S.follow, weights[1:])))


def _map_positions(S, T, r, g, h) -> list:
    """Every column and object mapped, none dropped or inserted."""
    weights = [_weights(T.before[r - m + 1], g) for m in range(1, r + 1)]
    return S.fill(_weights(T.start[r], h), weights[0] if r else None,
                  list(map(S.follow, weights[1:])))


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


def _compose(g1, g2) -> list:
    """g2 after g1, position lists with None where there is no image."""
    return [None if c is None else g2[c] for c in g1]


def double_nerve(C: TwoCategory, n_max: int) -> TruncatedBisimplicialSet:
    """Bisimplicial set with (p, q)-simplices the p-columns of q-deep 2-cell
    chains: horizontal faces delete an object and compose columns, vertical
    faces compose the 2-cell stacks columnwise."""
    cols = _columns(C, n_max)

    def hface(key, source, target, fail):
        p, q, i = key
        S = cols(q)
        return _within(_face_positions(S, S, p, i, *S.unmoved, S.merge), source, target, fail)

    def hdegen(key, source, target, fail):
        p, q, i = key
        S = cols(q)
        return _within(_degen_positions(S, S, p, i, *S.unmoved, S.identities),
                       source, target, fail)

    @cache
    def column_table(rule, q, dq, j):
        return cols(q).vertical(cols(q + dq), lambda col: rule(C, col, j))

    def vertical(rule, dq):
        def table(key, source, target, fail):
            p, q, j = key
            S, T = cols(q), cols(q + dq)
            g = column_table(rule, q, dq, j)
            return _within(_map_positions(S, T, p, g, S.unmoved[1]), source, target, fail)
        return table

    return build_bisimplicial(n_max, n_max, lambda p, q: cols(q).level(p), hface, hdegen,
                              vertical(_col_vface, -1), vertical(_col_vdegen, 1),
                              name=f"NN({C.name})")


def diag_nn(C: TwoCategory, n_max: int) -> TruncatedSimplicialSet:
    """Diag of the double nerve, made without its off-diagonal levels: level
    n is the (n, n) level, d_i = dh_i dv_i and s_i = sh_i sv_i, with the
    vertical map applied to each column before the horizontal one.  Equal
    to `diag(double_nerve(C, n_max))`."""
    cols = _columns(C, n_max)

    def face(key, source, target, fail):
        n, i = key
        S, T = cols(n), cols(n - 1)
        g = S.vertical(T, lambda col: _col_vface(C, col, i))
        return _within(_face_positions(S, T, n, i, g, S.unmoved[1],
                                       lambda c, d: T.merge(g[c], g[d])),
                       source, target, fail)

    def degen(key, source, target, fail):
        n, i = key
        S, T = cols(n), cols(n + 1)
        g = S.vertical(T, lambda col: _col_vdegen(C, col, i))
        return _within(_degen_positions(S, T, n, i, g, S.unmoved[1], T.identities),
                       source, target, fail)

    return build_simplicial(n_max, lambda n: cols(n).level(n), face, degen,
                            name=f"Diag(NN({C.name}))")


# ---------------------------------------------------------------------------
# staircase (codiagonal) model of the double nerve
# ---------------------------------------------------------------------------

def staircase_levels(C: TwoCategory, n_max: int):
    levels = {0: [((c,), (), ()) for c in C.objects]}
    for n in range(1, n_max + 1):
        out = []
        for (objs, fcols, acols) in levels[n - 1]:
            for b in C.objects:
                for col in hom_chains(C, objs[-1], b, n - 1):
                    out.append((objs + (b,), fcols + (col[0],), acols + (col[1],)))
        levels[n] = out
    return levels


def _stair_face(C: TwoCategory, n, i, x):
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


def _stair_degen(C: TwoCategory, n, i, x):
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


def wbar_double_nerve(C: TwoCategory, n_max: int) -> TruncatedSimplicialSet:
    """Codiagonal of the double nerve in its explicit staircase description:
    an n-simplex has objects c_0..c_n, column m carrying one-cells
    f^0_m..f^{m-1}_m: c_{m-1} -> c_m and two-cells al^k_m: f^{k-1}_m => f^k_m.
    The i-face deletes c_i, composes columns i and i+1, drops the 1-cells
    f^i_m beyond and composes vertically around them; the i-degeneracy
    repeats c_i with an identity column and turns each f^i_m into an
    identity 2-cell."""
    levels = staircase_levels(C, n_max)
    return build_simplicial(n_max, lambda n: levels[n],
                            pointwise(lambda n, i, x: _stair_face(C, n, i, x)),
                            pointwise(lambda n, i, x: _stair_degen(C, n, i, x)),
                            name=f"WbarNN({C.name})")


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
    """Induced map on the diagonals of the double nerves."""
    src = diag_nn(F.source, n_max)
    tgt = diag_nn(F.target, n_max)
    return simplicial_map(src, tgt, lambda n, x: map_dn_simplex(F, x),
                          name=f"DiagNN({F.name})")


# ---------------------------------------------------------------------------
# nerve of a simplicial 2-category
# ---------------------------------------------------------------------------

def nerve_simplicial_twocat(S) -> TruncatedTrisimplicialSet:
    """Trisimplicial nerve of a simplicial 2-category: axis 0 is the outer
    simplicial direction, axis 1 the 2-cell depth, axis 2 the 1-cell chain
    length of the levelwise double nerves."""
    n_max = S.n_max
    dns = {p: double_nerve(S.level(p), n_max) for p in range(n_max + 1)}

    def level(key):
        p, n, q = key
        return dns[p].level(q, n)

    def face(axis, key, i, x):
        p, n, q = key
        if axis == 0:
            return map_dn_simplex(S.face(p, i), x)
        if axis == 1:
            return dns[p].vface(q, n, i, x)
        return dns[p].hface(q, n, i, x)

    def degen(axis, key, i, x):
        p, n, q = key
        if axis == 0:
            return map_dn_simplex(S.degen(p, i), x)
        if axis == 1:
            return dns[p].vdegen(q, n, i, x)
        return dns[p].hdegen(q, n, i, x)

    return build_trisimplicial((n_max, n_max, n_max), level, pointwise(face),
                               pointwise(degen), name=f"NN({S.name})")


def tri_diag_nn(S) -> TruncatedSimplicialSet:
    """Diagonal of `nerve_simplicial_twocat(S)`, made from the double nerves
    of the levels of S: level n is the (n, n) level of the double nerve of
    S_n; d_i applies dh_i, then dv_i, then the face 2-functor S.face(n, i)
    to every cell, and s_i likewise with degeneracies.  Equal to
    `tri_diag(nerve_simplicial_twocat(S))`, but only the (n, n, n) levels
    are enumerated."""
    cols = [_columns(S.level(p), S.n_max) for p in range(S.n_max + 1)]

    def face(key, source, target, fail):
        n, i = key
        A, V, T = cols[n](n), cols[n](n - 1), cols[n - 1](n - 1)
        h, f = V.image(T, S.face(n, i))
        g = _compose(A.vertical(V, lambda col: _col_vface(A.C, col, i)), f)

        def merged(c, d):
            k = A.merge(c, d)
            return None if k is None else g[k]

        return _within(_face_positions(A, T, n, i, g, h, merged), source, target, fail)

    def degen(key, source, target, fail):
        n, i = key
        A, V, T = cols[n](n), cols[n](n + 1), cols[n + 1](n + 1)
        h, f = V.image(T, S.degen(n, i))
        g = _compose(A.vertical(V, lambda col: _col_vdegen(A.C, col, i)), f)
        return _within(_degen_positions(A, T, n, i, g, h, _compose(A.identities, g)),
                       source, target, fail)

    return build_simplicial(S.n_max, lambda n: cols[n](n).level(n), face, degen,
                            name=f"Diag(NN({S.name}))")
