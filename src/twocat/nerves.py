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

The double nerve's rules are kept apart from the set they build, so the
diagonals `diag_nn` and `tri_diag_nn` are built straight from them: only
the (n, n) and (n, n, n) levels are enumerated, and a diagonal face or
degeneracy composes the rules per simplex.  The intermediate off-diagonal
simplex is never looked up; the final image is interned into, and checked
against, its diagonal level.  `simplicial.diag` and `tri_diag` remain for
sets that are materialized anyway.
"""

from __future__ import annotations

from functools import cache

from .core import TwoCategory, TwoFunctor, TwoCatError
from .simplicial import (TruncatedSimplicialSet, TruncatedBisimplicialSet,
                         TruncatedTrisimplicialSet, SimplicialMap,
                         build_simplicial, build_bisimplicial,
                         build_trisimplicial, simplicial_map, wbar)


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

    return build_simplicial(n_max, level, face, degen, name=f"N({A.name})")


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


def _double_nerve_rules(C: TwoCategory):
    """The rules of `double_nerve(C, ·)` as (level, hface, hdegen, vface,
    vdegen), in the signatures `build_bisimplicial` takes."""

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

    def hface(p, q, i, x):
        objs, fcols, acols = x
        if i == 0:
            return objs[1:], fcols[1:], acols[1:]
        if i == p:
            return objs[:-1], fcols[:-1], acols[:-1]
        fs, asq = _merge_cols(C, (fcols[i - 1], acols[i - 1]), (fcols[i], acols[i]))
        return (objs[:i] + objs[i + 1:], fcols[:i - 1] + (fs,) + fcols[i + 1:],
                acols[:i - 1] + (asq,) + acols[i + 1:])

    def hdegen(p, q, i, x):
        objs, fcols, acols = x
        fs, asq = _identity_col(C, objs[i], q)
        return (objs[:i + 1] + (objs[i],) + objs[i + 1:], fcols[:i] + (fs,) + fcols[i:],
                acols[:i] + (asq,) + acols[i:])

    def vface(p, q, j, x):
        objs, fcols, acols = x
        if j == 0:
            return objs, tuple(fs[1:] for fs in fcols), tuple(asq[1:] for asq in acols)
        if j == q:
            return objs, tuple(fs[:-1] for fs in fcols), tuple(asq[:-1] for asq in acols)
        return (objs, tuple(fs[:j] + fs[j + 1:] for fs in fcols),
                tuple(asq[:j - 1] + (C.vcomp(asq[j], asq[j - 1]),) + asq[j + 1:]
                      for asq in acols))

    def vdegen(p, q, j, x):
        objs, fcols, acols = x
        return (objs, tuple(fs[:j + 1] + (fs[j],) + fs[j + 1:] for fs in fcols),
                tuple(asq[:j] + (C.id2[fs[j]],) + asq[j:] for fs, asq in zip(fcols, acols)))

    return level, hface, hdegen, vface, vdegen


def double_nerve(C: TwoCategory, n_max: int) -> TruncatedBisimplicialSet:
    """Bisimplicial set with (p, q)-simplices the p-columns of q-deep 2-cell
    chains: horizontal faces delete an object and compose columns, vertical
    faces compose the 2-cell stacks columnwise."""
    return build_bisimplicial(n_max, n_max, *_double_nerve_rules(C),
                              name=f"NN({C.name})")


def diag_nn(C: TwoCategory, n_max: int) -> TruncatedSimplicialSet:
    """Diag of the double nerve, built from its rules: level n is the (n, n)
    level, d_i = dh_i dv_i and s_i = sh_i sv_i applied per simplex.  Equal to
    `diag(double_nerve(C, n_max))`, but no off-diagonal level or table is
    made."""
    level, hface, hdegen, vface, vdegen = _double_nerve_rules(C)
    return build_simplicial(n_max, lambda n: level(n, n),
                            lambda n, i, x: hface(n, n - 1, i, vface(n, n, i, x)),
                            lambda n, i, x: hdegen(n, n + 1, i, vdegen(n, n, i, x)),
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
                            lambda n, i, x: _stair_face(C, n, i, x),
                            lambda n, i, x: _stair_degen(C, n, i, x),
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

    return build_trisimplicial((n_max, n_max, n_max), level, face, degen,
                               name=f"NN({S.name})")


def tri_diag_nn(S) -> TruncatedSimplicialSet:
    """Diagonal of `nerve_simplicial_twocat(S)`, built from the double-nerve
    rules of each level of S: level n is the (n, n) level of the double
    nerve of S_n; d_i applies dh_i, then dv_i, then the face 2-functor
    S.face(n, i) to every cell, and s_i likewise with degeneracies.  Equal
    to `tri_diag(nerve_simplicial_twocat(S))`, but only the (n, n, n)
    levels are enumerated."""
    rules = [_double_nerve_rules(S.level(p)) for p in range(S.n_max + 1)]

    def face(n, i, x):
        _, hface, _, vface, _ = rules[n]
        return map_dn_simplex(S.face(n, i), vface(n - 1, n, i, hface(n, n, i, x)))

    def degen(n, i, x):
        _, _, hdegen, _, vdegen = rules[n]
        return map_dn_simplex(S.degen(n, i), vdegen(n + 1, n, i, hdegen(n, n, i, x)))

    return build_simplicial(S.n_max, lambda n: rules[n][0](n, n), face, degen,
                            name=f"Diag(NN({S.name}))")
