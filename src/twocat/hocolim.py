"""The homotopy colimit of a 2-diagram, its auxiliary resolution E (a
multisimplicial set with three axes, see `build_E`), and the two explicit
comparison isomorphisms onto the codiagonal models of the colimit nerve and
of the assembled 2-category.

A level-p cell of the colimit is (chain, data): for a covariant diagram the
data is (x, h_1, ..., h_p) with x in the fibre over chain[0] and h_i cells
of the base hom categories; the 0-face transports x forward along h_1.  For
a contravariant diagram the data is (h_1, ..., h_p, x) with x over chain[p]
and the twisted face at the top index pulling x back along h_p.

Auxiliary simplices are tuples (base, xs, ucols, phicols): base a double
nerve simplex of the base 2-category at level (p, q), xs fibre objects
over its object chain, and column m carrying parallel fibre 1-cells
u^0..u^n with 2-cells phi^1..phi^n between them.  Covariant columns run
from the transported x_{m-1} along the top base row into x_m and are
re-whiskered by the top vertical face; contravariant columns run from
x_{m-1} into the pullback of x_m along the bottom base row and are
re-whiskered by the bottom vertical face.  Column m, (ucols[m-1],
phicols[m-1]), is a column of the hosting fibre in the sense of `nerves`,
and E is built from codes: a simplex is (b, xs, us), the position of its
base in the double nerve's level, of each fibre object among its fibre's
objects, and of each column among its host's depth-n columns
(`nerves._Strings`).  A level lists the codes in the order of base, objects
and columns, each column chosen among the host's columns across its ends.
A table sends codes to codes: the base through the double nerve's own
tables, an inner horizontal face through `_Columns.image` and
`_Columns.merge`, the twisted vertical face through a merge with a
constant whisker column, a horizontal degeneracy through
`_Columns.identities`, and the other vertical maps through
`_Strings.face_codes` / `degen_codes` column by column; each image is looked
up among the target level's codes, so none is rebuilt.

The comparisons read families indexed by the colimit level p
(`bisimplicial_from_family`; E's through `tri_slice`).
`hocolim_wbar_comparison` maps W-bar of E's diagonal family, whose
horizontal tables are E's own, onto W-bar of the colimit levels' W-bar
nerves, level p built up to N - p, all that W-bar reads; it reads each
staircase field by one index rule and carries each cell down along d_0.
`grothendieck_wbar_comparison` maps W-bar of E's levelwise W-bars onto the
assembly's.  The W-bar families make new tuples, so their rules go through
`pointwise`.  A contravariant diagram goes through the reversal onto the
opposite base, whose check reads the two colimits the comparison builds:
for Drep at N = 3, W-bar of E's diagonal family has 3, 7, 13 and 21
simplices against the colimit side's 3, 6, 10 and 15, so no direct map is
an isomorphism.

The colimit's checks read the cells of its levels, tagged with their
dimension, as a simplicial set (`_cells`) and go through the simplicial
identity and map checkers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

from .core import (COVARIANT, CONTRAVARIANT, TwoCategory, TwoDiagram,
                   TwoFunctor, DiagramMorphism, TwoCatError, ValidationReport,
                   check_cell_map, coproduct, diagram_over_opposite,
                   hom_category, product, discrete, relabel, validate)
from .grothendieck import grothendieck
from .nerves import (_Strings, double_nerve, map_dn_simplex, nerve_category,
                     wbar_double_nerve)
from .simplicial import (SimplicialMap, TruncatedMultisimplicialSet,
                         TruncatedSimplicialSet, bisimplicial_from_family,
                         build_simplicial, build_trisimplicial,
                         check_simplicial_identities, check_simplicial_map,
                         diag, pointwise, simplicial_map, transpose, tri_slice,
                         verify_iso, wbar)


@dataclass(eq=False)
class SimplicialTwoCategory:
    n_max: int
    levels: list
    faces: dict    # (p, i) -> TwoFunctor level p -> level p-1
    degens: dict   # (p, i) -> TwoFunctor level p -> level p+1
    name: str = ""

    def level(self, p) -> TwoCategory:
        return self.levels[p]

    def face(self, p, i) -> TwoFunctor:
        return self.faces[(p, i)]

    def degen(self, p, i) -> TwoFunctor:
        return self.degens[(p, i)]


def _cells(S: SimplicialTwoCategory, index=lambda p, i: i) -> TruncatedSimplicialSet:
    """The cells of S as a simplicial set: level p holds (0, object),
    (1, 1-cell) and (2, 2-cell) for the cells of S.level(p), and d_i and
    s_i apply S.face(p, index(p, i)) and S.degen(p, index(p, i)) cell by
    cell."""
    def level(p):
        L = S.level(p)
        return [(0, c) for c in L.objects] + [(1, f) for f in L.one_cells] \
            + [(2, a) for a in L.two_cells]

    def apply(F, x):
        return x[0], (F.o, F.f1, F.f2)[x[0]](x[1])

    return build_simplicial(S.n_max, level,
                            pointwise(lambda p, i, x: apply(S.face(p, index(p, i)), x)),
                            pointwise(lambda p, i, x: apply(S.degen(p, index(p, i)), x)),
                            name=f"cells({S.name})")


def check_simplicial_two_category(S: SimplicialTwoCategory) -> ValidationReport:
    """Each level's axioms, then each structure map's levels and 2-functor
    axioms, then the simplicial identities of S's cells."""
    r = ValidationReport()
    for p, L in enumerate(S.levels):
        for v in validate(L).violations:
            r.add(f"level {p}: {v}")
    for kind, maps, step in (("face d", S.faces, -1), ("degeneracy s", S.degens, 1)):
        for (p, i), F in maps.items():
            if F.source is not S.level(p) or F.target is not S.level(p + step):
                r.add(f"{kind}_{i} at level {p}: wrong source or target")
                continue
            for v in check_cell_map("two_functor", F).violations:
                r.add(f"{kind}_{i} at level {p}: {v}")
    return check_simplicial_identities(_cells(S)) if r.ok else r


# ---------------------------------------------------------------------------
# the colimit construction
# ---------------------------------------------------------------------------

def _tuple_product(factors) -> TwoCategory:
    """Like product() but cells are tuples even for a single factor."""
    if len(factors) > 1:
        return product(factors)
    one = lambda v: (v,)
    return relabel(factors[0], one, one, one, factors[0].name)


def _chains(C: TwoCategory, p):
    chains = [(c,) for c in C.objects]
    for _ in range(p):
        chains = [ch + (b,) for ch in chains for b in C.objects
                  if C.hom_one_cells(ch[-1], b)]
    return chains


def _cellwise(chain_fn, data_fn, src, tgt, name=""):
    """The 2-functor src -> tgt sending each cell (chain, data) of a level
    to (chain_fn(chain), data_fn(chain, data, kind)), kind "obj", "one" or
    "two" by dimension."""
    return TwoFunctor(src, tgt,
                      {o: (chain_fn(o[0]), data_fn(o[0], o[1], "obj")) for o in src.objects},
                      {f: (chain_fn(f[0]), data_fn(f[0], f[1], "one")) for f in src.one_cells},
                      {t: (chain_fn(t[0]), data_fn(t[0], t[1], "two")) for t in src.two_cells},
                      name=name)


def hocolim(D: TwoDiagram, n_max: int) -> SimplicialTwoCategory:
    C = D.base
    cov = D.variance == COVARIANT
    homs = {(a, b): hom_category(C, a, b)
            for a in C.objects for b in C.objects if C.hom_one_cells(a, b)}

    def level_cat(p):
        comps = {}
        for ch in _chains(C, p):
            factors = [D.ob[ch[0]]] if cov else []
            factors += [homs[(ch[i], ch[i + 1])] for i in range(p)]
            if not cov:
                factors += [D.ob[ch[-1]]]
            comps[ch] = _tuple_product(factors)
        return coproduct(comps, name=f"hocolim({D.name})_{p}")

    levels = [level_cat(p) for p in range(n_max + 1)]
    off = 1 if cov else 0  # index of the first hom slot in the data tuple
    # the positions of the fibre value and of the hom slot beside it in the
    # data tuple: the value lies over ch[v], its transport over ch[h]
    v, h = (0, 1) if cov else (-1, -2)

    def face_functor(p, i):
        src, tgt = levels[p], levels[p - 1]
        chain_fn = lambda ch: ch[:i] + ch[i + 1:]

        if i == (0 if cov else p):
            # the twisted face: the fibre value transported along its hom slot
            def data_fn(ch, d, kind):
                val, g = d[v], d[h]
                if kind == "obj":
                    w = D.one[g].o(val)
                else:
                    fib, tfib, tr = D.ob[ch[v]], D.ob[ch[h]], D.one[C.cod2(g)]
                    if kind == "one":
                        w = tfib.comp1(tr.f1(val), D.two[g].at(fib.dom1(val)))
                    else:
                        x = fib.dom1(fib.dom2(val))
                        w = tfib.hcomp(tr.f2(val), tfib.unit2(D.two[g].at(x)))
                return (w,) + d[2:] if cov else d[:-2] + (w,)
        else:
            def data_fn(ch, d, kind):
                if i == 0:
                    return d[:off] + d[off + 1:]
                if i == p:
                    return d[:off + p - 1] + d[off + p:]
                k = off + i - 1
                comp = C.comp1 if kind == "obj" else C.hcomp
                return d[:k] + (comp(d[k + 1], d[k]),) + d[k + 2:]

        return _cellwise(chain_fn, data_fn, src, tgt)

    def degen_functor(p, i):
        src, tgt = levels[p], levels[p + 1]
        chain_fn = lambda ch: ch[:i + 1] + (ch[i],) + ch[i + 1:]

        def data_fn(ch, d, kind):
            e = C.id1[ch[i]] if kind == "obj" else C.id2[C.id1[ch[i]]]
            k = off + i
            return d[:k] + (e,) + d[k:]

        return _cellwise(chain_fn, data_fn, src, tgt)

    faces = {(p, i): face_functor(p, i)
             for p in range(1, n_max + 1) for i in range(p + 1)}
    degens = {(p, i): degen_functor(p, i)
              for p in range(n_max) for i in range(p + 1)}
    return SimplicialTwoCategory(n_max, levels, faces, degens,
                                 name=f"hocolim({D.name})")


def hocolim_map(gamma: DiagramMorphism, SD: SimplicialTwoCategory,
                SE: SimplicialTwoCategory):
    """Levelwise 2-functors induced by a diagram morphism; they commute with
    every structure 2-functor."""
    cov = gamma.source.variance == COVARIANT

    def data_fn(ch, d, kind):
        # the fibre value, first or last in the data tuple, sent through the
        # component at the matching end of the chain
        g = gamma.at(ch[0] if cov else ch[-1])
        move = {"obj": g.o, "one": g.f1, "two": g.f2}[kind]
        return (move(d[0]),) + d[1:] if cov else d[:-1] + (move(d[-1]),)

    return [_cellwise(lambda ch: ch, data_fn, SD.level(p), SE.level(p), f"{gamma.name}_{p}")
            for p in range(SD.n_max + 1)]


def hocolim_level_product_iso(S: SimplicialTwoCategory, D: TwoDiagram, p: int):
    """For a constant diagram over a base with only identity 2-cells, the
    level-p 2-category is isomorphic to (fibre) x (discrete nerve level)."""
    C = D.base
    V = D.ob[C.objects[0]]
    N = nerve_category(C, p)
    disc = discrete(N.level(p))
    P = product([V, disc])
    src = S.level(p)

    def simplex(ch, fs):
        """The nerve simplex through the objects ch and the 1-cells fs."""
        return ch, tuple((f,) for f in fs), ((),) * p

    on_obj, on_one, on_two = {}, {}, {}
    for o in src.objects:
        ch, d = o
        on_obj[o] = (d[0], simplex(ch, d[1:]))
    for f in src.one_cells:
        ch, d = f
        on_one[f] = (d[0], ("i", simplex(ch, map(C.dom2, d[1:]))))
    for t in src.two_cells:
        ch, d = t
        on_two[t] = (d[0], ("ii", simplex(ch, map(C.dom2, d[1:]))))
    return TwoFunctor(src, P, on_obj, on_one, on_two, name=f"level_{p}_iso")


# ---------------------------------------------------------------------------
# the auxiliary trisimplicial resolution
# ---------------------------------------------------------------------------

def build_E(D: TwoDiagram, n_max: int) -> TruncatedMultisimplicialSet:
    """Covariant auxiliary trisimplicial set: axis 0 indexes base columns,
    axis 1 the fibre chain depth, axis 2 the base 2-cell depth."""
    if D.variance != COVARIANT:
        raise TwoCatError("build_E: requires a covariant diagram")
    return _build_aux(D, n_max)


def build_E_pull(D: TwoDiagram, n_max: int) -> TruncatedMultisimplicialSet:
    """Contravariant counterpart with pullback-oriented fibre columns."""
    if D.variance != CONTRAVARIANT:
        raise TwoCatError("build_E_pull: requires a contravariant diagram")
    return _build_aux(D, n_max)


def _build_aux(D: TwoDiagram, n_max: int) -> TruncatedMultisimplicialSet:
    """E(D), its levels listed and its tables filled by code (see the module
    docstring); codes[key] maps the codes of the level key, in order, to
    their positions."""
    C = D.base
    cov = D.variance == COVARIANT
    dn = double_nerve(C, n_max)
    own = {F: _Strings(F) for F in dict.fromkeys(D.ob.values())}
    fibre = {c: own[F] for c, F in D.ob.items()}
    codes, memo = {}, {}

    def kept(key, make):
        try:
            return memo[key]
        except KeyError:
            return memo.setdefault(key, make())

    def hosts(objs) -> list:
        # the strings of the fibres hosting the columns over objs, in turn
        return [fibre[c] for c in (objs[1:] if cov else objs[:-1])]

    def moved(f, n) -> tuple:
        # (h, g): the transport along the base 1-cell f on objects and columns
        a, b = C.one_cells[f] if cov else C.one_cells[f][::-1]
        return kept(("moved", f, n), lambda: fibre[a].cols(n).image(fibre[b].cols(n), D.one[f]))

    def ends(S, n) -> dict:
        # the depth-n columns of S by (source, target), in order
        def make():
            M, out = S.cols(n), {}
            for c, ab in enumerate(zip(M.dom, M.cod)):
                out.setdefault(ab, []).append(c)
            return out
        return kept(("ends", S, n), make)

    def level(key):
        p, n, q = key
        out, index = [], {}
        for b, base in enumerate(dn.level((p, q))):
            objs, fcols, _ = base
            strs, host = [fibre[c] for c in objs], hosts(objs)
            cols, by_ends = [S.cols(n) for S in host], [ends(S, n) for S in host]
            hs = [moved(fs[q if cov else 0], n)[0] for fs in fcols]
            for xs in itertools.product(*(range(len(S.objects)) for S in strs)):
                xv = tuple(S.objects[x] for S, x in zip(strs, xs))
                # column m + 1 runs from x_m carried along the top base row
                # (covariant), or into x_{m+1} carried back along the bottom one
                choices = [e.get((h[xs[m]], xs[m + 1]) if cov else (xs[m], h[xs[m + 1]]), ())
                           for m, (e, h) in enumerate(zip(by_ends, hs))]
                for us in itertools.product(*choices):
                    index[b, xs, us] = len(out)
                    cells = [M.cells[c] for M, c in zip(cols, us)]
                    out.append((base, xv, tuple(u for u, _ in cells), tuple(ph for _, ph in cells)))
        codes[key] = index
        return out

    def columnwise(key, table) -> list:
        # every column sent through table(S), a code list of its host S
        p, n, q = key
        tabs = [[table(S) for S in hosts(objs)] for objs, _, _ in dn.level((p, q))]
        return [(b, xs, tuple(t[c] for t, c in zip(tabs[b], us))) for b, xs, us in codes[key]]

    def whiskered(M, al, X, x, c):
        # column c merged with the constant column at al's component at X's object x
        try:
            return memo[M, al, x, c]
        except KeyError:
            w = D.two[al].at(X.objects[x])
            k = M.index.get(((w,) * (M.q + 1), (M.C.id2[w],) * M.q))
            return memo.setdefault((M, al, x, c), M.merge(k, c) if cov else M.merge(c, k))

    def face(axis, key, i) -> list:
        p, n, q = key
        bases, at = dn.level((p, q)), codes[key]
        if axis == 1:
            return columnwise(key, lambda S: S.face_codes(n, i))
        nb = dn.faces[axis // 2, (p, q), i]
        if axis == 0 and 0 < i < p:
            # columns i and i + 1 merged in the fibre hosting the later one
            # (covariant) or the earlier one, the other carried there
            ops = [(fibre[objs[i + 1]].cols(n).merge, moved(fcols[i][q], n)[1]) if cov
                   else (fibre[objs[i - 1]].cols(n).merge, moved(fcols[i - 1][0], n)[1])
                   for objs, fcols, _ in bases]

            def merged(b, c, d):
                merge, g = ops[b]
                return merge(g[c], d) if cov else merge(c, g[d])

            return [(nb[b], xs[:i] + xs[i + 1:],
                     us[:i - 1] + (merged(b, us[i - 1], us[i]),) + us[i + 1:]) for b, xs, us in at]
        if axis == 0:
            rest = slice(1, None) if i == 0 else slice(None, -1)
            return [(nb[b], xs[rest], us[rest]) for b, xs, us in at]
        if i != (q if cov else 0):
            return [(nb[b], xs, us) for b, xs, us in at]
        # the twisted face whiskers each column by the transport of the base
        # 2-cell it drops
        twists = [[(fibre[objs[m]].cols(n), acols[m - 1][q - 1], fibre[objs[m - 1]], m - 1) if cov
                   else (fibre[objs[m - 1]].cols(n), acols[m - 1][0], fibre[objs[m]], m)
                   for m in range(1, p + 1)] for objs, _, acols in bases]
        return [(nb[b], xs, tuple(whiskered(M, al, X, xs[j], c)
                                  for (M, al, X, j), c in zip(twists[b], us))) for b, xs, us in at]

    def degen(axis, key, i) -> list:
        p, n, q = key
        bases, at = dn.level((p, q)), codes[key]
        if axis == 1:
            return columnwise(key, lambda S: S.degen_codes(n, i))
        nb = dn.degens[axis // 2, (p, q), i]
        if axis == 2:
            return [(nb[b], xs, us) for b, xs, us in at]
        ids = [fibre[objs[i]].cols(n).identities for objs, _, _ in bases]
        return [(nb[b], xs[:i + 1] + xs[i:], us[:i] + (ids[b][xs[i]],) + us[i:])
                for b, xs, us in at]

    def coded(images, step):
        def rule(k, source, target, fail):
            axis, key, i = k
            to = codes[key[:axis] + (key[axis] + step,) + key[axis + 1:]]
            table = [to.get(x) for x in images(axis, key, i)]
            if None in table:
                raise TwoCatError(fail(source[table.index(None)]))
            return table
        return rule

    return build_trisimplicial((n_max, n_max, n_max), level, coded(face, -1), coded(degen, 1),
                               name=f"E({D.name})")


# ---------------------------------------------------------------------------
# outer codiagonal assemblies
# ---------------------------------------------------------------------------

def _family_diag_E(E: TruncatedMultisimplicialSet) -> TruncatedMultisimplicialSet:
    N = E.bounds[0]
    levels = [diag(tri_slice(E, 0, p)) for p in range(N + 1)]

    def own(tables):
        # the family's level (p, s) is E's level (p, s, s), so E's axis-0
        # tables there are already its horizontal tables
        def rule(key, *_):
            p, i, s = key
            return tables[0, (p, s, s), i]
        return rule

    return bisimplicial_from_family(levels, own(E.faces), own(E.degens),
                                    name=f"[p]Diag{E.name}")


def _family_wbar_E(E: TruncatedMultisimplicialSet, transposed: bool) -> TruncatedMultisimplicialSet:
    N = E.bounds[0]
    slices = [tri_slice(E, 0, p) for p in range(N + 1)]
    if transposed:
        slices = [transpose(B) for B in slices]
    levels = [wbar(B) for B in slices]

    def component_key(p, s, pos):
        # inner tuple position pos sits at (horizontal s-pos, vertical pos)
        if transposed:
            return (p, pos, s - pos)
        return (p, s - pos, pos)

    def hmap(move, p, i, s, tup):
        return tuple(move(0, component_key(p, s, pos), i, t) for pos, t in enumerate(tup))

    return bisimplicial_from_family(levels, pointwise(partial(hmap, E.face)),
                                    pointwise(partial(hmap, E.degen)), name=f"[p]Wbar{E.name}")


def _family_wbar_hocolim(S: SimplicialTwoCategory) -> TruncatedMultisimplicialSet:
    # W-bar of the family reads level p only up to N - p
    N = S.n_max
    levels = [wbar_double_nerve(S.level(p), N - p) for p in range(N + 1)]
    return bisimplicial_from_family(
        levels, pointwise(lambda p, i, s, x: map_dn_simplex(S.face(p, i), x)),
        pointwise(lambda p, i, s, x: map_dn_simplex(S.degen(p, i), x)),
        name=f"[p]WbarNN{S.name}")


# ---------------------------------------------------------------------------
# the comparison isomorphisms
# ---------------------------------------------------------------------------

def hocolim_wbar_comparison(D: TwoDiagram, n_max: int) -> SimplicialMap:
    """Explicit simplicial isomorphism between the codiagonal of the diagonal
    resolution family and the codiagonal of the levelwise codiagonal nerves
    of the colimit.  For contravariant diagrams the comparison runs over the
    opposite base after the certified reversal identification, each colimit
    built once."""
    S = hocolim(D, n_max)
    if D.variance == CONTRAVARIANT:
        R = diagram_over_opposite(D)
        SR = hocolim(R, n_max)
        rep = _reversal_report(D, S, SR)
        if not rep.ok:
            raise TwoCatError("hocolim_wbar_comparison: reversal bridge failed: "
                              + "; ".join(rep.violations[:3]))
        D, S = R, SR
    E = build_E(D, n_max)
    lhs = wbar(_family_diag_E(E))
    rhs = wbar(_family_wbar_hocolim(S))

    def fn(n, T):
        cs = T[0][0][0]
        xs = {j: T[j][1][0] for j in range(n + 1)}
        f = {(j, m): T[j][0][1][m - j - 1][j] for j in range(n) for m in range(j + 1, n + 1)}
        al = {(j, m): T[j][0][2][m - j - 1][j - 1]
              for j in range(1, n) for m in range(j + 1, n + 1)}
        us = {(k, m): T[m - 1][2][0][k] for m in range(1, n + 1) for k in range(m)}
        ph = {(k, m): T[m - 1][3][0][k - 1] for m in range(2, n + 1) for k in range(1, m)}

        def carried(dim, j, x, p):
            # x over cs[j] with the base cells of row j (f for an object, al
            # otherwise): a dim-cell of level n - j, carried to level p along d_0
            row = f if dim == 0 else al
            cell = cs[j:], (x,) + tuple(row[j, m] for m in range(j + 1, n + 1))
            for lev in range(n - j, p, -1):
                F = S.face(lev, 0)
                cell = (F.o, F.f1, F.f2)[dim](cell)
            return cell

        return tuple((tuple(carried(0, j, xs[j], n - s) for j in range(s + 1)),
                      tuple(tuple(carried(1, m, us[k, m], n - s) for k in range(m))
                            for m in range(1, s + 1)),
                      tuple(tuple(carried(2, m, ph[k, m], n - s) for k in range(1, m))
                            for m in range(1, s + 1)))
                     for s in range(n + 1))

    return simplicial_map(lhs, rhs, fn, name=f"hocolim_cmp({D.name})")


def grothendieck_wbar_comparison(D: TwoDiagram, n_max: int) -> SimplicialMap:
    """Explicit simplicial isomorphism from the codiagonal of the levelwise
    codiagonals of the resolution onto the codiagonal model of the double
    nerve of the assembled 2-category."""
    cov = D.variance == COVARIANT
    E = build_E(D, n_max) if cov else build_E_pull(D, n_max)
    lhs = wbar(_family_wbar_E(E, transposed=not cov))
    rhs = wbar_double_nerve(grothendieck(D), n_max)

    def fn(n, TT):
        cs = TT[0][0][0][0]
        xs = {m: TT[m][0][1][0] for m in range(n + 1)}
        f = {(j, m): TT[j][j if cov else 0][0][1][m - j - 1][j]
             for j in range(n) for m in range(j + 1, n + 1)}
        al = {(j, m): TT[j][j if cov else 0][0][2][m - j - 1][j - 1]
              for j in range(1, n) for m in range(j + 1, n + 1)}
        us = {(k, m): TT[k][k][2][m - k - 1][0 if cov else k]
              for k in range(n) for m in range(k + 1, n + 1)}
        ph = {(k, m): TT[k][k - cov][3][m - k - 1][0 if cov else k - 1]
              for k in range(1, n) for m in range(k + 1, n + 1)}
        objs = tuple((cs[m], xs[m]) for m in range(n + 1))
        fcols, acols = [], []
        for m in range(1, n + 1):
            fcols.append(tuple((f[(k, m)], us[(k, m)], xs[m - 1], xs[m])
                               for k in range(m)))
            acols.append(tuple((al[(k, m)], ph[(k, m)], us[(k - 1, m)],
                                us[(k, m)], xs[m - 1], xs[m])
                               for k in range(1, m)))
        return (objs, tuple(fcols), tuple(acols))

    return simplicial_map(lhs, rhs, fn, name=f"groth_cmp({D.name})")


def reversal_bridge_report(D: TwoDiagram, n_max: int) -> ValidationReport:
    """Certify that the contravariant colimit is the order reversal of the
    covariant colimit of the same diagram over the opposite base: the
    reindexing is a levelwise isomorphism exchanging d_i with d_{p-i}."""
    if D.variance != CONTRAVARIANT:
        return ValidationReport(["reversal bridge only applies to contravariant diagrams"])
    return _reversal_report(D, hocolim(D, n_max), hocolim(diagram_over_opposite(D), n_max))


def _reversal_report(D: TwoDiagram, S1, S2) -> ValidationReport:
    """`reversal_bridge_report` of D from S1 and S2, the colimits of D and of
    D over the opposite base."""
    r = ValidationReport()
    flip = lambda cell: (cell[0][::-1], cell[1][::-1])
    for p in range(S1.n_max + 1):
        src = S1.level(p)
        R = TwoFunctor(src, S2.level(p), {o: flip(o) for o in src.objects},
                       {f: flip(f) for f in src.one_cells},
                       {t: flip(t) for t in src.two_cells}, name=f"rev_{p}")
        for v in check_cell_map("two_functor", R).violations:
            r.add(f"reversal at level {p}: {v}")
    if not r.ok:
        return r
    f = simplicial_map(_cells(S1), _cells(S2, lambda p, i: p - i),
                       lambda p, x: (x[0], flip(x[1])), name=f"rev({D.name})")
    r = check_simplicial_map(f)
    if not verify_iso(f):
        r.add("reversal is not a levelwise bijection")
    return r
