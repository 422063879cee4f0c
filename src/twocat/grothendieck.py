"""The Grothendieck construction on 2-diagrams, both variances.

Cell identifiers record enough endpoints to be self-describing:
    object   (a, x)
    1-cell   (f, u, x, y)         from (a, x) to (b, y)
    2-cell   (al, phi, u, v, x, y)  from (f, u, x, y) to (g, v, x, y)
For a covariant diagram u: f_*x -> y lives in the target fibre and
phi: u => v o al_*x; for a contravariant diagram u: x -> f^*y lives in
the source fibre and phi: al^*y o u => v.
"""

from __future__ import annotations

from .core import (COVARIANT, TwoCategory, TwoDiagram, TwoFunctor,
                   DiagramMorphism, TwoCatError, make_two_category,
                   same_category)


def grothendieck(D: TwoDiagram) -> TwoCategory:
    C = D.base
    cov = D.variance == COVARIANT

    objects = [(a, x) for a in C.objects for x in D.ob[a].objects]

    one = {}
    for f, (a, b) in C.one_cells.items():
        Fa, Fb = D.ob[a], D.ob[b]
        tr = D.one[f]
        if cov:
            for x in Fa.objects:
                fx = tr.o(x)
                for u, (s, t) in Fb.one_cells.items():
                    if s == fx:
                        one[(f, u, x, t)] = ((a, x), (b, t))
        else:
            for y in Fb.objects:
                fy = tr.o(y)
                for u, (s, t) in Fa.one_cells.items():
                    if t == fy:
                        one[(f, u, s, y)] = ((a, s), (b, y))

    # the fibre parts u of the 1-cells (f, u, x, y), keyed by (f, x, y)
    by_ends = {}
    for (f, u, x, y) in one:
        by_ends.setdefault((f, x, y), []).append(u)
    two = {}
    for al, (f, g) in C.two_cells.items():
        fib = D.ob[D.ends(f)[1]]
        nat = D.two[al]  # al_*x : f_*x -> g_*x, or al^*y : f^*y -> g^*y
        for (f1, u, x, y) in one:
            if f1 != f:
                continue
            for v in by_ends.get((g, x, y), ()):
                s, t = (u, fib.comp1(v, nat.at(x))) if cov else (fib.comp1(nat.at(y), u), v)
                for phi in fib.two_cells_between(s, t):
                    two[(al, phi, u, v, x, y)] = ((f, u, x, y), (g, v, x, y))

    id1 = {}
    for (a, x) in objects:
        id1[(a, x)] = (C.id1[a], D.ob[a].id1[x], x, x)
    id2 = {}
    for (f, u, x, y) in one:
        id2[(f, u, x, y)] = (C.id2[f], D.ob[D.ends(f)[1]].id2[u], u, u, x, y)

    def comp1_fn(gc, fc):
        f, u, x, y = fc
        g, v, y1, z = gc
        a = C.dom1(f)
        b = C.cod1(f)
        if cov:
            fib = D.ob[C.cod1(g)]
            w = fib.comp1(v, D.one[g].f1(u))
        else:
            fib = D.ob[a]
            w = fib.comp1(D.one[f].f1(v), u)
        return (C.comp1(g, f), w, x, z)

    def vcomp_fn(bc, ac):
        al, phi, u, v, x, y = ac
        be, psi, v1, w, x1, y1 = bc
        f = C.dom2(al)
        a, b = C.one_cells[f]
        if cov:
            fib = D.ob[b]
            ax = D.two[al].at(x)
            chi = fib.vcomp(fib.rwhisk(psi, ax), phi)
        else:
            fib = D.ob[a]
            by = D.two[be].at(y)
            chi = fib.vcomp(psi, fib.lwhisk(by, phi))
        return (C.vcomp(be, al), chi, u, w, x, y)

    def hcomp_fn(bc, ac):
        al, phi, u, v, x, y = ac
        al2, phi2, u2, v2, y1, z = bc
        f, g = C.dom2(al), C.cod2(al)
        f2, g2 = C.dom2(al2), C.cod2(al2)
        if cov:
            fib = D.ob[C.cod1(f2)]
            chi = fib.hcomp(phi2, D.one[f2].f2(phi))
            uu = fib.comp1(u2, D.one[f2].f1(u))
            vv = fib.comp1(v2, D.one[g2].f1(v))
        else:
            # the composite pastes through the target boundary 2-cell, so the
            # inner whisker uses g (the target 1-cell of ac), not f
            fib = D.ob[C.dom1(f)]
            chi = fib.hcomp(D.one[g].f2(phi2), phi)
            uu = fib.comp1(D.one[f].f1(u2), u)
            vv = fib.comp1(D.one[g].f1(v2), v)
        return (C.hcomp(al2, al), chi, uu, vv, x, z)

    G = make_two_category(f"int({D.name})", objects, one, two, id1, id2,
                          comp1_fn, vcomp_fn, hcomp_fn)
    return G


def projection_functor(D: TwoDiagram) -> TwoFunctor:
    """The split projection from the assembled 2-category onto the base."""
    G = grothendieck(D)
    return TwoFunctor(G, D.base,
                      {o: o[0] for o in G.objects},
                      {f: f[0] for f in G.one_cells},
                      {a: a[0] for a in G.two_cells},
                      name=f"proj({D.name})")


def grothendieck_morphism(gamma: DiagramMorphism) -> TwoFunctor:
    """The induced 2-functor between the assembled 2-categories."""
    D = gamma.source
    GD = grothendieck(D)
    C = D.base

    on_obj = {(a, x): (a, gamma.at(a).o(x)) for (a, x) in GD.objects}
    on_one = {}
    for (f, u, x, y) in GD.one_cells:
        a, b = C.one_cells[f]
        side = gamma.at(D.ends(f)[1])
        on_one[(f, u, x, y)] = (f, side.f1(u), gamma.at(a).o(x), gamma.at(b).o(y))
    on_two = {}
    for (al, phi, u, v, x, y) in GD.two_cells:
        f = C.dom2(al)
        a, b = C.one_cells[f]
        side = gamma.at(D.ends(f)[1])
        on_two[(al, phi, u, v, x, y)] = (al, side.f2(phi), side.f1(u), side.f1(v),
                                         gamma.at(a).o(x), gamma.at(b).o(y))
    return TwoFunctor(GD, grothendieck(gamma.target), on_obj, on_one, on_two,
                      name=f"int({gamma.name})")


def fibre_embedding(D: TwoDiagram, c) -> TwoFunctor:
    """Embedding of the fibre over c, constant at c on the base side."""
    C = D.base
    fib = D.ob[c]
    e1 = C.id1[c]
    on_obj = {x: (c, x) for x in fib.objects}
    on_one = {u: (e1, u, s, t) for u, (s, t) in fib.one_cells.items()}
    on_two = {}
    for a, (s, t) in fib.two_cells.items():
        x, y = fib.one_cells[s]
        on_two[a] = (C.id2[e1], a, s, t, x, y)
    return TwoFunctor(fib, grothendieck(D), on_obj, on_one, on_two, name=f"fibre({c})")


def pullback_diagram(F: TwoFunctor, D: TwoDiagram) -> TwoDiagram:
    """Restriction of a diagram along a 2-functor into its base."""
    if not same_category(F.target, D.base):
        raise TwoCatError("pullback_diagram: functor does not land in the base")
    A = F.source
    return TwoDiagram(A, D.variance,
                      {a: D.ob[F.o(a)] for a in A.objects},
                      {f: D.one[F.f1(f)] for f in A.one_cells},
                      {al: D.two[F.f2(al)] for al in A.two_cells},
                      name=f"{F.name}^*{D.name}")


def base_change(F: TwoFunctor, D: TwoDiagram):
    """The pulled-back diagram together with the comparison 2-functor into
    the assembled 2-category over the original base; the square with the two
    projections commutes strictly."""
    FD = pullback_diagram(F, D)
    GFD, GD = grothendieck(FD), grothendieck(D)
    on_obj = {(a, x): (F.o(a), x) for (a, x) in GFD.objects}
    on_one = {(f, u, x, y): (F.f1(f), u, x, y) for (f, u, x, y) in GFD.one_cells}
    on_two = {(al, phi, u, v, x, y): (F.f2(al), phi, u, v, x, y)
              for (al, phi, u, v, x, y) in GFD.two_cells}
    Fbar = TwoFunctor(GFD, GD, on_obj, on_one, on_two, name=f"bar({F.name})")
    return FD, Fbar
