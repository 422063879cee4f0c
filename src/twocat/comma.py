"""Homotopy-fibre and slice 2-categories with their comparison 2-functors.

The fibre of F over c is the Grothendieck construction of the restricted
representable diagram, so the unfolded description is a consequence tested
against the construction rather than a second cell grammar.  Cells look like

    object   (a, p)                       p: Fa -> c   (side "over")
    1-cell   (u, phi, p, p')              phi: p => p' o Fu
    2-cell   (al, e, phi, phi', p, p')    e the forced hom-fibre identity

with the dual orientation for side "under" (p: c -> Fa, phi: Fu o p => p').

2-cells of these comma-style 2-categories are determined by their base
2-cell and their boundary 1-cells; `forced_two_cell` resolves the remaining
identity slot by table lookup and fails loudly if the cell does not exist.
"""

from __future__ import annotations

from .core import (COVARIANT, CONTRAVARIANT, TwoCategory, TwoDiagram,
                   TwoFunctor, TwoNaturalTransformation, OplaxTransformation,
                   TwoCatError, hom_category, identity_functor,
                   compose_functors)
from .grothendieck import (grothendieck, pullback_diagram, projection_functor,
                           base_change, grothendieck_morphism)

OVER = "over"
UNDER = "under"


def forced_two_cell(K: TwoCategory, base, src_one, tgt_one, where=None):
    """The unique 2-cell of K with the given base slot between the given
    parallel 1-cells, and for which `where` holds if given; every other slot
    of such a cell is forced."""
    cands = [t for t in K.two_cells_between(src_one, tgt_one)
             if t[0] == base and (where is None or where(t))]
    if len(cands) != 1:
        raise TwoCatError(f"forced_two_cell: {len(cands)} candidates for base "
                          f"{base!r} between {src_one!r} and {tgt_one!r}")
    return cands[0]


# ---------------------------------------------------------------------------
# representable diagrams and homotopy fibres
# ---------------------------------------------------------------------------

def representable_diagram(C: TwoCategory, c, side: str = OVER) -> TwoDiagram:
    """The hom 2-functor into categories: side "over" sends a to C(a, c) with
    transports by precomposition (contravariant); side "under" sends a to
    C(c, a) with transports by postcomposition (covariant)."""
    fibres = {a: (hom_category(C, a, c) if side == OVER else hom_category(C, c, a))
              for a in C.objects}
    one, two = {}, {}
    for f, (a, b) in C.one_cells.items():
        if side == OVER:
            src, tgt = fibres[b], fibres[a]
            on_obj = {p: C.comp1(p, f) for p in src.objects}
            on_one = {x: C.rwhisk(x, f) for x in src.one_cells}
        else:
            src, tgt = fibres[a], fibres[b]
            on_obj = {p: C.comp1(f, p) for p in src.objects}
            on_one = {x: C.lwhisk(f, x) for x in src.one_cells}
        on_two = {x: tgt.id2[on_one[x]] for x in src.one_cells}
        one[f] = TwoFunctor(src, tgt, on_obj, on_one, on_two, name=f"hom[{f}]")
    for al, (f, g) in C.two_cells.items():
        a, b = C.one_cells[f]
        if side == OVER:
            comp = {p: C.lwhisk(p, al) for p in fibres[b].objects}
        else:
            comp = {p: C.rwhisk(al, p) for p in fibres[a].objects}
        two[al] = TwoNaturalTransformation(one[f], one[g], comp, name=f"hom[{al}]")
    variance = CONTRAVARIANT if side == OVER else COVARIANT
    return TwoDiagram(C, variance, fibres, one, two,
                      name=f"{C.name}(-,{c})" if side == OVER else f"{C.name}({c},-)")


def comma_diagram(F: TwoFunctor, c, side: str = OVER) -> TwoDiagram:
    """The diagram whose assembly is the homotopy fibre of F over (or under) c."""
    if side not in (OVER, UNDER):
        raise TwoCatError(f"comma: side {side!r} is neither {OVER!r} nor {UNDER!r}")
    if c not in F.target.objects:
        raise TwoCatError(f"comma: {c!r} is not an object of {F.target.name}")
    return pullback_diagram(F, representable_diagram(F.target, c, side))


def comma(F: TwoFunctor, c, side: str = OVER) -> TwoCategory:
    """Homotopy fibre of F over (or under) c; slices are the identity case."""
    G = grothendieck(comma_diagram(F, c, side))
    G.name = f"{F.name}|{c}|{side}"
    return G


def comma_projection(F: TwoFunctor, c, side: str = OVER) -> TwoFunctor:
    return projection_functor(comma_diagram(F, c, side))


def _fibre_functor(F: TwoFunctor, h, side: str, src: TwoCategory,
                   tgt: TwoCategory) -> TwoFunctor:
    """Transport along a base 1-cell h: composition with h on the c side."""
    C = F.target

    def move_p(p):
        return C.comp1(h, p) if side == OVER else C.comp1(p, h)

    def move_phi(phi):
        return C.lwhisk(h, phi) if side == OVER else C.rwhisk(phi, h)

    on_obj = {(a, p): (a, move_p(p)) for (a, p) in src.objects}
    on_one = {(u, phi, p, p2): (u, move_phi(phi), move_p(p), move_p(p2))
              for (u, phi, p, p2) in src.one_cells}
    on_two = {(al, e, f1, f2, p, p2): (al, move_phi(e), move_phi(f1),
                                       move_phi(f2), move_p(p), move_p(p2))
              for (al, e, f1, f2, p, p2) in src.two_cells}
    return TwoFunctor(src, tgt, on_obj, on_one, on_two, name=f"({h})_*")


def _fibre_transformation(F: TwoFunctor, psi, side: str, Fh: TwoFunctor,
                          Fh2: TwoFunctor) -> TwoNaturalTransformation:
    """Transport along a base 2-cell psi: h => h', between the transports Fh
    and Fh2 along h and h', with component (1_a, psi o 1_p) over,
    (1_a, 1_p o psi) under."""
    C = F.target
    A = F.source
    comp = {}
    for (a, p) in Fh.source.objects:
        phi = C.hcomp(psi, C.unit2(p)) if side == OVER else C.hcomp(C.unit2(p), psi)
        comp[(a, p)] = (A.id1[a], phi, Fh.on_obj[(a, p)][1], Fh2.on_obj[(a, p)][1])
    return TwoNaturalTransformation(Fh, Fh2, comp, name=f"({psi})_*")


def fibre_diagram(F: TwoFunctor, side: str = OVER) -> TwoDiagram:
    """The homotopy-fibre 2-functor: covariant over the target for "over",
    contravariant for "under"; its transports are composition with the base
    cells on the c side."""
    C = F.target
    fibres = {c: comma(F, c, side) for c in C.objects}
    one, two = {}, {}
    for h, (c, c2) in C.one_cells.items():
        s, t = (c, c2) if side == OVER else (c2, c)
        one[h] = _fibre_functor(F, h, side, fibres[s], fibres[t])
    for psi, (h, h2) in C.two_cells.items():
        two[psi] = _fibre_transformation(F, psi, side, one[h], one[h2])
    variance = COVARIANT if side == OVER else CONTRAVARIANT
    return TwoDiagram(C, variance, fibres, one, two, name=f"fib({F.name},{side})")


# ---------------------------------------------------------------------------
# the assembled projection, its section, and the oplax witness
# ---------------------------------------------------------------------------

def projections(F: TwoFunctor, side: str = OVER):
    """Per-fibre projections assemble into Pi with section iota and an oplax
    witness between iota o Pi and the identity.

    Returns (fibre diagram, assembled 2-category, Pi, iota, witness).
    """
    A, C = F.source, F.target
    fib = fibre_diagram(F, side)
    G = grothendieck(fib)

    Pi = TwoFunctor(G, A,
                    {o: o[1][0] for o in G.objects},
                    {m: m[1][0] for m in G.one_cells},
                    {t: t[1][0] for t in G.two_cells},
                    name=f"Pi({F.name})")

    def unit_obj(a):
        return (F.o(a), (a, C.id1[F.o(a)]))

    def unit_one(u):
        a, b = A.one_cells[u]
        fu = F.f1(u)
        p0, p1 = C.id1[F.o(a)], C.id1[F.o(b)]
        if side == OVER:
            # inner (u, 1_Fu): (a, Fu o 1_Fa) -> (b, 1_Fb) in the fibre at Fb
            inner = (u, C.id2[fu], C.comp1(fu, p0), p1)
        else:
            # inner (u, 1_Fu): (a, 1_Fa) -> (b, 1_Fb o Fu) in the fibre at Fa
            inner = (u, C.id2[fu], p0, C.comp1(p1, fu))
        return (fu, inner, (a, p0), (b, p1))

    iota_obj = {a: unit_obj(a) for a in A.objects}
    iota_one = {u: unit_one(u) for u in A.one_cells}
    iota_two = {}
    for al, (u, v) in A.two_cells.items():
        iota_two[al] = forced_two_cell(G, F.f2(al), iota_one[u], iota_one[v],
                                       lambda t: t[1][0] == al)
    iota = TwoFunctor(A, G, iota_obj, iota_one, iota_two, name=f"iota({F.name})")

    witness = _projection_witness(F, side, G, Pi, iota)
    return fib, G, Pi, iota, witness


def _witness(K, X, into, comp, nat_at, name):
    """The oplax transformation X => 1_K if `into`, else 1_K => X, with the
    components comp; its naturality 2-cell at a 1-cell m of K is nat_at(m,
    s, t), between s = G(m) o comp[a] and t = comp[b] o F(m) for the
    transformation's F => G and m: a -> b."""
    one = identity_functor(K)
    Fw, Gw = (X, one) if into else (one, X)
    nat = {m: nat_at(m, K.comp1(Gw.f1(m), comp[a]), K.comp1(comp[b], Fw.f1(m)))
           for m, (a, b) in K.one_cells.items()}
    return OplaxTransformation(Fw, Gw, comp, nat, name=name)


def _projection_witness(F, side, G, Pi, iota):
    """over: iota Pi => 1; under: 1 => iota Pi."""
    A, C = F.source, F.target
    comp = {}
    for o in G.objects:
        c, (a, p) = o
        p0 = C.id1[F.o(a)]
        if side == OVER:
            # (p, (1_a, 1_p)): (Fa, (a, 1_Fa)) -> (c, (a, p))
            comp[o] = (p, (A.id1[a], C.id2[p], C.comp1(p, p0), p), (a, p0), (a, p))
        else:
            # (p, (1_a, 1_p)): (c, (a, p)) -> (Fa, (a, 1_Fa))
            comp[o] = (p, (A.id1[a], C.id2[p], p, p), (a, p), (a, p0))

    def nat_at(m, s, t):
        # base slot: the comma datum of the inner 1-cell
        inner_al = A.id2[m[1][0]]
        return forced_two_cell(G, m[1][1], s, t, lambda x: x[1][0] == inner_al)

    return _witness(G, compose_functors(iota, Pi), side == OVER, comp, nat_at,
                    f"proj_witness({F.name},{side})")


# ---------------------------------------------------------------------------
# retraction from the comma of an assembled morphism onto the fibrewise comma
# ---------------------------------------------------------------------------

def retraction_R(gamma, c, y):
    """The comparison retraction between the comma of the assembled morphism
    and the fibrewise comma, its section, and the oplax witness.

    The side follows the variance of gamma's diagrams.  Over, for covariant
    diagrams: R: (int Gamma) over (c, y) -> Gamma_c over y, section embeds at
    c, witness 1 => section o R.  Under, for contravariant diagrams, the
    orientations dualize.

    Returns (K, L, R, section, witness) with K the ambient comma and L the
    fibrewise one.
    """
    D = gamma.source
    C = D.base
    side = OVER if D.variance == COVARIANT else UNDER
    intG = grothendieck_morphism(gamma)
    GD, GE = intG.source, intG.target
    Dc = D.ob[c]
    K = comma(intG, (c, y), side)
    L = comma(gamma.at(c), y, side)
    e1 = C.id1[c]

    def r_obj(o):
        (a, x), P = o
        return (D.one[P[0]].o(x), P[1])

    def r_one(m):
        (f, u, x, x2), (al, psi, *_), P, P2 = m
        if side == OVER:
            w = Dc.comp1(D.one[P2[0]].f1(u), D.two[al].at(x))
        else:
            # al: f o p => p'; image 1-cell al^*x' o p^*u
            w = Dc.comp1(D.two[al].at(x2), D.one[P[0]].f1(u))
        return (w, psi, P[1], P2[1])

    def r_two(t):
        (be, phi, u, u2, x, x2) = t[0]
        m_src, m_tgt = K.two_cells[t]
        if side == OVER:
            base = Dc.hcomp(D.one[m_src[3][0]].f2(phi), Dc.unit2(D.two[m_src[1][0]].at(x)))
        else:
            base = Dc.hcomp(Dc.unit2(D.two[m_tgt[1][0]].at(x2)), D.one[m_src[2][0]].f2(phi))
        return forced_two_cell(L, base, r_one(m_src), r_one(m_tgt))

    R = TwoFunctor(K, L,
                   {o: r_obj(o) for o in K.objects},
                   {m: r_one(m) for m in K.one_cells},
                   {t: r_two(t) for t in K.two_cells},
                   name=f"R({gamma.name},{c},{y})")

    # section: embed the fibrewise comma at c
    def s_obj(o):
        x, v = o
        return ((c, x), (e1, v, gamma.at(c).o(x), y) if side == OVER
                else (e1, v, y, gamma.at(c).o(x)))

    def s_one(m):
        u, psi, v, v2 = m
        x, x2 = Dc.one_cells[u]
        M = (e1, u, x, x2)
        P, P2 = s_obj((x, v))[1], s_obj((x2, v2))[1]
        if side == OVER:
            tgt1 = GE.comp1(P2, intG.f1(M))
            Phi = (C.id2[e1], psi, P[1], tgt1[1], P[2], P[3])
        else:
            src1 = GE.comp1(intG.f1(M), P)
            Phi = (C.id2[e1], psi, src1[1], P2[1], src1[2], src1[3])
        if Phi not in GE.two_cells:
            raise TwoCatError(f"retraction_R: section comma datum missing at {m!r}")
        return (M, Phi, P, P2)

    def s_two(t):
        be, e, psi, psi2, v, v2 = t
        m_src, m_tgt = L.two_cells[t]
        u, u2 = m_src[0], m_tgt[0]
        x, x2 = Dc.one_cells[u]
        base = (C.id2[e1], be, u, u2, x, x2)
        if base not in GD.two_cells:
            raise TwoCatError(f"retraction_R: section base cell missing at {t!r}")
        return forced_two_cell(K, base, s_one(m_src), s_one(m_tgt))

    section = TwoFunctor(L, K,
                         {o: s_obj(o) for o in L.objects},
                         {m: s_one(m) for m in L.one_cells},
                         {t: s_two(t) for t in L.two_cells},
                         name=f"cbar({gamma.name},{c},{y})")

    witness = _retraction_witness(gamma, c, side, K, R, section, GD, GE)
    return K, L, R, section, witness


def _retraction_witness(gamma, c, side, K, R, section, GD, GE):
    """over: 1 => section R; under: section R => 1."""
    D = gamma.source
    Dc = D.ob[c]
    comp = {}
    for o in K.objects:
        (a, x), P = o
        p = P[0]
        w = D.one[p].o(x)
        S = section.on_obj[R.on_obj[o]][1]
        if side == OVER:
            comp[o] = ((p, Dc.id1[w], x, w), GE.unit2(P), P, S)
        else:
            comp[o] = ((p, Dc.id1[w], w, x), GE.unit2(P), S, P)

    def nat_at(m, s, t):
        # base slot: the comma datum al of m with identity fibre part
        al = m[1][0]
        fibre = D.ob[D.ends(D.base.dom2(al))[1]]
        theta = forced_two_cell(GD, al, s[0], t[0], lambda x: x[1] in fibre.id2.values())
        return forced_two_cell(K, theta, s, t)

    return _witness(K, compose_functors(section, R), side == UNDER, comp, nat_at,
                    f"retr_witness({gamma.name})")


# ---------------------------------------------------------------------------
# sections over a point of the pulled-back assembly
# ---------------------------------------------------------------------------

def section_jz_iz(F: TwoFunctor, D: TwoDiagram, c, z):
    """The embedding j_z of the homotopy fibre into the pulled-back assembly,
    the induced retraction pibar from the comma of the comparison functor,
    its section i_z, and the oplax witness relating i_z o pibar to 1.  The
    side follows the variance of D: over for a contravariant D, under for a
    covariant one.

    Returns (K0, K1, j_z, pibar, i_z, witness) where K0 is the homotopy fibre
    of F at c and K1 the comma of the comparison 2-functor at (c, z).
    """
    A = F.source
    side = OVER if D.variance == CONTRAVARIANT else UNDER
    if z not in D.ob[c].objects:
        raise TwoCatError(f"section_jz_iz: {z!r} is not an object of the fibre at {c!r}")
    FD, Fbar = base_change(F, D)
    GFD, GD = Fbar.source, Fbar.target
    K0 = comma(F, c, side)
    K1 = comma(Fbar, (c, z), side)

    def pz(p):
        return D.one[p].o(z)

    def jz_one(m):
        u, phi, p, p2 = m
        return (u, D.two[phi].at(z), pz(p), pz(p2))

    jz_obj = {(a, p): (a, pz(p)) for (a, p) in K0.objects}
    jz_on_one = {m: jz_one(m) for m in K0.one_cells}
    jz_on_two = {}
    for t in K0.two_cells:
        al = t[0]
        m_src, m_tgt = K0.two_cells[t]
        s1, t1 = jz_on_one[m_src], jz_on_one[m_tgt]
        end = A.dom1(m_src[0]) if side == OVER else A.cod1(m_src[0])
        fib = D.ob[F.o(end)]
        e_key = t1[1] if side == OVER else s1[1]
        cell = (al, fib.id2[e_key], s1[1], t1[1], s1[2], s1[3])
        if cell not in GFD.two_cells:
            raise TwoCatError(f"section_jz_iz: j_z image missing at {t!r}")
        jz_on_two[t] = cell
    j_z = TwoFunctor(K0, GFD, jz_obj, jz_on_one, jz_on_two, name=f"j_{z}")

    # pibar keeps the base part of each entry: objects, 1-cells and the ends of 2-cells
    base = lambda cell: tuple(x[0] for x in cell)
    pibar = TwoFunctor(
        K1, K0, {o: base(o) for o in K1.objects}, {m: base(m) for m in K1.one_cells},
        {t: forced_two_cell(K0, t[0][0], *map(base, K1.two_cells[t])) for t in K1.two_cells},
        name=f"pibar({F.name},{c},{z})")

    def iz_obj(o):
        a, p = o
        w = pz(p)
        fib = D.ob[F.o(a)]
        P = (p, fib.id1[w], w, z) if side == OVER else (p, fib.id1[w], z, w)
        return ((a, w), P)

    def iz_one(m):
        u, phi, p, p2 = m
        M = jz_on_one[m]
        P, P2 = iz_obj((A.dom1(u), p))[1], iz_obj((A.cod1(u), p2))[1]
        end = A.dom1(u) if side == OVER else A.cod1(u)
        fib = D.ob[F.o(end)]
        if side == OVER:
            T1 = GD.comp1(P2, Fbar.f1(M))
            Phi = (phi, fib.id2[T1[1]], P[1], T1[1], P[2], P[3])
        else:
            S1 = GD.comp1(Fbar.f1(M), P)
            Phi = (phi, fib.id2[S1[1]], S1[1], P2[1], S1[2], S1[3])
        if Phi not in GD.two_cells:
            raise TwoCatError(f"section_jz_iz: i_z comma datum missing at {m!r}")
        return (M, Phi, P, P2)

    iz_on_one = {m: iz_one(m) for m in K0.one_cells}
    iz_on_two = {}
    for t in K0.two_cells:
        m_src, m_tgt = K0.two_cells[t]
        iz_on_two[t] = forced_two_cell(K1, jz_on_two[t],
                                       iz_on_one[m_src], iz_on_one[m_tgt])
    i_z = TwoFunctor(K0, K1, {o: iz_obj(o) for o in K0.objects},
                     iz_on_one, iz_on_two, name=f"i_{z}")

    witness = _section_witness(F, side, K1, pibar, i_z, GD, GFD)
    return K0, K1, j_z, pibar, i_z, witness


def _section_witness(F, side, K1, pibar, i_z, GD, GFD):
    """over: 1 => i_z pibar; under: i_z pibar => 1."""
    A = F.source
    IZP = compose_functors(i_z, pibar)
    comp = {}
    for o in K1.objects:
        (a, x), P = o
        tgt_o = IZP.o(o)
        if side == OVER:
            comp[o] = ((A.id1[a], P[1], x, tgt_o[0][1]), GD.unit2(P), P, tgt_o[1])
        else:
            comp[o] = ((A.id1[a], P[1], tgt_o[0][1], x), GD.unit2(P), tgt_o[1], P)

    def nat_at(m, s, t):
        # the fibre slot of the comma datum of m over the identity of its base
        theta = (A.id2[m[0][0]], m[1][1], s[0][1], t[0][1], s[0][2], s[0][3])
        if theta not in GFD.two_cells:
            raise TwoCatError(f"section witness: naturality base missing at {m!r}")
        return forced_two_cell(K1, theta, s, t)

    return _witness(K1, IZP, side == UNDER, comp, nat_at, "section_witness")
