"""Finite strict 2-categories with complete composition tables.

Cells are identified by hashable values: plain strings for hand-built
categories, nested tuples for constructed ones (products, Grothendieck
cells, ...).  Equality of cells is equality of identifiers; composites
are always table lookups, never synthesized names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iproduct


class TwoCatError(Exception):
    """Structural misuse: a lookup outside a declared table domain."""


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def merge(self, other: "ValidationReport") -> None:
        self.violations.extend(other.violations)


@dataclass(eq=False)
class TwoCategory:
    """A finite strict 2-category given by complete composition tables.

    one_cells maps id -> (source object, target object); two_cells maps
    id -> (source 1-cell, target 1-cell), required parallel.  hcomp1 is
    keyed (g, f) meaning g after f; vcomp2 is keyed (b, a) meaning b
    after a; hcomp2 is keyed (b, a) with a over the left hom.
    """

    objects: tuple
    one_cells: dict
    two_cells: dict
    id1: dict
    id2: dict
    hcomp1: dict
    vcomp2: dict
    hcomp2: dict
    name: str = ""

    # -- lookups ---------------------------------------------------------
    def dom1(self, f):
        return self.one_cells[f][0]

    def cod1(self, f):
        return self.one_cells[f][1]

    def dom2(self, a):
        return self.two_cells[a][0]

    def cod2(self, a):
        return self.two_cells[a][1]

    def unit2(self, f):
        return self.id2[f]

    def comp1(self, g, f):
        try:
            return self.hcomp1[(g, f)]
        except KeyError:
            raise TwoCatError(f"{self.name}: no composite {g} o {f}") from None

    def vcomp(self, b, a):
        try:
            return self.vcomp2[(b, a)]
        except KeyError:
            raise TwoCatError(f"{self.name}: no vertical composite {b} . {a}") from None

    def hcomp(self, b, a):
        try:
            return self.hcomp2[(b, a)]
        except KeyError:
            raise TwoCatError(f"{self.name}: no horizontal composite {b} o {a}") from None

    # -- derived ---------------------------------------------------------
    def lwhisk(self, g, a):
        """Whisker a 2-cell a on the left by the 1-cell g: 1_g o a."""
        return self.hcomp(self.unit2(g), a)

    def rwhisk(self, a, f):
        """Whisker a 2-cell a on the right by the 1-cell f: a o 1_f."""
        return self.hcomp(a, self.unit2(f))

    # The indexes below are built on first use and kept: the cell tables of
    # a category are not changed once it is built.
    @cached_property
    def one_cells_by_ends(self) -> dict:
        """(source, target) object pair -> tuple of the 1-cells between them."""
        index = {}
        for f, (s, t) in self.one_cells.items():
            index.setdefault((s, t), []).append(f)
        return {ends: tuple(fs) for ends, fs in index.items()}

    @cached_property
    def two_cells_by_source(self) -> dict:
        """Source 1-cell -> tuple of (2-cell, target 1-cell) pairs."""
        index = {}
        for a, (s, t) in self.two_cells.items():
            index.setdefault(s, []).append((a, t))
        return {s: tuple(pairs) for s, pairs in index.items()}

    def hom_one_cells(self, a, b):
        return self.one_cells_by_ends.get((a, b), ())

    def two_cells_between(self, f, g):
        return tuple(x for x, t in self.two_cells_by_source.get(f, ()) if t == g)

    def counts(self):
        return (len(self.objects), len(self.one_cells), len(self.two_cells))

    def __repr__(self):
        o, f, a = self.counts()
        label = self.name or "TwoCategory"
        return f"<{label}: {o} objects, {f} 1-cells, {a} 2-cells>"


def same_category(A: TwoCategory, B: TwoCategory) -> bool:
    """Structural sameness: identical cell sets and tables."""
    return A is B or (A.objects == B.objects and A.one_cells == B.one_cells
                      and A.two_cells == B.two_cells and A.hcomp1 == B.hcomp1
                      and A.vcomp2 == B.vcomp2 and A.hcomp2 == B.hcomp2
                      and A.id1 == B.id1 and A.id2 == B.id2)


def composable1(C: TwoCategory):
    """All pairs (g, f) with cod(f) = dom(g)."""
    by_dom = {}
    for g, (s, _) in C.one_cells.items():
        by_dom.setdefault(s, []).append(g)
    for f, (_, t) in C.one_cells.items():
        for g in by_dom.get(t, ()):
            yield g, f


def vcomposable2(C: TwoCategory):
    by_dom = {}
    for b, (s, _) in C.two_cells.items():
        by_dom.setdefault(s, []).append(b)
    for a, (_, t) in C.two_cells.items():
        for b in by_dom.get(t, ()):
            yield b, a


def hcomposable2(C: TwoCategory):
    by_dom_obj = {}
    for b, (s, _) in C.two_cells.items():
        by_dom_obj.setdefault(C.dom1(s), []).append(b)
    for a, (s, _) in C.two_cells.items():
        for b in by_dom_obj.get(C.cod1(s), ()):
            yield b, a


def make_two_category(name, objects, one_cells, two_cells, id1, id2,
                      comp1_fn, vcomp_fn, hcomp_fn) -> TwoCategory:
    """Materialize composition tables from composition rules.

    The rule functions receive cell identifiers and must return the
    composite identifier; they are invoked once per composable pair.
    """
    C = TwoCategory(tuple(objects), dict(one_cells), dict(two_cells),
                    dict(id1), dict(id2), {}, {}, {}, name=name)
    for g, f in composable1(C):
        C.hcomp1[(g, f)] = comp1_fn(g, f)
    for b, a in vcomposable2(C):
        C.vcomp2[(b, a)] = vcomp_fn(b, a)
    for b, a in hcomposable2(C):
        C.hcomp2[(b, a)] = hcomp_fn(b, a)
    return C


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(C: TwoCategory) -> ValidationReport:
    """Check every axiom of a strict 2-category on the full tables."""
    r = ValidationReport()
    obj = set(C.objects)

    for f, (s, t) in C.one_cells.items():
        if s not in obj or t not in obj:
            r.add(f"1-cell {f}: endpoint not an object")
    for a, (s, t) in C.two_cells.items():
        if s not in C.one_cells or t not in C.one_cells:
            r.add(f"2-cell {a}: boundary not a 1-cell")
        elif C.one_cells[s] != C.one_cells[t]:
            r.add(f"2-cell {a}: boundary 1-cells {s}, {t} not parallel")

    for c in C.objects:
        f = C.id1.get(c)
        if f not in C.one_cells or C.one_cells[f] != (c, c):
            r.add(f"id1[{c}] is not an endo-1-cell of {c}")
    for f in C.one_cells:
        a = C.id2.get(f)
        if a not in C.two_cells or C.two_cells[a] != (f, f):
            r.add(f"id2[{f}] is not an identity 2-cell on {f}")

    # hcomp1: totality, typing, units, associativity
    comp1_pairs = dict.fromkeys(composable1(C))
    for key in C.hcomp1:
        if key not in comp1_pairs:
            r.add(f"hcomp1 declared on non-composable pair {key}")
    for g, f in comp1_pairs:
        gf = C.hcomp1.get((g, f))
        if gf is None:
            r.add(f"hcomp1 missing entry ({g}, {f})")
            continue
        if gf not in C.one_cells or C.one_cells[gf] != (C.dom1(f), C.cod1(g)):
            r.add(f"hcomp1[({g}, {f})] has wrong endpoints")
    if r.ok:
        for f in C.one_cells:
            s, t = C.one_cells[f]
            if C.hcomp1[(f, C.id1[s])] != f or C.hcomp1[(C.id1[t], f)] != f:
                r.add(f"hcomp1 unit law fails at {f}")
        by_dom = {}
        for g, (s, _) in C.one_cells.items():
            by_dom.setdefault(s, []).append(g)
        for g, f in comp1_pairs:
            for h in by_dom.get(C.cod1(g), ()):
                if C.hcomp1[(C.hcomp1[(h, g)], f)] != C.hcomp1[(h, C.hcomp1[(g, f)])]:
                    r.add(f"hcomp1 associativity fails at ({h}, {g}, {f})")

    # vcomp2: each hom a category
    vpairs = dict.fromkeys(vcomposable2(C))
    for key in C.vcomp2:
        if key not in vpairs:
            r.add(f"vcomp2 declared on non-composable pair {key}")
    for b, a in vpairs:
        ba = C.vcomp2.get((b, a))
        if ba is None:
            r.add(f"vcomp2 missing entry ({b}, {a})")
            continue
        if ba not in C.two_cells or C.two_cells[ba] != (C.dom2(a), C.cod2(b)):
            r.add(f"vcomp2[({b}, {a})] has wrong boundary")
    if r.ok:
        for a in C.two_cells:
            s, t = C.two_cells[a]
            if C.vcomp2[(a, C.id2[s])] != a or C.vcomp2[(C.id2[t], a)] != a:
                r.add(f"vcomp2 unit law fails at {a}")
        by_dom2 = {}
        for b, (s, _) in C.two_cells.items():
            by_dom2.setdefault(s, []).append(b)
        for b, a in vpairs:
            for c2 in by_dom2.get(C.cod2(b), ()):
                if C.vcomp2[(C.vcomp2[(c2, b)], a)] != C.vcomp2[(c2, C.vcomp2[(b, a)])]:
                    r.add(f"vcomp2 associativity fails at ({c2}, {b}, {a})")

    # hcomp2: typing, functoriality (identities + interchange), associativity, units
    hpairs = dict.fromkeys(hcomposable2(C))
    for key in C.hcomp2:
        if key not in hpairs:
            r.add(f"hcomp2 declared on non-composable pair {key}")
    for b, a in hpairs:
        ba = C.hcomp2.get((b, a))
        if ba is None:
            r.add(f"hcomp2 missing entry ({b}, {a})")
            continue
        want = (C.hcomp1[(C.dom2(b), C.dom2(a))], C.hcomp1[(C.cod2(b), C.cod2(a))])
        if ba not in C.two_cells or C.two_cells[ba] != want:
            r.add(f"hcomp2[({b}, {a})] has wrong boundary")
    if r.ok:
        for g, f in comp1_pairs:
            if C.hcomp2[(C.id2[g], C.id2[f])] != C.id2[C.hcomp1[(g, f)]]:
                r.add(f"hcomp2 does not preserve identities at ({g}, {f})")
        for a in C.two_cells:
            s = C.dom2(a)
            x, y = C.one_cells[s]
            if C.hcomp2[(a, C.id2[C.id1[x]])] != a or C.hcomp2[(C.id2[C.id1[y]], a)] != a:
                r.add(f"hcomp2 unit law fails at {a}")
        by_dom_h = {}
        for b, (s, _) in C.two_cells.items():
            by_dom_h.setdefault(C.dom1(s), []).append(b)
        for b, a in hpairs:
            for c2 in by_dom_h.get(C.cod1(C.dom2(b)), ()):
                if C.hcomp2[(C.hcomp2[(c2, b)], a)] != C.hcomp2[(c2, C.hcomp2[(b, a)])]:
                    r.add(f"hcomp2 associativity fails at ({c2}, {b}, {a})")
        # interchange: (b'.a') o (b.a) = (b' o b).(a' o a) whenever defined
        for b, a in vpairs:
            for b2, a2 in vpairs:
                if C.dom1(C.dom2(a2)) != C.cod1(C.dom2(a)):
                    continue
                lhs = C.hcomp2[(C.vcomp2[(b2, a2)], C.vcomp2[(b, a)])]
                rhs = C.vcomp2[(C.hcomp2[(b2, b)], C.hcomp2[(a2, a)])]
                if lhs != rhs:
                    r.add(f"interchange fails at (({b2},{a2}), ({b},{a}))")
    return r


# ---------------------------------------------------------------------------
# 2-functors and transformations
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TwoFunctor:
    source: TwoCategory
    target: TwoCategory
    on_obj: dict
    on_one: dict
    on_two: dict
    name: str = ""

    def o(self, c):
        return self.on_obj[c]

    def f1(self, f):
        return self.on_one[f]

    def f2(self, a):
        return self.on_two[a]

    def __repr__(self):
        return f"<TwoFunctor {self.name or hex(id(self))}>"


def identity_functor(C: TwoCategory) -> TwoFunctor:
    return TwoFunctor(C, C, {c: c for c in C.objects},
                      {f: f for f in C.one_cells},
                      {a: a for a in C.two_cells}, name=f"1_{C.name}")


def compose_functors(G: TwoFunctor, F: TwoFunctor) -> TwoFunctor:
    if G.source is not F.target and G.source.one_cells.keys() != F.target.one_cells.keys():
        raise TwoCatError("compose_functors: middle categories differ")
    return TwoFunctor(F.source, G.target,
                      {c: G.on_obj[v] for c, v in F.on_obj.items()},
                      {f: G.on_one[v] for f, v in F.on_one.items()},
                      {a: G.on_two[v] for a, v in F.on_two.items()},
                      name=f"{G.name}o{F.name}")


def functor_equal(F: TwoFunctor, G: TwoFunctor) -> bool:
    return F.on_obj == G.on_obj and F.on_one == G.on_one and F.on_two == G.on_two


def functor_is_bijective(F: TwoFunctor) -> bool:
    return (len(set(F.on_obj.values())) == len(F.target.objects) == len(F.on_obj)
            and len(set(F.on_one.values())) == len(F.target.one_cells) == len(F.on_one)
            and len(set(F.on_two.values())) == len(F.target.two_cells) == len(F.on_two))


@dataclass(eq=False)
class TwoNaturalTransformation:
    """Strict 2-natural transformation between parallel 2-functors."""

    F: TwoFunctor
    G: TwoFunctor
    comp: dict  # object of F.source -> 1-cell of F.target
    name: str = ""

    def at(self, c):
        return self.comp[c]


@dataclass(eq=False)
class OplaxTransformation:
    """Transformation whose naturality holds up to directed 2-cells.

    For each 1-cell f: a -> b of the source, nat[f] is a 2-cell of the
    target, nat[f]: Gf o eta_a => eta_b o Ff.
    """

    F: TwoFunctor
    G: TwoFunctor
    comp: dict
    nat: dict
    name: str = ""

    def at(self, c):
        return self.comp[c]


def natural_equal(s: TwoNaturalTransformation, t: TwoNaturalTransformation) -> bool:
    return s.comp == t.comp


def identity_natural(F: TwoFunctor) -> TwoNaturalTransformation:
    B = F.target
    return TwoNaturalTransformation(F, F, {c: B.id1[F.o(c)] for c in F.source.objects})


def vcompose_naturals(t: TwoNaturalTransformation, s: TwoNaturalTransformation) -> TwoNaturalTransformation:
    B = s.F.target
    return TwoNaturalTransformation(s.F, t.G,
                                    {c: B.comp1(t.comp[c], s.comp[c]) for c in s.comp})


def hcompose_naturals(t: TwoNaturalTransformation, s: TwoNaturalTransformation) -> TwoNaturalTransformation:
    """Horizontal composite t o s for s: F=>G: A->B, t: H=>K: B->C."""
    C = t.F.target
    return TwoNaturalTransformation(
        compose_functors(t.F, s.F), compose_functors(t.G, s.G),
        {c: C.comp1(t.comp[s.G.o(c)], t.F.f1(s.comp[c])) for c in s.comp})


def whisker_natural_functor(s: TwoNaturalTransformation, H: TwoFunctor) -> TwoNaturalTransformation:
    """s * H: precompose the transformation with a 2-functor H into s's source."""
    return TwoNaturalTransformation(compose_functors(s.F, H), compose_functors(s.G, H),
                                    {c: s.comp[H.o(c)] for c in H.source.objects})


def whisker_functor_natural(H: TwoFunctor, s: TwoNaturalTransformation) -> TwoNaturalTransformation:
    """H * s: postcompose the transformation with a 2-functor H out of s's target."""
    return TwoNaturalTransformation(compose_functors(H, s.F), compose_functors(H, s.G),
                                    {c: H.f1(s.comp[c]) for c in s.comp})


# ---------------------------------------------------------------------------
# cell-map checking
# ---------------------------------------------------------------------------

def _check_two_functor(F: TwoFunctor) -> ValidationReport:
    r = ValidationReport()
    A, B = F.source, F.target
    for c in A.objects:
        if F.on_obj.get(c) not in set(B.objects):
            r.add(f"object map misses {c}")
    for f, (s, t) in A.one_cells.items():
        ff = F.on_one.get(f)
        if ff not in B.one_cells:
            r.add(f"1-cell map misses {f}")
        elif {s, t} <= F.on_obj.keys() and B.one_cells[ff] != (F.on_obj[s], F.on_obj[t]):
            r.add(f"1-cell map breaks endpoints at {f}")
    for a, (s, t) in A.two_cells.items():
        fa = F.on_two.get(a)
        if fa not in B.two_cells:
            r.add(f"2-cell map misses {a}")
        elif {s, t} <= F.on_one.keys() and B.two_cells[fa] != (F.on_one[s], F.on_one[t]):
            r.add(f"2-cell map breaks boundary at {a}")
    if not r.ok:
        return r
    for c in A.objects:
        if F.on_one[A.id1[c]] != B.id1[F.on_obj[c]]:
            r.add(f"identity 1-cell not preserved at {c}")
    for f in A.one_cells:
        if F.on_two[A.id2[f]] != B.id2[F.on_one[f]]:
            r.add(f"identity 2-cell not preserved at {f}")
    for (g, f), gf in A.hcomp1.items():
        if F.on_one[gf] != B.hcomp1[(F.on_one[g], F.on_one[f])]:
            r.add(f"1-cell composition not preserved at ({g}, {f})")
    for (b, a), ba in A.vcomp2.items():
        if F.on_two[ba] != B.vcomp2[(F.on_two[b], F.on_two[a])]:
            r.add(f"vertical composition not preserved at ({b}, {a})")
    for (b, a), ba in A.hcomp2.items():
        if F.on_two[ba] != B.hcomp2[(F.on_two[b], F.on_two[a])]:
            r.add(f"horizontal composition not preserved at ({b}, {a})")
    return r


def _check_two_natural(s: TwoNaturalTransformation) -> ValidationReport:
    r = ValidationReport()
    F, G = s.F, s.G
    A, B = F.source, F.target
    for c in A.objects:
        e = s.comp.get(c)
        if e not in B.one_cells or B.one_cells[e] != (F.on_obj[c], G.on_obj[c]):
            r.add(f"component at {c} is not a 1-cell Fa -> Ga")
    if not r.ok:
        return r
    for f, (a, b) in A.one_cells.items():
        if B.comp1(G.f1(f), s.comp[a]) != B.comp1(s.comp[b], F.f1(f)):
            r.add(f"naturality fails on 1-cell {f}")
    for al, (f, _) in A.two_cells.items():
        a, b = A.one_cells[f]
        lhs = B.hcomp(G.f2(al), B.unit2(s.comp[a]))
        rhs = B.hcomp(B.unit2(s.comp[b]), F.f2(al))
        if lhs != rhs:
            r.add(f"naturality fails on 2-cell {al}")
    return r


def _check_oplax(s: OplaxTransformation) -> ValidationReport:
    r = ValidationReport()
    F, G = s.F, s.G
    A, B = F.source, F.target
    for c in A.objects:
        e = s.comp.get(c)
        if e not in B.one_cells or B.one_cells[e] != (F.on_obj[c], G.on_obj[c]):
            r.add(f"component at {c} is not a 1-cell Fa -> Ga")
    if not r.ok:
        return r
    for f, (a, b) in A.one_cells.items():
        n = s.nat.get(f)
        if n not in B.two_cells:
            r.add(f"naturality component missing at {f}")
        elif B.two_cells[n] != (B.comp1(G.f1(f), s.comp[a]), B.comp1(s.comp[b], F.f1(f))):
            r.add(f"naturality component at {f} has wrong boundary")
    if not r.ok:
        return r
    for c in A.objects:
        if s.nat[A.id1[c]] != B.id2[s.comp[c]]:
            r.add(f"unit axiom fails at {c}")
    for (g, f), gf in A.hcomp1.items():
        # G(gf) o eta => eta o F(gf) factoring through eta_b
        step1 = B.hcomp(B.unit2(G.f1(g)), s.nat[f])
        step2 = B.hcomp(s.nat[g], B.unit2(F.f1(f)))
        if s.nat[gf] != B.vcomp(step2, step1):
            r.add(f"composition axiom fails at ({g}, {f})")
    for al, (f, g) in A.two_cells.items():
        a, b = A.one_cells[f]
        lhs = B.vcomp(B.hcomp(B.unit2(s.comp[b]), F.f2(al)), s.nat[f])
        rhs = B.vcomp(s.nat[g], B.hcomp(G.f2(al), B.unit2(s.comp[a])))
        if lhs != rhs:
            r.add(f"2-cell compatibility fails at {al}")
    return r


def check_cell_map(kind: str, data) -> ValidationReport:
    """Validate a 2-functor, 2-natural transformation or oplax transformation
    against the full axiom set of its kind."""
    checkers = {"two_functor": _check_two_functor,
                "two_natural": _check_two_natural,
                "oplax": _check_oplax}
    if kind not in checkers:
        raise TwoCatError(f"check_cell_map: unknown kind {kind!r}")
    return checkers[kind](data)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def terminal() -> TwoCategory:
    return TwoCategory(("*",), {"1": ("*", "*")}, {"11": ("1", "1")},
                       {"*": "1"}, {"1": "11"},
                       {("1", "1"): "1"}, {("11", "11"): "11"},
                       {("11", "11"): "11"}, name="pt")


def discrete(items) -> TwoCategory:
    """Discrete 2-category: only identity 1- and 2-cells."""
    items = tuple(items)
    one = {("i", x): (x, x) for x in items}
    two = {("ii", x): (("i", x), ("i", x)) for x in items}
    return TwoCategory(items, one, two,
                       {x: ("i", x) for x in items},
                       {("i", x): ("ii", x) for x in items},
                       {(("i", x), ("i", x)): ("i", x) for x in items},
                       {(("ii", x), ("ii", x)): ("ii", x) for x in items},
                       {(("ii", x), ("ii", x)): ("ii", x) for x in items},
                       name="discrete")


def opposite(C: TwoCategory) -> TwoCategory:
    """Reverse 1-cells; 2-cells keep their vertical direction."""
    return TwoCategory(C.objects,
                       {f: (t, s) for f, (s, t) in C.one_cells.items()},
                       dict(C.two_cells), dict(C.id1), dict(C.id2),
                       {(g, f): v for (f, g), v in C.hcomp1.items()},
                       dict(C.vcomp2),
                       {(b, a): v for (a, b), v in C.hcomp2.items()},
                       name=f"{C.name}_op")


def product(Cs) -> TwoCategory:
    """Finite product; cells are tuples of factor cells."""
    Cs = list(Cs)
    if not Cs:
        raise TwoCatError("product of an empty list")
    if len(Cs) == 1:
        return Cs[0]
    objects = [tuple(t) for t in iproduct(*(C.objects for C in Cs))]
    one = {tuple(t): (tuple(C.dom1(f) for C, f in zip(Cs, t)),
                      tuple(C.cod1(f) for C, f in zip(Cs, t)))
           for t in iproduct(*(C.one_cells for C in Cs))}
    two = {tuple(t): (tuple(C.dom2(a) for C, a in zip(Cs, t)),
                      tuple(C.cod2(a) for C, a in zip(Cs, t)))
           for t in iproduct(*(C.two_cells for C in Cs))}
    id1 = {o: tuple(C.id1[c] for C, c in zip(Cs, o)) for o in objects}
    id2 = {f: tuple(C.id2[x] for C, x in zip(Cs, f)) for f in one}
    return make_two_category(
        "x".join(C.name for C in Cs), objects, one, two, id1, id2,
        lambda g, f: tuple(C.comp1(x, y) for C, x, y in zip(Cs, g, f)),
        lambda b, a: tuple(C.vcomp(x, y) for C, x, y in zip(Cs, b, a)),
        lambda b, a: tuple(C.hcomp(x, y) for C, x, y in zip(Cs, b, a)))


def coproduct(tagged, name="coprod") -> TwoCategory:
    """Disjoint union of a {tag: TwoCategory} family; cells are (tag, cell)."""
    objects, one, two, id1, id2, h1, v2, h2 = [], {}, {}, {}, {}, {}, {}, {}
    for tag, C in tagged.items():
        objects += [(tag, c) for c in C.objects]
        one.update({(tag, f): ((tag, s), (tag, t)) for f, (s, t) in C.one_cells.items()})
        two.update({(tag, a): ((tag, s), (tag, t)) for a, (s, t) in C.two_cells.items()})
        id1.update({(tag, c): (tag, f) for c, f in C.id1.items()})
        id2.update({(tag, f): (tag, a) for f, a in C.id2.items()})
        h1.update({((tag, g), (tag, f)): (tag, v) for (g, f), v in C.hcomp1.items()})
        v2.update({((tag, b), (tag, a)): (tag, v) for (b, a), v in C.vcomp2.items()})
        h2.update({((tag, b), (tag, a)): (tag, v) for (b, a), v in C.hcomp2.items()})
    return TwoCategory(tuple(objects), one, two, id1, id2, h1, v2, h2, name=name)


def hom_category(C: TwoCategory, a, b) -> TwoCategory:
    """The hom-category C(a, b) promoted to a 2-category with identity 2-cells.

    Objects are the 1-cells a -> b, 1-cells are the 2-cells between them
    (composing by vertical composition), and every 2-cell is an identity,
    reusing the underlying 2-cell identifier.
    """
    objs = C.hom_one_cells(a, b)
    one = {}
    for f in objs:
        for g in objs:
            for x in C.two_cells_between(f, g):
                one[x] = (f, g)
    two = {x: (x, x) for x in one}
    id1 = {f: C.id2[f] for f in objs}
    id2 = {x: x for x in one}
    return make_two_category(
        f"{C.name}({a},{b})", objs, one, two, id1, id2,
        lambda g, f: C.vcomp(g, f),
        lambda b2, a2: b2,  # only identity 2-cells, composable with themselves
        lambda b2, a2: C.vcomp(b2, a2))


# ---------------------------------------------------------------------------
# 2-diagrams
# ---------------------------------------------------------------------------

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"


@dataclass(eq=False)
class TwoDiagram:
    """Strict 2-functor from a 2-category (or its opposite) into 2-categories.

    For a covariant diagram, one[f] is the transport f_*: D_a -> D_b and
    two[al] the 2-natural al_*: f_* => g_*.  Contravariant diagrams assign
    f^*: D_b -> D_a and al^*: f^* => g^* instead.
    """

    base: TwoCategory
    variance: str
    ob: dict    # base object -> TwoCategory
    one: dict   # base 1-cell -> TwoFunctor
    two: dict   # base 2-cell -> TwoNaturalTransformation
    name: str = ""


def validate_diagram(D: TwoDiagram) -> ValidationReport:
    """Strict functoriality of a 2-diagram, including the 2-cell level.  The
    base and the fibres are validated first: transports are composed only
    in valid 2-categories, so the report never stops at a missing composite."""
    r = ValidationReport()
    C = D.base
    cov = D.variance == COVARIANT
    if D.variance not in (COVARIANT, CONTRAVARIANT):
        r.add(f"unknown variance {D.variance}")
        return r
    for where, A in (("base", C), *((f"fibre {c}", D.ob[c]) for c in C.objects)):
        for v in validate(A).violations:
            r.add(f"{where}: {v}")
    if not r.ok:
        return r
    for f, (a, b) in C.one_cells.items():
        F = D.one.get(f)
        if F is None:
            r.add(f"no transport at 1-cell {f}")
            continue
        src, tgt = (a, b) if cov else (b, a)
        if not (same_category(F.source, D.ob[src]) and same_category(F.target, D.ob[tgt])):
            r.add(f"transport at {f} has wrong source or target fibre")
            continue
        r.merge(check_cell_map("two_functor", F))
    if not r.ok:
        return r
    for c in C.objects:
        if not functor_equal(D.one[C.id1[c]], identity_functor(D.ob[c])):
            r.add(f"transport of identity 1-cell at {c} is not the identity")
    for (g, f), gf in C.hcomp1.items():
        comp = (compose_functors(D.one[g], D.one[f]) if cov
                else compose_functors(D.one[f], D.one[g]))
        if not functor_equal(D.one[gf], comp):
            r.add(f"transport not functorial on ({g}, {f})")
    for al, (f, g) in C.two_cells.items():
        s = D.two.get(al)
        if s is None:
            r.add(f"no transport at 2-cell {al}")
            continue
        if not (functor_equal(s.F, D.one[f]) and functor_equal(s.G, D.one[g])):
            r.add(f"transport at 2-cell {al} has wrong boundary functors")
            continue
        r.merge(check_cell_map("two_natural", s))
    if not r.ok:
        return r
    for f in C.one_cells:
        if not natural_equal(D.two[C.id2[f]], identity_natural(D.one[f])):
            r.add(f"transport of identity 2-cell at {f} is not the identity")
    for (b, a), ba in C.vcomp2.items():
        if not natural_equal(D.two[ba], vcompose_naturals(D.two[b], D.two[a])):
            r.add(f"transport not functorial on vertical ({b}, {a})")
    for (b, a), ba in C.hcomp2.items():
        comp = (hcompose_naturals(D.two[b], D.two[a]) if cov
                else hcompose_naturals(D.two[a], D.two[b]))
        if not natural_equal(D.two[ba], comp):
            r.add(f"transport not functorial on horizontal ({b}, {a})")
    return r


def constant_diagram(C: TwoCategory, D: TwoCategory, variance: str = COVARIANT) -> TwoDiagram:
    one = {f: identity_functor(D) for f in C.one_cells}
    return TwoDiagram(C, variance, {c: D for c in C.objects}, one,
                      {a: identity_natural(one[C.two_cells[a][0]]) for a in C.two_cells},
                      name=f"const_{D.name}")


def diagram_over_opposite(D: TwoDiagram) -> TwoDiagram:
    """Reinterpret a contravariant diagram as covariant over the opposite base
    (or vice versa); the assignments are identical because 1-cell identifiers
    are shared between a 2-category and its opposite."""
    flip = CONTRAVARIANT if D.variance == COVARIANT else COVARIANT
    return TwoDiagram(opposite(D.base), flip, dict(D.ob), dict(D.one), dict(D.two),
                      name=f"{D.name}_redux")


@dataclass(eq=False)
class DiagramMorphism:
    """2-transformation between parallel 2-diagrams, given by component
    2-functors that commute strictly with the transports."""

    source: TwoDiagram
    target: TwoDiagram
    comp: dict  # base object -> TwoFunctor D_c -> E_c
    name: str = ""

    def at(self, c) -> TwoFunctor:
        return self.comp[c]


def validate_diagram_morphism(G: DiagramMorphism) -> ValidationReport:
    r = ValidationReport()
    D, E = G.source, G.target
    C = D.base
    cov = D.variance == COVARIANT
    for c in C.objects:
        F = G.comp.get(c)
        if F is None or not (same_category(F.source, D.ob[c])
                             and same_category(F.target, E.ob[c])):
            r.add(f"component at {c} missing or wrongly typed")
            continue
        r.merge(check_cell_map("two_functor", F))
    if not r.ok:
        return r
    for f, (a, b) in C.one_cells.items():
        if cov:
            lhs = compose_functors(G.comp[b], D.one[f])
            rhs = compose_functors(E.one[f], G.comp[a])
        else:
            lhs = compose_functors(G.comp[a], D.one[f])
            rhs = compose_functors(E.one[f], G.comp[b])
        if not functor_equal(lhs, rhs):
            r.add(f"naturality fails at 1-cell {f}")
    for al, (f, g) in C.two_cells.items():
        a, b = C.one_cells[f]
        if cov:
            lhs = whisker_functor_natural(G.comp[b], D.two[al])
            rhs = whisker_natural_functor(E.two[al], G.comp[a])
        else:
            lhs = whisker_functor_natural(G.comp[a], D.two[al])
            rhs = whisker_natural_functor(E.two[al], G.comp[b])
        if not natural_equal(lhs, rhs):
            r.add(f"naturality fails at 2-cell {al}")
    return r
