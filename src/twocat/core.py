"""Finite strict 2-categories with complete composition tables.

Cells are identified by hashable values: plain strings for hand-built
categories, nested tuples for constructed ones (products, Grothendieck
cells, ...).  Equality of cells is equality of identifiers; composites
are always table lookups, never synthesized names.

The three composition tables (hcomp1 for 1-cells, vcomp2 and hcomp2 for
2-cells) are described once, by `composition_tables`: each table's cells,
the (start, end) its cells compose along, its units, and the boundary its
composites must have; `composable` lists the pairs a table must hold.
Filling (`make_two_category`), `validate`, preservation by a 2-functor
(`check_cell_map`), the manifest's totality check and `relabel` read that
description rather than spelling out each table.
"""

from __future__ import annotations

from collections.abc import Callable
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


def composable(ends):
    """Each pair (y, x) with end(x) = start(y), from a dict cell -> (start, end)."""
    by_start = {}
    for y, (s, _) in ends.items():
        by_start.setdefault(s, []).append(y)
    for x, (_, t) in ends.items():
        for y in by_start.get(t, ()):
            yield y, x


@dataclass
class CompositionTable:
    """One composition table: y after x is defined when x ends where y
    starts (`ends`); unit[o] is the unit cell at start or end o; and
    boundary(y, x) is the entry of `cells` the composite must have, reported
    as wrong `word` otherwise."""

    name: str       # the TwoCategory field: "hcomp1", "vcomp2" or "hcomp2"
    label: str      # "1-cell", "vertical" or "horizontal"
    table: dict
    cells: dict     # the cells composed: one_cells or two_cells
    ends: dict
    unit: dict
    boundary: Callable
    word: str


def composition_tables(C: TwoCategory) -> tuple:
    """hcomp1, vcomp2 and hcomp2 of C as CompositionTables.  2-cells compose
    horizontally along the ends of their source 1-cell; a 2-cell whose
    source is not a 1-cell composes with nothing."""
    one, two, h1 = C.one_cells, C.two_cells, C.hcomp1
    hends = {a: one[s] for a, (s, _) in two.items() if s in one}
    return (
        CompositionTable("hcomp1", "1-cell", h1, one, one, C.id1,
                         lambda g, f: (one[f][0], one[g][1]), "endpoints"),
        CompositionTable("vcomp2", "vertical", C.vcomp2, two, two, C.id2,
                         lambda b, a: (two[a][0], two[b][1]), "boundary"),
        CompositionTable("hcomp2", "horizontal", C.hcomp2, two, hends,
                         {c: C.id2.get(f) for c, f in C.id1.items()},
                         lambda b, a: (h1.get((two[b][0], two[a][0])),
                                       h1.get((two[b][1], two[a][1]))), "boundary"))


def make_two_category(name, objects, one_cells, two_cells, id1, id2,
                      comp1_fn, vcomp_fn, hcomp_fn) -> TwoCategory:
    """Materialize composition tables from composition rules.

    The rule functions receive cell identifiers and must return the
    composite identifier; they are invoked once per composable pair.
    """
    C = TwoCategory(tuple(objects), dict(one_cells), dict(two_cells),
                    dict(id1), dict(id2), {}, {}, {}, name=name)
    for t, fn in zip(composition_tables(C), (comp1_fn, vcomp_fn, hcomp_fn)):
        for y, x in composable(t.ends):
            t.table[(y, x)] = fn(y, x)
    return C


def relabel(C: TwoCategory, obj, one, two, name) -> TwoCategory:
    """A copy of C with each object, 1-cell and 2-cell renamed by the
    functions obj, one and two."""
    return TwoCategory(
        tuple(obj(c) for c in C.objects),
        {one(f): (obj(s), obj(t)) for f, (s, t) in C.one_cells.items()},
        {two(a): (one(s), one(t)) for a, (s, t) in C.two_cells.items()},
        {obj(c): one(f) for c, f in C.id1.items()},
        {one(f): two(a) for f, a in C.id2.items()},
        *({(ren(y), ren(x)): ren(v) for (y, x), v in t.table.items()}
          for t, ren in zip(composition_tables(C), (one, two, two))),
        name=name)


def _renamed_copy(C: TwoCategory):
    """A cellwise-renamed copy together with the renaming 2-functor."""
    tag = lambda v: ("r", v)
    ren = relabel(C, tag, tag, tag, f"{C.name}_r")
    iso = TwoFunctor(C, ren, {c: tag(c) for c in C.objects},
                     {f: tag(f) for f in C.one_cells},
                     {a: tag(a) for a in C.two_cells}, name=f"ren_{C.name}")
    return ren, iso


def renaming_morphism(D: TwoDiagram) -> DiagramMorphism:
    """A morphism out of D whose components are cell-level isomorphisms:
    the target is D with every fibre cell renamed."""
    renamed, isos = {}, {}
    for c in D.base.objects:
        renamed[c], isos[c] = _renamed_copy(D.ob[c])

    def conj_functor(f):
        F, (a, b) = D.one[f], D.ends(f)
        ia, ib = isos[a], isos[b]
        return TwoFunctor(renamed[a], renamed[b],
                          {ia.o(x): ib.o(F.o(x)) for x in F.source.objects},
                          {ia.f1(u): ib.f1(F.f1(u)) for u in F.source.one_cells},
                          {ia.f2(t): ib.f2(F.f2(t)) for t in F.source.two_cells},
                          name=f"{F.name}_r")

    one = {f: conj_functor(f) for f in D.base.one_cells}
    two = {}
    for al, (f, g) in D.base.two_cells.items():
        s, t = D.ends(f)
        two[al] = TwoNaturalTransformation(
            one[f], one[g], {isos[s].o(x): isos[t].f1(D.two[al].at(x)) for x in D.ob[s].objects})
    E = TwoDiagram(D.base, D.variance, renamed, one, two, name=f"{D.name}_r")
    return DiagramMorphism(D, E, isos, name=f"ren({D.name})")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(C: TwoCategory) -> ValidationReport:
    """Check every axiom of a strict 2-category on the full tables, once
    every cell's boundary and every identity is well formed."""
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
    if not r.ok:
        return r

    # per table: domain, totality, typing; then, while all is well so far,
    # units and associativity (hcomp2 also identities and interchange)
    pairs = {}
    for t in composition_tables(C):
        T = t.table
        pairs[t.name] = tp = dict.fromkeys(composable(t.ends))
        for key in T:
            if key not in tp:
                r.add(f"{t.name} declared on non-composable pair {key}")
        for y, x in tp:
            yx = T.get((y, x))
            if yx is None:
                r.add(f"{t.name} missing entry ({y}, {x})")
            elif t.cells.get(yx) != t.boundary(y, x):
                r.add(f"{t.name}[({y}, {x})] has wrong {t.word}")
        if not r.ok:
            continue
        if t.name == "hcomp2":
            for g, f in pairs["hcomp1"]:
                if T[(C.id2[g], C.id2[f])] != C.id2[C.hcomp1[(g, f)]]:
                    r.add(f"hcomp2 does not preserve identities at ({g}, {f})")
        unit = t.unit
        for c, (s, e) in t.ends.items():
            if T[(c, unit[s])] != c or T[(unit[e], c)] != c:
                r.add(f"{t.name} unit law fails at {c}")
        after = {}
        for z, y in tp:
            after.setdefault(y, []).append(z)
        for y, x in tp:
            yx = T[(y, x)]
            for z in after.get(y, ()):
                if T[(T[(z, y)], x)] != T[(z, yx)]:
                    r.add(f"{t.name} associativity fails at ({z}, {y}, {x})")
        if t.name == "hcomp2":
            # interchange: (b'.a') o (b.a) = (b' o b).(a' o a) whenever defined
            V, ends = C.vcomp2, t.ends
            for b, a in pairs["vcomp2"]:
                for b2, a2 in pairs["vcomp2"]:
                    if ends[a2][0] != ends[a][1]:
                        continue
                    if T[(V[(b2, a2)], V[(b, a)])] != V[(T[(b2, b)], T[(a2, a)])]:
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


def identity_natural(F: TwoFunctor) -> TwoNaturalTransformation:
    B = F.target
    return TwoNaturalTransformation(F, F, {c: B.id1[F.o(c)] for c in F.source.objects})


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
    for t, m in zip(composition_tables(A), (F.on_one, F.on_two, F.on_two)):
        target = getattr(B, t.name)
        for (y, x), yx in t.table.items():
            if m[yx] != target[(m[y], m[x])]:
                r.add(f"{t.label} composition not preserved at ({y}, {x})")
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

    def ends(self, f) -> tuple:
        """(s, t): the base objects whose fibres the transport along the base
        1-cell f runs between, one[f]: D_s -> D_t."""
        a, b = self.base.one_cells[f]
        return (a, b) if self.variance == COVARIANT else (b, a)


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
    for f in C.one_cells:
        F = D.one.get(f)
        if F is None:
            r.add(f"no transport at 1-cell {f}")
            continue
        src, tgt = D.ends(f)
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
        if not all(functor_equal(x, y) and same_category(x.source, y.source)
                   and same_category(x.target, y.target)
                   for x, y in ((s.F, D.one[f]), (s.G, D.one[g]))):
            r.add(f"transport at 2-cell {al} has wrong boundary functors")
            continue
        r.merge(check_cell_map("two_natural", s))
    if not r.ok:
        return r
    for f in C.one_cells:
        if D.two[C.id2[f]].comp != identity_natural(D.one[f]).comp:
            r.add(f"transport of identity 2-cell at {f} is not the identity")
    for (b, a), ba in C.vcomp2.items():
        t, s = D.two[b], D.two[a]
        B = s.F.target
        if D.two[ba].comp != {c: B.comp1(t.comp[c], s.comp[c]) for c in s.comp}:
            r.add(f"transport not functorial on vertical ({b}, {a})")
    for (b, a), ba in C.hcomp2.items():
        # the horizontal composite t o s at c is t_{G(c)} o T(s_c), for
        # s: F => G and T = t.F
        t, s = (D.two[b], D.two[a]) if cov else (D.two[a], D.two[b])
        T = t.F
        if D.two[ba].comp != {c: T.target.comp1(t.comp[s.G.o(c)], T.f1(s.comp[c]))
                              for c in s.comp}:
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
    """Whether G's source and target are valid diagrams (`validate_diagram`,
    reported as "source: ..." and "target: ...") and, once both are, whether
    G's components are 2-functors that commute strictly with the
    transports."""
    r = ValidationReport()
    D, E = G.source, G.target
    for where, X in (("source", D), ("target", E)):
        for v in validate_diagram(X).violations:
            r.add(f"{where}: {v}")
    if not r.ok:
        return r
    C = D.base
    for c in C.objects:
        F = G.comp.get(c)
        if F is None or not (same_category(F.source, D.ob[c])
                             and same_category(F.target, E.ob[c])):
            r.add(f"component at {c} missing or wrongly typed")
            continue
        r.merge(check_cell_map("two_functor", F))
    if not r.ok:
        return r
    for f in C.one_cells:
        s, t = D.ends(f)
        if not functor_equal(compose_functors(G.comp[t], D.one[f]),
                             compose_functors(E.one[f], G.comp[s])):
            r.add(f"naturality fails at 1-cell {f}")
    for al, (f, _) in C.two_cells.items():
        # H * D(al) against E(al) * K, with H, K the components at the
        # transports' target and source
        K, H = (G.comp[c] for c in D.ends(f))
        s, t = D.two[al], E.two[al]
        if ({c: H.f1(x) for c, x in s.comp.items()}
                != {c: t.comp[K.o(c)] for c in K.source.objects}):
            r.add(f"naturality fails at 2-cell {al}")
    return r
