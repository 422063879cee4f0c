"""The bundled verification corpus.

Fixtures: the terminal 2-category, the walking arrow WA, the walking 2-cell
WTC, a 2-functor F: WA -> WTC, a covariant diagram over WA with fibres WTC
and WA, the contravariant representable diagram on WTC at b, a collapse
morphism onto the constant terminal diagram, and a relabelling morphism
whose components are cell-level isomorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .builders import pt, walking_arrow, walking_two_cell
from .core import (COVARIANT, TwoCategory, TwoDiagram, TwoFunctor,
                   TwoNaturalTransformation, DiagramMorphism,
                   constant_diagram, identity_functor, relabel)
from .comma import representable_diagram


def functor_wa_to_wtc() -> TwoFunctor:
    """F: WA -> WTC with 0 -> a, 1 -> b and the arrow landing on f."""
    wa, wtc = walking_arrow(), walking_two_cell()
    on_obj = {"0": "a", "1": "b"}
    on_one = {"i0": "1a", "i1": "1b", "a": "f"}
    on_two = {"Ii0": "e1a", "Ii1": "e1b", "Ia": "ef"}
    return TwoFunctor(wa, wtc, on_obj, on_one, on_two, name="F")


def wtc_to_wa_collapse() -> TwoFunctor:
    """Collapse WTC onto WA: both parallel 1-cells land on the arrow and the
    2-cell becomes an identity."""
    wtc, wa = walking_two_cell(), walking_arrow()
    on_obj = {"a": "0", "b": "1"}
    on_one = {"1a": "i0", "1b": "i1", "f": "a", "g": "a"}
    on_two = {"e1a": "Ii0", "e1b": "Ii1", "ef": "Ia", "eg": "Ia", "phi": "Ia"}
    return TwoFunctor(wtc, wa, on_obj, on_one, on_two, name="collapse")


def covariant_corpus_diagram() -> TwoDiagram:
    """Covariant diagram over WA: fibre WTC at 0, fibre WA at 1, and the
    arrow transporting by the collapse 2-functor."""
    wa = walking_arrow()
    wtc = walking_two_cell()
    wa_fibre = walking_arrow()
    wa_fibre.name = "WAf"
    push = wtc_to_wa_collapse()
    push = TwoFunctor(wtc, wa_fibre, push.on_obj, push.on_one, push.on_two,
                      name="push")
    ob = {"0": wtc, "1": wa_fibre}
    one = {"i0": identity_functor(wtc), "i1": identity_functor(wa_fibre), "a": push}
    two = {}
    for al, (f, _) in wa.two_cells.items():
        F = one[f]
        two[al] = TwoNaturalTransformation(
            F, F, {x: F.target.id1[F.o(x)] for x in F.source.objects})
    return TwoDiagram(wa, COVARIANT, ob, one, two, name="Dcov")


def contravariant_corpus_diagram() -> TwoDiagram:
    """The representable diagram of WTC at b: fibres are the hom categories
    into b, transports are pre-composition."""
    D = representable_diagram(walking_two_cell(), "b", side="over")
    D.name = "Drep"
    return D


def collapse_morphism(D: TwoDiagram) -> DiagramMorphism:
    """The morphism from D onto the constant terminal diagram."""
    P = pt()
    E = constant_diagram(D.base, P, D.variance)
    comp = {c: TwoFunctor(D.ob[c], P,
                          {x: "*" for x in D.ob[c].objects},
                          {f: "1" for f in D.ob[c].one_cells},
                          {a: "11" for a in D.ob[c].two_cells},
                          name=f"!{c}")
            for c in D.base.objects}
    return DiagramMorphism(D, E, comp, name="collapse")


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

    def conj_functor(F: TwoFunctor, a, b):
        ia, ib = isos[a], isos[b]
        return TwoFunctor(renamed[a], renamed[b],
                          {ia.o(x): ib.o(F.o(x)) for x in F.source.objects},
                          {ia.f1(u): ib.f1(F.f1(u)) for u in F.source.one_cells},
                          {ia.f2(t): ib.f2(F.f2(t)) for t in F.source.two_cells},
                          name=f"{F.name}_r")

    cov = D.variance == COVARIANT
    one, two = {}, {}
    for f, (a, b) in D.base.one_cells.items():
        s, t = (a, b) if cov else (b, a)
        one[f] = conj_functor(D.one[f], s, t)
    for al, (f, _) in D.base.two_cells.items():
        a, b = D.base.one_cells[f]
        s, t = (a, b) if cov else (b, a)
        it = isos[t]
        two[al] = TwoNaturalTransformation(
            one[f], one[D.base.cod2(al)],
            {isos[s].o(x): it.f1(D.two[al].at(x)) for x in D.ob[s].objects})
    E = TwoDiagram(D.base, D.variance, renamed, one, two, name=f"{D.name}_r")
    return DiagramMorphism(D, E, isos, name=f"ren({D.name})")


@dataclass(eq=False)
class Corpus:
    pt: TwoCategory
    wa: TwoCategory
    wtc: TwoCategory
    F: TwoFunctor
    Dcov: TwoDiagram
    Drep: TwoDiagram
    collapse: DiagramMorphism
    renaming: DiagramMorphism


def corpus() -> Corpus:
    Dcov = covariant_corpus_diagram()
    return Corpus(pt(), walking_arrow(), walking_two_cell(),
                  functor_wa_to_wtc(), Dcov, contravariant_corpus_diagram(),
                  collapse_morphism(Dcov), renaming_morphism(Dcov))
