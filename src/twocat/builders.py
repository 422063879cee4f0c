"""Small hand-built 2-categories and 2-functors: fixtures, and the seeds of
the bundled corpus that `scripts/make_corpus.py` writes."""

from __future__ import annotations

from .core import TwoCategory, TwoFunctor, make_two_category, terminal


def walking_arrow() -> TwoCategory:
    """The arrow category 0 -> 1 viewed as a 2-category (identity 2-cells)."""
    objects = ("0", "1")
    one = {"i0": ("0", "0"), "i1": ("1", "1"), "a": ("0", "1")}
    two = {f"I{f}": (f, f) for f in one}
    id1 = {"0": "i0", "1": "i1"}
    id2 = {f: f"I{f}" for f in one}

    def comp1(g, f):
        return g if f in ("i0", "i1") else (f if g in ("i0", "i1") else None)

    C = make_two_category("WA", objects, one, two, id1, id2,
                          comp1,
                          lambda b, a: b,
                          lambda b, a: id2[comp1(b[1:], a[1:])])
    return C


def walking_two_cell() -> TwoCategory:
    """Objects a, b; parallel 1-cells f, g: a -> b; one non-identity 2-cell
    phi: f => g.  Every composite is forced by identities."""
    objects = ("a", "b")
    one = {"1a": ("a", "a"), "1b": ("b", "b"), "f": ("a", "b"), "g": ("a", "b")}
    two = {"e1a": ("1a", "1a"), "e1b": ("1b", "1b"),
           "ef": ("f", "f"), "eg": ("g", "g"), "phi": ("f", "g")}
    id1 = {"a": "1a", "b": "1b"}
    id2 = {"1a": "e1a", "1b": "e1b", "f": "ef", "g": "eg"}

    def comp1(g_, f_):
        if f_ in ("1a", "1b"):
            return g_
        if g_ in ("1a", "1b"):
            return f_
        return None  # no composable non-identity pairs exist

    def vcomp(b_, a_):
        if a_ in ("e1a", "e1b", "ef", "eg"):
            return b_
        if b_ in ("e1a", "e1b", "ef", "eg"):
            return a_
        return None  # phi . phi is not vertically composable

    def hcomp(b_, a_):
        # one side is over an identity 1-cell, hence an identity 2-cell
        if a_ in ("e1a", "e1b"):
            return b_
        if b_ in ("e1a", "e1b"):
            return a_
        return None

    return make_two_category("WTC", objects, one, two, id1, id2,
                             comp1, vcomp, hcomp)


def pt() -> TwoCategory:
    return terminal()


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
