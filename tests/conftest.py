from types import SimpleNamespace

import pytest

from twocat.cli import bundled_manifest_path
from twocat.core import identity_functor, make_two_category, renaming_morphism
from twocat.hocolim import SimplicialTwoCategory
from twocat.manifest import parse


@pytest.fixture(scope="session")
def cx():
    """The bundled corpus manifest's entities, by name."""
    m = parse(bundled_manifest_path())
    cats, Dcov = m.two_categories, m.diagrams["Dcov"]
    return SimpleNamespace(pt=cats["PT"], wa=cats["WA"], wtc=cats["WTC"],
                           F=m.two_functors["F"], Dcov=Dcov, Drep=m.diagrams["Drep"],
                           collapse=m.diagram_morphisms["collapse"],
                           renaming=renaming_morphism(Dcov))


def cyclic_group(n):
    """B(Z/n): one object, the elements of Z/n as 1-cells composing by
    addition, and only identity 2-cells."""
    return make_two_category(
        f"BZ{n}", ["*"], {f"g{i}": ("*", "*") for i in range(n)},
        {f"e{i}": (f"g{i}", f"g{i}") for i in range(n)}, {"*": "g0"},
        {f"g{i}": f"e{i}" for i in range(n)},
        lambda g, f: f"g{(int(g[1:]) + int(f[1:])) % n}",
        lambda b, a: b,
        lambda b, a: f"e{(int(b[1:]) + int(a[1:])) % n}")


def loop_group(n):
    """Omega(Z/n): one object, one 1-cell, 2-cells x0..x(n-1) adding mod n."""
    add = lambda b, a: f"x{(int(b[1:]) + int(a[1:])) % n}"
    return make_two_category(f"OZ{n}", ["*"], {"1": ("*", "*")},
                             {f"x{i}": ("1", "1") for i in range(n)},
                             {"*": "1"}, {"1": "x0"}, lambda g, f: "1", add, add)


def circle():
    """S1: two objects, two parallel 1-cells f, g: a -> b, and only
    identity 2-cells."""
    ones = {"1a": ("a", "a"), "1b": ("b", "b"), "f": ("a", "b"), "g": ("a", "b")}
    unit = lambda g, f: f if g in ("1a", "1b") else g  # one of the two is an identity
    return make_two_category("S1", ["a", "b"], ones, {f"e{f}": (f, f) for f in ones},
                             {"a": "1a", "b": "1b"}, {f: f"e{f}" for f in ones}, unit,
                             lambda b, a: b, lambda b, a: "e" + unit(b[1:], a[1:]))


def constant_simplicial(C, n_max):
    """The constant simplicial 2-category at C."""
    one = identity_functor(C)
    return SimplicialTwoCategory(
        n_max, [C] * (n_max + 1),
        {(p, i): one for p in range(1, n_max + 1) for i in range(p + 1)},
        {(p, i): one for p in range(n_max) for i in range(p + 1)}, name="const")
