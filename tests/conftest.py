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


def constant_simplicial(C, n_max):
    """The constant simplicial 2-category at C."""
    one = identity_functor(C)
    return SimplicialTwoCategory(
        n_max, [C] * (n_max + 1),
        {(p, i): one for p in range(1, n_max + 1) for i in range(p + 1)},
        {(p, i): one for p in range(n_max) for i in range(p + 1)}, name="const")
