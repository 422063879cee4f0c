import pytest

from twocat.core import make_two_category
from twocat.corpus import corpus


@pytest.fixture(scope="session")
def cx():
    return corpus()


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
