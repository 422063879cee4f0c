"""Seeded inputs for the two ladders.

Every generated 2-category is a product of a random relabelling of each
factor, with the factors in a random order.  Relabelling renames every
object, 1-cell and 2-cell to a fresh random identifier.  That changes the
`repr` sort order of every level, and so the basis order and the pivot path
of Smith normal form, but not any level size or homology group.

`api` is the namespace returned by `run.load_twocat`; the generator only
calls the public `twocat` API through it.
"""

from __future__ import annotations

# (k, N): WTC^k at truncation N.  WTC^3 at N = 4 (17,576 top diagonal
# simplices) is left out: it alone would exceed the run length.
NERVE_RUNGS = ((2, 3), (2, 4), (3, 3))

# (n, j, N): B(Z/n) x WTC^j at truncation N.  Sized so that dense Smith
# normal form on non-unit invariant factors is most of a pass, and a pass
# fits the run length.  B(Z/2) x WTC^2 at N = 3 (a 304 x 1258 boundary,
# about 17 s) is left out for that reason.
HOMOLOGY_RUNGS = ((4, 0, 4), (6, 0, 4), (3, 1, 4))


def cyclic_group_category(api, n: int):
    """B(Z/n): one object, the n group elements as 1-cells composing by
    addition mod n, and only identity 2-cells."""
    one = {f"g{i}": ("*", "*") for i in range(n)}
    two = {f"e{i}": (f"g{i}", f"g{i}") for i in range(n)}
    return api.core.make_two_category(
        f"BZ{n}", ["*"], one, two, {"*": "g0"},
        {f"g{i}": f"e{i}" for i in range(n)},
        lambda g, f: f"g{(int(g[1:]) + int(f[1:])) % n}",
        lambda b, a: b,
        lambda b, a: f"e{(int(b[1:]) + int(a[1:])) % n}")


def relabel(api, C, rng):
    """A copy of C with every cell identifier replaced by a fresh random one."""
    def fresh(cells, prefix):
        tokens = rng.sample(range(10 ** 6), len(cells))
        return {c: f"{prefix}{t:06d}" for c, t in zip(cells, tokens)}

    ob = fresh(C.objects, "o")
    f1 = fresh(list(C.one_cells), "f")
    f2 = fresh(list(C.two_cells), "a")
    objects = [ob[c] for c in C.objects]
    rng.shuffle(objects)
    return api.core.TwoCategory(
        tuple(objects),
        {f1[f]: (ob[s], ob[t]) for f, (s, t) in C.one_cells.items()},
        {f2[a]: (f1[s], f1[t]) for a, (s, t) in C.two_cells.items()},
        {ob[c]: f1[f] for c, f in C.id1.items()},
        {f1[f]: f2[a] for f, a in C.id2.items()},
        {(f1[g], f1[f]): f1[v] for (g, f), v in C.hcomp1.items()},
        {(f2[b], f2[a]): f2[v] for (b, a), v in C.vcomp2.items()},
        {(f2[b], f2[a]): f2[v] for (b, a), v in C.hcomp2.items()},
        name=C.name)


def seeded_product(api, factors, rng):
    """Relabel each factor, shuffle the factor order, take the product and
    check that it is a valid 2-category."""
    factors = [relabel(api, C, rng) for C in factors]
    rng.shuffle(factors)
    return validated(api, api.core.product(factors))


def validated(api, C):
    """C, once `validate` finds no violation."""
    report = api.core.validate(C)
    if not report.ok:
        raise ValueError(f"{C.name} is invalid: {report.violations[:3]}")
    return C


def nerve_ladder(api, rng, rungs=NERVE_RUNGS):
    """[(k, N, WTC^k)] for each rung."""
    wtc = api.builders.walking_two_cell
    return [(k, N, seeded_product(api, [wtc() for _ in range(k)], rng))
            for k, N in rungs]


def homology_ladder(api, rng, rungs=HOMOLOGY_RUNGS):
    """[(n, j, N, B(Z/n) x WTC^j)] for each rung."""
    wtc = api.builders.walking_two_cell
    return [(n, j, N, seeded_product(
                api, [cyclic_group_category(api, n)] + [wtc() for _ in range(j)], rng))
            for n, j, N in rungs]
