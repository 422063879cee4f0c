"""The first violation `validate` and `check_cell_map` report for one
corrupted entry, one case per kind of violation.

The hom-categories of WTC are posets, so a vertical or horizontal composite
with the right boundary is forced there: the 2-cell laws (identity
preservation, associativity, interchange) can only fail on a 2-category with
parallel 2-cells.  Those cases corrupt Omega(Z/n), one object and one 1-cell
whose 2-cells form Z/n under both compositions; 1-cell associativity is
corrupted in B(Z/3).
"""

import pytest

from conftest import cyclic_group
from twocat.builders import walking_two_cell
from twocat.core import (TwoCategory, TwoFunctor, check_cell_map,
                         make_two_category, validate)


def loop_group(n):
    """Omega(Z/n): one object, one 1-cell, 2-cells x0..x(n-1) adding mod n."""
    add = lambda b, a: f"x{(int(b[1:]) + int(a[1:])) % n}"
    return make_two_category(f"OZ{n}", ["*"], {"1": ("*", "*")},
                             {f"x{i}": ("1", "1") for i in range(n)},
                             {"*": "1"}, {"1": "x0"}, lambda g, f: "1", add, add)


def corrupt(C: TwoCategory, table, key, value=None) -> TwoCategory:
    """C with table[key] set to value, or deleted when value is None."""
    entries = getattr(C, table)
    if value is None:
        del entries[key]
    else:
        entries[key] = value
    return C


CATEGORY_CASES = [
    pytest.param(lambda: corrupt(walking_two_cell(), "vcomp2", ("phi", "ef")),
                 "vcomp2 missing entry (phi, ef)", id="missing-entry"),
    pytest.param(lambda: corrupt(walking_two_cell(), "hcomp1", ("f", "1a"), "1a"),
                 "hcomp1[(f, 1a)] has wrong endpoints", id="wrong-endpoints"),
    pytest.param(lambda: corrupt(cyclic_group(3), "hcomp1", ("g1", "g2"), "g1"),
                 "hcomp1 associativity fails at (g1, g1, g1)", id="hcomp1-associativity"),
    pytest.param(lambda: corrupt(loop_group(3), "vcomp2", ("x1", "x2"), "x1"),
                 "vcomp2 associativity fails at (x1, x1, x1)", id="vcomp2-associativity"),
    pytest.param(lambda: corrupt(loop_group(3), "hcomp2", ("x1", "x2"), "x1"),
                 "hcomp2 associativity fails at (x1, x1, x1)", id="hcomp2-associativity"),
    pytest.param(lambda: corrupt(loop_group(2), "hcomp2", ("x1", "x1"), "x1"),
                 "interchange fails at ((x0,x1), (x1,x0))", id="interchange"),
    pytest.param(lambda: corrupt(loop_group(2), "hcomp2", ("x0", "x0"), "x1"),
                 "hcomp2 does not preserve identities at (1, 1)", id="identity-preservation"),
    pytest.param(lambda: corrupt(walking_two_cell(), "one_cells", "f", ("a", "z")),
                 "1-cell f: endpoint not an object", id="endpoint-not-object"),
    pytest.param(lambda: corrupt(walking_two_cell(), "two_cells", "psi", ("f", "zz")),
                 "2-cell psi: boundary not a 1-cell", id="boundary-not-one-cell"),
    pytest.param(lambda: corrupt(walking_two_cell(), "two_cells", "psi", ("f", "1a")),
                 "2-cell psi: boundary 1-cells f, 1a not parallel", id="not-parallel"),
    pytest.param(lambda: corrupt(walking_two_cell(), "id1", "a", "f"),
                 "id1[a] is not an endo-1-cell of a", id="id1-not-endo"),
    pytest.param(lambda: corrupt(walking_two_cell(), "id2", "f", "phi"),
                 "id2[f] is not an identity 2-cell on f", id="id2-not-identity"),
]


@pytest.mark.parametrize("build, first", CATEGORY_CASES)
def test_validate_first_violation(build, first):
    assert validate(build()).violations[0] == first


def relabelled_identity(table, key, value) -> TwoFunctor:
    """The identity on the cells of WTC, into a copy of WTC with one entry
    of one composition table changed."""
    C, target = walking_two_cell(), corrupt(walking_two_cell(), table, key, value)
    return TwoFunctor(C, target, {c: c for c in C.objects},
                      {f: f for f in C.one_cells}, {a: a for a in C.two_cells})


@pytest.mark.parametrize("table, key, value, first", [
    pytest.param("vcomp2", ("phi", "ef"), "eg",
                 "vertical composition not preserved at (phi, ef)", id="vertical"),
    pytest.param("hcomp2", ("phi", "e1a"), "ef",
                 "horizontal composition not preserved at (phi, e1a)", id="horizontal"),
])
def test_two_functor_first_violation(table, key, value, first):
    F = relabelled_identity(table, key, value)
    assert check_cell_map("two_functor", F).violations[0] == first
