"""Checker sensitivity: one faulty library answer at a time.

Each row swaps one name in `twocat.verify` for a faulty stand-in, runs the
suites that call that name on the bundled manifest, and asserts that some
check fails and that every failing check is of a kind that calls the name.
A row the bundled corpus cannot catch is an expected failure with its
reason; an input that catches it turns the row into an unexpected pass.
"""

import pytest

from twocat import verify
from twocat.cli import bundled_manifest_path
from twocat.core import ValidationReport
from twocat.homology import HomologyResult, chain_map, homology
from twocat.manifest import parse
from twocat.simplicial import SimplicialMap

MANIFEST = parse(bundled_manifest_path())
HOMOLOGY_KINDS = {"aw_homology", "aw_homology_groth", "projection_homology",
                  "hocolim_invariance"}


def constant(f: SimplicialMap) -> SimplicialMap:
    """f's source sent onto the degeneracies of the target's first vertex."""
    Y, k, maps = f.target, 0, {}
    for n in range(f.source.n_max + 1):
        if n:
            k = Y.degens[(n - 1, 0)][k]
        maps[n] = [k] * len(f.source.level(n))
    return SimplicialMap(f.source, Y, maps, name=f.name)


def rotated(f: SimplicialMap) -> SimplicialMap:
    """f with the positions of its top level rotated by one."""
    top = f.source.n_max
    maps = dict(f.maps)
    maps[top] = maps[top][1:] + maps[top][:1]
    return SimplicialMap(f.source, f.target, maps, name=f.name)


def groups_only(f, k):
    """Whether H_i of source and target agree for i <= k, with no map."""
    src, tgt, _ = chain_map(f)
    return all(homology(src, i) == homology(tgt, i) for i in range(k + 1))


def gap(*row, reason, id=None):
    return pytest.param(*row, id=id or row[0],
                        marks=pytest.mark.xfail(strict=True, reason=reason))


FAULTS = [
    pytest.param("hocolim_wbar_comparison",
                 lambda real: lambda D, n: constant(real(D, n)), ("iso112",), {"iso112"},
                 id="hocolim_wbar_comparison"),
    pytest.param("grothendieck_wbar_comparison",
                 lambda real: lambda D, n: rotated(real(D, n)), ("iso114",), {"iso114"},
                 id="grothendieck_wbar_comparison"),
    gap("aw_map", lambda real: lambda B: constant(real(B)), ("invariance",),
        {"aw_homology", "aw_homology_groth"},
        reason="every bundled 2-category and assembly has the homology of a point, "
               "so a constant map is a homology isomorphism"),
    gap("diag_nn_map", lambda real: lambda F, n: constant(real(F, n)), ("invariance",),
        {"projection_homology"},
        reason="every bundled 2-category has the homology of a point, so a constant "
               "map is a homology isomorphism"),
    gap("is_homology_iso_upto", lambda real: lambda f, k: real(f, min(k, 0)),
        ("invariance",), HOMOLOGY_KINDS, id="is_homology_iso_upto-H0-only",
        reason="every compared map is a homology isomorphism, so comparing H_0 only "
               "gives the same answers"),
    gap("is_homology_iso_upto", lambda real: groups_only, ("invariance",), HOMOLOGY_KINDS,
        id="is_homology_iso_upto-no-cone", reason="every compared map is a homology isomorphism, so comparing the "
               "groups without the map gives the same answers"),
    gap("homology", lambda real: lambda cc, i: HomologyResult(i, int(i == 0), ()),
        ("contractibility",), {"contractible"},
        reason="every slice checked is contractible, so the homology of a point "
               "is the right answer"),
    gap("verify_iso", lambda real: lambda f: True, ("identities", "iso112", "iso114"),
        {"wbar_repackage", "iso112", "iso114"},
        reason="every comparison built from the corpus is an isomorphism"),
    gap("check_simplicial_identities", lambda real: lambda X: ValidationReport(),
        ("identities",),
        {"nerve_identities", "double_nerve_identities", "wbar_identities",
         "resolution_identities"},
        reason="every simplicial set built from the corpus satisfies the identities"),
]


@pytest.mark.parametrize("name,stand_in,suites,kinds", FAULTS)
def test_fault_is_caught(monkeypatch, name, stand_in, suites, kinds):
    monkeypatch.setattr(verify, name, stand_in(getattr(verify, name)))
    failed = [c for suite in suites for c in verify.run_suite(MANIFEST, suite)["checks"]
              if c["status"] != "pass"]
    assert failed, f"no check noticed the faulty {name}"
    assert {c["name"].split("[")[0] for c in failed} <= kinds, failed
    assert all(c["status"] == "fail" for c in failed), failed
