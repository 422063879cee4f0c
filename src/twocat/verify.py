"""Bundled verification suites over a resolved manifest.

Each check produces (name, status, detail) with status "pass", "fail" or
"error" (the check raised); a suite passes iff every check passes.
Reports are deterministic: entities are visited in sorted name order and
all details are plain strings.  A check that builds a construction
first validates its inputs; if they are invalid it fails with a
`precondition:` detail and builds nothing.  The checks of one entity in a
suite share the validation of its inputs.
"""

from __future__ import annotations

from functools import cache

from .core import (CONTRAVARIANT, COVARIANT, check_cell_map, compose_functors,
                   constant_diagram, functor_equal, functor_is_bijective,
                   identity_functor, same_category, validate, validate_diagram,
                   validate_diagram_morphism)
from .comma import (OVER, UNDER, comma, projections, retraction_R,
                    section_jz_iz)
from .corpus import renaming_morphism
from .grothendieck import grothendieck
from .hocolim import (build_E, build_E_pull, check_simplicial_two_category,
                      grothendieck_wbar_comparison, hocolim, hocolim_map,
                      hocolim_level_product_iso, hocolim_wbar_comparison,
                      reversal_bridge_report)
from .homology import homology, is_homology_iso_upto, normalized_chain_complex
from .manifest import Manifest
from .nerves import (diag_nn, diag_nn_map, double_nerve, is_category,
                     map_dn_simplex, nerve_category, repackage_staircase,
                     tri_diag_nn, wbar_double_nerve)
from .simplicial import (aw_map, check_simplicial_identities,
                         check_simplicial_map, simplicial_map, verify_iso)

SUITES = ("identities", "iso112", "iso114", "retractions", "oplax",
          "contractibility", "invariance", "all")


class Runner:
    def __init__(self):
        self.checks = []

    def run(self, name, fn):
        """Record fn's (ok, detail) as a pass or a fail; an exception out of
        fn is a crash of the library, not a false claim, and is recorded as
        an error with the exception as its detail."""
        try:
            ok, detail = fn()
            status = "pass" if ok else "fail"
        except Exception as exc:  # noqa: BLE001 - any crash marks the check
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        self.checks.append({"name": name, "status": status, "detail": detail})

    def report_ok(self, rep, what):
        return rep.ok, ("ok" if rep.ok else f"{what}: " + "; ".join(map(str, rep.violations[:3])))


def _sorted(d):
    return sorted(d.items(), key=lambda kv: kv[0])


def suite_identities(m: Manifest, trunc: int, r: Runner):
    reports = {name: _diagram_reports(D) for name, D in m.diagrams.items()}
    for name, C in _sorted(m.two_categories):
        r.run(f"validate[{name}]", lambda C=C: r.report_ok(validate(C), "axiom"))
    for name, F in _sorted(m.two_functors):
        r.run(f"two_functor[{name}]",
              lambda F=F: r.report_ok(check_cell_map("two_functor", F), "axiom"))
    for name, s in _sorted(m.transformations):
        r.run(f"two_natural[{name}]",
              lambda s=s: r.report_ok(check_cell_map("two_natural", s), "axiom"))
    for name, D in _sorted(m.diagrams):
        r.run(f"diagram[{name}]", lambda diagram=reports[name][0]:
              r.report_ok(diagram(), "TwoDiagram invariant"))
    for name, g in _sorted(m.diagram_morphisms):
        r.run(f"diagram_morphism[{name}]",
              lambda g=g: r.report_ok(validate_diagram_morphism(g), "naturality"))
    for name, C in _sorted(m.two_categories):
        gate = _gate(_category_gates, C)
        if is_category(C):
            r.run(f"nerve_identities[{name}]", _gated(gate, lambda C=C: r.report_ok(
                check_simplicial_identities(nerve_category(C, trunc)), "identity")))
        r.run(f"double_nerve_identities[{name}]", _gated(gate, lambda C=C: r.report_ok(
            check_simplicial_identities(double_nerve(C, trunc)), "identity")))
        r.run(f"wbar_identities[{name}]", _gated(gate, lambda C=C: r.report_ok(
            check_simplicial_identities(wbar_double_nerve(C, trunc)), "identity")))
        r.run(f"wbar_repackage[{name}]", _gated(gate, lambda C=C: (
            (lambda f: (check_simplicial_map(f).ok and verify_iso(f), "bijection"))(
                repackage_staircase(C, max(trunc, 4))))))
    for name, D in _sorted(m.diagrams):
        diagram, assembly = reports[name]
        gate = _gate(_diagram_gates, diagram, assembly)
        r.run(f"grothendieck_valid[{name}]", _gated(_gate(_valid_diagram, diagram),
              lambda assembly=assembly: r.report_ok(assembly(), "axiom")))
        r.run(f"hocolim_checks[{name}]", _gated(gate, lambda D=D: r.report_ok(
            check_simplicial_two_category(hocolim(D, trunc)), "identity")))
        r.run(f"resolution_identities[{name}]", _gated(gate, lambda D=D: r.report_ok(
            check_simplicial_identities(
                build_E(D, trunc) if D.variance == COVARIANT
                else build_E_pull(D, trunc)), "identity")))
        if D.variance == CONTRAVARIANT:
            r.run(f"reversal_bridge[{name}]", _gated(gate, lambda D=D: r.report_ok(
                reversal_bridge_report(D, trunc), "reversal")))
    _constant_level_checks(m, trunc, r)


def _constant_level_checks(m: Manifest, trunc: int, r: Runner):
    """Representative product-structure check: the constant diagram at the
    richest named fibre over the first 1-category base with two objects."""
    bases = [C for _, C in _sorted(m.two_categories)
             if is_category(C) and len(C.objects) >= 2]
    values = sorted(m.two_categories.items(),
                    key=lambda kv: (-kv[1].counts()[2], kv[0]))
    if not bases or not values:
        return
    base, value = bases[0], values[0][1]

    def gates():
        yield "base", validate(base)
        yield "value", validate(value)

    def check():
        D = constant_diagram(base, value)
        S = hocolim(D, trunc)
        for p in range(trunc + 1):
            iso = hocolim_level_product_iso(S, D, p)
            if not (check_cell_map("two_functor", iso).ok
                    and functor_is_bijective(iso)):
                return False, f"level {p} not isomorphic to the product"
        return True, "ok"

    r.run(f"constant_levels[{value.name} over {base.name}]",
          _gated(_gate(gates), check))


def suite_iso112(m: Manifest, trunc: int, r: Runner):
    for name, D in _sorted(m.diagrams):
        reports = _diagram_reports(D)
        r.run(f"validate_diagram[{name}]", lambda diagram=reports[0]:
              r.report_ok(diagram(), "TwoDiagram invariant"))
        r.run(f"iso112[{name}]", _gated(_gate(_diagram_gates, *reports), lambda D=D: (
            (lambda f: (check_simplicial_map(f).ok and verify_iso(f),
                        f"levels {f.source.sizes()}"))(
                hocolim_wbar_comparison(D, trunc)))))


def suite_iso114(m: Manifest, trunc: int, r: Runner):
    for name, D in _sorted(m.diagrams):
        reports = _diagram_reports(D)
        r.run(f"validate_diagram[{name}]", lambda diagram=reports[0]:
              r.report_ok(diagram(), "TwoDiagram invariant"))
        r.run(f"iso114[{name}]", _gated(_gate(_diagram_gates, *reports), lambda D=D: (
            (lambda f: (check_simplicial_map(f).ok and verify_iso(f),
                        f"levels {f.source.sizes()}"))(
                grothendieck_wbar_comparison(D, trunc)))))


def suite_retractions(m: Manifest, trunc: int, r: Runner, with_oplax=False):
    functor_gate = {name: _gate(_functor_gates, F) for name, F in m.two_functors.items()}
    diagram_gate = {name: _gate(_diagram_gates, *_diagram_reports(D))
                    for name, D in m.diagrams.items()}
    for name, F in _sorted(m.two_functors):
        for side in (OVER, UNDER):
            def check(F=F, side=side):
                fib, G, Pi, iota, wit = projections(F, side)
                ok = functor_equal(compose_functors(Pi, iota),
                                   identity_functor(F.source))
                if with_oplax:
                    rep = check_cell_map("oplax", wit)
                    return ok and rep.ok, "Pi iota = 1 and witness axioms" if ok and rep.ok \
                        else "; ".join(map(str, rep.violations[:3])) or "Pi iota != 1"
                return ok, "Pi iota = 1" if ok else "Pi iota != 1"
            r.run(f"projection[{name},{side}]", _gated(functor_gate[name], check))
    for name, g in _sorted(m.diagram_morphisms):
        side = OVER if g.source.variance == COVARIANT else UNDER
        gate = _gate(_morphism_gates, g)
        for c in sorted(g.source.base.objects, key=repr):
            for y in sorted(g.target.ob[c].objects, key=repr):
                def check(g=g, c=c, y=y, side=side):
                    K, L, R, sec, wit = retraction_R(g, c, y, side)
                    ok = functor_equal(compose_functors(R, sec), identity_functor(L))
                    if with_oplax:
                        rep = check_cell_map("oplax", wit)
                        return ok and rep.ok, ("R section = 1 and witness axioms"
                                               if ok and rep.ok else "violation")
                    return ok, "R section = 1" if ok else "R section != 1"
                r.run(f"retraction[{name},{c},{y},{side}]", _gated(gate, check))
    for fname, F in _sorted(m.two_functors):
        for dname, D in _sorted(m.diagrams):
            if not same_category(D.base, F.target):
                continue
            side = OVER if D.variance == CONTRAVARIANT else UNDER
            for c in sorted(D.base.objects, key=repr):
                for z in sorted(D.ob[c].objects, key=repr):
                    def check(F=F, D=D, c=c, z=z, side=side):
                        K0, K1, jz, pibar, iz, wit = section_jz_iz(F, D, c, z, side)
                        ok = functor_equal(compose_functors(pibar, iz),
                                           identity_functor(K0))
                        if with_oplax:
                            rep = check_cell_map("oplax", wit)
                            jrep = check_cell_map("two_functor", jz)
                            return ok and rep.ok and jrep.ok, \
                                ("pibar i_z = 1 and witness axioms"
                                 if ok and rep.ok and jrep.ok else "violation")
                        return ok, "pibar i_z = 1" if ok else "pibar i_z != 1"
                    r.run(f"section[{fname},{dname},{c},{z}]", _gated(
                        lambda f=functor_gate[fname], d=diagram_gate[dname]: f() or d(),
                        check))


def suite_oplax(m: Manifest, trunc: int, r: Runner):
    suite_retractions(m, trunc, r, with_oplax=True)


def suite_contractibility(m: Manifest, trunc: int, r: Runner):
    for name, C in _sorted(m.two_categories):
        I = identity_functor(C)
        gate = _gate(_category_gates, C)
        for c in sorted(C.objects, key=repr):
            for side in (OVER, UNDER):
                def check(C=C, I=I, c=c, side=side):
                    X = diag_nn(comma(I, c, side), trunc)
                    cc = normalized_chain_complex(X)
                    hs = [homology(cc, i) for i in range(min(3, trunc))]
                    good = (hs[0].betti == 1 and not hs[0].torsion
                            and all(h.betti == 0 and not h.torsion for h in hs[1:]))
                    return good, " ".join(str(h) for h in hs)
                r.run(f"contractible[{name},{c},{side}]", _gated(gate, check))


def _precondition(gates):
    """The detail of the first gate whose report has a violation, else None.
    `gates` yields (what, report) pairs, so a gate runs only once the gates
    before it have passed."""
    for what, rep in gates:
        if not rep.ok:
            return f"precondition: {what}: " + "; ".join(map(str, rep.violations[:3]))
    return None


def _gate(gates, *args):
    """The `_precondition` detail of `gates(*args)`, worked out on the first
    call and then shared by every check gated on it.  An exception is not
    kept, so each check that meets it reports it."""
    return cache(lambda: _precondition(gates(*args)))


def _gated(gate, check):
    """A check that runs `check` only if `gate()` finds that every gate has
    passed, and otherwise fails with that detail."""
    def run():
        bad = gate()
        return (False, bad) if bad else check()
    return run


def _category_gates(C):
    yield "category", validate(C)


def _diagram_reports(D):
    """Two thunks: the `validate_diagram` report of D and the `validate`
    report of its assembly.  Each is worked out on its first call and then
    shared by every check that reads it; an exception is not kept."""
    return cache(lambda: validate_diagram(D)), cache(lambda: validate(grothendieck(D)))


def _valid_diagram(diagram):
    """The report of the thunk `diagram`.  `validate_diagram` validates the
    base and each fibre before functoriality and reports them as `base: …`
    and `fibre c: …`."""
    yield "diagram", diagram()


def _diagram_gates(diagram, assembly):
    """The diagram, then its assembly, from the thunks of
    `_diagram_reports`."""
    yield from _valid_diagram(diagram)
    yield "grothendieck", assembly()


def _functor_gates(F):
    yield "source", validate(F.source)
    yield "target", validate(F.target)
    yield "two_functor", check_cell_map("two_functor", F)


def _morphism_gates(g):
    yield from _diagram_gates(*_diagram_reports(g.source))
    yield from _diagram_gates(*_diagram_reports(g.target))
    yield "diagram_morphism", validate_diagram_morphism(g)


def suite_invariance(m: Manifest, trunc: int, r: Runner):
    """Homology comparisons of each named entity, behind its gates."""
    degrees = f"degrees 0..{trunc - 2}"
    for name, C in _sorted(m.two_categories):
        r.run(f"aw_homology[{name}]", _gated(_gate(_category_gates, C), lambda C=C: (
            is_homology_iso_upto(aw_map(double_nerve(C, trunc)), trunc - 2), degrees)))
    diagram_gate = {name: _gate(_diagram_gates, *_diagram_reports(D))
                    for name, D in m.diagrams.items()}
    for name, D in _sorted(m.diagrams):
        r.run(f"aw_homology_groth[{name}]", _gated(diagram_gate[name], lambda D=D: (
            is_homology_iso_upto(aw_map(double_nerve(grothendieck(D), trunc)), trunc - 2),
            degrees)))
    for name, F in _sorted(m.two_functors):
        def check(F=F):
            fib, G, Pi, iota, wit = projections(F, OVER)
            return is_homology_iso_upto(diag_nn_map(Pi, trunc), trunc - 2), degrees
        r.run(f"projection_homology[{name}]", _gated(_gate(_functor_gates, F), check))
    for name, D in _sorted(m.diagrams):
        def check(D=D):
            g = renaming_morphism(D)
            rep = validate_diagram_morphism(g)
            if not rep.ok:
                return False, "; ".join(map(str, rep.violations[:3]))
            SD, SE = hocolim(D, trunc), hocolim(g.target, trunc)
            maps = hocolim_map(g, SD, SE)
            XD, XE = tri_diag_nn(SD), tri_diag_nn(SE)
            f = simplicial_map(XD, XE,
                               lambda n, x: map_dn_simplex(maps[n], x))
            return is_homology_iso_upto(f, trunc - 2), degrees
        r.run(f"hocolim_invariance[{name}]", _gated(diagram_gate[name], check))


SUITE_FNS = {"identities": suite_identities,
             "iso112": suite_iso112,
             "iso114": suite_iso114,
             "retractions": suite_retractions,
             "oplax": suite_oplax,
             "contractibility": suite_contractibility,
             "invariance": suite_invariance}

DEFAULT_TRUNC = {"identities": 3, "iso112": 3, "iso114": 3, "retractions": 3,
                 "oplax": 3, "contractibility": 4, "invariance": 4}

# The least truncation at which a suite's homology claims compare any degree:
# contractibility computes H_i for i < trunc, invariance compares H_i for
# i <= trunc - 2.
LEAST_TRUNC = {"contractibility": 1, "invariance": 2, "all": 2}


def run_suite(m: Manifest, suite: str, trunc: int = None) -> dict:
    """Run one suite (or "all"); returns the report dictionary."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {SUITES}")
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    checks = []
    for s in names:
        r = Runner()
        SUITE_FNS[s](m, trunc if trunc is not None else DEFAULT_TRUNC[s], r)
        for c in r.checks:
            c["name"] = f"{s}:{c['name']}" if suite == "all" else c["name"]
        checks.extend(r.checks)
    status = all(c["status"] == "pass" for c in checks)
    return {"suite": suite,
            "truncation": trunc if trunc is not None else
            (DEFAULT_TRUNC.get(suite, 3) if suite != "all" else "per-suite"),
            "checks": checks,
            "status": "pass" if status else "fail"}
