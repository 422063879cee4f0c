"""Bundled verification suites over a resolved manifest.

Each check produces (name, status, detail) with status "pass", "fail" or
"error" (the check raised); a suite passes iff every check passes.
Reports are deterministic: entities are visited in sorted name order and
all details are plain strings.  A check that builds a construction
first validates its inputs; if they are invalid it fails with a
`precondition:` detail and builds nothing.  One `Gates` table per run
holds every validation report, so each input is validated once per run,
whichever suites and checks read it.
"""

from __future__ import annotations

from .core import (CONTRAVARIANT, COVARIANT, check_cell_map, compose_functors,
                   constant_diagram, functor_equal, functor_is_bijective,
                   identity_functor, renaming_morphism, same_category, validate,
                   validate_diagram, validate_diagram_morphism)
from .comma import (OVER, UNDER, comma, projections, retraction_R,
                    section_jz_iz)
from .grothendieck import grothendieck
from .hocolim import (build_E, build_E_pull, check_simplicial_two_category,
                      grothendieck_wbar_comparison, hocolim, hocolim_map,
                      hocolim_level_product_iso, hocolim_wbar_comparison,
                      reversal_bridge_report)
from .homology import (first_homology_difference, homology, is_homology_iso_upto,
                       normalized_chain_complex)
from .manifest import Manifest
from .nerves import (diag_nn, diag_nn_map, double_nerve, is_category,
                     map_dn_simplex, nerve_category, repackage_staircase,
                     tri_diag_nn, wbar_double_nerve)
from .simplicial import (aw_map, check_simplicial_identities,
                         check_simplicial_map, simplicial_map, verify_iso)

SUITES = ("identities", "iso112", "iso114", "retractions", "oplax",
          "contractibility", "invariance", "all")


class Gates:
    """The validation reports of one run, keyed by kind and input and made
    on first use; an exception is not kept, so each check that meets it
    reports it.  Each gate method gives the `precondition: <what>: …`
    detail of its first failed gate, or None; a gate's report is made only
    once the gates before it have passed."""

    def __init__(self):
        self._reports = {}

    def report(self, kind, x):
        """The report of x as a `category`, `diagram`, `grothendieck`
        (its assembly), `two_functor` or `diagram_morphism`."""
        key = (kind, x)
        if key not in self._reports:
            self._reports[key] = {
                "category": lambda: validate(x),
                "diagram": lambda: validate_diagram(x),
                "grothendieck": lambda: validate(grothendieck(x)),
                "two_functor": lambda: check_cell_map("two_functor", x),
                "diagram_morphism": lambda: validate_diagram_morphism(x)}[kind]()
        return self._reports[key]

    def _gate(self, kind, x, what=None):
        rep = self.report(kind, x)
        return None if rep.ok else \
            f"precondition: {what or kind}: " + "; ".join(map(str, rep.violations[:3]))

    def category(self, C, what="category"):
        return self._gate("category", C, what)

    def diagram(self, D):
        """D alone: `validate_diagram` validates the base and each fibre
        before functoriality and reports them as `base: …` and `fibre c: …`."""
        return self._gate("diagram", D)

    def assembled(self, D):
        return self.diagram(D) or self._gate("grothendieck", D)

    def functor(self, F):
        return (self.category(F.source, "source") or self.category(F.target, "target")
                or self._gate("two_functor", F))

    def morphism(self, g):
        return (self.assembled(g.source) or self.assembled(g.target)
                or self._gate("diagram_morphism", g))


class Runner:
    """The checks of one run, in order, and the `Gates` they share."""

    def __init__(self):
        self.checks = []
        self.gates = Gates()

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


def _is_iso(f) -> bool:
    return check_simplicial_map(f).ok and verify_iso(f)


def suite_identities(m: Manifest, trunc: int, r: Runner):
    gates = r.gates
    for name, C in _sorted(m.two_categories):
        r.run(f"validate[{name}]", lambda C=C: r.report_ok(gates.report("category", C), "axiom"))
    for name, F in _sorted(m.two_functors):
        r.run(f"two_functor[{name}]",
              lambda F=F: r.report_ok(gates.report("two_functor", F), "axiom"))
    for name, s in _sorted(m.transformations):
        r.run(f"two_natural[{name}]",
              lambda s=s: r.report_ok(check_cell_map("two_natural", s), "axiom"))
    for name, D in _sorted(m.diagrams):
        r.run(f"diagram[{name}]", lambda D=D:
              r.report_ok(gates.report("diagram", D), "TwoDiagram invariant"))
    for name, g in _sorted(m.diagram_morphisms):
        r.run(f"diagram_morphism[{name}]",
              lambda g=g: r.report_ok(gates.report("diagram_morphism", g), "naturality"))
    for name, C in _sorted(m.two_categories):
        gate = lambda C=C: gates.category(C)
        if is_category(C):
            r.run(f"nerve_identities[{name}]", _gated(gate, lambda C=C: r.report_ok(
                check_simplicial_identities(nerve_category(C, trunc)), "identity")))
        r.run(f"double_nerve_identities[{name}]", _gated(gate, lambda C=C: r.report_ok(
            check_simplicial_identities(double_nerve(C, trunc)), "identity")))
        r.run(f"wbar_identities[{name}]", _gated(gate, lambda C=C: r.report_ok(
            check_simplicial_identities(wbar_double_nerve(C, trunc)), "identity")))
        r.run(f"wbar_repackage[{name}]", _gated(gate, lambda C=C: (
            _is_iso(repackage_staircase(C, max(trunc, 4))), "bijection")))
    for name, D in _sorted(m.diagrams):
        gate = lambda D=D: gates.assembled(D)
        r.run(f"grothendieck_valid[{name}]", _gated(lambda D=D: gates.diagram(D),
              lambda D=D: r.report_ok(gates.report("grothendieck", D), "axiom")))
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

    def check():
        D = constant_diagram(base, value)
        S = hocolim(D, trunc)
        for p in range(trunc + 1):
            iso = hocolim_level_product_iso(S, D, p)
            if not (check_cell_map("two_functor", iso).ok
                    and functor_is_bijective(iso)):
                return False, f"level {p} not isomorphic to the product"
        return True, "ok"

    r.run(f"constant_levels[{value.name} over {base.name}]", _gated(
        lambda: r.gates.category(base, "base") or r.gates.category(value, "value"), check))


def _iso_suite(m: Manifest, trunc: int, r: Runner, suite, comparison):
    """Each diagram's validation, then whether `comparison(D, trunc)` is a
    simplicial isomorphism."""
    for name, D in _sorted(m.diagrams):
        r.run(f"validate_diagram[{name}]", lambda D=D:
              r.report_ok(r.gates.report("diagram", D), "TwoDiagram invariant"))
        r.run(f"{suite}[{name}]", _gated(lambda D=D: r.gates.assembled(D), lambda D=D: (
            (lambda f: (_is_iso(f), f"levels {f.source.sizes()}"))(comparison(D, trunc)))))


def suite_iso112(m: Manifest, trunc: int, r: Runner):
    _iso_suite(m, trunc, r, "iso112", hocolim_wbar_comparison)


def suite_iso114(m: Manifest, trunc: int, r: Runner):
    _iso_suite(m, trunc, r, "iso114", grothendieck_wbar_comparison)


def _claims(m: Manifest, gates: Gates):
    """(name, gate, build) of each projection, retraction and section claim;
    build() gives whether the claimed composite is the identity, that
    composite's name, and the witness cell maps to check as (kind, map)."""
    for name, F in _sorted(m.two_functors):
        for side in (OVER, UNDER):
            def build(F=F, side=side):
                fib, G, Pi, iota, wit = projections(F, side)
                return (functor_equal(compose_functors(Pi, iota), identity_functor(F.source)),
                        "Pi iota", [("oplax", wit)])
            yield f"projection[{name},{side}]", lambda F=F: gates.functor(F), build
    for name, g in _sorted(m.diagram_morphisms):
        side = OVER if g.source.variance == COVARIANT else UNDER
        for c in sorted(g.source.base.objects, key=repr):
            for y in sorted(g.target.ob[c].objects, key=repr):
                def build(g=g, c=c, y=y):
                    K, L, R, sec, wit = retraction_R(g, c, y)
                    return (functor_equal(compose_functors(R, sec), identity_functor(L)),
                            "R section", [("oplax", wit)])
                yield (f"retraction[{name},{c},{y},{side}]",
                       lambda g=g: gates.morphism(g), build)
    for fname, F in _sorted(m.two_functors):
        for dname, D in _sorted(m.diagrams):
            if not same_category(D.base, F.target):
                continue
            for c in sorted(D.base.objects, key=repr):
                for z in sorted(D.ob[c].objects, key=repr):
                    def build(F=F, D=D, c=c, z=z):
                        K0, K1, jz, pibar, iz, wit = section_jz_iz(F, D, c, z)
                        return (functor_equal(compose_functors(pibar, iz), identity_functor(K0)),
                                "pibar i_z", [("oplax", wit), ("two_functor", jz)])
                    yield (f"section[{fname},{dname},{c},{z}]",
                           lambda F=F, D=D: gates.functor(F) or gates.assembled(D), build)


def suite_retractions(m: Manifest, trunc: int, r: Runner):
    for name, gate, build in _claims(m, r.gates):
        def check(build=build):
            ok, composite, _ = build()
            return ok, f"{composite} = 1" if ok else f"{composite} != 1"
        r.run(name, _gated(gate, check))


def suite_oplax(m: Manifest, trunc: int, r: Runner):
    """As `suite_retractions`, and the witnesses' axioms hold; a failure
    names the first three violations."""
    for name, gate, build in _claims(m, r.gates):
        def check(build=build):
            ok, composite, cells = build()
            bad = [v for kind, x in cells for v in check_cell_map(kind, x).violations]
            if ok and not bad:
                return True, f"{composite} = 1 and witness axioms"
            return False, "; ".join(map(str, bad[:3])) or f"{composite} != 1"
        r.run(name, _gated(gate, check))


def suite_contractibility(m: Manifest, trunc: int, r: Runner):
    for name, C in _sorted(m.two_categories):
        I = identity_functor(C)
        gate = lambda C=C: r.gates.category(C)
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


def _gated(gate, check):
    """A check that runs `check` only if `gate()` finds that every gate has
    passed, and otherwise fails with that detail."""
    def run():
        bad = gate()
        return (False, bad) if bad else check()
    return run


def _homology_iso(f, k):
    """`is_homology_iso_upto(f, k)` with its detail: the degrees compared,
    or on failure the first degree at which f is not an isomorphism."""
    degrees = f"degrees 0..{k}"
    if is_homology_iso_upto(f, k):
        return True, degrees
    return False, first_homology_difference(f, k) or degrees


def suite_invariance(m: Manifest, trunc: int, r: Runner):
    """Homology comparisons of each named entity, behind its gates."""
    gates, k = r.gates, trunc - 2
    for name, C in _sorted(m.two_categories):
        r.run(f"aw_homology[{name}]", _gated(lambda C=C: gates.category(C), lambda C=C:
            _homology_iso(aw_map(double_nerve(C, trunc)), k)))
    for name, D in _sorted(m.diagrams):
        r.run(f"aw_homology_groth[{name}]", _gated(lambda D=D: gates.assembled(D), lambda D=D:
            _homology_iso(aw_map(double_nerve(grothendieck(D), trunc)), k)))
    for name, F in _sorted(m.two_functors):
        def check(F=F):
            fib, G, Pi, iota, wit = projections(F, OVER)
            return _homology_iso(diag_nn_map(Pi, trunc), k)
        r.run(f"projection_homology[{name}]", _gated(lambda F=F: gates.functor(F), check))
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
            return _homology_iso(f, k)
        r.run(f"hocolim_invariance[{name}]", _gated(lambda D=D: gates.assembled(D), check))


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
    r = Runner()
    for s in names:
        start = len(r.checks)
        SUITE_FNS[s](m, trunc if trunc is not None else DEFAULT_TRUNC[s], r)
        if suite == "all":
            for c in r.checks[start:]:
                c["name"] = f"{s}:{c['name']}"
    status = all(c["status"] == "pass" for c in r.checks)
    return {"suite": suite,
            "truncation": trunc if trunc is not None else
            (DEFAULT_TRUNC.get(suite, 3) if suite != "all" else "per-suite"),
            "checks": r.checks,
            "status": "pass" if status else "fail"}
