import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import twocat
from twocat import verify
from twocat.cli import bundled_manifest_path, main
from twocat.comma import OVER, UNDER
from twocat.core import (COVARIANT, DiagramMorphism, OplaxTransformation, TwoCatError,
                         constant_diagram, identity_functor, validate_diagram)
from twocat.grothendieck import grothendieck
from twocat.manifest import Manifest, ManifestError, parse, resolve
from twocat.verify import Runner, run_suite

DATA = Path(bundled_manifest_path())
MUTANTS = DATA.parent / "mutants"
GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*args, hash_seed=None, cwd=None):
    # the package directory goes first on the path, so that the child process
    # imports this twocat from any working directory
    path = os.pathsep.join(filter(None, (str(Path(twocat.__file__).parent.parent),
                                         os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    p = subprocess.run([sys.executable, "-m", "twocat.cli", *args],
                       capture_output=True, text=True, timeout=500, env=env, cwd=cwd)
    return p.returncode, p.stdout


def readme_usage_lines():
    lines = README.read_text().split("## CLI", 1)[1].split("```")[1].splitlines()
    return [line.split("#", 1)[0].strip() for line in lines if line.startswith("twocat ")]


def test_readme_usage_lines_run(tmp_path):
    lines = readme_usage_lines()
    assert "twocat verify iso114 --out report.json" in lines
    for line in lines:
        code, out = run_cli(*shlex.split(line)[1:], cwd=tmp_path)
        assert code == 0, (line, out)
    assert json.loads((tmp_path / "report.json").read_text())["suite"] == "iso114"


def test_global_options_after_subcommand():
    before = run_cli("--trunc", "4", "wbar", "--name", "WTC")
    assert before == run_cli("wbar", "--trunc", "4", "--name", "WTC")
    assert before == run_cli("--trunc", "2", "wbar", "--name", "WTC", "--trunc", "4")
    assert json.loads(before[1])["checks"][0]["detail"] == "[2, 4, 7, 11, 16]"


def test_bundled_manifest_parses():
    m = parse(DATA)
    assert {"PT", "WA", "WTC"} <= set(m.two_categories)
    assert {"Dcov", "Drep"} <= set(m.diagrams)
    assert "collapse" in m.diagram_morphisms


def test_2cat_fragment_parses():
    m = parse(DATA.parent / "wtc.2cat")
    assert m.two_categories["WTC"].counts() == (2, 4, 5)


def test_2diag_fragment_parses():
    m = parse(DATA.parent / "fibre-diagram.2diag")
    D = m.diagrams["Dcov"]
    assert validate_diagram(D).ok


def test_missing_table_entry_named(tmp_path):
    doc = json.load(open(DATA))
    del doc["two_categories"]["WA"]["hcomp1"]["a"]["i0"]
    bad = tmp_path / "bad.manifest.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ManifestError) as err:
        parse(bad)
    assert any("non-total table" in e and "(a, i0)" in e for e in err.value.errors)


def test_unknown_identifier_named(tmp_path):
    doc = json.load(open(DATA))
    doc["two_functors"]["F"]["on_objects"]["0"] = "zzz"
    bad = tmp_path / "bad2.manifest.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ManifestError) as err:
        parse(bad)
    assert any("unknown identifier" in e for e in err.value.errors)


def test_unknown_two_cell_source_named():
    # the horizontal totality check composes a 2-cell along its source
    # 1-cell, so an unknown source is an input error, not a KeyError
    doc = json.loads(DATA.read_text())
    doc["two_categories"]["WTC"]["two_cells"]["psi"] = ["zz", "g"]
    with pytest.raises(ManifestError) as err:
        resolve(doc)
    assert "two_categories.WTC.two_cells.psi: unknown identifier" in err.value.errors


def test_corpus_generator_reproduces_bundled_data(tmp_path, monkeypatch):
    # scripts/make_corpus.py, run into tmp_path, writes exactly the bundled
    # data files, byte for byte
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    script = README.parent / "scripts" / "make_corpus.py"
    spec = importlib.util.spec_from_file_location("make_corpus", script)
    make_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_corpus)
    monkeypatch.setattr(make_corpus, "DATA", tmp_path)
    make_corpus.main()
    bundled = DATA.parent
    files = lambda root: sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
    assert files(tmp_path) == files(bundled)
    for rel in files(bundled):
        assert (tmp_path / rel).read_bytes() == (bundled / rel).read_bytes(), rel


def test_bench_pairs_states_each_metric_verdict(monkeypatch):
    # scripts/bench_pairs.py judges each metric against its relative bound
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    script = README.parent / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", script)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    lower = {"name": "wall_s", "better": "lower", "bound": 0.25}
    higher = {"name": "checks", "better": "higher", "bound": 0.25}
    steady = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    bimodal = [0.06, 0.11] * 5   # interquartile range about 80 % of the median

    def compare(metric, parent, change):
        run = lambda v: None if v is None else {metric["name"]: v}
        return bench.compare([(run(p), run(c)) for p, c in zip(parent, change)], metric)

    out = compare(lower, steady, [1.1 * v for v in steady])
    assert out["verdict"] == "within" and out["wins"] == 0
    assert out["parent"]["min"] == 0.97 and out["change"]["min"] == 1.1 * 0.97
    assert compare(lower, steady, [1.3 * v for v in steady])["verdict"] == "worse"
    assert compare(lower, steady, [0.5 * v for v in steady])["verdict"] == "better"
    assert compare(lower, steady, [0.8 * v for v in steady])["verdict"] == "within"
    assert compare(lower, bimodal, [1.3 * v for v in bimodal])["verdict"] == "unresolved"
    assert compare(lower, bimodal, [0.05] * 10)["verdict"] == "better"
    assert compare(lower, bimodal, [0.05] * 9 + [0.07])["verdict"] == "unresolved"
    assert compare(higher, steady, [0.7 * v for v in steady])["verdict"] == "worse"
    assert compare(higher, steady, [1.3 * v for v in steady])["verdict"] == "better"
    assert compare(higher, bimodal, [0.12] * 10)["verdict"] == "better"
    # pairs with a failed run on either side are left out
    out = compare(lower, [None] + steady[1:], steady[:9] + [None])
    assert out["pairs"] == 8 and out["verdict"] == "within"
    assert compare(lower, [None, 1.0], [1.0, 1.0]) == {"pairs": 1}


def test_cli_validate_exit_zero():
    code, out = run_cli("validate")
    assert code == 0


def test_cli_wbar_levels():
    code, out = run_cli("--trunc", "4", "wbar", "--name", "WTC")
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"][0]["detail"] == "[2, 4, 7, 11, 16]"


def test_cli_homology_slice():
    code, out = run_cli("homology", "--comma", "id:WTC:b:over", "--degree", "1")
    assert code == 0
    rep = json.loads(out)
    assert "H_1 = 0" in rep["checks"][0]["detail"]


def test_cli_groth_and_hocolim():
    code, out = run_cli("groth", "--name", "Dcov")
    assert code == 0 and "cells (4, 10, 11)" in out
    code, out = run_cli("hocolim", "--name", "Dcov")
    assert code == 0


def test_cli_unknown_name_is_input_error():
    code, out = run_cli("wbar", "--name", "NOPE")
    assert code == 2


def test_cli_verify_deterministic():
    # the same bytes under two string-hash seeds, for a passing and a
    # failing report
    m01 = str(MUTANTS / "m01_table_entry.manifest.json")
    for argv, want in ((("verify", "all"), 0),
                       (("--manifest", m01, "verify", "identities"), 1)):
        code1, out1 = run_cli(*argv, hash_seed=0)
        code2, out2 = run_cli(*argv, hash_seed=5)
        assert code1 == code2 == want
        assert out1 == out2


def test_verify_all_report_matches_golden():
    # the deterministic report of the bundled corpus, pinned byte for byte:
    # a change of representation must not change a single answer
    code, out = run_cli("verify", "all", hash_seed=0)
    assert code == 0
    assert out == (GOLDEN / "verify_all.json").read_text()


def mutant_records():
    """For each bundled mutant, the exit code of `verify all` under string-hash
    seed 0 and either every check as one `name<TAB>status<TAB>detail` line
    or the input-error list; `tests/golden/mutants.json` holds this dict."""
    records = {}
    for path in sorted(MUTANTS.glob("m*.manifest.json")):
        code, out = run_cli("--manifest", str(path), "verify", "all", hash_seed=0)
        rep = json.loads(out)
        body = ({"checks": [f"{c['name']}\t{c['status']}\t{c['detail']}"
                            for c in rep["checks"]]} if "checks" in rep
                else {"errors": rep["errors"]})
        records[path.name.removesuffix(".manifest.json")] = {"exit": code, **body}
    return records


def test_mutant_reports_match_golden():
    # every mutant's full `verify all` report, pinned like the corpus report
    assert mutant_records() == json.loads((GOLDEN / "mutants.json").read_text())


def test_oplax_retraction_detail_names_the_witness_violation(monkeypatch):
    # each retraction witness with one naturality 2-cell of the wrong
    # boundary: the oplax check names that violation
    real, want = verify.retraction_R, {}

    def broken(g, c, y):
        K, L, R, sec, wit = real(g, c, y)
        side = OVER if g.source.variance == COVARIANT else UNDER
        m = sorted(wit.nat, key=repr)[0]
        bad = next(t for t in sorted(K.two_cells, key=repr)
                   if K.two_cells[t] != K.two_cells[wit.nat[m]])
        want[f"retraction[{g.name},{c},{y},{side}]"] = \
            f"naturality component at {m} has wrong boundary"
        return K, L, R, sec, OplaxTransformation(wit.F, wit.G, wit.comp,
                                                 {**wit.nat, m: bad}, name=wit.name)

    monkeypatch.setattr(verify, "retraction_R", broken)
    rep = run_suite(parse(DATA), "oplax")
    got = {c["name"]: (c["status"], c["detail"]) for c in rep["checks"]
           if c["name"].startswith("retraction[")}
    assert got and got == {name: ("fail", v) for name, v in want.items()}


def test_invariance_rejects_invalid_inputs_before_building():
    # m10 corrupts a vertical composite of WAf, which is also a fibre of Dcov
    rep = run_suite(parse(MUTANTS / "m10_vertical_composite.manifest.json"), "invariance")
    failed = {c["name"]: c["detail"] for c in rep["checks"] if c["status"] == "fail"}
    assert sorted(failed) == ["aw_homology[WAf]", "aw_homology_groth[Dcov]",
                              "hocolim_invariance[Dcov]", "projection_homology[bang_WAf]",
                              "projection_homology[push]"]
    assert all(d.startswith("precondition: ") for d in failed.values()), failed
    assert not any(c["status"] == "error" for c in rep["checks"])


def test_identities_gate_constructions_on_validation():
    # m01 corrupts one table entry of WTC; every construction check on WTC,
    # on the diagrams with WTC as base or fibre and on the constant diagram
    # at WTC fails at its gate instead of crashing in the construction
    rep = run_suite(parse(MUTANTS / "m01_table_entry.manifest.json"), "identities")
    failed = {c["name"]: c["detail"] for c in rep["checks"] if c["status"] == "fail"}
    axiom = ["hcomp1 unit law fails at g", "hcomp2[(eg, e1a)] has wrong boundary",
             "hcomp2[(phi, e1a)] has wrong boundary"]

    def detail(gate, where=None):
        # validate_diagram names the invalid base or fibre in each violation
        return f"precondition: {gate}: " + "; ".join(
            v if where is None else f"{where}: {v}" for v in axiom)

    gated = {
        "double_nerve_identities[WTC]": detail("category"),
        "wbar_identities[WTC]": detail("category"),
        "wbar_repackage[WTC]": detail("category"),
        "hocolim_checks[Dcov]": detail("diagram", "fibre 0"),
        "resolution_identities[Dcov]": detail("diagram", "fibre 0"),
        "hocolim_checks[Drep]": detail("diagram", "base"),
        "resolution_identities[Drep]": detail("diagram", "base"),
        "reversal_bridge[Drep]": detail("diagram", "base"),
        "constant_levels[WTC over HOMab]": detail("value"),
    }
    assert {name: failed[name] for name in gated} == gated
    # the morphism check validates its source Dcov, whose fibre 0 is WTC
    assert sorted(set(failed) - set(gated)) == [
        "diagram[Dcov]", "diagram[Drep]", "diagram_morphism[collapse]",
        "grothendieck_valid[Dcov]", "grothendieck_valid[Drep]", "validate[WTC]"]
    assert not any(d.startswith(("TwoCatError", "KeyError")) for d in failed.values())
    assert not any(c["status"] == "error" for c in rep["checks"])
    # m02 declares a composite on a non-composable pair of WTC: no check
    # crashes; the diagrams with WTC as base or fibre, and the morphism out
    # of Dcov, report it
    rep = run_suite(parse(MUTANTS / "m02_noncomposable_pair.manifest.json"), "identities")
    crashed = [c["name"] for c in rep["checks"] if c["status"] == "error"
               or c["status"] == "fail"
               and not c["detail"].startswith(("precondition: ", "axiom: ",
                                               "TwoDiagram invariant: ",
                                               "naturality: source: "))]
    assert crashed == []
    details = {c["name"]: c["detail"] for c in rep["checks"]}
    bad_pair = "vcomp2 declared on non-composable pair ('phi', 'phi')"
    assert details["diagram[Drep]"] == f"TwoDiagram invariant: base: {bad_pair}"
    assert details["diagram[Dcov]"] == f"TwoDiagram invariant: fibre 0: {bad_pair}"
    assert details["diagram_morphism[collapse]"] == f"naturality: source: fibre 0: {bad_pair}"


def test_mutant_suites_fail_without_crashes(monkeypatch):
    # every mutant that parses fails its suite, and no check of any suite
    # fails by an exception: each invalid input is stopped by a validation
    # or a gate
    crashes = []
    run = Runner.run

    def run_recording_crashes(self, name, fn):
        def checked():
            try:
                return fn()
            except Exception as exc:
                crashes.append(f"{name}: {type(exc).__name__}: {exc}")
                raise
        run(self, name, checked)

    monkeypatch.setattr(Runner, "run", run_recording_crashes)
    failed = {}
    for item in json.loads((MUTANTS / "index.json").read_text()):
        try:
            m = parse(MUTANTS / f"{item['name']}.manifest.json")
        except ManifestError:
            continue
        for suite in verify.SUITE_FNS:
            rep = run_suite(m, suite)
            assert not [c for c in rep["checks"] if c["status"] == "error"], (item["name"], suite)
            if suite == item["suite"]:
                assert rep["status"] == "fail", item["name"]
                failed[item["name"]] = {c["name"]: c["detail"] for c in rep["checks"]
                                        if c["status"] == "fail"}
    assert sorted(failed) == ["m01_table_entry", "m02_noncomposable_pair",
                              "m05_functor_two_cells", "m06_diagram_transport",
                              "m07_transformation_component", "m09_functor_objects",
                              "m10_vertical_composite"]
    assert crashes == []
    # the checks that used to crash now fail at their gates
    sections = ["section[F,Drep,a,f]", "section[F,Drep,a,g]", "section[F,Drep,b,1b]"]
    gated = {"m05_functor_two_cells": ["projection[F,over]", "projection[F,under]", *sections],
             "m06_diagram_transport": ["iso114[Dcov]"],
             "m07_transformation_component": ["iso112[Drep]"],
             "m09_functor_objects": ["projection[F,over]", "projection[F,under]", *sections]}
    for name, checks in gated.items():
        for check in checks:
            assert failed[name][check].startswith("precondition: "), (name, check)


def test_invalid_category_fails_contractibility_at_its_gate(capsys):
    # m02's WTC fails `validate`, so none of its slices is built
    path = MUTANTS / "m02_noncomposable_pair.manifest.json"
    assert main(["--manifest", str(path), "verify", "contractibility"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    wtc = [c for c in checks if c["name"].startswith("contractible[WTC,")]
    assert len(wtc) == 4
    assert all(c["status"] == "fail" and c["detail"].startswith("precondition: category: ")
               for c in wtc)
    assert all(c["status"] == "pass" for c in checks if c not in wtc)


def test_invalid_diagram_fails_grothendieck_valid_at_its_gate():
    # m06's diagram is invalid, so it is not assembled
    rep = run_suite(parse(MUTANTS / "m06_diagram_transport.manifest.json"), "identities")
    detail = {c["name"]: c["detail"] for c in rep["checks"]}["grothendieck_valid[Dcov]"]
    assert detail.startswith("precondition: diagram: ")


def test_raising_check_is_an_error(monkeypatch, capsys):
    # a crash in the library is reported apart from a false claim, and still
    # fails the suite with exit code 1
    def suite(m, trunc, r):
        r.run("holds", lambda: (True, "ok"))
        r.run("false", lambda: (False, "counterexample"))
        r.run("crashes", lambda: {}["missing"])

    monkeypatch.setitem(verify.SUITE_FNS, "identities", suite)
    assert main(["verify", "identities"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "fail"
    assert rep["checks"] == [
        {"name": "holds", "status": "pass", "detail": "ok"},
        {"name": "false", "status": "fail", "detail": "counterexample"},
        {"name": "crashes", "status": "error", "detail": "KeyError: 'missing'"}]


@pytest.mark.parametrize("exc", [KeyError("x"), TwoCatError("x")], ids=["KeyError", "TwoCatError"])
@pytest.mark.parametrize("patched,argv,check", [
    ("validate", ["validate", "--name", "WA"], "validate[WA]"),
    ("diag_nn", ["diag", "--name", "WTC"], "levels[WTC]"),
    ("wbar_double_nerve", ["wbar", "--name", "WTC"], "levels[WTC]"),
    ("grothendieck", ["groth", "--name", "Dcov"], "groth[Dcov]"),
    ("hocolim", ["hocolim", "--name", "Dcov"], "hocolim[Dcov]"),
    ("comma", ["comma", "--functor", "F", "--object", "b"], "comma[F,b,over]"),
    ("normalized_chain_complex", ["homology", "--name", "WTC", "--degree", "1"], "H_1[WTC]"),
], ids=["validate", "diag", "wbar", "groth", "hocolim", "comma", "homology"])
def test_library_crash_in_a_command_is_an_error_check(monkeypatch, capsys, patched, argv,
                                                      check, exc):
    # as in `verify`, a crash of the library is reported apart from a false
    # claim: one `error` check naming the exception, and exit 1; it used to
    # be a traceback, or for a TwoCatError a report with no checks
    def crash(*args):
        raise exc

    monkeypatch.setattr(f"twocat.cli.{patched}", crash)
    assert main(argv) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "fail"
    assert rep["checks"] == [{"name": check, "status": "error",
                              "detail": f"{type(exc).__name__}: {exc}"}]


def test_partial_transport_fails_validation_without_crashes(tmp_path, capsys):
    # Dcov omits its identity 2-cell transports, so the parser makes them
    # from its transport push; with a missing from push's object map, every
    # command used to end in a KeyError traceback
    doc = json.loads(DATA.read_text())
    del doc["two_functors"]["push"]["on_objects"]["a"]
    bad = tmp_path / DATA.name
    bad.write_text(json.dumps(doc))
    assert main(["--manifest", str(bad), "validate"]) == 1
    assert [c for c in json.loads(capsys.readouterr().out)["checks"] if c["status"] != "pass"] \
        == [{"name": "diagram[Dcov]", "status": "fail", "detail": "object map misses a"}]
    assert main(["--manifest", str(bad), "verify", "all"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 153 and {c["status"] for c in checks} == {"pass", "fail"}


def _set(doc, path, value):
    *keys, last = path
    for key in keys:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("source,path,error", [
    (DATA, (), "{file}: expected an object, got list"),
    (DATA, ("two_functors",), "two_functors: expected an object, got list"),
    (DATA, ("two_categories", "WA", "hcomp1"),
     "two_categories.WA.hcomp1: expected an object, got list"),
    (DATA, ("two_functors", "F", "on_objects"),
     "two_functors.F.on_objects: expected an object, got list"),
    (DATA, ("diagrams", "Dcov", "on_one_cells"),
     "diagrams.Dcov.on_one_cells: expected an object, got list"),
    (DATA, ("diagram_morphisms", "collapse", "components"),
     "diagram_morphisms.collapse.components: expected an object, got list"),
    (DATA.parent / "fibre-diagram.2diag", ("diagram",), "{file}: no diagram entry"),
], ids=["top-level", "section", "table", "functor-map", "diagram-transports",
        "morphism-components", "2diag-without-diagram"])
def test_malformed_manifest_shape_is_input_error(tmp_path, capsys, source, path, error):
    # a JSON list where an object belongs, or a missing diagram, is an input
    # error naming where it is, not a traceback
    doc = json.loads(source.read_text())
    if path == ("diagram",):
        del doc["diagram"]
    elif path:
        _set(doc, path, [])
    else:
        doc = [doc]
    bad = tmp_path / source.name
    bad.write_text(json.dumps(doc))
    assert main(["--manifest", str(bad), "validate"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "status": "input-error", "errors": [error.format(file=bad)]}


@pytest.mark.parametrize("path,value,error", [
    (("two_functors", "F", "source"), [], "two_functors.F.source: unknown 2-category []"),
    (("two_functors", "F", "on_one_cells", "a"), [],
     "two_functors.F.on_one_cells.a: unknown identifier"),
    (("diagrams", "Dcov", "base"), {}, "diagrams.Dcov.base: unknown 2-category {}"),
    (("diagrams", "Dcov", "fibres", "0"), [], "diagrams.Dcov.fibres.0: unknown 2-category []"),
    (("diagrams", "Dcov", "on_one_cells", "a"), [],
     "diagrams.Dcov.on_one_cells.a: unknown functor []"),
    (("diagrams", "Drep", "on_two_cells", "phi"), [],
     "diagrams.Drep.on_two_cells.phi: unknown transformation []"),
    (("transformations", "rep_phi", "source_functor"), [],
     "transformations.rep_phi: unknown functor reference"),
    (("transformations", "rep_phi", "components", "1b"), [],
     "transformations.rep_phi.components.1b: expected a name, got list"),
    (("diagram_morphisms", "collapse", "source"), [],
     "diagram_morphisms.collapse: unknown diagram reference"),
    (("diagram_morphisms", "collapse", "components", "0"), [],
     "diagram_morphisms.collapse.components.0: unknown functor []"),
    (("two_categories", "WTC", "objects", 0), [],
     "two_categories.WTC.objects.0: expected a name, got list"),
    (("two_categories", "WTC", "hcomp1", "g", "1a"), [],
     "two_categories.WTC.hcomp1.g.1a: expected a name, got list"),
    (("two_categories", "WTC", "vcomp2", "phi", "ef"), [],
     "two_categories.WTC.vcomp2.phi.ef: expected a name, got list"),
    (("two_categories", "WTC", "one_cells", "f"), ["a"],
     "two_categories.WTC.one_cells.f: boundary must be a pair of names"),
    (("two_categories", "WAf", "id1"), [], "two_categories.WAf.id1: expected an object, got list"),
    (("two_categories", "WAf", "id1"), {}, "two_categories.WAf.id1: non-total table, missing 0"),
    (("two_categories", "WAf", "id2"), {}, "two_categories.WAf.id2: non-total table, missing a"),
], ids=["functor-source", "functor-map", "diagram-base", "fibre", "diagram-transport",
        "diagram-two-cell", "transformation-functor", "transformation-component",
        "morphism-source", "morphism-component", "object", "hcomp1-value", "vcomp2-value",
        "short-boundary", "id1-list", "id1-empty", "id2-empty"])
def test_non_name_or_partial_identity_is_input_error(tmp_path, capsys, path, value, error):
    # a list or object where a name belongs, a boundary that is not a pair,
    # or identities missing: an input error naming where, not a traceback
    doc = json.loads(DATA.read_text())
    _set(doc, path, value)
    bad = tmp_path / DATA.name
    bad.write_text(json.dumps(doc))
    assert main(["--manifest", str(bad), "validate"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "input-error" and rep["errors"][0] == error

def test_morphism_across_bases_is_input_error(tmp_path, capsys):
    # Dpt lies over WA, the new target over WTC: rejected at resolve, as a
    # variance mismatch is, rather than a KeyError in the suites
    doc = json.loads(DATA.read_text())
    doc["diagrams"]["Dwtc"] = {"base": "WTC", "variance": "covariant",
                               "fibres": {"a": "PT", "b": "PT"},
                               "on_one_cells": {"f": "id_PT", "g": "id_PT"},
                               "on_two_cells": {"phi": {"*": "1"}}}
    doc["diagram_morphisms"]["X"] = {"source": "Dpt", "target": "Dwtc",
                                     "components": {"0": "id_PT", "1": "id_PT"}}
    bad = tmp_path / DATA.name
    bad.write_text(json.dumps(doc))
    for args in (["validate"], ["verify", "all"]):
        assert main(["--manifest", str(bad), *args]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "status": "input-error", "errors": ["diagram_morphisms.X: base mismatch"]}


@pytest.mark.parametrize("suite", ["retractions", "oplax"])
def test_morphism_across_bases_fails_its_gate_past_the_parser(suite):
    # a hand-built manifest skips resolve: Dpt (over WA) into a diagram over
    # WTC lists one claim per object of WA, each failed by its morphism gate
    m = parse(DATA)
    Dpt, P = m.diagrams["Dpt"], m.two_categories["PT"]
    target = constant_diagram(m.two_categories["WTC"], P)
    g = DiagramMorphism(Dpt, target, dict.fromkeys(Dpt.base.objects, identity_functor(P)), "X")
    checks = run_suite(Manifest(diagram_morphisms={"X": g}), suite, 3)["checks"]
    gate = "precondition: diagram_morphism: source and target have different bases"
    assert [(c["name"], c["status"], c["detail"]) for c in checks] == [
        (f"retraction[X,{c},over]", "fail", gate) for c in sorted(Dpt.base.objects)]


def test_cli_report_written(tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run_cli("--out", str(out_path), "verify", "iso112")
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["suite"] == "iso112"
    assert set(rep) >= {"suite", "checks", "truncation", "status"}
    assert all(set(c) == {"name", "status", "detail"} for c in rep["checks"])


def test_mutants_all_detected():
    idx = json.loads((MUTANTS / "index.json").read_text())
    assert len(idx) == 10
    for item in idx:
        path = MUTANTS / f"{item['name']}.manifest.json"
        code, out = run_cli("--manifest", str(path), "verify", item["suite"])
        assert code != 0, f"{item['name']} not detected"
        # a named check or named input error must be present
        rep = json.loads(out)
        if rep.get("status") == "input-error":
            assert rep["errors"]
        else:
            assert any(c["status"] == "fail" for c in rep["checks"])


def test_cli_budget_aborts_cleanly():
    code, out = run_cli("--budget", "3", "--trunc", "3", "wbar", "--name", "WTC")
    assert code == 2
    assert "budget" in out


def test_cli_budget_aborts_verify_as_an_input_error(capsys):
    # a level past the budget used to be reported as a crashed check (exit 1)
    assert main(["--budget", "50", "verify", "identities"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "status": "input-error",
        "errors": ["level size 52 exceeds the simplex budget 50; raise it or lower the truncation"]}


def test_cli_budget_does_not_outlive_its_call(capsys):
    # the budget of one in-process call must not apply to the next call
    assert main(["--budget", "3", "--trunc", "3", "wbar", "--name", "WTC"]) == 2
    assert "budget" in capsys.readouterr().out
    assert main(["--trunc", "3", "wbar", "--name", "WTC"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["detail"] == "[2, 4, 7, 11]"


def _refuse_to_load(args):
    raise AssertionError("the manifest was loaded")


def test_negative_trunc_is_input_error(monkeypatch, capsys):
    monkeypatch.setattr("twocat.cli.load_manifest", _refuse_to_load)
    for argv in (["--trunc", "-1", "diag", "--name", "WTC"],
                 ["wbar", "--name", "WTC", "--trunc", "-1"],
                 ["--trunc", "-2", "verify", "all"]):
        assert main(argv) == 2, argv
        report = json.loads(capsys.readouterr().out)
        assert report == {"status": "input-error",
                          "errors": [f"--trunc {argv[argv.index('--trunc') + 1]} is negative"]}


def test_negative_budget_is_input_error(monkeypatch, capsys):
    # it used to pass the gates and blame the first level of the input
    monkeypatch.setattr("twocat.cli.load_manifest", _refuse_to_load)
    for argv in (["--budget", "-5", "homology", "--name", "WTC"],
                 ["verify", "all", "--budget", "-1"]):
        assert main(argv) == 2, argv
        report = json.loads(capsys.readouterr().out)
        assert report == {"status": "input-error",
                          "errors": [f"--budget {argv[argv.index('--budget') + 1]} is negative"]}


def test_truncation_too_low_for_a_homology_claim_is_input_error(monkeypatch, capsys):
    # below these truncations the suites compared no homology: invariance
    # passed on "degrees 0..-1", contractibility crashed on an empty list
    with monkeypatch.context() as patch:
        patch.setattr("twocat.cli.load_manifest", _refuse_to_load)
        for argv, least, what in ((["--trunc", "1", "verify", "invariance"], 2, "verify invariance"),
                                  (["--trunc", "0", "verify", "invariance"], 2, "verify invariance"),
                                  (["verify", "all", "--trunc", "1"], 2, "verify all"),
                                  (["--trunc", "1", "verify", "all"], 2, "verify all"),
                                  (["--trunc", "0", "verify", "contractibility"], 1,
                                   "verify contractibility"),
                                  (["--trunc", "0", "homology", "--name", "WTC"], 1, "homology"),
                                  (["--trunc", "0", "homology", "--comma", "id:WTC:b:over"], 1,
                                   "homology")):
            assert main(argv) == 2, argv
            trunc = argv[argv.index("--trunc") + 1]
            assert json.loads(capsys.readouterr().out) == {
                "status": "input-error",
                "errors": [f"--trunc {trunc} is below {least}, the least truncation "
                           f"for {what}"]}, argv
    # the least truncations themselves run, and so do suites with no homology
    assert main(["--trunc", "1", "homology", "--name", "WTC"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["detail"] == "H_0 = Z"
    assert main(["--trunc", "1", "verify", "contractibility"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert main(["--trunc", "0", "verify", "iso112"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("option,argv", [
    ("--manifest", ["validate"]),
    ("--out", ["validate", "--name", "WA"]),
], ids=["manifest", "out"])
def test_unusable_path_is_input_error(tmp_path, capsys, option, argv):
    # a path that cannot be read or written is an input error, not a
    # verification failure (exit 1) or a traceback
    assert main([option, str(tmp_path), *argv]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "status": "input-error", "errors": [f"[Errno 21] Is a directory: {str(tmp_path)!r}"]}


def test_suite_is_named_by_position_only(capsys):
    # `verify` names its suite as README shows it, `twocat verify SUITE`
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "all"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --suite" in capsys.readouterr().err


@pytest.mark.parametrize("argv,error", [
    (["homology", "--name", "WTC", "--comma", "id:WA:0:over"],
     "argument --comma: not allowed with argument --name"),
    (["homology"], "one of the arguments --name --comma is required"),
], ids=["both", "neither"])
def test_homology_names_exactly_one_input(capsys, argv, error):
    # neither input is dropped in favour of the other, nor looked up as None
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert error in capsys.readouterr().err


def _refuse_to_build(*args):
    raise AssertionError("a comma 2-category was built")


@pytest.mark.parametrize("argv,error", [
    (["homology", "--comma", "foo"], "--comma 'foo' is not FUNCTOR:OBJECT:SIDE"),
    (["homology", "--comma", "id:WTC:b"], "--comma 'id:WTC:b' is not FUNCTOR:OBJECT:SIDE"),
    (["homology", "--comma", "id:WTC:b:sideways"],
     "comma side 'sideways' is neither over nor under"),
    (["homology", "--comma", "id:WTC:zzz:over"], "no object 'zzz' in WTC, the target of id:WTC"),
    (["comma", "--functor", "F", "--object", "zzz"], "no object 'zzz' in WTC, the target of F"),
], ids=["malformed", "id-short", "side", "object", "comma-object"])
def test_bad_comma_is_input_error(monkeypatch, capsys, argv, error):
    # none raises, is read as a default side or builds an empty comma: each
    # is rejected before anything is built
    monkeypatch.setattr("twocat.cli.comma", _refuse_to_build)
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out) == {"status": "input-error", "errors": [error]}


def test_degree_outside_truncation_is_input_error(monkeypatch, capsys):
    with monkeypatch.context() as patch:
        patch.setattr("twocat.cli.load_manifest", _refuse_to_load)
        for degree, trunc in (("5", 4), ("-1", 4), ("4", 4), ("0", 0)):
            argv = ["--trunc", str(trunc), "homology", "--comma", "id:WTC:b:over",
                    "--degree", degree]
            assert main(argv) == 2, argv
            assert json.loads(capsys.readouterr().out) == {
                "status": "input-error", "errors": [f"--degree {degree} outside 0..{trunc - 1}"]}
    # the top degree of the range is accepted
    assert main(["--trunc", "2", "homology", "--name", "WTC", "--degree", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["detail"] == "H_1 = 0"


def _construction_argvs(m):
    """Every construction command on every entity of the manifest `m`, at
    truncation 2."""
    for name in sorted(m.two_categories):
        for command in ("nerve", "wbar", "diag", "homology"):
            yield [command, "--name", name]
    for name in sorted(m.diagrams):
        for command in ("groth", "hocolim"):
            yield [command, "--name", name]
    for name, F in sorted(m.two_functors.items()):
        for obj in sorted(F.target.objects, key=repr):
            for side in ("over", "under"):
                yield ["comma", "--functor", name, "--object", str(obj), "--side", side]
                yield ["homology", "--comma", f"{name}:{obj}:{side}"]


def test_construction_commands_gate_on_validation(capsys):
    # no mutant makes a construction command raise or report a construction
    # of an invalid input: each exits 0, 1 or 2, and every check of a
    # mutant's invalid entity fails at its gate
    details = {}
    for item in json.loads((MUTANTS / "index.json").read_text()):
        path = MUTANTS / f"{item['name']}.manifest.json"
        try:
            m = parse(path)
        except ManifestError:
            continue
        for argv in _construction_argvs(m):
            code = main(["--manifest", str(path), "--trunc", "2", *argv])
            out = capsys.readouterr().out
            assert code in (0, 1, 2), (item["name"], argv)
            if code == 1:
                checks = json.loads(out)["checks"]
                assert all(c["detail"].startswith("precondition: ") for c in checks), \
                    (item["name"], argv, out)
            details[item["name"], " ".join(argv)] = out
    m09 = json.loads(details["m09_functor_objects", "comma --functor F --object a --side over"])
    assert m09["status"] == "fail"
    assert m09["checks"][0]["detail"].startswith("precondition: two_functor: ")
    m01 = json.loads(details["m01_table_entry", "nerve --name WTC"])
    assert m01["checks"] == [{"name": "levels[WTC]", "status": "fail",
                              "detail": "precondition: category: hcomp1 unit law fails at g; "
                              "hcomp2[(eg, e1a)] has wrong boundary; "
                              "hcomp2[(phi, e1a)] has wrong boundary"}]


@pytest.mark.parametrize("suite", ["identities", "iso112", "iso114", "retractions", "oplax",
                                   "invariance", "all"])
def test_each_diagram_validated_once_per_suite(monkeypatch, suite):
    # the diagram check, the assembly check and every gate of one diagram,
    # in every suite of the run, share one `validate_diagram` report and one
    # assembly; retractions and oplax reach Dcov and Dpt through the
    # diagram morphism `collapse` too, whose report reuses its ends' reports
    calls = {"validate_diagram": [], "grothendieck": 0}

    def validated(D):
        calls["validate_diagram"].append(D)
        return validate_diagram(D)

    def assembled(D):
        calls["grothendieck"] += 1
        return grothendieck(D)

    monkeypatch.setattr(verify, "validate_diagram", validated)
    monkeypatch.setattr("twocat.core.validate_diagram", validated)
    monkeypatch.setattr(verify, "grothendieck", assembled)
    m = parse(DATA)
    assert run_suite(m, suite)["status"] == "pass"
    # invariance also validates, once, the renamed copy of each diagram
    # that its hocolim_invariance check maps the diagram to
    copies = len(m.diagrams) if suite in ("invariance", "all") else 0
    ids = [id(D) for D in calls["validate_diagram"]]
    assert len(set(ids)) == len(ids) == len(m.diagrams) + copies == 3 + copies
    assert {id(D) for D in m.diagrams.values()} <= set(ids)
    # the homology of each assembly's nerve, in invariance, reads the run's
    # assembly too: each diagram is assembled once in every suite
    assert calls["grothendieck"] == len(m.diagrams)


def _partial_functor_manifests(tmp_path):
    """The corpus with F's 1-cell map missing a, and with its object map
    missing 0, each with the precondition detail it must fail with."""
    corpus = json.loads(DATA.read_text())
    for where, cell, detail in (("on_one_cells", "a", "1-cell map misses a"),
                                ("on_objects", "0", "object map misses 0")):
        data = json.loads(json.dumps(corpus))
        del data["two_functors"]["F"][where][cell]
        path = tmp_path / f"partial_{where}.manifest.json"
        path.write_text(json.dumps(data))
        yield path, f"precondition: two_functor: {detail}"


def test_partial_functor_fails_its_gates_without_crashes(tmp_path, capsys):
    # a 2-functor whose cell maps are not total is reported by its axiom
    # check and stopped by every gate on it; nothing indexes a missing cell
    for path, detail in _partial_functor_manifests(tmp_path):
        m = parse(path)
        for suite in verify.SUITE_FNS:
            rep = run_suite(m, suite)
            assert not [c for c in rep["checks"] if c["status"] == "error"], (path.name, suite)
        failed = {c["name"]: c["detail"] for c in run_suite(m, "all")["checks"]
                  if c["status"] == "fail"}
        axiom = detail.replace("precondition: two_functor", "axiom")
        assert failed.pop("identities:two_functor[F]") == axiom
        assert failed and all(d == detail for d in failed.values()), failed
        for side in ("over", "under"):
            assert main(["--manifest", str(path), "comma", "--functor", "F", "--object", "b",
                         "--side", side]) == 1
            checks = json.loads(capsys.readouterr().out)["checks"]
            assert [c["detail"] for c in checks] == [detail]
