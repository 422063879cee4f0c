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
from twocat.manifest import ManifestError, parse, resolve, serialize
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


def test_round_trip_is_identity():
    m = parse(DATA)
    doc = serialize(m)
    m2 = resolve(doc)
    assert serialize(m2) == doc


def test_2cat_fragment_parses():
    m = parse(DATA.parent / "wtc.2cat")
    assert m.two_categories["WTC"].counts() == (2, 4, 5)


def test_2diag_fragment_parses():
    m = parse(DATA.parent / "fibre-diagram.2diag")
    D = m.diagrams["Dcov"]
    from twocat.core import validate_diagram
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
    assert sorted(set(failed) - set(gated)) == [
        "diagram[Dcov]", "diagram[Drep]", "grothendieck_valid[Dcov]",
        "grothendieck_valid[Drep]", "validate[WTC]"]
    assert not any(d.startswith(("TwoCatError", "KeyError")) for d in failed.values())
    assert not any(c["status"] == "error" for c in rep["checks"])
    # m02 declares a composite on a non-composable pair of WTC: no check
    # crashes; the diagrams with WTC as base or fibre report it
    rep = run_suite(parse(MUTANTS / "m02_noncomposable_pair.manifest.json"), "identities")
    crashed = [c["name"] for c in rep["checks"] if c["status"] == "error"
               or c["status"] == "fail"
               and not c["detail"].startswith(("precondition: ", "axiom: ",
                                               "TwoDiagram invariant: "))]
    assert crashed == []
    details = {c["name"]: c["detail"] for c in rep["checks"]}
    bad_pair = "vcomp2 declared on non-composable pair ('phi', 'phi')"
    assert details["diagram[Drep]"] == f"TwoDiagram invariant: base: {bad_pair}"
    assert details["diagram[Dcov]"] == f"TwoDiagram invariant: fibre 0: {bad_pair}"


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


def test_truncation_too_low_for_a_homology_claim_is_input_error(monkeypatch, capsys):
    # below these truncations the suites compared no homology: invariance
    # passed on "degrees 0..-1", contractibility crashed on an empty list
    with monkeypatch.context() as patch:
        patch.setattr("twocat.cli.load_manifest", _refuse_to_load)
        for argv, least, what in ((["--trunc", "1", "verify", "invariance"], 2, "verify invariance"),
                                  (["--trunc", "0", "verify", "invariance"], 2, "verify invariance"),
                                  (["verify", "all", "--trunc", "1"], 2, "verify all"),
                                  (["--trunc", "1", "verify", "--suite", "all"], 2, "verify all"),
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


def _refuse_to_build(*args):
    raise AssertionError("a comma 2-category was built")


@pytest.mark.parametrize("argv,error", [
    (["homology", "--comma", "foo"], "--comma 'foo' is not FUNCTOR:OBJECT:SIDE"),
    (["homology", "--comma", "id:WTC:b:sideways"],
     "comma side 'sideways' is neither over nor under"),
    (["homology", "--comma", "id:WTC:zzz:over"], "no object 'zzz' in WTC, the target of id:WTC"),
    (["comma", "--functor", "F", "--object", "zzz"], "no object 'zzz' in WTC, the target of F"),
], ids=["malformed", "side", "object", "comma-object"])
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
    # diagram morphism `collapse` too
    calls = {"validate_diagram": 0, "grothendieck": 0}

    def counted(name):
        fn = getattr(verify, name)

        def count(D):
            calls[name] += 1
            return fn(D)
        return count

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name))
    m = parse(DATA)
    assert run_suite(m, suite)["status"] == "pass"
    assert calls["validate_diagram"] == len(m.diagrams) == 3
    # invariance also assembles each diagram for the homology of its nerve
    assert calls["grothendieck"] == len(m.diagrams) * (2 if suite in ("invariance", "all") else 1)


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
