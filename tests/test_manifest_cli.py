import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twocat.cli import bundled_manifest_path
from twocat.manifest import ManifestError, parse, resolve, serialize
from twocat.verify import run_suite

DATA = Path(bundled_manifest_path())
MUTANTS = DATA.parent / "mutants"


def run_cli(*args, hash_seed=None):
    env = None if hash_seed is None else {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    p = subprocess.run([sys.executable, "-m", "twocat.cli", *args],
                       capture_output=True, text=True, timeout=500, env=env)
    return p.returncode, p.stdout


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


def test_invariance_rejects_invalid_inputs_before_building():
    # m10 corrupts a vertical composite of WAf, which is also a fibre of Dcov
    rep = run_suite(parse(MUTANTS / "m10_vertical_composite.manifest.json"), "invariance")
    failed = {c["name"]: c["detail"] for c in rep["checks"] if c["status"] == "fail"}
    assert sorted(failed) == ["aw_homology[WAf]", "aw_homology_groth[Dcov]",
                              "hocolim_invariance[Dcov]", "projection_homology[bang_WAf]",
                              "projection_homology[push]"]
    assert all(d.startswith("precondition: ") for d in failed.values()), failed


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
