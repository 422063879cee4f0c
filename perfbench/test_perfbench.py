"""Tests of the benchmark itself:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys

import pytest

import inputs
import oracle
import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def api():
    if str(run.ROOT / "src") not in sys.path:
        sys.path.insert(0, str(run.ROOT / "src"))
    return run.load_twocat()


def test_metric_and_workload_names_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]] + \
            [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(n, tracer.unit(n)) for n in tracer.metric_names()]


def test_every_layer_metric_has_one_prediction():
    rows = json.loads((run.ROOT / "perfbench" / "predictions.json").read_text())["predictions"]
    predicted = [m for row in rows for m in row["metrics"]]
    layer = [n for n in tracer.metric_names() if not n.startswith("trace.")]
    assert sorted(predicted) == sorted(layer)
    for row in rows:
        assert set(row["moves"]) <= set(run.E2E_UNITS) | {"failed_share"}
        assert set(row["on"] + row["unchanged_on"]) <= set(workloads.WORKLOADS)


def test_oracle_matches_hand_counts_on_wtc(api):
    # NN(WTC)(p, q) counted by hand: p = 0 gives the objects a, b; otherwise
    # the strings a..a and b..b plus p positions of the a -> b step, each
    # with q + 2 monotone f/g words.
    hand_nn = {(0, 0): 2, (0, 1): 2, (0, 2): 2, (1, 0): 4, (1, 1): 5, (1, 2): 6,
               (2, 0): 6, (2, 1): 8, (2, 2): 10}
    hand_diag, hand_wbar = [2, 5, 10], [2, 4, 7]
    assert {key: oracle.double_nerve_size(1, *key) for key in hand_nn} == hand_nn
    assert oracle.diag_sizes(1, 2) == hand_diag
    assert oracle.wbar_sizes(1, 2) == hand_wbar
    wtc = api.builders.walking_two_cell()
    B = api.nerves.double_nerve(wtc, 2)
    assert {key: len(cells) for key, cells in B.cells.items()} == hand_nn
    assert api.nerves.diag_nn(wtc, 2).sizes() == hand_diag
    assert api.nerves.wbar_double_nerve(wtc, 2).sizes() == hand_wbar


def test_oracle_matches_hand_homology_of_bz2(api):
    # B(Z/2) is RP-infinity: one simplex per word in the group, H_0 = Z,
    # H_1 = Z/2.
    hand = {0: (1, ()), 1: (0, (2,))}
    assert {i: oracle.cyclic_homology(2, i) for i in hand} == hand
    X = api.nerves.diag_nn(inputs.cyclic_group_category(api, 2), 2)
    assert X.sizes() == [1, 2, 4]
    cc = api.homology.normalized_chain_complex(X)
    assert {i: (h.betti, h.torsion) for i in hand
            for h in [api.homology.homology(cc, i)]} == hand


def test_seeds_change_labels_but_not_sizes(api):
    def ladder(seed):
        return inputs.nerve_ladder(api, random.Random(seed), rungs=((2, 2),))[0][2]

    a, b, a_again = ladder(1), ladder(2), ladder(1)
    assert a.objects == a_again.objects and a.objects != b.objects
    assert api.nerves.diag_nn(a, 2).sizes() == api.nerves.diag_nn(b, 2).sizes() \
        == oracle.diag_sizes(2, 2)


@pytest.mark.parametrize("name, rungs", [
    ("corpus-verify", None),
    ("mutant-verify", None),
    ("nerve-ladder", ((2, 2),)),
    ("homology-ladder", ((3, 0, 3), (2, 1, 3))),
])
def test_one_rung_smoke_run_has_no_failures(api, name, rungs):
    w = workloads.WORKLOADS[name]
    rng = random.Random(7)
    if rungs is None:
        data = w.setup(api, rng, run.ROOT)
    elif name == "nerve-ladder":
        data = inputs.nerve_ladder(api, rng, rungs)
    else:
        data = inputs.homology_ladder(api, rng, rungs)
    out = w.body(api, data)
    assert out.attempted > 0 and out.failed == []


def test_oracle_catches_wrong_answers(api):
    rng = random.Random(3)
    (_, j, N, C), = inputs.homology_ladder(api, rng, ((2, 0, 3),))
    out = workloads.homology_body(api, [(3, j, N, C)])   # claims Z/3
    assert [line.split(":")[0] for line in out.failed] == ["H_1[BZ3xWTC^0 N=3]"]
    (_, N, C), = inputs.nerve_ladder(api, rng, ((2, 2),))
    out = workloads.nerve_body(api, [(3, N, C)])          # claims WTC^3
    assert len(out.failed) == 3


def test_tracer_restores_everything_and_keeps_the_report(api):
    def snapshot():
        mods = [m for n, m in sys.modules.items()
                if n == "twocat" or n.startswith("twocat.")]
        state = {(m.__name__, k): v for m in mods for k, v in vars(m).items()
                 if callable(v)}
        state["SUITE_FNS"] = dict(api.verify.SUITE_FNS)
        state["Runner.run"] = api.verify.Runner.__dict__["run"]
        return state

    before = snapshot()
    argv = ["verify", "iso112"]
    rc, plain = workloads.call_cli(api, argv)
    t = tracer.Tracer()
    with t:
        # modules that imported by name see the wrapper too
        assert api.verify.homology is api.homology.homology
        assert sys.modules["twocat"].homology is api.homology.homology
        assert hasattr(api.homology.homology, "__wrapped__")
        rc_traced, traced = workloads.call_cli(api, argv)
    assert snapshot() == before
    assert (rc_traced, traced) == (rc, plain) and rc == 0
    m = t.metrics(1.0, 1.0)
    assert set(m) == set(tracer.metric_names())
    assert m["verify.checks"] == len(json.loads(plain)["checks"])
    assert m["verify.iso112_s"] > 0 and m["hocolim.comparison_s"] > 0


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "nerve-ladder",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""
