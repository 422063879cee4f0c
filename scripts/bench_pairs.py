"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python scripts/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \\
        --seeds 3 4 5 6 7 8 9 10 11 12 --out bench.json

Each side is a git revision of this repository, exported with `git archive`
into a fresh temporary directory, so both sides run from a clean tree, each
with its own `perfbench/run.py`, for the `run_seconds` that `BENCHMARK.json`
fixes.  The output names each side's commit and the tree hashes of its
`src` and `perfbench` (`git rev-parse <commit>:src`), which identify the
measured code in any clone that holds the same files.

Pair k runs every workload once on each side with the k-th seed (the list
is cycled); the side that runs first alternates from pair to pair.  For
each workload and each end-to-end metric of `BENCHMARK.json` the output
holds both sides' runs with their min, q1, median and q3, the number of
pairs the change won (strictly better in the metric's direction), whether
the medians differ by more than the parent's interquartile range, and a
verdict against the metric's relative `bound`:

- `unresolved`: the parent's interquartile range is more than `bound` of
  its median, so a shift within the bound cannot be told from noise;
  `better` instead if every change run beats every parent run;
- `worse`: the change's median is worse than the parent's by more than
  `bound` of it;
- `better`: the mirror of `worse`, the change's median better than the
  parent's by more than `bound` of it;
- `within`: none of these.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TREES = ("src", "perfbench")


def export(revision, dest):
    """A clean copy of the git `revision` at `dest`; returns its commit and
    the tree hashes of the directories the benchmark runs."""
    git = ["git", "-C", str(ROOT)]
    rev = lambda name: subprocess.run(git + ["rev-parse", "--verify", name],
                                      stdout=subprocess.PIPE, text=True,
                                      check=True).stdout.strip()
    commit = rev(f"{revision}^{{commit}}")
    dest.mkdir()
    archive = subprocess.run(git + ["archive", commit],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return {"commit": commit, "trees": {d: rev(f"{commit}:{d}") for d in TREES}}


def run_once(tree, workload, seed, seconds):
    """{metric: value} of one untraced run, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    if proc.returncode or not result.get("correct"):
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": min(values), "q1": q1, "median": median, "q3": q3, "runs": values}


def verdict(parent, change, sign, bound):
    """`better`, `unresolved`, `worse` or `within`, as the module docstring
    defines them, for two summaries; `sign` is 1 when lower is better."""
    if (parent["q3"] - parent["q1"]) / parent["median"] > bound:
        beaten = max(sign * c for c in change["runs"]) < min(sign * p for p in parent["runs"])
        return "better" if beaten else "unresolved"
    shift = sign * (change["median"] - parent["median"]) / parent["median"]
    if shift > bound:
        return "worse"
    return "better" if shift < -bound else "within"


def compare(pairs, metric):
    """Both sides' quartiles, the change's wins, the significance test and
    the verdict over the pairs in which both runs succeeded; `metric` is
    an `end_to_end` entry of `BENCHMARK.json`."""
    name, better = metric["name"], metric["better"]
    ok = [(p, c) for p, c in pairs if p is not None and c is not None]
    if len(ok) < 2:
        return {"pairs": len(ok)}
    parent = summary([p[name] for p, _ in ok])
    change = summary([c[name] for _, c in ok])
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p[name] - c[name]) > 0 for p, c in ok)
    gain = sign * (parent["median"] - change["median"])
    return {"better": better, "pairs": len(ok), "wins": wins,
            "parent": parent, "change": change, "median_gain": gain,
            "beyond_parent_iqr": gain > parent["q3"] - parent["q1"],
            "verdict": verdict(parent, change, sign, metric["bound"])}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", required=True, help="git revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--workdir", help="where the exported trees go (default: the system temp)")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        trees = {side: pathlib.Path(tmp) / side for side in SIDES}
        sources = {side: export(getattr(args, side), trees[side]) for side in SIDES}
        runs = {w: [] for w in workloads}   # workload -> [(parent, change)]
        for k in range(args.pairs):
            seed = args.seeds[k % len(args.seeds)]
            for w in workloads:
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                got = {side: run_once(trees[side], w, seed, seconds) for side in order}
                runs[w].append((got["parent"], got["change"]))
                print(f"pair {k + 1}/{args.pairs} seed {seed} {w}: "
                      + "  ".join(f"{side} {got[side] and round(got[side]['wall_s'], 3)}"
                                  for side in SIDES), flush=True)

    report = {
        **sources, "pairs": args.pairs,
        "seeds": args.seeds, "seconds": seconds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "workloads": {w: {"failed_runs": {side: sum(pair[i] is None for pair in runs[w])
                                          for i, side in enumerate(SIDES)},
                          **{m["name"]: compare(runs[w], m) for m in spec["end_to_end"]}}
                      for w in workloads}}
    pathlib.Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
