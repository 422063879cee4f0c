"""Benchmark of twocat: one workload per process, single-threaded.

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each is there): corpus-verify,
mutant-verify, nerve-ladder, homology-ladder; `--workload all` runs each in
turn in a fresh process.

Set-up imports `twocat` afresh from `src/` of this checkout and loads or
generates and validates the inputs; it runs SETUP_REPEATS times and
`setup_s` is the median.  Then whole passes of the workload body run, at
least MIN_PASSES, and more while the next is expected to end within
`--seconds`.  Every verdict is checked against a known answer, and every
pass must give the same output as the first.

--trace 0 reports the end-to-end metrics: `wall_s` (median pass),
`setup_s` and `peak_rss_mib`.  --trace 1 alternates an untraced and a
traced pass and reports the per-layer metrics of `tracer`, each the median
over traced passes.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when every item matched its known answer.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pathlib
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import types

import tracer as tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
MIN_PASSES = 2
SPANS_DIR = ROOT / ".perfbench"   # spans of the last traced pass of a run
DEADLINE_S = 160   # the whole run, set-up included, ends before 180 s
MODULES = ("core", "builders", "simplicial", "nerves", "homology",
           "manifest", "verify", "cli")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class Deadline(BaseException):
    """Raised by the run timer; a BaseException so that no `except
    Exception` inside the program or a suite can swallow it."""


def load_twocat():
    """Import `twocat` afresh from this checkout; the namespace of its
    modules is what the workloads call."""
    for name in [n for n in sys.modules if n == "twocat" or n.startswith("twocat.")]:
        del sys.modules[name]
    pkg = importlib.import_module("twocat")
    if pathlib.Path(pkg.__file__).resolve().parent != ROOT / "src" / "twocat":
        raise ImportError(f"twocat imported from {pkg.__file__}, not this checkout")
    return types.SimpleNamespace(**{m: importlib.import_module(f"twocat.{m}")
                                    for m in MODULES})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"],
                    help="'all' runs every workload, each in a fresh process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup(workload, seed):
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        api = load_twocat()
        data = workload.setup(api, random.Random(seed), ROOT)
        times.append(time.perf_counter() - t0)
    return api, data, statistics.median(times)


class Passes:
    """Outcomes and wall times of the passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.first_output = None
        self.untraced = []
        self.layers = []
        self.tracer = None   # of the last traced pass

    def run(self, workload, api, data, tracer=None):
        gc.collect()   # every pass starts without the garbage of the last
        t0 = time.perf_counter()
        if tracer is None:
            out = workload.body(api, data)
        else:
            with tracer:
                out = workload.body(api, data)
        wall = time.perf_counter() - t0
        self.attempted += out.attempted
        self.failed += out.failed
        if self.first_output is None:
            self.first_output = out.output
        elif out.output != self.first_output:
            # the report must be byte-identical in every pass, traced or not
            self.failed += [f"output differs from the first pass: {line[:200]}"
                            for line in out.output if line not in self.first_output]
        return wall


def measure(workload, api, data, seconds, trace):
    """Run MIN_PASSES passes (pairs of an untraced and a traced pass with
    --trace 1; one pair at least), then more while the next one is expected
    to end within `seconds` of the start."""
    passes = Passes()
    start = time.perf_counter()
    while True:
        passes.untraced.append(passes.run(workload, api, data))
        if trace:
            passes.tracer = tracing.Tracer()
            wall = passes.run(workload, api, data, tracer=passes.tracer)
            passes.layers.append(passes.tracer.metrics(wall, passes.untraced[-1]))
        done = len(passes.untraced)
        elapsed = time.perf_counter() - start
        if done >= (1 if trace else MIN_PASSES) and elapsed * (done + 1) / done > seconds:
            return passes


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; nonzero if any fails."""
    failures = 0
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="", flush=True)
        failures += child.returncode != 0
    return 1 if failures else 0


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "twocat" / "__init__.py").is_file():
        print(f"run.py: no twocat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.WORKLOADS[args.workload]

    def expire(signum, frame):
        raise Deadline(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        api, data, setup_s = setup(workload, args.seed)
        passes = measure(workload, api, data, args.seconds, args.trace)
    except Deadline as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        passes.tracer.dump(SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = {name: {"value": statistics.median(p[name] for p in passes.layers),
                          "unit": tracing.unit(name)}
                   for name in tracing.metric_names()}
    else:
        metrics = {"wall_s": statistics.median(passes.untraced),
                   "setup_s": setup_s, "peak_rss_mib": rss_mib}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}

    failed = min(len(passes.failed), passes.attempted)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes.untraced)} passes in {time.perf_counter() - started:.1f} s")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':32s} {failed / passes.attempted:.6g} "
          f"({failed} of {passes.attempted} items)")
    for line in passes.failed[:20]:
        print(f"  FAILED {line[:300]}")
    print(json.dumps({"correct": failed == 0, "attempted": passes.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
