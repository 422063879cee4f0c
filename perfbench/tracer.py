"""Per-layer tracing from outside the program.

`Tracer` wraps public functions of the `twocat` modules (a layer is a
module) and records one span per call: metric, start, end, parent.  Spans
are kept in memory; `metrics()` reduces them at the end of a pass.

A span's self time is its duration minus the time its child spans cover.
Every `*_s` metric is a self time, except `verify.<suite>_s` and
`verify.check_p50_s` / `verify.check_p90_s`, which are whole wall times of
a suite and of one check.  The level and face rules that `nerves` and
`hocolim` pass into `simplicial.build_*` run inside the build span, so
their time counts under `simplicial.build_s`.

Modules import each other by name (`from .homology import homology`), so
`install` rebinds every attribute of every `twocat` module that holds a
wrapped function, the suite table `verify.SUITE_FNS` and `Runner.run`.
`restore` puts every original back and raises if one is missing.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

SUITES = ("identities", "iso112", "iso114", "retractions", "oplax",
          "contractibility", "invariance")

# module -> {public function: self-time metric}
SPANS = {
    "homology": {
        "smith_normal_form": "homology.snf_s",
        "normalized_chain_complex": "homology.chain_complex_s",
        "chain_map": "homology.chain_map_s",
        "is_homology_iso_upto": "homology.iso_check_s",
        "homology": "homology.homology_s",
    },
    "simplicial": {
        "build_simplicial": "simplicial.build_s",
        "build_bisimplicial": "simplicial.build_s",
        "build_trisimplicial": "simplicial.build_s",
        "tri_diag": "simplicial.tri_diag_s",
        "diag": "simplicial.diag_s",
        "wbar": "simplicial.wbar_s",
        "simplicial_map": "simplicial.map_s",
        "check_simplicial_identities": "simplicial.check_identities_s",
        "check_simplicial_map": "simplicial.check_identities_s",
        "verify_iso": "simplicial.verify_iso_s",
        "aw_map": "simplicial.aw_map_s",
    },
    "nerves": {
        "diag_nn": "nerves.diag_nn_s",
        "diag_nn_map": "nerves.diag_nn_s",
        "double_nerve": "nerves.double_nerve_s",
        "wbar_double_nerve": "nerves.wbar_s",
        "nerve_simplicial_twocat": "nerves.nerve_simplicial_twocat_s",
        "nerve_category": "nerves.nerve_category_s",
        "repackage_staircase": "nerves.repackage_s",
    },
    "hocolim": {
        "hocolim": "hocolim.hocolim_s",
        "build_E": "hocolim.build_E_s",
        "build_E_pull": "hocolim.build_E_s",
        "hocolim_wbar_comparison": "hocolim.comparison_s",
        "grothendieck_wbar_comparison": "hocolim.comparison_s",
        "hocolim_map": "hocolim.map_s",
        "hocolim_level_product_iso": "hocolim.map_s",
        "check_simplicial_two_category": "hocolim.checks_s",
        "reversal_bridge_report": "hocolim.checks_s",
    },
    "grothendieck": {
        "grothendieck": "grothendieck.assemble_s",
        "grothendieck_morphism": "grothendieck.induced_s",
        "projection_functor": "grothendieck.induced_s",
        "fibre_embedding": "grothendieck.induced_s",
        "pullback_diagram": "grothendieck.induced_s",
        "base_change": "grothendieck.induced_s",
    },
    "comma": {
        "comma": "comma.comma_s",
        "comma_diagram": "comma.comma_s",
        "comma_projection": "comma.comma_s",
        "representable_diagram": "comma.comma_s",
        "fibre_diagram": "comma.comma_s",
        "projections": "comma.projections_s",
        "retraction_R": "comma.retraction_s",
        "section_jz_iz": "comma.section_s",
    },
    "core": {
        "validate": "core.validate_s",
        "check_cell_map": "core.check_cell_map_s",
        "validate_diagram": "core.validate_diagram_s",
        "validate_diagram_morphism": "core.validate_diagram_s",
    },
    "manifest": {"parse": "manifest.parse_s"},
    "verify": {"run_suite": "verify.self_s"},
    "cli": {"main": "cli.main_s"},
}

COUNTS = ("homology.snf_calls", "homology.snf_entries", "homology.snf_nonzeros",
          "simplicial.simplices_built", "simplicial.tri_diag_in",
          "nerves.diag_nn_in", "manifest.rejects", "core.violations",
          "verify.checks", "verify.crash_fail_checks")
RATIOS = ("homology.snf_repeat_ratio", "simplicial.tri_used_ratio",
          "nerves.diag_used_ratio")
WALLS = tuple(f"verify.{s}_s" for s in SUITES) + ("verify.check_p50_s",
                                                   "verify.check_p90_s")
OVERALL = ("trace.wall_s", "trace.overhead_s", "trace.self_share",
           "trace.unattributed_s", "trace.spans")


def metric_names() -> list:
    """Every per-layer metric `metrics()` reports, in a fixed order."""
    selfs = sorted({m for table in SPANS.values() for m in table.values()})
    return selfs + list(COUNTS) + list(RATIOS) + list(WALLS) + list(OVERALL)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in RATIOS or name == "trace.self_share" else "count"


def _cells(X) -> int:
    return sum(len(v) for v in X.cells.values())


class Tracer:
    """Spans and counters of one traced pass over the `twocat` modules."""

    def __init__(self):
        self.spans = []     # [metric, start, end, parent index, hook seconds, function]
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.snf_seen = set()
        self.tri_out = self.diag_out = 0
        self.suite_s = {}
        self.check_s = []
        self._saved = []    # (setter, getter, key, original)

    # -- hooks: counts taken where the work happens ------------------------
    def _pre(self, name, args):
        if name == "smith_normal_form":
            A = args[0]
            self.counts["homology.snf_calls"] += 1
            self.counts["homology.snf_entries"] += len(A) * (len(A[0]) if A else 0)
            self.counts["homology.snf_nonzeros"] += sum(
                1 for row in A for v in row if v)
            self.snf_seen.add(hash(tuple(map(tuple, A))))
        elif name == "tri_diag":
            self.counts["simplicial.tri_diag_in"] += _cells(args[0])
        elif name == "diag" and self.stack and \
                self.spans[self.stack[-1]][0] == "nerves.diag_nn_s":
            self.counts["nerves.diag_nn_in"] += _cells(args[0])
            return True
        return None

    def _post(self, name, state, result, exc):
        if exc is not None:
            if name == "parse" and type(exc).__name__ == "ManifestError":
                self.counts["manifest.rejects"] += 1
            return
        if name in ("build_simplicial", "build_bisimplicial", "build_trisimplicial"):
            self.counts["simplicial.simplices_built"] += _cells(result)
        elif name == "tri_diag":
            self.tri_out += _cells(result)
        elif name == "diag" and state:
            self.diag_out += _cells(result)
        elif name in ("validate", "check_cell_map", "validate_diagram",
                      "validate_diagram_morphism"):
            self.counts["core.violations"] += len(result.violations)

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, metric, name, wall=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        pre, post = self._pre, self._post

        def traced(*args, **kwargs):
            h0 = clock()
            state = pre(name, args)
            span = [metric, 0.0, 0.0, stack[-1] if stack else -1, 0.0, name]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            t0 = span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = span[2] = clock()
                stack.pop()
                if wall is not None:
                    wall(t1 - t0)
                post(name, state, result, exc)
                span[4] = (t0 - h0) + (clock() - t1)

        traced.__wrapped__ = fn
        return traced

    def _wrap_check(self, run):
        """Runner.run(self, name, fn): one span per check, and a crash
        count for checks whose fn raised (the Runner records those as
        failures with the exception as detail)."""
        def body_of(fn):
            def checked():
                try:
                    return fn()
                except Exception:
                    self.counts["verify.crash_fail_checks"] += 1
                    raise
            return checked

        return self._wrap(lambda r, name, fn: run(r, name, body_of(fn)),
                          "verify.self_s", "check", wall=self.check_s.append)

    def _set(self, setter, getter, key, new):
        self._saved.append((setter, getter, key, getter(key)))
        setter(key, new)

    def install(self):
        mods = {n: m for n, m in sys.modules.items()
                if (n == "twocat" or n.startswith("twocat.")) and m is not None}
        wrappers = {}
        for mod, table in SPANS.items():
            m = mods[f"twocat.{mod}"]
            for name, metric in table.items():
                fn = getattr(m, name)
                wrappers[id(fn)] = self._wrap(fn, metric, name)
        for m in mods.values():
            for attr, value in list(vars(m).items()):
                if callable(value) and id(value) in wrappers:
                    self._set(lambda k, v, m=m: setattr(m, k, v),
                              lambda k, m=m: getattr(m, k), attr, wrappers[id(value)])
        verify = mods["twocat.verify"]
        fns = verify.SUITE_FNS
        for suite in SUITES:
            wall = lambda s, suite=suite: self.suite_s.__setitem__(
                suite, self.suite_s.get(suite, 0.0) + s)
            self._set(fns.__setitem__, fns.__getitem__, suite,
                      self._wrap(fns[suite], "verify.self_s", suite, wall=wall))
        runner = verify.Runner
        self._set(lambda k, v: setattr(runner, k, v),
                  lambda k: runner.__dict__[k], "run",
                  self._wrap_check(runner.__dict__["run"]))
        return self

    def restore(self):
        """Put every original back; raise if any attribute is not restored."""
        for setter, _, key, original in reversed(self._saved):
            setter(key, original)
        wrong = [key for _, getter, key, original in self._saved
                 if getter(key) is not original]
        self._saved.clear()
        if wrong:
            raise RuntimeError(f"tracer left wrapped attributes: {wrong}")

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self, path):
        """Write the spans as JSON lines: function, metric, start and end in
        seconds from the first span, and the index of the parent span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for metric, start, end, parent, _, name in self.spans:
                fh.write(json.dumps({"fn": name, "metric": metric, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")

    # -- reduction ---------------------------------------------------------
    def metrics(self, wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics of the pass just traced; `wall` is its traced
        wall time and `untraced_wall` that of an untraced pass."""
        out = {name: 0.0 for name in metric_names()}
        covered = [0.0] * len(self.spans)
        root = 0.0
        for metric, start, end, parent, hook, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start + hook
            else:
                root += end - start + hook
        self_total = 0.0
        for (metric, start, end, *_), child in zip(self.spans, covered):
            own = end - start - child
            out[metric] += own
            self_total += own
        out.update(self.counts)
        out["verify.checks"] = len(self.check_s)
        calls = self.counts["homology.snf_calls"]
        out["homology.snf_repeat_ratio"] = calls / len(self.snf_seen) if calls else 0.0
        tri_in = self.counts["simplicial.tri_diag_in"]
        out["simplicial.tri_used_ratio"] = self.tri_out / tri_in if tri_in else 0.0
        dn_in = self.counts["nerves.diag_nn_in"]
        out["nerves.diag_used_ratio"] = self.diag_out / dn_in if dn_in else 0.0
        for suite, s in self.suite_s.items():
            out[f"verify.{suite}_s"] = s
        if len(self.check_s) >= 2:
            cuts = statistics.quantiles(self.check_s, n=10, method="inclusive")
            out["verify.check_p50_s"] = statistics.median(self.check_s)
            out["verify.check_p90_s"] = cuts[8]
        out["trace.wall_s"] = wall
        out["trace.overhead_s"] = wall - untraced_wall
        out["trace.self_share"] = self_total / wall if wall else 0.0
        out["trace.unattributed_s"] = wall - root
        out["trace.spans"] = len(self.spans)
        return out
