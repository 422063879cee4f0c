"""The four workloads.

Each workload has a `setup(api, rng, root)` that loads or generates its
inputs and validates them, and a `body(api, inputs)` that runs one pass
through the public `twocat` API and checks every verdict against the
known answers in `oracle`.  A body returns an `Outcome`.  Bodies call
`api.<module>.<function>` at call time, so a traced pass sees the wrapped
functions.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

import inputs
import oracle


@dataclass
class Outcome:
    attempted: int = 0
    failed: list = field(default_factory=list)   # one line per failed item
    output: list = field(default_factory=list)   # must repeat in every pass

    def item(self, name, fn):
        """Run one checked item: fn() returns (ok, output)."""
        self.attempted += 1
        try:
            ok, out = fn()
        except Exception as exc:  # noqa: BLE001 - a raise is a failed item
            ok, out = False, f"{type(exc).__name__}: {exc}"
        self.output.append(f"{name}: {out}")
        if not ok:
            self.failed.append(f"{name}: {out}")


def call_cli(api, argv):
    """(exit code, stdout) of `twocat.cli.main(argv)`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = api.cli.main(argv)
    return rc, buf.getvalue()


def _data(root):
    return root / "src" / "twocat" / "data"


# -- corpus-verify -----------------------------------------------------------

def corpus_setup(api, rng, root):
    m = api.manifest.parse(str(_data(root) / "corpus.manifest.json"))
    for C in m.two_categories.values():
        inputs.validated(api, C)
    return ["verify", "all"]


def corpus_body(api, argv):
    out = Outcome()
    try:
        rc, text = call_cli(api, argv)
        report = json.loads(text)
    except Exception as exc:  # noqa: BLE001 - counted against every check
        rc, text, report = None, f"{type(exc).__name__}: {exc}", {}
    bad = oracle.corpus_misses(rc, report)
    out.attempted = oracle.CORPUS_CHECKS
    out.failed = bad[:oracle.CORPUS_CHECKS]
    out.output = [text]
    return out


# -- mutant-verify -----------------------------------------------------------

def mutant_setup(api, rng, root):
    folder = _data(root) / "mutants"
    index = json.loads((folder / "index.json").read_text())
    if len(index) != oracle.MUTANT_COUNT:
        raise ValueError(f"{len(index)} mutants, expected {oracle.MUTANT_COUNT}")
    runs = []
    for entry in index:
        path = folder / f"{entry['name']}.manifest.json"
        json.loads(path.read_text())
        if entry["suite"] not in api.verify.SUITES:
            raise ValueError(f"{entry['name']}: unknown suite {entry['suite']!r}")
        runs.append((entry["name"], ["--manifest", str(path), "verify", entry["suite"]]))
    return runs


def mutant_body(api, runs):
    out = Outcome()
    for name, argv in runs:
        def one(argv=argv):
            rc, text = call_cli(api, argv)
            return rc != 0, f"exit {rc}"
        out.item(name, one)
    return out


# -- nerve-ladder ------------------------------------------------------------

def nerve_setup(api, rng, root):
    return inputs.nerve_ladder(api, rng)


def nerve_body(api, rungs):
    out = Outcome()
    nv, sx = api.nerves, api.simplicial
    for k, N, C in rungs:
        tag = f"WTC^{k} N={N}"

        def valid():
            return api.core.validate(C).ok, "valid"

        def dn():
            B = nv.double_nerve(C, N)
            want = {(p, q): oracle.double_nerve_size(k, p, q)
                    for p in range(N + 1) for q in range(N + 1)}
            got = {key: len(cells) for key, cells in B.cells.items()}
            ok = got == want and sx.check_simplicial_identities(B).ok
            return ok, str(sorted(got.items()))

        def levels(build, want):
            def item():
                X = build(C, N)
                return (X.sizes() == want and sx.check_simplicial_identities(X).ok,
                        str(X.sizes()))
            return item

        out.item(f"validate[{tag}]", valid)
        out.item(f"double_nerve[{tag}]", dn)
        out.item(f"diag_nn[{tag}]", levels(nv.diag_nn, oracle.diag_sizes(k, N)))
        out.item(f"wbar[{tag}]", levels(nv.wbar_double_nerve, oracle.wbar_sizes(k, N)))
    return out


# -- homology-ladder ---------------------------------------------------------

def homology_setup(api, rng, root):
    return inputs.homology_ladder(api, rng)


def homology_body(api, rungs):
    out = Outcome()
    hm = api.homology
    for n, j, N, C in rungs:
        tag = f"BZ{n}xWTC^{j} N={N}"
        try:
            cc = hm.normalized_chain_complex(api.nerves.diag_nn(C, N))
        except Exception as exc:  # noqa: BLE001 - every degree of the rung fails
            for i in range(N):
                out.item(f"H_{i}[{tag}]", lambda: (False, f"{type(exc).__name__}: {exc}"))
            continue
        for i in range(N):
            def degree(i=i):
                h = hm.homology(cc, i)
                return (h.betti, h.torsion) == oracle.cyclic_homology(n, i), str(h)
            out.item(f"H_{i}[{tag}]", degree)
    return out


@dataclass(frozen=True)
class Workload:
    setup: object
    body: object


WORKLOADS = {
    "corpus-verify": Workload(corpus_setup, corpus_body),
    "mutant-verify": Workload(mutant_setup, mutant_body),
    "nerve-ladder": Workload(nerve_setup, nerve_body),
    "homology-ladder": Workload(homology_setup, homology_body),
}
