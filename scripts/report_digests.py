"""Print a digest of every report this checkout's CLI writes, so that two
checkouts can be compared by diffing this script's output.

    python scripts/report_digests.py > digests.txt

Each line is one run of `python -m twocat.cli` from this checkout's `src`
with `PYTHONHASHSEED=0`: the input (`corpus` or a bundled mutant's file
name), the arguments (a mutant's path relative to the checkout), the exit
code and the sha256 of stdout.  The runs are every suite on the corpus and
on each bundled mutant, then `verify invariance` on the corpus at
`--trunc` 2, 3 and 5, then the construction commands at their default
truncation: `validate`, on the corpus and on each mutant, and on each input
that parses, `validate --name` of each 2-category and every construction
command on every entity (`construction_argvs`)."""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MUTANTS = SRC / "twocat" / "data" / "mutants"
SUITES = ("identities", "iso112", "iso114", "retractions", "oplax",
          "contractibility", "invariance", "all")


def construction_argvs(m):
    """Every construction command on every entity of the manifest `m`."""
    for name in sorted(m.two_categories):
        yield ["validate", "--name", name]
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


def runs():
    """(input, arguments) of each run, in order."""
    sys.path.insert(0, str(SRC))
    from twocat.manifest import ManifestError, parse

    inputs = [("corpus", [], SRC / "twocat" / "data" / "corpus.manifest.json")]
    inputs += [(p.name, ["--manifest", str(p.relative_to(ROOT))], p)
               for p in sorted(MUTANTS.glob("*.manifest.json"))]
    for name, manifest, _ in inputs:
        for suite in SUITES:
            yield name, manifest + ["verify", suite]
    for trunc in (2, 3, 5):
        yield "corpus", ["--trunc", str(trunc), "verify", "invariance"]
    for name, manifest, path in inputs:
        yield name, manifest + ["validate"]
        try:
            m = parse(path)
        except ManifestError:
            continue
        for argv in construction_argvs(m):
            yield name, manifest + argv


def main() -> int:
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(SRC)}
    for name, args in runs():
        proc = subprocess.run([sys.executable, "-m", "twocat.cli", *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
        print(name, " ".join(args), proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
