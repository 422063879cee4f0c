"""Print a digest of every `twocat verify` report this checkout writes, so
that two checkouts can be compared by diffing this script's output.

    python scripts/report_digests.py > digests.txt

Each line is one run of `python -m twocat.cli` from this checkout's `src`
with `PYTHONHASHSEED=0`: the input (`corpus` or a bundled mutant's file
name), the arguments (a mutant's path relative to the checkout), the exit
code and the sha256 of stdout.  The runs are every suite on the corpus and
on each bundled mutant, then `verify invariance` on the corpus at
`--trunc` 2, 3 and 5."""

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


def runs():
    """(input, arguments) of each run, in order."""
    inputs = [("corpus", [])] + [(p.name, ["--manifest", str(p.relative_to(ROOT))])
                                 for p in sorted(MUTANTS.glob("*.manifest.json"))]
    for name, manifest in inputs:
        for suite in SUITES:
            yield name, manifest + ["verify", suite]
    for trunc in (2, 3, 5):
        yield "corpus", ["--trunc", str(trunc), "verify", "invariance"]


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
