"""Every level and every structure-map table of the bundled double nerves,
resolutions and nerves of homotopy colimits, and of the double nerves of the
bundled assemblies and homotopy fibres, pinned by digest.  The assemblies'
tables follow the order in which `grothendieck` inserts cells, which the
cell-map digests, sorted by `repr`, do not see.

`tests/golden/tables.json` holds `table_digests()`: for each construction
the sha256 of its levels' simplices in stored order, level keys sorted, and
of each face and degeneracy table in sorted (axis, key, i) order."""

import hashlib
import json
from pathlib import Path

from twocat.cli import bundled_manifest_path
from twocat.comma import OVER, UNDER, comma
from twocat.core import COVARIANT
from twocat.grothendieck import grothendieck
from twocat.hocolim import build_E, build_E_pull, hocolim
from twocat.manifest import parse
from twocat.nerves import double_nerve, nerve_simplicial_twocat

GOLDEN = Path(__file__).resolve().parent / "golden" / "tables.json"


def _tables(X):
    """(kind, axis, key, i, table) for every table of X."""
    for kind, tables in (("faces", X.faces), ("degens", X.degens)):
        for axis, key, i in tables:
            yield kind, axis, key, i, tables[(axis, key, i)]


def digest(X) -> str:
    h = hashlib.sha256()
    for key in sorted(X.cells):
        h.update(repr((key, tuple(X.cells[key]))).encode())
    for row in sorted(_tables(X), key=lambda row: row[:4]):
        h.update(repr(row).encode())
    return h.hexdigest()


def table_digests() -> dict:
    m = parse(bundled_manifest_path())
    out = {}
    for name, C in m.two_categories.items():
        out[f"double_nerve({name}, 3)"] = digest(double_nerve(C, 3))
    for name, D in m.diagrams.items():
        build = build_E if D.variance == COVARIANT else build_E_pull
        out[f"{build.__name__}({name}, 3)"] = digest(build(D, 3))
        out[f"nerve_simplicial_twocat(hocolim({name}, 2))"] = \
            digest(nerve_simplicial_twocat(hocolim(D, 2)))
        out[f"double_nerve(grothendieck({name}), 3)"] = digest(double_nerve(grothendieck(D), 3))
    for name, F in m.two_functors.items():
        for c in F.target.objects:
            for side in (OVER, UNDER):
                out[f"double_nerve(comma({name}, {c}, {side}), 3)"] = \
                    digest(double_nerve(comma(F, c, side), 3))
    return out


def test_tables_match_golden():
    assert table_digests() == json.loads(GOLDEN.read_text())
