"""The two comparison isomorphisms of the Homotopy Colimit Theorem,
`hocolim_wbar_comparison` and `grothendieck_wbar_comparison`, pinned by
digest on six diagrams at N = 2, 3 and 4.

`tests/golden/comparison_maps.json` holds `comparison_map_digests()`: for
each comparison the sha256 of its source's level sizes, its target's level
sizes and its map levels (position lists), in that order."""

import hashlib
import json
from pathlib import Path

from twocat.builders import pt, walking_arrow, walking_two_cell
from twocat.cli import bundled_manifest_path
from twocat.core import CONTRAVARIANT, constant_diagram
from twocat.hocolim import grothendieck_wbar_comparison, hocolim_wbar_comparison
from twocat.manifest import parse

GOLDEN = Path(__file__).resolve().parent / "golden" / "comparison_maps.json"


def digest(f) -> str:
    levels = [f.maps[n] for n in range(f.source.n_max + 1)]
    return hashlib.sha256(repr((f.source.sizes(), f.target.sizes(), levels)).encode()).hexdigest()


def comparison_map_digests() -> dict:
    D = parse(bundled_manifest_path()).diagrams
    wa, wtc = walking_arrow(), walking_two_cell()
    diagrams = {**D, "const(WTC, PT)": constant_diagram(wtc, pt()),
                "const(WA, WTC)": constant_diagram(wa, wtc),
                "const(WTC, WTC)^op": constant_diagram(wtc, wtc, CONTRAVARIANT)}
    return {f"{cmp.__name__}({name}, {N})": digest(cmp(X, N))
            for cmp in (hocolim_wbar_comparison, grothendieck_wbar_comparison)
            for name, X in diagrams.items() for N in (2, 3, 4)}


def test_comparison_maps_match_golden():
    assert comparison_map_digests() == json.loads(GOLDEN.read_text())
