"""The cells of the mirrored constructions (projections, retractions,
sections, the homotopy-fibre diagrams, the faces and degeneracies of
homotopy colimits and the maps between them), pinned by digest on both
sides.

`tests/golden/cell_maps.json` holds `cell_map_digests()`: for each
construction the sha256 of its 2-categories' cells and tables, of its
2-functors' `on_obj`, `on_one` and `on_two` maps, of its 2-natural
transformations' `comp` maps and of its witnesses' `comp` and `nat` maps,
in that order, each with its items sorted by
`repr`."""

import hashlib
import json
from pathlib import Path

from twocat.builders import wtc_to_wa_collapse
from twocat.cli import bundled_manifest_path
from twocat.comma import (OVER, UNDER, fibre_diagram, projections, retraction_R,
                          section_jz_iz)
from twocat.core import (OplaxTransformation, TwoCategory, TwoFunctor,
                         TwoNaturalTransformation, renaming_morphism)
from twocat.hocolim import hocolim, hocolim_map
from twocat.manifest import parse

GOLDEN = Path(__file__).resolve().parent / "golden" / "cell_maps.json"


def _fields(x):
    if isinstance(x, TwoCategory):
        return (dict.fromkeys(x.objects), x.one_cells, x.two_cells, x.id1, x.id2,
                x.hcomp1, x.vcomp2, x.hcomp2)
    if isinstance(x, TwoFunctor):
        return x.on_obj, x.on_one, x.on_two
    if isinstance(x, TwoNaturalTransformation):
        return (x.comp,)
    assert isinstance(x, OplaxTransformation)
    return x.comp, x.nat


def digest(*parts) -> str:
    h = hashlib.sha256()
    for x in parts:
        for d in _fields(x):
            h.update(repr(sorted(d.items(), key=repr)).encode())
    return h.hexdigest()


def cell_map_digests() -> dict:
    m = parse(bundled_manifest_path())
    D = m.diagrams
    out = {}
    for name, F in m.two_functors.items():
        for side in (OVER, UNDER):
            _, G, Pi, iota, wit = projections(F, side)
            out[f"projections({name}, {side})"] = digest(G, Pi, iota, wit)
            fib = fibre_diagram(F, side)
            for kind, cells in (("ob", fib.ob), ("one", fib.one), ("two", fib.two)):
                for x, y in cells.items():
                    out[f"fibre_diagram({name}, {side}).{kind}[{x}]"] = digest(y)
    for name, gamma, side in (("collapse", m.diagram_morphisms["collapse"], OVER),
                              ("ren(Dcov)", renaming_morphism(D["Dcov"]), OVER),
                              ("ren(Drep)", renaming_morphism(D["Drep"]), UNDER)):
        for c in gamma.source.base.objects:
            for y in gamma.target.ob[c].objects:
                out[f"retraction_R({name}, {c}, {y}, {side})"] = \
                    digest(*retraction_R(gamma, c, y))
    for fname, F, dname, side in (("F", m.two_functors["F"], "Drep", OVER),
                                  ("collapse", wtc_to_wa_collapse(), "Dcov", UNDER)):
        for c in F.target.objects:
            for z in D[dname].ob[c].objects:
                out[f"section_jz_iz({fname}, {dname}, {c}, {z}, {side})"] = \
                    digest(*section_jz_iz(F, D[dname], c, z))
    S = {name: hocolim(D[name], 3) for name in ("Dcov", "Dpt", "Drep")}
    for name, X in S.items():
        out[f"hocolim({name}, 3).levels"] = digest(*X.levels)
        for kind, maps in (("d", X.faces), ("s", X.degens)):
            for p, i in sorted(maps):
                out[f"hocolim({name}, 3).{kind}({p}, {i})"] = digest(maps[(p, i)])
    for name, gamma in (("collapse", m.diagram_morphisms["collapse"]),
                        ("ren(Dcov)", renaming_morphism(D["Dcov"]))):
        SE = S["Dpt"] if name == "collapse" else hocolim(gamma.target, 3)
        out[f"hocolim_map({name}, 3)"] = digest(*hocolim_map(gamma, S["Dcov"], SE))
    return out


def test_cell_maps_match_golden():
    assert cell_map_digests() == json.loads(GOLDEN.read_text())
