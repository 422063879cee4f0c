"""Regenerate the bundled corpus manifest, the standalone fixture files, and
the ten mutant manifests used by the fault-sensitivity suite."""

from __future__ import annotations

import copy
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from twocat.builders import (functor_wa_to_wtc, pt, walking_arrow,
                             walking_two_cell, wtc_to_wa_collapse)
from twocat.comma import representable_diagram
from twocat.manifest import _category_to_json, parse, resolve

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "twocat" / "data"


def functor_json(src, tgt, F):
    return {"source": src, "target": tgt,
            "on_objects": dict(F.on_obj),
            "on_one_cells": dict(F.on_one),
            "on_two_cells": dict(F.on_two)}


def build_document():
    P, wa, wtc = pt(), walking_arrow(), walking_two_cell()
    waf = walking_arrow()
    Drep = representable_diagram(wtc, "b", "over")
    homab, hombb = Drep.ob["a"], Drep.ob["b"]

    doc = {
        "two_categories": {
            "PT": _category_to_json(P),
            "WA": _category_to_json(wa),
            "WAf": _category_to_json(waf),
            "WTC": _category_to_json(wtc),
            "HOMab": _category_to_json(homab),
            "HOMbb": _category_to_json(hombb),
        },
        "two_functors": {
            "F": functor_json("WA", "WTC", functor_wa_to_wtc()),
            "push": functor_json("WTC", "WAf", wtc_to_wa_collapse()),
            "rep_f": functor_json("HOMbb", "HOMab", Drep.one["f"]),
            "rep_g": functor_json("HOMbb", "HOMab", Drep.one["g"]),
            "bang_WTC": {"source": "WTC", "target": "PT",
                         "on_objects": {c: "*" for c in wtc.objects},
                         "on_one_cells": {f: "1" for f in wtc.one_cells},
                         "on_two_cells": {a: "11" for a in wtc.two_cells}},
            "bang_WAf": {"source": "WAf", "target": "PT",
                         "on_objects": {c: "*" for c in waf.objects},
                         "on_one_cells": {f: "1" for f in waf.one_cells},
                         "on_two_cells": {a: "11" for a in waf.two_cells}},
        },
        "transformations": {
            "rep_phi": {"source_functor": "rep_f", "target_functor": "rep_g",
                        "components": dict(Drep.two["phi"].comp)},
        },
        "diagrams": {
            "Dcov": {"base": "WA", "variance": "covariant",
                     "fibres": {"0": "WTC", "1": "WAf"},
                     "on_one_cells": {"a": "push"},
                     "on_two_cells": {}},
            "Drep": {"base": "WTC", "variance": "contravariant",
                     "fibres": {"a": "HOMab", "b": "HOMbb"},
                     "on_one_cells": {"f": "rep_f", "g": "rep_g"},
                     "on_two_cells": {"phi": "rep_phi"}},
            "Dpt": {"base": "WA", "variance": "covariant",
                    "fibres": {"0": "PT", "1": "PT"},
                    "on_one_cells": {"a": "id_PT"},
                    "on_two_cells": {}},
        },
        "diagram_morphisms": {
            "collapse": {"source": "Dcov", "target": "Dpt",
                         "components": {"0": "bang_WTC", "1": "bang_WAf"}},
        },
    }
    doc["two_functors"]["id_PT"] = {"source": "PT", "target": "PT",
                                    "on_objects": {"*": "*"},
                                    "on_one_cells": {"1": "1"},
                                    "on_two_cells": {"11": "11"}}
    return doc


MUTATIONS = [
    # (name, detecting suite, mutation function)
    ("m01_table_entry", "identities",
     lambda d: d["two_categories"]["WTC"]["hcomp1"]["g"].__setitem__("1a", "f")),
    ("m02_noncomposable_pair", "identities",
     lambda d: d["two_categories"]["WTC"]["vcomp2"].setdefault("phi", {}).__setitem__("phi", "phi")),
    ("m03_identity_assignment", "identities",
     lambda d: d["two_categories"]["WA"]["id1"].__setitem__("0", "a")),
    ("m04_identity_two_cell", "contractibility",
     lambda d: d["two_categories"]["WTC"]["id2"].__setitem__("f", "phi")),
    ("m05_functor_two_cells", "oplax",
     lambda d: d["two_functors"]["F"]["on_two_cells"].__setitem__("Ia", "eg")),
    ("m06_diagram_transport", "iso114",
     lambda d: d["two_functors"]["push"]["on_two_cells"].__setitem__("phi", "Ii0")),
    ("m07_transformation_component", "iso112",
     lambda d: d["transformations"]["rep_phi"]["components"].__setitem__("1b", "ef")),
    ("m08_nontotal_table", "all",
     lambda d: d["two_categories"]["WA"]["hcomp1"]["a"].__delitem__("i0")),
    ("m09_functor_objects", "retractions",
     lambda d: (d["two_functors"]["F"]["on_objects"].__setitem__("1", "a"),
                d["two_functors"]["F"]["on_one_cells"].__setitem__("i1", "1a"),
                d["two_functors"]["F"]["on_two_cells"].__setitem__("Ii1", "e1a"))),
    ("m10_vertical_composite", "invariance",
     lambda d: d["two_categories"]["WAf"]["vcomp2"]["Ia"].__setitem__("Ia", "Ii0")),
]


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    (DATA / "mutants").mkdir(exist_ok=True)
    doc = build_document()
    resolve(copy.deepcopy(doc))  # must parse cleanly before writing

    with open(DATA / "corpus.manifest.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")

    wtc_doc = dict(build_document()["two_categories"]["WTC"])
    wtc_doc["name"] = "WTC"
    with open(DATA / "wtc.2cat", "w") as fh:
        json.dump(wtc_doc, fh, indent=1, sort_keys=True)
        fh.write("\n")

    fib = {"name": "Dcov",
           "two_categories": {k: doc["two_categories"][k]
                              for k in ("PT", "WA", "WAf", "WTC")},
           "two_functors": {"push": doc["two_functors"]["push"]},
           "diagram": doc["diagrams"]["Dcov"]}
    with open(DATA / "fibre-diagram.2diag", "w") as fh:
        json.dump(fib, fh, indent=1, sort_keys=True)
        fh.write("\n")

    index = []
    for name, suite, mutate in MUTATIONS:
        mdoc = copy.deepcopy(doc)
        mutate(mdoc)
        with open(DATA / "mutants" / f"{name}.manifest.json", "w") as fh:
            json.dump(mdoc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        index.append({"name": name, "suite": suite})
    with open(DATA / "mutants" / "index.json", "w") as fh:
        json.dump(index, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote corpus + {len(index)} mutants under {DATA}")


if __name__ == "__main__":
    main()
