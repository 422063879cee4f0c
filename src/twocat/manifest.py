"""Manifest files: named 2-categories, 2-functors, transformations,
diagrams, and diagram morphisms in a single JSON document.

Composition tables are nested objects keyed by cell identifiers, so hcomp1
of g after f is found at hcomp1[g][f].  Diagrams reference 2-categories and
2-functors by name; identity transports may be omitted and are filled in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import (COVARIANT, CONTRAVARIANT, TwoCategory, TwoDiagram,
                   TwoFunctor, TwoNaturalTransformation, DiagramMorphism,
                   composable, composition_tables, identity_functor,
                   identity_natural, same_category)


class ManifestError(Exception):
    def __init__(self, errors):
        self.errors = errors if isinstance(errors, list) else [errors]
        super().__init__("; ".join(self.errors))


@dataclass
class Manifest:
    two_categories: dict = field(default_factory=dict)
    two_functors: dict = field(default_factory=dict)
    transformations: dict = field(default_factory=dict)
    diagrams: dict = field(default_factory=dict)
    diagram_morphisms: dict = field(default_factory=dict)


def _object(value, where) -> dict:
    """value, which must be a JSON object; otherwise an input error at where."""
    if not isinstance(value, dict):
        raise ManifestError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _entries(doc, key):
    """The (name, entry) pairs of the section doc[key], each entry an object."""
    for name, sub in _object(doc.get(key, {}), key).items():
        yield name, _object(sub, f"{key}.{name}")


def _names(values, where, errors) -> bool:
    """Whether every value of the dict `values` is a string; an input error
    at where.<key> for each that is not."""
    bad = [f"{where}.{k}: expected a name, got {type(v).__name__}"
           for k, v in values.items() if not isinstance(v, str)]
    errors.extend(bad)
    return not bad


def _known(ref, section) -> bool:
    """Whether ref is a string naming an entry of section; a JSON list or
    object names nothing."""
    return isinstance(ref, str) and ref in section


def _table_from_json(obj, where) -> dict:
    return {(g, f): v for g, row in _object(obj, where).items()
            for f, v in _object(row, f"{where}.{g}").items()}


def _table_to_json(table) -> dict:
    out = {}
    for (g, f), v in sorted(table.items(), key=repr):
        out.setdefault(g, {})[f] = v
    return out


def _category_from_json(name, doc, errors, where):
    try:
        objects = doc["objects"]
        one_cells, two_cells, id1, id2 = (_object(doc[k], f"{where}.{k}")
                                          for k in ("one_cells", "two_cells", "id1", "id2"))
    except KeyError as exc:
        errors.append(f"{where}: malformed 2-category ({exc})")
        return None
    if not isinstance(objects, list):
        errors.append(f"{where}.objects: expected a list, got {type(objects).__name__}")
        return None
    tables = {t: _table_from_json(doc.get(t, {}), f"{where}.{t}")
              for t in ("hcomp1", "vcomp2", "hcomp2")}
    # every cell, identity and composite is a name, every boundary a pair of
    # names, and every object and 1-cell has its identity
    before = len(errors)
    pair = lambda st: isinstance(st, list) and len(st) == 2 and all(isinstance(v, str) for v in st)
    _names(dict(enumerate(objects)), f"{where}.objects", errors)
    for key, cells in (("one_cells", one_cells), ("two_cells", two_cells)):
        errors.extend(f"{where}.{key}.{f}: boundary must be a pair of names"
                      for f, st in cells.items() if not pair(st))
    _names(id1, f"{where}.id1", errors)
    _names(id2, f"{where}.id2", errors)
    for t, table in tables.items():
        _names({f"{g}.{f}": v for (g, f), v in table.items()}, f"{where}.{t}", errors)
    if len(errors) == before:
        for key, ids, cells in (("id1", id1, objects), ("id2", id2, one_cells)):
            errors.extend(f"{where}.{key}: non-total table, missing {c}"
                          for c in cells if c not in ids)
    if len(errors) > before:
        return None
    C = TwoCategory(tuple(objects), {f: tuple(st) for f, st in one_cells.items()},
                    {a: tuple(st) for a, st in two_cells.items()}, dict(id1), dict(id2),
                    *tables.values(), name=name)
    # reference resolution and table totality
    objs = set(C.objects)
    for f, (s, t) in C.one_cells.items():
        if s not in objs or t not in objs:
            errors.append(f"{where}.one_cells.{f}: unknown identifier")
    for a, (s, t) in C.two_cells.items():
        if s not in C.one_cells or t not in C.one_cells:
            errors.append(f"{where}.two_cells.{a}: unknown identifier")
    for t in composition_tables(C):
        errors.extend(f"{where}.{t.name}: non-total table, missing ({y}, {x})"
                      for y, x in composable(t.ends) if (y, x) not in t.table)
    return C


def _category_to_json(C: TwoCategory) -> dict:
    return {"objects": list(C.objects),
            "one_cells": {f: list(st) for f, st in C.one_cells.items()},
            "two_cells": {a: list(st) for a, st in C.two_cells.items()},
            "id1": dict(C.id1), "id2": dict(C.id2),
            "hcomp1": _table_to_json(C.hcomp1),
            "vcomp2": _table_to_json(C.vcomp2),
            "hcomp2": _table_to_json(C.hcomp2)}


def resolve(doc: dict) -> Manifest:
    """Build a fully resolved Manifest from a JSON document, collecting all
    reference and totality errors."""
    errors = []
    m = Manifest()

    for name, sub in _entries(doc, "two_categories"):
        C = _category_from_json(name, sub, errors, f"two_categories.{name}")
        if C is not None:
            m.two_categories[name] = C

    def named_cat(name, where):
        if not _known(name, m.two_categories):
            errors.append(f"{where}: unknown 2-category {name!r}")
            return None
        return m.two_categories[name]

    for name, sub in _entries(doc, "two_functors"):
        src = named_cat(sub.get("source"), f"two_functors.{name}.source")
        tgt = named_cat(sub.get("target"), f"two_functors.{name}.target")
        if src is None or tgt is None:
            continue
        F = TwoFunctor(src, tgt, *(dict(_object(sub.get(k, {}), f"two_functors.{name}.{k}"))
                                   for k in ("on_objects", "on_one_cells", "on_two_cells")),
                       name=name)
        for c, v in F.on_obj.items():
            if c not in src.objects or not _known(v, tgt.objects):
                errors.append(f"two_functors.{name}.on_objects.{c}: unknown identifier")
        for f, v in F.on_one.items():
            if f not in src.one_cells or not _known(v, tgt.one_cells):
                errors.append(f"two_functors.{name}.on_one_cells.{f}: unknown identifier")
        for a, v in F.on_two.items():
            if a not in src.two_cells or not _known(v, tgt.two_cells):
                errors.append(f"two_functors.{name}.on_two_cells.{a}: unknown identifier")
        m.two_functors[name] = F

    for name, sub in _entries(doc, "transformations"):
        Fn, Gn = sub.get("source_functor"), sub.get("target_functor")
        if not (_known(Fn, m.two_functors) and _known(Gn, m.two_functors)):
            errors.append(f"transformations.{name}: unknown functor reference")
            continue
        where = f"transformations.{name}.components"
        comp = _object(sub.get("components", {}), where)
        if _names(comp, where, errors):
            m.transformations[name] = TwoNaturalTransformation(
                m.two_functors[Fn], m.two_functors[Gn], dict(comp), name=name)

    for name, sub in _entries(doc, "diagrams"):
        base = named_cat(sub.get("base"), f"diagrams.{name}.base")
        if base is None:
            continue
        variance = sub.get("variance", COVARIANT)
        if variance not in (COVARIANT, CONTRAVARIANT):
            errors.append(f"diagrams.{name}.variance: must be covariant or contravariant")
            continue
        fibres, on_one, on_two = (_object(sub.get(k, {}), f"diagrams.{name}.{k}")
                                  for k in ("fibres", "on_one_cells", "on_two_cells"))
        ob = {}
        for c, catname in fibres.items():
            fib = named_cat(catname, f"diagrams.{name}.fibres.{c}")
            if fib is not None:
                ob[c] = fib
        if set(ob) != set(base.objects):
            errors.append(f"diagrams.{name}.fibres: must cover exactly the base objects")
            continue
        one = {}
        for f in base.one_cells:
            ref = on_one.get(f)
            if ref is None:
                if f in base.id1.values():
                    c = base.dom1(f)
                    one[f] = identity_functor(ob[c])
                    continue
                errors.append(f"diagrams.{name}.on_one_cells.{f}: missing transport")
                continue
            if not _known(ref, m.two_functors):
                errors.append(f"diagrams.{name}.on_one_cells.{f}: unknown functor {ref!r}")
                continue
            one[f] = m.two_functors[ref]
        two = {}
        for al, (f, g) in base.two_cells.items():
            ref = on_two.get(al)
            if ref is None:
                if al in base.id2.values() and f in one:
                    two[al] = identity_natural(one[f])
                    continue
                errors.append(f"diagrams.{name}.on_two_cells.{al}: missing transport")
                continue
            if isinstance(ref, dict):
                if not _names(ref, f"diagrams.{name}.on_two_cells.{al}", errors):
                    continue
                if f in one and g in one:
                    two[al] = TwoNaturalTransformation(one[f], one[g],
                                                       dict(ref), name=f"{name}.{al}")
                else:
                    errors.append(f"diagrams.{name}.on_two_cells.{al}: "
                                  f"boundary transports unresolved")
                continue
            if not _known(ref, m.transformations):
                errors.append(f"diagrams.{name}.on_two_cells.{al}: unknown transformation {ref!r}")
                continue
            two[al] = m.transformations[ref]
        if len(one) == len(base.one_cells) and len(two) == len(base.two_cells):
            m.diagrams[name] = TwoDiagram(base, variance, ob, one, two, name=name)
        else:
            errors.append(f"diagrams.{name}: unresolved transports")

    for name, sub in _entries(doc, "diagram_morphisms"):
        Dn, En = sub.get("source"), sub.get("target")
        if not (_known(Dn, m.diagrams) and _known(En, m.diagrams)):
            errors.append(f"diagram_morphisms.{name}: unknown diagram reference")
            continue
        D, E = m.diagrams[Dn], m.diagrams[En]
        if D.variance != E.variance:
            errors.append(f"diagram_morphisms.{name}: variance mismatch")
            continue
        if not same_category(D.base, E.base):
            errors.append(f"diagram_morphisms.{name}: base mismatch")
            continue
        comp = {}
        ok = True
        for c, ref in _object(sub.get("components", {}),
                              f"diagram_morphisms.{name}.components").items():
            if not _known(ref, m.two_functors):
                errors.append(f"diagram_morphisms.{name}.components.{c}: "
                              f"unknown functor {ref!r}")
                ok = False
                continue
            comp[c] = m.two_functors[ref]
        if ok:
            m.diagram_morphisms[name] = DiagramMorphism(D, E, comp, name=name)

    if errors:
        raise ManifestError(errors)
    return m


def parse(path) -> Manifest:
    """Load and resolve a manifest (or .2cat / .2diag fragment) file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError([f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"]) from None
    p = str(path)
    _object(doc, p)
    if p.endswith(".2cat"):
        doc = {"two_categories": {doc.get("name", "main"): doc}}
    elif p.endswith(".2diag"):
        if "diagram" not in doc:
            raise ManifestError(f"{p}: no diagram entry")
        doc = {"two_categories": doc.get("two_categories", {}),
               "two_functors": doc.get("two_functors", {}),
               "transformations": doc.get("transformations", {}),
               "diagrams": {doc.get("name", "main"): doc["diagram"]}}
    return resolve(doc)

