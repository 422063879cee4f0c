"""Truncated simplicial and multisimplicial sets.

Every level is enumerated when a set is built, in the order its level rule
yields the simplices (duplicates dropped), and checked against the simplex
budget.  A level is a `Level`: the tuple of its simplices with `index`,
the position of each simplex, made once as the level is enumerated.

Each face and degeneracy table, and each level of a simplicial map, is a
list of positions: entry k is the position in the target level of the
image of the source level's k-th simplex.  A table is built from its table
rule the first time it is read and kept from then on; the rule checks that
every image lies in the target level, so every entry is in range.  A
per-simplex rule becomes a table rule through `pointwise`, which looks each
image up in the target level's index; the nerves module fills its tables
without images.  `X.face(n, i, x)`, `f.at(n, x)` and the other lookups go
through the source level's index and return the target level's own
simplex.

A set with two or more axes is a `TruncatedMultisimplicialSet`: levels
keyed by index tuple, tables keyed (axis, key, i), one builder.  A
bisimplicial set is the two-axis case, axis 0 horizontal and axis 1
vertical.  `transpose` and `tri_slice` are one view, which reads a set
along some of its axes and holds the others fixed; it shares the set's
levels and tables and builds nothing.

`_axes` reads simplicial and multisimplicial sets alike: levels keyed by
index tuple, a bound per axis, and the face and degeneracy steps along each
axis.  One checker and one diagonal are written against it.  `diag` and
`tri_diag` read the diagonal of a set that is already materialized: they
share its levels, and each of their tables composes the set's own, built
only as far as the diagonal's faces pass through them.

`check_simplicial_identities` checks each identity once: along each axis
the d d, s s and d s identities, and for each pair of axes the four
commutations of their faces and degeneracies.  An identity is checked by
composing position lists: two composed lists over the whole source level
are compared, and only where they differ does the level's own simplex name
the violation.

Levels carry no canonical order; only the bases of chain complexes
(homology module) are sorted, by `repr`.  Degenerate simplices are stored
explicitly; the normalized chain complex quotients them later.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product

from .core import TwoCatError, ValidationReport


class ShallowWindowError(TwoCatError):
    """A construction needed levels beyond the stored truncation window."""


class BudgetError(TwoCatError):
    """A level grew past the configured simplex budget."""


_SIMPLEX_BUDGET = ContextVar("simplex_budget", default=500_000)


@contextmanager
def simplex_budget(n):
    """The simplex budget `n` inside the block (None keeps the current one);
    the previous budget is back when the block ends.  The budget lives in
    the current context, so other threads keep their own (a new thread
    starts with the default)."""
    token = _SIMPLEX_BUDGET.set(_SIMPLEX_BUDGET.get() if n is None else n)
    try:
        yield
    finally:
        _SIMPLEX_BUDGET.reset(token)


class Level(tuple):
    """The simplices of one level in their stored order; `index` maps each
    simplex to its position."""

    index: dict


def check_budget(size) -> None:
    """Raise `BudgetError` if a level of `size` simplices exceeds the
    simplex budget."""
    budget = _SIMPLEX_BUDGET.get()
    if size > budget:
        raise BudgetError(f"level size {size} exceeds the simplex budget "
                          f"{budget}; raise it or lower the truncation")


def _ordered(cells) -> Level:
    """The distinct simplices of `cells` in the order first seen; a `Level`
    is already that, and is shared as it is."""
    if isinstance(cells, Level):
        return cells
    index = dict.fromkeys(cells)
    check_budget(len(index))
    level = Level(index)
    for k, x in enumerate(level):
        index[x] = k
    level.index = index
    return level


class LazyTables(Mapping):
    """Structure-map tables under their keys, such as (n, i) -> d_i on level
    n.  `build(key)` makes the table the first time it is read; it is kept,
    so every later read returns the same list.  `key in tables` tells
    whether a table exists without building it."""

    def __init__(self, keys, build):
        self._keys = dict.fromkeys(keys)
        self._build = build
        self._built = {}

    def __getitem__(self, key):
        try:
            return self._built[key]
        except KeyError:
            if key not in self._keys:
                raise
        # setdefault: threads that build the same table at once all get the
        # one stored first
        return self._built.setdefault(key, self._build(key))

    def __contains__(self, key):
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)

    def __repr__(self):
        return f"<tables {len(self._built)} of {len(self._keys)} built>"


def _table(rule, source, target, fail) -> list:
    """The position in the level `target` of rule(x), for each x of the
    level `source` in order; an image outside `target` raises
    TwoCatError(fail(x))."""
    where = target.index
    table = []
    for x in source:
        k = where.get(rule(x))
        if k is None:
            raise TwoCatError(fail(x))
        table.append(k)
    return table


def pointwise(rule):
    """The table rule of the per-simplex rule `rule(*key, x)`.

    The builders take table rules: `rule(key, source, target, fail)` is the
    table under `key`, the list of positions in the level `target` of the
    images of the simplices of the level `source`; an image outside
    `target` raises TwoCatError(fail(x)) for the first such x."""
    return lambda key, source, target, fail: _table(partial(rule, *key), source,
                                                    target, fail)


def _view(tables, keys) -> LazyTables:
    """The tables of another set under new keys: `keys` maps each new key to
    the key of the table it stands for."""
    return LazyTables(keys, lambda key: tables[keys[key]])


# ---------------------------------------------------------------------------
# identity checks on position lists
# ---------------------------------------------------------------------------
#
# A step (tables, key) is the table tables[key]; a path is a list of steps,
# applied first to last.  A condition (head, lhs, rhs) asks that two paths
# agree on every simplex x of a level and reports f"{head} on {x!r}" where
# they do not.

def _path(level, steps) -> list:
    """The composite of `steps` as a list of positions over `level`."""
    path = None
    for tables, key in steps:
        table = tables[key]
        path = table if path is None else [table[k] for k in path]
    return list(range(len(level))) if path is None else path


def _check_conditions(r: ValidationReport, groups) -> None:
    """Report every violated condition of `groups`, pairs (level, conditions)
    whose conditions are checked in turn on each simplex of the level."""
    for level, conditions in groups:
        if not level:
            continue
        differ = []
        for head, lhs, rhs in conditions:
            a = _path(level, lhs)
            b = _path(level, rhs)
            if a != b:
                differ.append((head, a, b))
        if differ:
            for k, x in enumerate(level):
                for head, a, b in differ:
                    if a[k] != b[k]:
                        r.add(f"{head} on {x!r}")


# ---------------------------------------------------------------------------
# simplicial sets
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TruncatedSimplicialSet:
    n_max: int
    cells: dict          # n -> Level
    faces: Mapping       # (n, i) -> positions in level n - 1
    degens: Mapping      # (n, i) -> positions in level n + 1
    name: str = ""

    def level(self, n) -> tuple:
        return self.cells.get(n, ())

    def face(self, n, i, x):
        k = self.faces[(n, i)][self.cells[n].index[x]]
        return self.cells[n - 1][k]

    def degen(self, n, i, x):
        k = self.degens[(n, i)][self.cells[n].index[x]]
        return self.cells[n + 1][k]

    def sizes(self):
        return [len(self.level(n)) for n in range(self.n_max + 1)]

    def __repr__(self):
        return f"<sSet {self.name or ''} N={self.n_max} sizes={self.sizes()}>"


def build_simplicial(n_max, level_fn, face_fn, degen_fn, name="") -> TruncatedSimplicialSet:
    """A truncated simplicial set from an enumeration rule and table rules
    (see `pointwise`) keyed (n, i): levels now, each table on its first
    read."""
    cells = {n: _ordered(level_fn(n)) for n in range(n_max + 1)}

    def face(key):
        n, i = key
        return face_fn(key, cells[n], cells[n - 1],
                       lambda x: f"{name}: face d_{i} leaves level {n - 1} at {x!r}")

    def degen(key):
        n, i = key
        return degen_fn(key, cells[n], cells[n + 1],
                        lambda x: f"{name}: degeneracy s_{i} leaves level {n + 1} at {x!r}")

    faces = LazyTables(((n, i) for n in range(1, n_max + 1) for i in range(n + 1)), face)
    degens = LazyTables(((n, i) for n in range(n_max) for i in range(n + 1)), degen)
    return TruncatedSimplicialSet(n_max, cells, faces, degens, name=name)


@dataclass(eq=False)
class SimplicialMap:
    source: TruncatedSimplicialSet
    target: TruncatedSimplicialSet
    maps: dict  # n -> positions in the target's level n
    name: str = ""

    def at(self, n, x):
        k = self.maps[n][self.source.cells[n].index[x]]
        return self.target.cells[n][k]

    def __repr__(self):
        return f"<SimplicialMap {self.name}: {self.source!r} -> {self.target!r}>"


def simplicial_map(source, target, fn, name="") -> SimplicialMap:
    """fn(n, x) on every level, as positions in the target level; every
    image must lie in that level."""
    if source.n_max != target.n_max:
        raise ShallowWindowError(f"{name}: source and target bounds differ")
    maps = {n: _table(partial(fn, n), source.level(n), target.level(n),
                      lambda x: f"{name}: image of level-{n} simplex {x!r} not in target")
            for n in range(source.n_max + 1)}
    return SimplicialMap(source, target, maps, name=name)


def check_simplicial_map(f: SimplicialMap) -> ValidationReport:
    r = ValidationReport()
    X, Y = f.source, f.target

    def conditions():
        for n in range(1, X.n_max + 1):
            for i in range(n + 1):
                yield X.level(n), [(f"map does not commute with d_{i} at level {n}",
                                    [(X.faces, (n, i)), (f.maps, n - 1)],
                                    [(f.maps, n), (Y.faces, (n, i))])]
        for n in range(X.n_max):
            for i in range(n + 1):
                yield X.level(n), [(f"map does not commute with s_{i} at level {n}",
                                    [(X.degens, (n, i)), (f.maps, n + 1)],
                                    [(f.maps, n), (Y.degens, (n, i))])]

    _check_conditions(r, conditions())
    return r


def verify_iso(f: SimplicialMap) -> bool:
    """True iff the map is a levelwise bijection up to the truncation bound:
    each level's positions are a permutation of the target level's."""
    return all(sorted(f.maps[n]) == list(range(len(f.target.level(n))))
               for n in range(f.source.n_max + 1))


# ---------------------------------------------------------------------------
# multisimplicial sets
# ---------------------------------------------------------------------------

def _moved(key, axis, step) -> tuple:
    """`key` with `step` added at `axis`."""
    out = list(key)
    out[axis] += step
    return tuple(out)


@dataclass(eq=False)
class TruncatedMultisimplicialSet:
    """Two or more simplicial directions labelled 0, 1, ..., each with its
    own bound.  A bisimplicial set has axis 0 horizontal and axis 1
    vertical."""

    bounds: tuple   # one bound per axis
    cells: dict     # index tuple -> Level
    faces: Mapping  # (axis, key, i) -> positions in level key - e_axis
    degens: Mapping  # (axis, key, i) -> positions in level key + e_axis
    name: str = ""

    def level(self, key) -> tuple:
        return self.cells.get(key, ())

    def face(self, axis, key, i, x):
        k = self.faces[(axis, key, i)][self.cells[key].index[x]]
        return self.cells[_moved(key, axis, -1)][k]

    def degen(self, axis, key, i, x):
        k = self.degens[(axis, key, i)][self.cells[key].index[x]]
        return self.cells[_moved(key, axis, 1)][k]

    def __repr__(self):
        size = sum(map(len, self.cells.values()))
        return f"<msSet {self.name} bounds={self.bounds} simplices={size}>"


def _build(bounds, level_fn, face_fn, degen_fn, name) -> TruncatedMultisimplicialSet:
    """A truncated multisimplicial set from an enumeration rule `level_fn(key)`
    and table rules (see `pointwise`) keyed (axis, key, i): levels now, each
    table on its first read."""
    bounds = tuple(bounds)
    keys = list(product(*(range(b + 1) for b in bounds)))
    cells = {key: _ordered(level_fn(key)) for key in keys}

    def tables(rule, step, what):
        def build(k):
            axis, key, i = k
            return rule(k, cells[key], cells[_moved(key, axis, step)],
                        lambda x: f"{name}: {what[0]} axis{axis} {what[1]}_{i} "
                                  f"leaves window at {key} {x!r}")
        return LazyTables(((axis, key, i) for key in keys for axis in range(len(bounds))
                           if 0 <= key[axis] + step <= bounds[axis]
                           for i in range(key[axis] + 1)), build)

    return TruncatedMultisimplicialSet(bounds, cells, tables(face_fn, -1, ("face", "d")),
                                       tables(degen_fn, 1, ("degeneracy", "s")), name=name)


def build_bisimplicial(h_max, v_max, level_fn, face_fn, degen_fn, name="") -> TruncatedMultisimplicialSet:
    """`_build` with axis 0 (horizontal) up to h_max and axis 1 (vertical) up to v_max."""
    return _build((h_max, v_max), level_fn, face_fn, degen_fn, name)


def build_trisimplicial(bounds, level_fn, face_fn, degen_fn, name="") -> TruncatedMultisimplicialSet:
    """`_build` with the three bounds `bounds`."""
    return _build(bounds, level_fn, face_fn, degen_fn, name)


def _axis_view(X, axes, fixed, name) -> TruncatedMultisimplicialSet:
    """X read along `axes`, in that order, with each other axis a held at
    fixed[a].  Its levels and tables are X's own."""

    def own(key):
        at = {**fixed, **dict(zip(axes, key))}
        return tuple(at[a] for a in range(len(X.bounds)))

    bounds = tuple(X.bounds[a] for a in axes)
    keys = {key: own(key) for key in product(*(range(b + 1) for b in bounds))}

    def along(tables):
        return _view(tables, {(b, key, i): (a, at, i) for key, at in keys.items()
                              for b, a in enumerate(axes) for i in range(key[b] + 1)
                              if (a, at, i) in tables})

    return TruncatedMultisimplicialSet(bounds, {key: X.cells[at] for key, at in keys.items()},
                                       along(X.faces), along(X.degens), name=name)


def transpose(B: TruncatedMultisimplicialSet) -> TruncatedMultisimplicialSet:
    """B with its two axes swapped."""
    return _axis_view(B, (1, 0), {}, f"{B.name}^T")


def tri_slice(T: TruncatedMultisimplicialSet, axis, value) -> TruncatedMultisimplicialSet:
    """Freeze one axis; the remaining two become (horizontal, vertical) in
    increasing axis order."""
    return _axis_view(T, tuple(a for a in range(3) if a != axis), {axis: value},
                      f"{T.name}|axis{axis}={value}")


def diag(B: TruncatedMultisimplicialSet) -> TruncatedSimplicialSet:
    """Diagonal simplicial set: level n = B(n, n), maps applied in both
    directions simultaneously.  The levels are B's own, and each table
    composes two of B's."""
    return _diagonal(B)


def tri_diag(T: TruncatedMultisimplicialSet) -> TruncatedSimplicialSet:
    """Diagonal simplicial set: level n = T(n, n, n), maps applied along all
    three axes.  The levels are T's own, and each table composes three of
    T's."""
    return _diagonal(T)


# ---------------------------------------------------------------------------
# codiagonal (total complex)
# ---------------------------------------------------------------------------

def wbar(B: TruncatedMultisimplicialSet) -> TruncatedSimplicialSet:
    """Codiagonal: level n is the set of staircase tuples (t_{n,0},...,t_{0,n})
    with dh_0 t_{p,q} = dv_{q+1} t_{p-1,q+1}; faces and degeneracies mix the
    two directions positionwise."""

    def level(n):
        stairs = [(t,) for t in B.level((n, 0))]
        for q in range(1, n + 1):
            # the cells at (p, q), by their top vertical face, extend each
            # staircase ending at (p+1, q-1) through its horizontal 0-face
            p, index = n - q, {}
            for t in B.level((p, q)):
                index.setdefault(B.face(1, (p, q), q, t), []).append(t)
            stairs = [tup + (t,) for tup in stairs
                      for t in index.get(B.face(0, (p + 1, q - 1), 0, tup[-1]), ())]
        return stairs

    def face(n, i, tup):
        out = []
        for pos in range(n):
            p, q = n - pos, pos
            if pos < i:
                out.append(B.face(0, (p, q), i - pos, tup[pos]))
            else:
                out.append(B.face(1, (p - 1, q + 1), i, tup[pos + 1]))
        return tuple(out)

    def degen(n, i, tup):
        out = []
        for pos in range(n + 2):
            if pos <= i:
                p, q = n - pos, pos
                out.append(B.degen(0, (p, q), i - pos, tup[pos]))
            else:
                p, q = n + 1 - pos, pos - 1
                out.append(B.degen(1, (p, q), i, tup[pos - 1]))
        return tuple(out)

    return build_simplicial(min(B.bounds), level, pointwise(face),
                            pointwise(degen), name=f"Wbar({B.name})")


def aw_map(B: TruncatedMultisimplicialSet) -> SimplicialMap:
    """Alexander-Whitney-style comparison Diag B -> Wbar B, sending a diagonal
    simplex t to the tuple of its iterated extreme faces."""
    D = diag(B)
    W = wbar(B)

    def fn(n, t):
        # position q holds (dv_{q+1})^(n-q) (dh_0)^q t
        out = []
        for q in range(n + 1):
            x = t
            pp, qq = n, n
            for _ in range(q):
                x = B.face(0, (pp, qq), 0, x)
                pp -= 1
            for _ in range(n - q):
                x = B.face(1, (pp, qq), q + 1, x)
                qq -= 1
            out.append(x)
        return tuple(out)

    return simplicial_map(D, W, fn, name=f"aw({B.name})")


# ---------------------------------------------------------------------------
# identities and diagonals of any set
# ---------------------------------------------------------------------------

def _axes(X) -> tuple:
    """(levels, bounds, face, degen) of a simplicial or multisimplicial set:
    its levels keyed by index tuple, its bound along each axis, and
    face(a, key, i) / degen(a, key, i), the step (tables, key) of d_i / s_i
    along axis a at the level `key`.  The checker and the diagonal read the
    two table layouts only through it."""
    if isinstance(X, TruncatedSimplicialSet):
        return ({(n,): X.level(n) for n in range(X.n_max + 1)}, (X.n_max,),
                lambda a, key, i: (X.faces, (*key, i)),
                lambda a, key, i: (X.degens, (*key, i)))
    if isinstance(X, TruncatedMultisimplicialSet):
        return (X.cells, X.bounds, lambda a, key, i: (X.faces, (a, key, i)),
                lambda a, key, i: (X.degens, (a, key, i)))
    raise TwoCatError(f"not a simplicial or multisimplicial set: {type(X)!r}")


def check_simplicial_identities(X) -> ValidationReport:
    """Identity suite for any truncated (multi-)simplicial set, each identity
    checked once (see the module docstring).  With more than one axis a
    violation names its axis or axes and its level key.  A missing table is
    reported, and then nothing else is checked."""
    levels, bounds, face, degen = _axes(X)
    keys = list(product(*(range(b + 1) for b in bounds)))
    axes = range(len(bounds))
    where = (lambda a, key: "") if len(bounds) == 1 else (lambda a, key: f"axis {a} at {key}: ")
    steps, r = {}, ValidationReport()  # (letter, a, key) -> [step of d_i or s_i for each i]
    for letter, kind, step, shift in (("d", "face", face, -1), ("s", "degeneracy", degen, 1)):
        for a in axes:
            for key in keys:
                n = key[a]
                if 0 <= n + shift <= bounds[a]:
                    steps[letter, a, key] = row = [step(a, key, i) for i in range(n + 1)]
                    for i, (tables, k) in enumerate(row):
                        if k not in tables:
                            r.add(f"{where(a, key)}missing {kind} table {letter}_{i} at level {n}")
    if not r.ok:
        return r

    def identities(a, key):
        """The d d, s s and d s conditions along axis a at the level key."""
        n, at = key[a], where(a, key)
        lo, hi = _moved(key, a, -1), _moved(key, a, 1)
        d, dlo, dhi = (steps.get(("d", a, k)) for k in (key, lo, hi))
        s, slo, shi = (steps.get(("s", a, k)) for k in (key, lo, hi))
        yield [(f"{at}d_{i} d_{j} identity fails at level {n}", [d[j], dlo[i]], [d[i], dlo[j - 1]])
               for j in range(n + 1) for i in range(j)] if dlo else []
        yield [(f"{at}s_{i} s_{j} identity fails at level {n}", [s[j], shi[i]], [s[i], shi[j + 1]])
               for j in range(n + 1) for i in range(j + 1)] if shi else []
        yield [(f"{at}d_{i} s_{j} identity fails at level {n}", [s[j], dhi[i]],
                [d[i], slo[j - 1]] if i < j else [] if i <= j + 1 else [d[i - 1], slo[j]])
               for j in range(n + 1) for i in range(n + 2)] if s else []

    def conditions():
        for a in axes:
            at_key = [(levels[key], list(identities(a, key))) for key in keys]
            for kind in range(3):
                for level, groups in at_key:
                    for condition in groups[kind]:
                        yield level, [condition]
        for a, b in combinations(axes, 2):
            for key in keys:
                squares = [(f"{u}{a}_{{}} {v}{b}_{{}} do not commute at {key}", steps[u, a, key],
                            steps[v, b, _moved(key, a, su)], steps[v, b, key],
                            steps[u, a, _moved(key, b, sv)])
                           for (u, su), (v, sv) in product((("d", -1), ("s", 1)), repeat=2)
                           if (u, a, key) in steps and (v, b, key) in steps]
                for i in range(key[a] + 1):
                    for j in range(key[b] + 1):
                        yield levels[key], [(head.format(i, j), [ua[i], vb_a[j]], [vb[j], ua_b[i]])
                                            for head, ua, vb_a, vb, ua_b in squares]

    _check_conditions(r, conditions())
    return r


def _diagonal(X) -> TruncatedSimplicialSet:
    """The diagonal of a multisimplicial set: level n is its level
    (n, ..., n), and d_i (s_i) composes the i-th face (degeneracy)
    along every axis, last axis first."""
    levels, bounds, face, degen = _axes(X)

    def composite(step, shift):
        def rule(key, source, *_):
            n, i = key
            at, path = [n] * len(bounds), []
            for a in reversed(range(len(bounds))):
                path.append(step(a, tuple(at), i))
                at[a] += shift
            return _path(source, path)
        return rule

    return build_simplicial(min(bounds), lambda n: levels[(n,) * len(bounds)],
                            composite(face, -1), composite(degen, 1), name=f"Diag({X.name})")


def bisimplicial_from_family(levels, face_fn, degen_fn, name="") -> TruncatedMultisimplicialSet:
    """Assemble a bisimplicial set from a family of simplicial sets indexed by
    the horizontal degree, with supplied horizontal structure maps.

    levels[p] provides the column (p, *) with its own vertical tables;
    face_fn(p, i, q, x), the horizontal d_i, maps a cell of levels[p] at
    vertical level q into levels[p-1]; degen_fn likewise upward.
    """

    def tables(vertical, horizontal):
        def rule(k, source, target, fail):
            axis, (p, q), i = k
            if axis:
                return vertical(levels[p])[(q, i)]
            return _table(partial(horizontal, p, i, q), source, target, fail)
        return rule

    return build_bisimplicial(len(levels) - 1, min(X.n_max for X in levels),
                              lambda key: levels[key[0]].level(key[1]),
                              tables(lambda X: X.faces, face_fn),
                              tables(lambda X: X.degens, degen_fn), name=name)
