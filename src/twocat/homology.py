"""Truncated integral simplicial homology from invariant factors.

Coefficients are exact (Python integers).  Homology is reported only in
degrees <= N-1 for a complex truncated at level N; degrees at and above
the truncation are undefined, not zero.

Every matrix is a list of sparse columns, one `{row index: coefficient}`
dict per basis simplex: boundaries, chain maps and mapping cones are
built in that form, and dd = 0 and the chain-map identity are checked on
it.  H_i needs only the invariant factors of the boundaries d_i and
d_{i+1}.  `invariant_factors` finds them by sparse elimination on +-1
pivots and hands the small non-unit remainder to the dense
`smith_normal_form`, which pivots on a least entry and then orders its
diagonal by gcd/lcm; a `ChainComplex` computes the factors of each
boundary once, on first read.  `first_homology_difference` decides whether
a map is a homology isomorphism from source, target and mapping cone, and
`is_homology_iso_upto` asks it, so they too need nothing but invariant
factors.  No transformation matrix is tracked anywhere.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .core import TwoCatError
from .simplicial import SimplicialMap, TruncatedSimplicialSet


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def smith_normal_form(A):
    """The nonzero invariant factors d_1 | d_2 | ... of an integer matrix
    given as a list of rows, by least-entry Euclid on a dense copy.

    A nonzero entry p of least absolute value is the pivot.  Row operations
    reduce every other entry of its column, and column operations every
    other entry of its row, to a floor remainder mod p.  If its row and
    column are then clear, |p| splits off with them; otherwise a remainder
    smaller than |p| is the next pivot, so the loop ends.  Last, each pair
    (d_a, d_b), a < b, becomes (gcd, lcm): the product is kept, and the
    diagonal comes out ordered by divisibility.
    """
    S = [row[:] for row in A]
    diag = []
    while True:
        entries = [(abs(v), i, j) for i, row in enumerate(S) for j, v in enumerate(row) if v]
        if not entries:
            break
        _, i, j = min(entries)
        prow, p = S[i], S[i][j]
        for r, row in enumerate(S):
            if r != i and row[j]:
                q = row[j] // p
                for c, v in enumerate(prow):
                    if v:
                        row[c] -= q * v
        for c, v in enumerate(prow):
            if c != j and v:
                q = v // p
                for row in S:
                    row[c] -= q * row[j]
        if not any(prow[:j] + prow[j + 1:]) and not any(row[j] for row in S[:i] + S[i + 1:]):
            diag.append(abs(p))
            del S[i]
            for row in S:
                del row[j]
    for a in range(len(diag)):
        for b in range(a + 1, len(diag)):
            g = math.gcd(diag[a], diag[b])
            diag[a], diag[b] = g, diag[a] * diag[b] // g
    return diag


def invariant_factors(columns):
    """The nonzero invariant factors of an integer matrix given by its
    columns, one `{row: coefficient}` dict each: equal to
    `smith_normal_form` of the matrix.

    Invariant factors do not change under transposition, so the columns
    are taken as the rows of the transpose.  The columns of the transpose
    wait in a heap keyed by their nonzero count.  The shortest is popped;
    if it holds a +-1 entry, the one in the shortest row is cleared out of
    the column by row operations, and its row and column split off as an
    invariant factor 1; a column with no unit is dropped.  A row operation
    changes only the columns of the pivot row, so only those are pushed
    again; a popped key that no longer is its column's count is skipped.
    The factors do not depend on the pivot order.  What remains has no
    unit entry and goes to the dense `smith_normal_form`.
    """
    rows, cols = {}, {}
    for i, col in enumerate(columns):
        if col:
            rows[i] = dict(col)
            for j in col:
                cols.setdefault(j, set()).add(i)
    heap = [(len(rs), j) for j, rs in cols.items()]
    heapq.heapify(heap)
    units = 0
    while heap:
        n, q = heapq.heappop(heap)
        if q not in cols or len(cols[q]) != n:
            continue
        p = min((i for i in cols[q] if rows[i][q] in (1, -1)),
                key=lambda i: (len(rows[i]), i), default=None)
        if p is None:
            continue
        prow = rows.pop(p)
        u = prow.pop(q)
        for j in prow:
            cols[j].discard(p)
        for i in cols.pop(q):
            if i == p:
                continue
            r = rows[i]
            k = r.pop(q) * u
            for j, v in prow.items():
                w = r.get(j, 0) - k * v
                if w:
                    if j not in r:
                        cols[j].add(i)
                    r[j] = w
                elif j in r:
                    del r[j]
                    cols[j].discard(i)
            if not r:
                del rows[i]
        for j in prow:
            if cols[j]:
                heapq.heappush(heap, (len(cols[j]), j))
        units += 1
    if not rows:
        return [1] * units
    live = sorted(j for j, rs in cols.items() if rs)
    rest = [[r.get(j, 0) for j in live] for r in rows.values()]
    return [1] * units + smith_normal_form(rest)


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------

def _compose(A, B):
    """The columns of the product A B, without zero entries."""
    out = []
    for col in B:
        acc = {}
        for j, v in col.items():
            for i, w in A[j].items():
                acc[i] = acc.get(i, 0) + v * w
        out.append({i: v for i, v in acc.items() if v})
    return out


@dataclass(eq=False)
class ChainComplex:
    n_max: int
    basis: dict       # degree -> tuple of nondegenerate simplices
    boundary: dict    # degree n (1..n_max) -> d_n: C_n -> C_{n-1}, one
                      # {row: coefficient} column per basis simplex of degree n
    name: str = ""
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    def dim(self, n):
        return len(self.basis.get(n, ()))

    def factors(self, n):
        """Invariant factors of the boundary d_n, reduced on first read."""
        if n not in self._factors:
            self._factors[n] = invariant_factors(self.boundary[n])
        return self._factors[n]

    def __repr__(self):
        dims = [self.dim(n) for n in range(self.n_max + 1)]
        return f"<ChainComplex {self.name} N={self.n_max} ranks={dims}>"


@dataclass(frozen=True)
class HomologyResult:
    degree: int
    betti: int
    torsion: tuple

    @property
    def group(self):
        parts = ["Z"] * self.betti + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return f"H_{self.degree} = {self.group}"


def nondegenerate_levels(X: TruncatedSimplicialSet):
    """Nondegenerate simplices of each level, in the level's stored order.
    Invariant factors do not depend on the basis order: reordering a basis
    multiplies a boundary by a permutation matrix."""
    levels = {0: tuple(X.level(0))}
    for n in range(1, X.n_max + 1):
        degenerate = set()
        for i in range(n):
            degenerate.update(X.degens[(n - 1, i)])
        levels[n] = tuple(x for k, x in enumerate(X.level(n)) if k not in degenerate)
    return levels


def _rows(level, basis) -> list:
    """The row of each simplex of `level` in `basis`, None off the basis."""
    rows = [None] * len(level)
    for k, y in enumerate(basis):
        rows[level.index[y]] = k
    return rows


def normalized_chain_complex(X: TruncatedSimplicialSet) -> ChainComplex:
    """Bases are the nondegenerate simplices; the boundary is the alternating
    face sum projected to the nondegenerate quotient.  Verifies dd = 0."""
    basis = nondegenerate_levels(X)
    boundary = {}
    for n in range(1, X.n_max + 1):
        rows = _rows(X.level(n - 1), basis[n - 1])
        faces = [X.faces[(n, i)] for i in range(n + 1)] if basis[n] else []
        where = X.level(n).index
        cols = []
        for x in basis[n]:
            k = where[x]
            col = {}
            for i, face in enumerate(faces):
                row = rows[face[k]]
                if row is not None:
                    v = col.get(row, 0) + (-1) ** i
                    if v:
                        col[row] = v
                    else:
                        del col[row]
            cols.append(col)
        boundary[n] = cols
    for n in range(2, X.n_max + 1):
        if any(_compose(boundary[n - 1], boundary[n])):
            raise TwoCatError(f"normalized complex of {X.name}: dd != 0 at degree {n}")
    return ChainComplex(X.n_max, basis, boundary, name=X.name)


def homology(cc: ChainComplex, degree: int) -> HomologyResult:
    """H_i = ker d_i / im d_{i+1} over the integers, degrees <= N-1 only."""
    if degree < 0 or degree > cc.n_max - 1:
        raise TwoCatError(f"homology: degree {degree} outside validated range "
                          f"0..{cc.n_max - 1}")
    diag_in = cc.factors(degree + 1)
    cycles = cc.dim(degree) - (len(cc.factors(degree)) if degree else 0)
    torsion = tuple(d for d in diag_in if d > 1)
    return HomologyResult(degree, cycles - len(diag_in), torsion)


# ---------------------------------------------------------------------------
# induced maps
# ---------------------------------------------------------------------------

def chain_map(f: SimplicialMap):
    """Columns of the induced map on normalized complexes; degenerate images
    project to zero.  The chain-map identity is asserted."""
    src = normalized_chain_complex(f.source)
    tgt = normalized_chain_complex(f.target)
    mats = {}
    for n in range(f.source.n_max + 1):
        rows = _rows(f.target.level(n), tgt.basis[n])
        where, image = f.source.level(n).index, f.maps[n]
        mats[n] = [{} if row is None else {row: 1}
                   for row in (rows[image[where[x]]] for x in src.basis[n])]
    for n in range(1, f.source.n_max + 1):
        if _compose(tgt.boundary[n], mats[n]) != _compose(mats[n - 1], src.boundary[n]):
            raise TwoCatError(f"chain_map: not a chain map at degree {n}")
    return src, tgt, mats


def mapping_cone(src: ChainComplex, tgt: ChainComplex, mats, top: int) -> ChainComplex:
    """Cone of the chain map `mats`: src -> tgt in degrees <= top, with
    Cone_n = src_{n-1} + tgt_n and d(x, y) = (-dx, f(x) + dy)."""
    basis = {n: tuple(("s", x) for x in src.basis.get(n - 1, ()))
             + tuple(("t", y) for y in tgt.basis[n]) for n in range(top + 1)}
    boundary = {}
    for n in range(1, top + 1):
        shift = src.dim(n - 2)
        ds = src.boundary.get(n - 1, [{}] * src.dim(n - 1))
        cols = [{**{i: -v for i, v in dx.items()}, **{shift + i: v for i, v in fx.items()}}
                for dx, fx in zip(ds, mats[n - 1])]
        cols += [{shift + i: v for i, v in dy.items()} for dy in tgt.boundary[n]]
        boundary[n] = cols
    return ChainComplex(top, basis, boundary, name=f"Cone({src.name} -> {tgt.name})")


def is_homology_iso_upto(f: SimplicialMap, k: int) -> bool:
    """True iff the induced map is an isomorphism on H_i for all i <= k,
    that is iff `first_homology_difference(f, k)` finds no degree."""
    return first_homology_difference(f, k) is None


def first_homology_difference(f: SimplicialMap, k: int):
    """Why f is not a homology isomorphism in degrees <= k: the least
    degree i <= k where source and target differ or the mapping cone is
    not 0, as `H_i: <source> -> <target>, cone H_i = <cone>`; None if
    there is none, exactly when f is an isomorphism on H_i for all i <= k.

    By the long exact sequence of the mapping cone, H_i(Cone f) = 0 for
    i <= k says that f is onto in degrees <= k and one-to-one in degrees
    < k; f is then also one-to-one in degree k iff H_k of source and
    target are abstractly isomorphic (finitely generated abelian groups are
    Hopfian, so a surjection between isomorphic groups is an isomorphism).
    """
    src, tgt, mats = chain_map(f)
    if k >= 0:
        homology(src, k)  # past the truncation, this raises before the cone is built
    cone = mapping_cone(src, tgt, mats, k + 1)
    for i in range(k + 1):
        hs, ht, hc = homology(src, i), homology(tgt, i), homology(cone, i)
        if hs.group != ht.group or hc.group != "0":
            return f"H_{i}: {hs.group} -> {ht.group}, cone H_{i} = {hc.group}"
    return None
