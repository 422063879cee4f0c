"""Known answers, written by hand from the mathematics, never computed by
the code under test.

Double nerve of WTC.  Hom(a, a) and Hom(b, b) hold only identities and
Hom(b, a) is empty; Hom(a, b) has the 1-cells f, g and the 2-cells
ef: f => f, phi: f => g, eg: g => g.  A (p, q)-simplex is a string of p + 1
objects a..a b..b with one column of q-deep 2-cell chains per step.  There
are 2 constant strings, whose columns are identities, and p strings with
one a -> b step, whose column is a monotone f/g word of length q + 1:
q + 2 choices.  So NN(WTC)(p, q) has 2 + p(q + 2) simplices.  The nerves
of a product are the levelwise products, so WTC^k has (2 + p(q + 2))^k.

- diag of WTC^k at level n: NN(n, n) = ((n + 1)^2 + 1)^k.
- W-bar of WTC^k at level n: staircases with c_0 <= ... <= c_n; the
  a -> b step at column m carries a monotone word of length m, so there
  are 2 + sum_{m=1..n} (m + 1) = 1 + (n + 1)(n + 2)/2 per factor.

Homology.  The nerve of B(Z/n) is the bar construction of Z/n, so
H_0 = Z, H_odd = Z/n and H_even>0 = 0 (group homology of a cyclic group).
In WTC every hom category into b has a terminal object (g in Hom(a, b),
1b in Hom(b, b)), so the nerve of WTC is contractible, and by the Kunneth
formula B(Z/n) x WTC^j has the homology of B(Z/n).

Corpus and mutants.  The bundled corpus satisfies every claim it is
checked for: `verify all` runs 153 checks and all pass, exit 0.  Each of
the 10 mutants breaks one axiom, so its suite exits nonzero (1 for a
failed check, 2 for an input rejected at parse).
"""

from __future__ import annotations

CORPUS_CHECKS = 153
MUTANT_COUNT = 10


def double_nerve_size(k: int, p: int, q: int) -> int:
    return (2 + p * (q + 2)) ** k


def diag_sizes(k: int, N: int) -> list:
    return [((n + 1) ** 2 + 1) ** k for n in range(N + 1)]


def wbar_sizes(k: int, N: int) -> list:
    return [(1 + (n + 1) * (n + 2) // 2) ** k for n in range(N + 1)]


def cyclic_homology(n: int, degree: int) -> tuple:
    """(betti, torsion) of H_degree(B(Z/n) x WTC^j)."""
    if degree == 0:
        return 1, ()
    if degree % 2:
        return 0, (n,)
    return 0, ()


def corpus_misses(rc, report: dict) -> list:
    """Names of the checks that miss the known answer; the empty list on
    success.  A missing or short report misses for every absent check."""
    checks = report.get("checks", [])
    bad = [c["name"] for c in checks if c.get("status") != "pass"]
    if len(checks) != CORPUS_CHECKS:
        bad += [f"<{len(checks)} checks, expected {CORPUS_CHECKS}>"] * \
            max(1, CORPUS_CHECKS - len(checks))
    if rc != 0 and not bad:
        bad.append(f"<exit {rc}>")
    return bad
