"""Max-plus spectral theory: cycle-mean eigenvalue, critical graph, eigenvectors.

The eigenvalue is the extremal cycle mean of the digraph of finite entries,
computed by Karp's recurrence. The critical graph collects the cycles that
attain it; its strongly connected components (the critical classes) index the
eigenvector generators, which are columns of the star of the normalized
matrix. Min-plus matrices are handled by duality through the canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import FrozenSet, List, Optional, Tuple

from .errors import CertificateInvalid, DimensionMismatch, NoCycle, Unbounded
from .semiring import MAX_PLUS, MIN_PLUS, TropScalar
from .tropmat import TropMatrix, TropVector, _closure, _signed


def _check_spectral_tag(a: TropMatrix) -> None:
    if not a.is_square:
        raise DimensionMismatch("spectral theory needs a square matrix")
    if a.tag not in (MAX_PLUS, MIN_PLUS):
        raise ValueError("spectral theory is provided for max-plus and min-plus tags")


def max_cycle_mean(a: TropMatrix) -> TropScalar:
    """Extremal cycle mean (the eigenvalue) by Karp's recurrence.

    Max-plus: the maximum over cycles of weight/length. Min-plus: the
    minimum, via negation. Raises NoCycle when the digraph of finite
    entries is acyclic.
    """
    _check_spectral_tag(a)
    _, w = _signed(a)
    n = a.rows
    # D[k][i] = best weight of a length-k walk ending at i, from anywhere.
    d: List[List[Optional[Fraction]]] = [[0] * n]
    for k in range(1, n + 1):
        prev = d[k - 1]
        cur: List[Optional[Fraction]] = [None] * n
        for j in range(n):
            if prev[j] is None:
                continue
            wj = w[j]
            base = prev[j]
            for i in range(n):
                wji = wj[i]
                if wji is None:
                    continue
                cand = base + wji
                if cur[i] is None or cand > cur[i]:
                    cur[i] = cand
        d.append(cur)
    best: Optional[Fraction] = None
    for i in range(n):
        dn = d[n][i]
        if dn is None:
            continue
        worst: Optional[Fraction] = None
        for k in range(n):
            dk = d[k][i]
            if dk is None:
                continue
            ratio = Fraction(dn - dk, n - k)
            if worst is None or ratio < worst:
                worst = ratio
        if worst is not None and (best is None or worst > best):
            best = worst
    if best is None:
        raise NoCycle("digraph of finite entries is acyclic")
    if a.tag is MIN_PLUS:
        best = -best
    return TropScalar(best, a.tag)


def cycle_means_bruteforce(a: TropMatrix) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """All simple cycles (as node tuples) with their mean weights.

    Independent verification oracle for Karp: plain DFS enumeration,
    restricted to cycles whose smallest node is the start to avoid
    duplicates. Exponential; intended for small matrices.
    """
    _check_spectral_tag(a)
    sign, w = _signed(a)
    n = a.rows
    out: List[Tuple[Tuple[int, ...], Fraction]] = []

    def dfs(start: int, node: int, path: List[int], weight, seen: set) -> None:
        for nxt in range(start, n):
            wn = w[node][nxt]
            if wn is None:
                continue
            if nxt == start:
                total = weight + wn
                out.append((tuple(path), Fraction(sign * total, len(path))))
            elif nxt not in seen:
                seen.add(nxt)
                path.append(nxt)
                dfs(start, nxt, path, weight + wn, seen)
                path.pop()
                seen.remove(nxt)

    for s in range(n):
        dfs(s, s, [s], 0, {s})
    return out


def max_cycle_mean_bruteforce(a: TropMatrix) -> TropScalar:
    """Extremal cycle mean by explicit simple-cycle enumeration."""
    means = [m for _, m in cycle_means_bruteforce(a)]
    if not means:
        raise NoCycle("digraph of finite entries is acyclic")
    best = max(means) if a.tag is MAX_PLUS else min(means)
    return TropScalar(best, a.tag)


@dataclass(frozen=True)
class SpectralResult:
    eigenvalue: TropScalar
    critical_nodes: FrozenSet[int]
    critical_edges: FrozenSet[Tuple[int, int]]
    critical_classes: Tuple[FrozenSet[int], ...]
    eigenvectors: Tuple[TropVector, ...]


def spectral_analysis(a: TropMatrix) -> SpectralResult:
    """Eigenvalue, critical graph, critical classes, and one generator each.

    A node is critical iff the plus-closure of the normalized matrix has a
    unit diagonal entry there; an edge (i, j) is critical iff it lies on a
    unit-weight cycle of the normalized matrix. Two critical nodes share a
    critical class (a strongly connected component of the critical graph)
    iff star_ij * star_ji is the unit. Generators are the columns of the
    normalized star at the smallest node of each critical class and satisfy
    A v = lambda v exactly.
    """
    lam = max_cycle_mean(a)
    star = _closure(a, lam.value)  # the plus-closure until the unit diagonal is set
    nodes = frozenset(i for i, row in enumerate(star) if row[i] == 0)
    for i, row in enumerate(star):
        row[i] = 0

    def unit_product(x, y) -> bool:
        return x is not None and y is not None and x + y == 0

    edges = frozenset(
        (i, j)
        for i, row in enumerate(a.payload)
        for j, v in enumerate(row)
        if v is not None and unit_product(v - lam.value, star[j][i])
    )
    classes: List[FrozenSet[int]] = []
    for i in sorted(nodes):
        if all(i not in c for c in classes):
            classes.append(frozenset(j for j in nodes if unit_product(star[i][j], star[j][i])))
    gens = tuple(TropVector._trusted(tuple(row[min(c)] for row in star), a.tag) for c in classes)
    return SpectralResult(lam, nodes, edges, tuple(classes), gens)


def eigenvectors(a: TropMatrix) -> List[TropVector]:
    """One eigenvector generator per critical class, unit at its representative."""
    return list(spectral_analysis(a).eigenvectors)


def collatz_wielandt_certificate(a: TropMatrix) -> Tuple[TropScalar, TropVector]:
    """The Collatz-Wielandt value with a finite super-eigenvector witness.

    The value is inf over finite u of the extremal coordinate of (A u) / u;
    for a linear map it equals the cycle-mean eigenvalue. The witness u
    (the row sums of the normalized star, all finite) attains the infimum
    exactly: max_i (A u)_i / u_i = lambda. The attainment is checked, and a
    witness that misses it raises CertificateInvalid.
    """
    _check_spectral_tag(a)
    for i, row in enumerate(a.payload):
        if all(v is None for v in row):
            raise Unbounded(f"row {i} is all zero; the infimum is unbounded below")
    lam = max_cycle_mean(a)
    best = max if a.tag is MAX_PLUS else min
    star_sums = (best([0] + [v for v in row if v is not None]) for row in _closure(a, lam.value))
    u = TropVector._trusted(tuple(star_sums), a.tag)
    ops = a.tag.ops
    residuals = map(ops.residual, a.apply(u).payload, u.payload)
    witnessed = TropScalar._fast(reduce(ops.add, residuals), a.tag)
    if witnessed != lam:
        raise CertificateInvalid(f"witness attains {witnessed!r}, not the eigenvalue {lam!r}")
    return lam, u


def collatz_wielandt(a: TropMatrix) -> TropScalar:
    """Collatz-Wielandt number of the linear map induced by A."""
    return collatz_wielandt_certificate(a)[0]
