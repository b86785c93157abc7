"""Test oracles for the cycle-mean eigenvalue and the spectral elements:
simple-cycle enumeration, Karp's recurrence, and the normalized closure,
with the plain Floyd-Warshall closure it runs on.

Enumeration is exponential in the matrix size, and Karp's O(n^3) recurrence
is an independent second algorithm that reaches sizes enumeration cannot;
production code computes the eigenvalue and the cycle-time vector by
Howard's policy iteration in `tropkit.spectral`. The closure oracle reads
the critical graph, the critical classes and the eigenvector generators from
the plus-closure of the normalized matrix, in O(n^3), where production code
reads them from Howard's final policy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import FrozenSet, List, Optional, Tuple

from tropkit.errors import DimensionMismatch, Divergent, NoCycle
from tropkit.semiring import MAX_PLUS, MIN_PLUS, TropScalar
from tropkit.spectral import SpectralResult, _check_spectral_tag, max_cycle_mean
from tropkit.tropmat import TropMatrix, TropVector


def _signed(a: TropMatrix) -> Tuple[int, List[list]]:
    """(sign, rows): A's payloads as max-plus weights, min-plus negated
    (sign -1), in fresh lists."""
    if not a.is_square:
        raise DimensionMismatch("star needs a square matrix")
    if a.tag not in (MAX_PLUS, MIN_PLUS):
        raise ValueError("matrix star is provided for max-plus and min-plus tags")
    sign = -1 if a.tag is MIN_PLUS else 1
    return sign, [[None if v is None else sign * v for v in row] for row in a.payload]


def closure_oracle(a: TropMatrix) -> List[list]:
    """Raw payloads (None = bottom) of the plus-closure of A, by one
    Floyd-Warshall pass in place on the signed payloads, run as max-plus,
    one loop iteration per (i, k, j) triple on the payloads as given.

    After pivot k, d[i][j] is the best weight of a path i -> j of at least
    one edge with intermediate nodes <= k. A pivot diagonal above the unit
    closes a cycle that makes the series diverge: Divergent, at once.
    Production code runs the same pass on packed integer rows in
    `tropkit.tropmat._closure`.
    """
    sign, d = _signed(a)
    for k, dk in enumerate(d):
        if dk[k] is not None and dk[k] > 0:
            raise Divergent(f"a cycle through node {k} has weight {sign * dk[k]}, above the unit")
        out = [(j, v) for j, v in enumerate(dk) if v is not None]
        for i, di in enumerate(d):
            dik = di[k]
            if dik is None or i == k:
                continue
            for j, v in out:
                c = dik + v
                dij = di[j]
                if dij is None or c > dij:
                    di[j] = c
    return [[None if v is None else sign * v for v in row] for row in d]


def cycle_means_bruteforce(a: TropMatrix) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """All simple cycles (as node tuples) with their mean weights.

    Independent verification oracle: plain DFS enumeration,
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


def max_cycle_mean_karp(a: TropMatrix) -> TropScalar:
    """Extremal cycle mean by Karp's recurrence, in O(n^3).

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
    # Ratios (num, den) with den > 0 compare by cross-multiplication; only
    # the answer becomes a Fraction.
    best: Optional[Tuple[Fraction, int]] = None
    for i in range(n):
        dn = d[n][i]
        if dn is None:
            continue
        worst: Optional[Tuple[Fraction, int]] = None
        for k in range(n):
            dk = d[k][i]
            if dk is None:
                continue
            num, den = dn - dk, n - k
            if worst is None or num * worst[1] < worst[0] * den:
                worst = (num, den)
        if worst is not None and (best is None or worst[0] * best[1] > best[0] * worst[1]):
            best = worst
    if best is None:
        raise NoCycle("digraph of finite entries is acyclic")
    mean = Fraction(*best)
    if a.tag is MIN_PLUS:
        mean = -mean
    return TropScalar(mean, a.tag)


def spectral_analysis_closure(a: TropMatrix) -> SpectralResult:
    """Eigenvalue, critical graph, critical classes, and one generator each,
    from the normalized closure.

    A node is critical iff the plus-closure of the normalized matrix has a
    unit diagonal entry there; an edge (i, j) is critical iff it lies on a
    unit-weight cycle of the normalized matrix. Two critical nodes share a
    critical class iff star_ij * star_ji is the unit. Generators are the
    columns of the normalized star at the smallest node of each critical
    class.
    """
    lam = max_cycle_mean(a)
    normalized = a.scale(TropScalar._trusted(-lam.value, a.tag))
    star = closure_oracle(normalized)  # the plus-closure until the unit diagonal is set
    nodes = frozenset(i for i, row in enumerate(star) if row[i] == 0)
    for i, row in enumerate(star):
        row[i] = 0

    def unit_product(x, y) -> bool:
        return x is not None and y is not None and x + y == 0

    edges = frozenset(
        (i, j)
        for i, row in enumerate(normalized.payload)
        for j, v in enumerate(row)
        if unit_product(v, star[j][i])
    )
    classes: List[FrozenSet[int]] = []
    for i in sorted(nodes):
        if all(i not in c for c in classes):
            classes.append(frozenset(j for j in nodes if unit_product(star[i][j], star[j][i])))
    gens = tuple(TropVector._trusted(tuple(row[min(c)] for row in star), a.tag) for c in classes)
    return SpectralResult(lam, nodes, edges, tuple(classes), gens)
