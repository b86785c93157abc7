"""Simple-cycle enumeration: the test oracle for Karp's cycle-mean eigenvalue.

Exponential in the matrix size, so it lives with the tests; production code
computes the eigenvalue by Karp's recurrence in `tropkit.spectral`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from tropkit.errors import NoCycle
from tropkit.semiring import MAX_PLUS, TropScalar
from tropkit.spectral import _check_spectral_tag
from tropkit.tropmat import TropMatrix, _signed


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
