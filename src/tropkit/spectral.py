"""Max-plus spectral theory: cycle-mean eigenvalue, critical graph, eigenvectors.

The eigenvalue is the extremal cycle mean of the digraph of finite entries,
the best entry of the cycle-time vector that Howard's policy iteration
computes. The critical graph collects the cycles that
attain it; its strongly connected components (the critical classes) index the
eigenvector generators, which are columns of the star of the normalized
matrix. Min-plus matrices are handled by duality through the canonical order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import FrozenSet, List, Tuple

from .errors import CertificateInvalid, DimensionMismatch, NoCycle, Unbounded
from .semiring import MAX_PLUS, MIN_PLUS, TropScalar
from .tropmat import TropMatrix, TropVector, _closure, _signed


def _check_spectral_tag(a: TropMatrix) -> None:
    if not a.is_square:
        raise DimensionMismatch("spectral theory needs a square matrix")
    if a.tag not in (MAX_PLUS, MIN_PLUS):
        raise ValueError("spectral theory is provided for max-plus and min-plus tags")


def max_cycle_mean(a: TropMatrix) -> TropScalar:
    """Extremal cycle mean (the eigenvalue): the best entry of the cycle-time
    vector that Howard's policy iteration computes.

    Max-plus: the maximum over cycles of weight/length. Min-plus: the
    minimum, via negation. Raises NoCycle when the digraph of finite
    entries is acyclic.
    """
    _check_spectral_tag(a)
    chi = [c for c in _cycle_time(a)[0] if c is not None]
    if not chi:
        raise NoCycle("digraph of finite entries is acyclic")
    return TropScalar._fast(-max(chi) if a.tag is MIN_PLUS else max(chi), a.tag)


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


def _cycle_time(a: TropMatrix) -> Tuple[list, list]:
    """Cycle-time vector chi and bias eta of A's max-plus weights (min-plus
    negated), by Howard's multichain policy iteration (Cochet-Terrasson,
    Cohen, Gaubert, Mc Gettrick & Quadrat, 1998).

    chi_l is the best mean of a cycle that l reaches, None if it reaches
    none, and eta_l = max{a_li + eta_i : chi_i = chi_l} - chi_l, None where
    chi_l is. Each policy cycle's smallest node keeps its bias from the round
    before, so the bias never decreases and the iteration terminates.
    """
    _, w = _signed(a)
    n = a.rows
    live, keep = None, list(range(n))
    while keep != live:  # drop the nodes without an edge into the rest
        live, keep = keep, [i for i in keep if any(w[i][j] is not None for j in keep)]
    # one integer scale that makes every weight and every cycle mean integral
    denominators = math.lcm(*(v.denominator for r in w for v in r if v is not None))
    scale = math.lcm(*range(1, len(live) + 1)) * denominators
    succ = [[(j, r[j].numerator * (scale // r[j].denominator)) for j in live if r[j] is not None] for r in w]
    pi = {i: max(succ[i], key=lambda e: e[1]) for i in live}  # (successor, weight)
    chi: List = [None] * n
    eta: List = [0 if s else None for s in succ]  # no node off live has an edge into it
    while True:
        seen = [False] * n
        for s in live:
            path, j = [], s
            while not seen[j]:
                seen[j] = True
                path.append(j)
                j = pi[j][0]
            if j in path:  # a new policy cycle; its smallest node is the root
                cycle = path[path.index(j):]
                del path[-len(cycle):]
                k = cycle.index(min(cycle))
                chi[cycle[k]] = sum(pi[i][1] for i in cycle) // len(cycle)
                path += cycle[k + 1:] + cycle[:k]
            for i in reversed(path):
                j, v = pi[i]
                chi[i] = chi[j]
                eta[i] = v - chi[j] + eta[j]
        switched = False
        for i in live:
            j, v = pi[i]
            bc, bv = chi[j], v + eta[j]
            for j, v in succ[i]:
                if chi[j] > bc or (chi[j] == bc and v + eta[j] > bv):
                    bc, bv, pi[i], switched = chi[j], v + eta[j], (j, v), True
        if not switched:
            return [_unscaled(c, scale) for c in chi], [_unscaled(e, scale) for e in eta]


def _unscaled(v, scale: int):
    if v is None:
        return None
    q, r = divmod(v, scale)
    return q if r == 0 else Fraction(v, scale)


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
