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
    """Cycle-time vector chi and bias eta of a max-plus matrix, reducible or not.

    chi_l is the best cycle mean among the strongly connected components that
    l reaches, None if it reaches no cycle. Levels are peeled off from the
    top: the nodes reaching a critical class of the rest of the matrix have
    chi = its eigenvalue and eta = the sum of its eigenvector generators,
    and no node outside a level reaches into it. So
    eta_l = max{a_li + eta_i : chi_i = chi_l} - chi_l, None where chi_l is.
    """
    chi: List = [None] * a.rows
    eta: List = [None] * a.rows
    rest = list(range(a.rows))
    while rest:
        sub = TropMatrix._trusted(tuple(tuple(a.payload[i][j] for j in rest) for i in rest), a.tag)
        try:
            res = spectral_analysis(sub)
        except NoCycle:
            break
        for l, e in zip(rest, reduce(TropVector.__add__, res.eigenvectors).payload):
            if e is not None:
                chi[l], eta[l] = res.eigenvalue.value, e
        rest = [l for l in rest if chi[l] is None]
    return chi, eta


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
