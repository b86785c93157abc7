"""Finite idempotent assignment analysis.

The Bellman-type maps (B f)_i = max_j (b_ij - f_j) and their transposes
form a Galois pair; subdifferential coverings characterize solvability and
uniqueness of B f = g, strong regularity is uniqueness of the optimal
assignment with strict dual certificates, and every strongly regular matrix
is similar to a strongly normal one. Optimal distances and potentials come
from the Kleene closure of the reduced-cost matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .determ import _optimal_bijections
from .errors import CertificateInvalid, DimensionMismatch, Divergent, ImprovingCycle
from .semiring import MAX_PLUS
from .tropmat import TropMatrix, TropVector, kleene_plus, matrix


@dataclass(frozen=True)
class AssignMatrix:
    """Square max-plus matrix with a finite entry in every row and column."""

    data: TropMatrix

    def __post_init__(self):
        if self.data.tag is not MAX_PLUS:
            raise ValueError("assignment matrices are over max-plus")
        if not self.data.is_square:
            raise DimensionMismatch("assignment matrices are square")
        for name, lines in (("row", self.data.payload), ("column", zip(*self.data.payload))):
            for i, line in enumerate(lines):
                if all(v is None for v in line):
                    raise ValueError(f"{name} {i} has no finite entry (condition C)")

    @property
    def n(self) -> int:
        return self.data.rows

    def entry(self, i: int, j: int) -> Optional[Fraction]:
        return self.data.payload[i][j]


def assign_matrix(rows) -> AssignMatrix:
    return AssignMatrix(matrix(rows, MAX_PLUS))


def apply_b(b: AssignMatrix, f: Sequence, transpose: bool = False) -> List[Fraction]:
    """(B f)_i = max_j (b_ij - f_j); the transpose uses b_ji."""
    n = b.n
    if len(f) != n:
        raise DimensionMismatch("vector length differs from matrix size")
    fv = [Fraction(x) for x in f]
    out = []
    for i in range(n):
        best: Optional[Fraction] = None
        for j in range(n):
            e = b.entry(j, i) if transpose else b.entry(i, j)
            if e is None:
                continue
            cand = e - fv[j]
            if best is None or cand > best:
                best = cand
        out.append(best)
    return out


@dataclass(frozen=True)
class SubdifferentialReport:
    mapping: Dict[int, FrozenSet[int]]
    inverse: Dict[int, FrozenSet[int]]
    is_covering: bool
    is_minimal_covering: bool


def subdifferential(b: AssignMatrix, g: Sequence) -> SubdifferentialReport:
    """The transpose subdifferential of g and its covering structure.

    The set for row i collects the columns k whose value (B^T g)_k is
    attained at i; the inverse family covers every row exactly when
    B^T g solves B f = g, and covers minimally exactly when that solution
    is unique.
    """
    n = b.n
    gv = [Fraction(x) for x in g]
    btg = apply_b(b, gv, transpose=True)
    mapping: Dict[int, FrozenSet[int]] = {}
    for i in range(n):
        ks = []
        for k in range(n):
            e = b.entry(i, k)
            if e is not None and btg[k] is not None and e - gv[i] == btg[k]:
                ks.append(k)
        mapping[i] = frozenset(ks)
    inverse = {
        j: frozenset(i for i in range(n) if j in mapping[i]) for j in range(n)
    }
    covering = all(mapping[i] for i in range(n))
    minimal = covering and all(
        any(mapping[i] == {j} for i in range(n)) for j in range(n)
    )
    return SubdifferentialReport(mapping, inverse, covering, minimal)


def subdifferential_f(b: AssignMatrix, f: Sequence) -> Dict[int, FrozenSet[int]]:
    """Primal subdifferential: for column j, the rows attaining (B f)_k at j."""
    n = b.n
    fv = [Fraction(x) for x in f]
    bf = apply_b(b, fv)
    out: Dict[int, FrozenSet[int]] = {}
    for j in range(n):
        ks = []
        for k in range(n):
            e = b.entry(k, j)
            if e is not None and bf[k] is not None and e - fv[j] == bf[k]:
                ks.append(k)
        out[j] = frozenset(ks)
    return out


@dataclass(frozen=True)
class RegularityCertificate:
    bijection: Tuple[int, ...]
    f: Tuple[Fraction, ...]
    g: Tuple[Fraction, ...]
    strongly_regular: bool = True


@dataclass(frozen=True)
class NotStronglyRegular:
    """Optimal assignment is absent or not unique; carries the witness."""

    best_bijection: Optional[Tuple[int, ...]]
    second_bijection: Optional[Tuple[int, ...]]
    reason: str


def optimal_bijections(b: AssignMatrix, keep: int = 2):
    """Optimal value and the first `keep` optimal bijections in lexicographic
    order (at least one when a finite bijection exists), from the O(n^3)
    Hungarian kernel that also gives the permanent; (None, []) when every
    bijection meets a bottom."""
    value, witnesses = _optimal_bijections(b.data.payload, MAX_PLUS, keep)
    return (None if value is None else Fraction(value)), witnesses


def _strict_dual(b: AssignMatrix, perm: Tuple[int, ...]) -> Optional[Tuple[Fraction, ...]]:
    """Finite f with b_{iF(i)} - f_{F(i)} > b_{ik} - f_k for all k != F(i).

    Longest-path potentials of the reduced-cost graph over the ordered pairs
    (rational, epsilon-count): an edge F(i) -> k of rational weight
    b_ik - b_{iF(i)} must be beaten strictly, so it carries one epsilon.
    Uniqueness of the optimum makes every cycle lexicographically negative,
    so Bellman-Ford converges; epsilon is then realized as the largest
    t = 2^-k (k >= 0) that keeps every edge strict, in closed form.
    """
    n = b.n
    edges = []
    for i in range(n):
        base = b.entry(i, perm[i])
        for k in range(n):
            if k == perm[i]:
                continue
            e = b.entry(i, k)
            if e is not None:
                edges.append((perm[i], k, e - base))
    pot = [(Fraction(0), 0)] * n
    for rounds in range(n * n + n + 1):
        changed = False
        for src, dst, w in edges:
            cand = (pot[src][0] + w, pot[src][1] + 1)
            if cand > pot[dst]:
                pot[dst] = cand
                changed = True
        if not changed:
            break
    else:
        return None
    # every edge now reads A + t B > 0 with A > 0, or A = 0 and B >= 1, so
    # t = 2^-k must stay below A / -B on the edges with B < 0: 2^k > -B / A
    q = max(
        (
            (pot[src][1] - pot[dst][1]) // (pot[dst][0] - pot[src][0] - w)
            for src, dst, w in edges
            if pot[dst][1] < pot[src][1]
        ),
        default=0,
    )
    t = Fraction(1, 2 ** q.bit_length())
    return tuple(num + t * cnt for num, cnt in pot)


def strong_regularity(b: AssignMatrix) -> Union[RegularityCertificate, NotStronglyRegular]:
    """Unique optimal bijection with strict dual vectors, or the obstruction.

    The matrix is strongly regular iff the assignment optimum is attained by
    exactly one bijection F (the Hungarian kernel of optimal_bijections looks
    for the first two in lexicographic order); then finite duals f, g exist
    with b_{iF(i)} - f_{F(i)} > b_{ik} - f_k (k != F(i)) and the column-dual
    strict inequality, and the certificate realizes the subdifferential
    singleton equivalences. Otherwise the obstruction names the first
    optimal bijections in lexicographic order, when any exist.
    """
    best, witnesses = optimal_bijections(b)
    if best is None:
        return NotStronglyRegular(None, None, "no bijection with finite weight")
    if len(witnesses) > 1:
        return NotStronglyRegular(witnesses[0], witnesses[1], "optimal bijection is not unique")
    perm = witnesses[0]
    f = _strict_dual(b, perm)
    if f is None:
        return NotStronglyRegular(perm, None, "strict duals do not exist")
    g = tuple(b.entry(i, perm[i]) - f[perm[i]] for i in range(b.n))
    cert = RegularityCertificate(perm, f, g)
    _validate_certificate(b, cert)
    return cert


def _validate_certificate(b: AssignMatrix, cert: RegularityCertificate) -> None:
    n = b.n
    perm, f, g = cert.bijection, cert.f, cert.g
    for i in range(n):
        base = b.entry(i, perm[i])
        if base is None:
            raise CertificateInvalid("bijection uses a bottom entry")
        for k in range(n):
            if k != perm[i]:
                e = b.entry(i, k)
                if e is not None and not base - f[perm[i]] > e - f[k]:
                    raise CertificateInvalid("row-dual inequality fails strictly")
        for k in range(n):
            if k != i:
                e = b.entry(k, perm[i])
                if e is not None and not base - g[i] > e - g[k]:
                    raise CertificateInvalid("column-dual inequality fails strictly")


def normal_form(b: AssignMatrix, cert: RegularityCertificate) -> AssignMatrix:
    """Similar strongly normal matrix: c_ij = b_{iF(j)} - f_{F(j)} - g_i.

    The diagonal is zero and off-diagonal entries are strictly negative
    (or bottom); raises CertificateInvalid when the certificate is stale.
    """
    _validate_certificate(b, cert)
    n = b.n
    perm, f = cert.bijection, cert.f
    rows = []
    for i in range(n):
        base = b.entry(i, perm[i]) - f[perm[i]]
        row = []
        for j in range(n):
            e = b.entry(i, perm[j])
            row.append(None if e is None else e - f[perm[j]] - base)
        rows.append(row)
    return assign_matrix(rows)


def distances_potentials(
    b: AssignMatrix, perm: Sequence[int]
) -> Tuple[TropMatrix, TropVector, TropVector]:
    """Optimal distances and the two potentials for a solution bijection.

    The reduced costs d_ij = b_{iF(j)} - b_{jF(j)} have a zero diagonal;
    chains of them close up into the plus-closure b~ = d d*, which exists
    iff no improving cycle does. The potentials are the row and column
    maxima of the closure.
    """
    n = b.n
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a bijection")
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = b.entry(i, perm[j])
            base = b.entry(j, perm[j])
            if base is None:
                raise ValueError("bijection uses a bottom entry")
            row.append(None if e is None else e - base)
        rows.append(row)
    d = matrix(rows, MAX_PLUS)
    try:
        closure = kleene_plus(d)
    except Divergent as exc:
        raise ImprovingCycle("the bijection admits an improving cycle") from exc
    add = MAX_PLUS.ops.add
    phi = TropVector._trusted(tuple(reduce(add, row) for row in closure.payload), MAX_PLUS)
    phi_t = TropVector._trusted(tuple(reduce(add, col) for col in zip(*closure.payload)), MAX_PLUS)
    return closure, phi, phi_t
