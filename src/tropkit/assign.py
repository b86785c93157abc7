"""Finite idempotent assignment analysis.

The Bellman-type maps (B f)_i = max_j (b_ij - f_j) and their transposes
form a Galois pair, computed as max-plus products with -f; subdifferential
coverings characterize solvability and uniqueness of B f = g. Strong
regularity is uniqueness of the optimal assignment with strict dual
certificates: the `determ` Hungarian kernel decides uniqueness and its
optimal duals, lifted along the acyclic digraph of tight edges, give the
strict duals. Every strongly regular matrix is similar to a strongly normal
one. The strict duals, the certificate check and the normal form run on
integers: B's payloads and the duals (or a caller's f and g) are scaled to
ints over one scale by one `semiring._scaled` call, and the values come
back through `_unscaled`. Optimal distances and potentials come from the
Kleene closure of the reduced-cost matrix. The Fraction-based versions are
the test oracle in `tests/assign_oracle.py`.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .determ import _optimal_bijections
from .errors import CertificateInvalid, DimensionMismatch, Divergent, ImprovingCycle, SchemaError
from .semiring import MAX_PLUS, Payload, _rational, _record, _scaled, _unscaled
from .tropmat import TropMatrix, TropVector, kleene_plus, matrix


@_record
class AssignMatrix:
    """Square max-plus matrix with a finite entry in every row and column."""

    data: TropMatrix

    def __post_init__(self):
        if self.data.tag is not MAX_PLUS:
            raise ValueError("assignment matrices are over max-plus")
        if not self.data.is_square:
            raise DimensionMismatch("assignment matrices are square")
        if not self.data.rows:
            raise SchemaError("assignment matrices are nonempty")
        for name, lines in (("row", self.data.payload), ("column", zip(*self.data.payload))):
            for i, line in enumerate(lines):
                if all(v is None for v in line):
                    raise SchemaError(f"{name} {i} has no finite entry (condition C)")

    @property
    def n(self) -> int:
        return self.data.rows

    def entry(self, i: int, j: int) -> Payload:
        return self.data.payload[i][j]


def assign_matrix(rows) -> AssignMatrix:
    return AssignMatrix(matrix(rows, MAX_PLUS))


def apply_b(b: AssignMatrix, f: Sequence, transpose: bool = False) -> List[Payload]:
    """(B f)_i = max_j (b_ij - f_j), the max-plus product of B and -f; the
    transpose uses b_ji."""
    m = b.data.transpose() if transpose else b.data
    neg = TropVector._trusted(tuple(-_rational(x) for x in f), MAX_PLUS)
    return list(m.apply(neg).payload)


@_record
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
    gv = [_rational(x) for x in g]
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


@_record
class RegularityCertificate:
    bijection: Tuple[int, ...]
    f: Tuple[Payload, ...]
    g: Tuple[Payload, ...]


@_record
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
    value, witnesses, _ = _optimal_bijections(b.data.payload, MAX_PLUS, keep)
    return value, witnesses


def _on_one_scale(b: AssignMatrix, vectors: Sequence[Sequence], scale: int = 1):
    """(rows, vectors, L): B's payload rows and each length-n vector of
    canonical payloads as ints over one L, a multiple of `scale`, by one
    `semiring._scaled` call; `_unscaled(x, L)` reads a value back."""
    n = b.n
    flat, scale = _scaled([*chain.from_iterable(b.data.payload), *chain.from_iterable(vectors)], scale)
    rows = [flat[i:i + n] for i in range(0, n * n, n)]
    return rows, [flat[k:k + n] for k in range(n * n, len(flat), n)], scale


def _strict_dual(rows: List[list], perm: Tuple[int, ...], u: list, v: list, scale: int) -> List[int]:
    """Finite f with b_{iF(i)} - f_{F(i)} > b_ik - f_k for all k != F(i), on
    B's rows and the optimal duals u, v as ints over one scale L that n divides.

    The optimal duals give u_i = b_{iF(i)} - v_{F(i)} >= b_ik - v_k, with
    slack u_i + v_k - b_ik. The tight edges F(i) -> k (k != F(i), no slack)
    form a digraph that is acyclic when the optimum is unique, since a tight
    cycle would reassign its rows to another optimal bijection. So
    f_k = v_k + t depth_k, with depth_k the longest tight path ending at k,
    is strict on every tight edge; depths differ by less than n, so t = (least
    positive slack) / n keeps every slack edge strict, and t = 1 / n when no
    edge has slack. n divides L and every slack times L / n is an int, so t
    is an int on this scale.
    """
    n = len(rows)
    succ: List[List[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    least = None
    for i, row in enumerate(rows):
        for k, e in enumerate(row):
            if k == perm[i] or e is None:
                continue
            slack = u[i] + v[k] - e
            if slack == 0:
                succ[perm[i]].append(k)
                indegree[k] += 1
            elif least is None or slack < least:
                least = slack
    depth = [0] * n
    order = [k for k in range(n) if not indegree[k]]
    for j in order:
        for k in succ[j]:
            depth[k] = max(depth[k], depth[j] + 1)
            indegree[k] -= 1
            if not indegree[k]:
                order.append(k)
    t = (scale if least is None else least) // n
    return [v[k] + t * depth[k] for k in range(n)]


def strong_regularity(b: AssignMatrix) -> Union[RegularityCertificate, NotStronglyRegular]:
    """Unique optimal bijection with strict dual vectors, or the obstruction.

    The matrix is strongly regular iff the assignment optimum is attained by
    exactly one bijection F; the `determ` Hungarian kernel looks for the
    first two in lexicographic order. Its optimal duals then give f
    with b_{iF(i)} - f_{F(i)} > b_ik - f_k (k != F(i)) by _strict_dual, and
    g_i = b_{iF(i)} - f_{F(i)} satisfies the column-dual strict inequality;
    the certificate realizes the subdifferential singleton equivalences and
    is checked before it is returned. B and the duals are scaled to ints
    over one L once, and f and g come back through `_unscaled`. Otherwise
    the obstruction names the first optimal bijections in lexicographic
    order, when any exist.
    """
    value, witnesses, duals = _optimal_bijections(b.data.payload, MAX_PLUS, 2)
    if value is None:
        return NotStronglyRegular(None, None, "no bijection with finite weight")
    if len(witnesses) > 1:
        return NotStronglyRegular(witnesses[0], witnesses[1], "optimal bijection is not unique")
    perm = witnesses[0]
    rows, (u, v), scale = _on_one_scale(b, duals, b.n)
    f = _strict_dual(rows, perm, u, v, scale)
    g = [row[j] - f[j] for row, j in zip(rows, perm)]
    _validate_certificate(rows, perm, f, g)
    return RegularityCertificate(
        perm, tuple(_unscaled(x, scale) for x in f), tuple(_unscaled(x, scale) for x in g)
    )


def _validate_certificate(rows: List[list], perm: Sequence[int], f: list, g: list) -> None:
    """Raise CertificateInvalid unless the bijection avoids the bottom and
    both dual inequalities hold strictly, on B's rows, f and g as ints over
    one scale."""
    n = len(rows)
    for i in range(n):
        row, p = rows[i], perm[i]
        base = row[p]
        if base is None:
            raise CertificateInvalid("bijection uses a bottom entry")
        top = base - f[p]
        for k in range(n):
            if k != p:
                e = row[k]
                if e is not None and not top > e - f[k]:
                    raise CertificateInvalid("row-dual inequality fails strictly")
        top = base - g[i]
        for k in range(n):
            if k != i:
                e = rows[k][p]
                if e is not None and not top > e - g[k]:
                    raise CertificateInvalid("column-dual inequality fails strictly")


def normal_form(b: AssignMatrix, cert: RegularityCertificate) -> AssignMatrix:
    """Similar strongly normal matrix: c_ij = b_{iF(j)} - f_{F(j)} - g_i.

    The diagonal is zero and off-diagonal entries are strictly negative
    (or bottom). Raises CertificateInvalid when the certificate is malformed
    (the bijection is no permutation of range(n), or f or g has not n
    entries) or stale; f and g are read through `semiring._rational`. The
    check and the entries run on ints over one scale.
    """
    n = b.n
    perm = cert.bijection
    if any(type(j) is not int for j in perm) or sorted(perm) != list(range(n)):
        raise CertificateInvalid(f"bijection is not a permutation of range({n})")
    if len(cert.f) != n or len(cert.g) != n:
        raise CertificateInvalid(f"f and g need {n} entries each")
    rows, (f, g), scale = _on_one_scale(b, ([_rational(x) for x in cert.f], [_rational(x) for x in cert.g]))
    _validate_certificate(rows, perm, f, g)
    out = []
    for row, p in zip(rows, perm):
        base = row[p] - f[p]
        out.append(tuple(None if row[j] is None else _unscaled(row[j] - f[j] - base, scale) for j in perm))
    return AssignMatrix(TropMatrix._trusted(tuple(out), MAX_PLUS))


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
        rows.append(tuple(row))
    try:
        # the closure scales the differences to integers: its payloads are canonical
        closure = kleene_plus(TropMatrix._trusted(tuple(rows), MAX_PLUS))
    except Divergent as exc:
        raise ImprovingCycle("the bijection admits an improving cycle") from exc
    add = MAX_PLUS.ops.add
    phi = TropVector._trusted(tuple(reduce(add, row) for row in closure.payload), MAX_PLUS)
    phi_t = TropVector._trusted(tuple(reduce(add, col) for col in zip(*closure.payload)), MAX_PLUS)
    return closure, phi, phi_t
