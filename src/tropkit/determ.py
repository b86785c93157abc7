"""Semiring matrix invariants: bideterminant, permanent, rook coefficients,
tropical and zero-pattern singularity, and standard transformations.

The bideterminant replaces the determinant over subtraction-free semirings:
the pair of permutation sums split by parity. The permanent is the full
permutation sum; over max-plus it is the optimal assignment value. The
permanent and tropical singularity come from one O(n^3) Hungarian kernel
with a lexicographic search for the optimal bijections (the assignment
module uses it too); the bideterminant, the rook coefficients' subset loop
and the literal subset singularity stay exact, capped enumerations.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, TooLarge
from .semiring import (
    BOOLEAN,
    MAX_TIMES,
    MIN_PLUS,
    SemiringTag,
    TropScalar,
    one,
    sr_add,
    sr_mul,
    zero,
)
from .tropmat import TropMatrix, _raw

PERMANENT_CAP = 8
ROOK_CAP = 7
SUBSET_CAP = 3


def _perm_parity(perm: Sequence[int]) -> int:
    """0 for even, 1 for odd (cycle decomposition)."""
    seen = [False] * len(perm)
    parity = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def _diag_product(a: TropMatrix, perm: Sequence[int]) -> TropScalar:
    acc = one(a.tag)
    for i, j in enumerate(perm):
        acc = sr_mul(acc, a[i, j])
    return acc


@dataclass(frozen=True)
class Bideterminant:
    plus: TropScalar
    minus: TropScalar


def bideterminant(a: TropMatrix) -> Bideterminant:
    """(|A|+, |A|-): permutation sums over even and odd permutations."""
    if not a.is_square:
        raise DimensionMismatch("bideterminant needs a square matrix")
    n = a.rows
    if n > PERMANENT_CAP:
        raise TooLarge(f"bideterminant enumeration capped at n <= {PERMANENT_CAP}")
    plus, minus = zero(a.tag), zero(a.tag)
    for perm in itertools.permutations(range(n)):
        term = _diag_product(a, perm)
        if _perm_parity(perm) == 0:
            plus = sr_add(plus, term)
        else:
            minus = sr_add(minus, term)
    return Bideterminant(plus, minus)


def _optimal_bijections(rows: Sequence[Sequence], tag: SemiringTag, keep: int):
    """(value, witnesses): the optimal permutation sum of the raw payload rows
    and its first `keep` attaining bijections in lexicographic order.

    One O(n^3) shortest-augmenting-path Hungarian pass (Kuhn 1955) finds
    optimal duals u, v with u_i v_j >= a_ij, run as max-plus (min-plus is
    negated, boolean becomes the 0/bottom pattern of its True entries) or as
    max-times (x and / with unit 1; 0 is no edge). The optimal bijections are
    exactly the perfect matchings of the tight edges u_i v_j = a_ij; a depth
    first search over rows in order and columns ascending lists them,
    pruning a column as soon as the remaining rows cannot be rematched. The
    value is the product along the first witness; (None, []) when no
    bijection avoids the bottom.
    """
    n = len(rows)
    if tag is MAX_TIMES:
        w = [[Fraction(x) if x else None for x in row] for row in rows]
        mul, div, unit = operator.mul, operator.truediv, 1
    else:
        if tag is MIN_PLUS:
            w = [[None if x is None else -x for x in row] for row in rows]
        elif tag is BOOLEAN:
            w = [[0 if x else None for x in row] for row in rows]
        else:
            w = rows
        mul, div, unit = operator.add, operator.sub, 0
    # Hungarian pass; column n is the root of each row's alternating tree
    u, v = [unit] * n, [unit] * (n + 1)
    owner: List[Optional[int]] = [None] * (n + 1)
    for i in range(n):
        owner[n], j0 = i, n
        slack: List = [None] * n  # None: no edge reached yet
        way = [n] * n
        used = [False] * (n + 1)
        while owner[j0] is not None:
            used[j0] = True
            i0 = owner[j0]
            ui0, wi0 = u[i0], w[i0]
            delta = j1 = None
            for j in range(n):
                if used[j]:
                    continue
                x = wi0[j]
                if x is not None:
                    cur = div(mul(ui0, v[j]), x)
                    if slack[j] is None or cur < slack[j]:
                        slack[j], way[j] = cur, j0
                s = slack[j]
                if s is not None and (delta is None or s < delta):
                    delta, j1 = s, j
            if j1 is None:
                return None, []
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] = div(u[owner[j]], delta)
                    v[j] = mul(v[j], delta)
                elif slack[j] is not None:
                    slack[j] = div(slack[j], delta)
            j0 = j1
        while j0 != n:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    tight = [
        [j for j in range(n) if w[i][j] is not None and mul(u[i], v[j]) == w[i][j]]
        for i in range(n)
    ]
    row_of = owner[:n]
    col_of = [0] * n
    for j, i in enumerate(row_of):
        col_of[i] = j

    def rematch(i: int, r: int, seen: List[bool]) -> bool:
        # augmenting path from row i over rows > r to the one free column
        for j in tight[i]:
            if not seen[j]:
                seen[j] = True
                k = row_of[j]
                if k is None or (k > r and rematch(k, r, seen)):
                    row_of[j], col_of[i] = i, j
                    return True
        return False

    witnesses: List[Tuple[int, ...]] = []

    def search(r: int) -> bool:
        if r == n:
            witnesses.append(tuple(col_of))
            return len(witnesses) >= keep
        for j in tight[r]:
            k, home = row_of[j], col_of[r]
            if k < r:
                continue
            if k != r:
                row_of[j], col_of[r], row_of[home] = r, j, None
                if not rematch(k, r, [False] * n):
                    row_of[j], col_of[r], row_of[home] = k, home, r
                    continue
            if search(r + 1):
                return True
        return False

    search(0)
    if tag is BOOLEAN:
        return True, witnesses
    value = unit
    for i, j in enumerate(witnesses[0]):
        value = mul(value, rows[i][j])
    return value, witnesses


def _permanent_of(rows: Sequence[Sequence], tag: SemiringTag) -> TropScalar:
    value, _ = _optimal_bijections(rows, tag, 1)
    return zero(tag) if value is None else TropScalar._fast(value, tag)


def permanent(a: TropMatrix) -> TropScalar:
    """Permutation sum over all of S_n; the optimal assignment value in max-plus.

    The Hungarian kernel gives it in O(n^3): the product along the first
    optimal bijection, or the zero when every bijection meets a bottom.
    """
    if not a.is_square:
        raise DimensionMismatch("permanent needs a square matrix")
    return _permanent_of(_raw(a), a.tag)


def rook_coefficients(a: TropMatrix) -> List[TropScalar]:
    """[p_0, ..., p_min(m,n)]: p_0 = unit, p_j = sum of j x j subpermanents."""
    m, n = a.rows, a.cols
    if m > ROOK_CAP or n > ROOK_CAP:
        raise TooLarge(f"rook enumeration capped at {ROOK_CAP}")
    raw = _raw(a)
    out = [one(a.tag)]
    for j in range(1, min(m, n) + 1):
        acc = zero(a.tag)
        for rows in itertools.combinations(range(m), j):
            for cols in itertools.combinations(range(n), j):
                sub = [[raw[r][c] for c in cols] for r in rows]
                acc = sr_add(acc, _permanent_of(sub, a.tag))
        out.append(acc)
    return out


def is_trop_singular(a: TropMatrix) -> bool:
    """True iff the extremal permanent value is attained by >= 2 permutations.

    The Hungarian kernel looks for a second optimal bijection; when every
    bijection meets a bottom, all n! products tie at the zero. For
    idempotent addition this coincides with the general balanced-subset
    definition (split off one attaining permutation); is_trop_singular_subsets
    is the literal subset form, kept as a small-size cross-check.
    """
    if not a.is_square:
        raise DimensionMismatch("tropical singularity needs a square matrix")
    value, witnesses = _optimal_bijections(_raw(a), a.tag, 2)
    if value is None:
        return a.rows >= 2
    return len(witnesses) >= 2


def is_trop_singular_subsets(a: TropMatrix) -> bool:
    """Literal general definition: some nonempty proper subset T of S_n
    balances the two permutation sums. Exponential in n!, capped small."""
    if not a.is_square:
        raise DimensionMismatch("tropical singularity needs a square matrix")
    n = a.rows
    if n > SUBSET_CAP:
        raise TooLarge(f"subset enumeration capped at n <= {SUBSET_CAP}")
    terms = [_diag_product(a, perm) for perm in itertools.permutations(range(n))]
    total = len(terms)
    for mask in range(1, (1 << total) - 1):
        left, right = zero(a.tag), zero(a.tag)
        for t in range(total):
            if mask >> t & 1:
                left = sr_add(left, terms[t])
            else:
                right = sr_add(right, terms[t])
        if left == right:
            return True
    return False


def is_pattern_singular(a: TropMatrix) -> str:
    """Zero-pattern singularity over antinegative semirings without zero
    divisors: A x = 0 with x != 0 forces an all-zero column, and dually for
    rows. Returns "right", "left", or "none" (right checked first)."""
    for j in range(a.cols):
        if all(a[i, j].is_zero for i in range(a.rows)):
            return "right"
    for i in range(a.rows):
        if all(a[i, j].is_zero for j in range(a.cols)):
            return "left"
    return "none"


def _perm_matrix(perm: Sequence[int], tag: SemiringTag) -> TropMatrix:
    n = len(perm)
    return TropMatrix(
        tuple(tuple(one(tag) if j == perm[i] else zero(tag) for j in range(n)) for i in range(n)),
        tag,
    )


def _diag_matrix(diag: Sequence[TropScalar], tag: SemiringTag) -> TropMatrix:
    n = len(diag)
    return TropMatrix(
        tuple(tuple(diag[i] if i == j else zero(tag) for j in range(n)) for i in range(n)), tag
    )


@dataclass(frozen=True)
class StandardTransform:
    """X -> P D X' E Q with permutations P, Q and invertible diagonals D, E."""

    p: Tuple[int, ...]
    d: Tuple[TropScalar, ...]
    e: Tuple[TropScalar, ...]
    q: Tuple[int, ...]
    transpose: bool = False

    def __post_init__(self):
        for s in self.d + self.e:
            if s.is_zero:
                raise ValueError("diagonal entries of a standard transform must be invertible")


def identity_transform(n: int, tag: SemiringTag, transpose: bool = False) -> StandardTransform:
    return StandardTransform(
        tuple(range(n)),
        tuple(one(tag) for _ in range(n)),
        tuple(one(tag) for _ in range(n)),
        tuple(range(n)),
        transpose,
    )


def apply_standard_transform(a: TropMatrix, t: StandardTransform) -> TropMatrix:
    """P D X' E Q with X' = A or its transpose; shapes are checked."""
    x = a.transpose() if t.transpose else a
    if len(t.p) != x.rows or len(t.d) != x.rows:
        raise DimensionMismatch("left factors do not match the row count")
    if len(t.q) != x.cols or len(t.e) != x.cols:
        raise DimensionMismatch("right factors do not match the column count")
    tag = a.tag
    return _perm_matrix(t.p, tag) @ _diag_matrix(t.d, tag) @ x @ _diag_matrix(t.e, tag) @ _perm_matrix(t.q, tag)
