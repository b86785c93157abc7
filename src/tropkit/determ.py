"""Semiring matrix invariants: bideterminant, permanent, rook coefficients,
tropical and zero-pattern singularity, and standard transformations.

The bideterminant replaces the determinant over subtraction-free semirings:
the pair of permutation sums split by parity, found by one DP over rows and
used-column sets in O(2^n n). Every tag is encoded as one maximization by
`_weights`: max-plus as is, min-plus negated, boolean as the 0/bottom
pattern of its True entries (all three multiplied by `+`), and max-times
with 0 as the bottom (multiplied by `*`). The DP runs on those weights
scaled to integers; the Hungarian kernel below reads the same weights.

The permanent is the full permutation sum; over max-plus it is the optimal
assignment value. The permanent, tropical singularity and the rook
coefficients come from one O(n^3) Hungarian kernel with a lexicographic
search for the optimal bijections; a rook coefficient is the permanent of a
padded matrix. The kernel also returns its optimal duals u, v (u_i v_j >=
a_ij, tight on every optimal bijection), which only the assignment module
reads: its strict dual certificate is built from them.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, TooLarge
from .semiring import (
    BOOLEAN,
    MAX_TIMES,
    MIN_PLUS,
    SemiringTag,
    TropScalar,
    _record,
    _scaled,
    _unscaled,
    one,
)
from .tropmat import TropMatrix

BIDETERMINANT_CAP = 14


@_record
class Bideterminant:
    plus: TropScalar
    minus: TropScalar


def bideterminant(a: TropMatrix) -> Bideterminant:
    """(|A|+, |A|-): permutation sums over even and odd permutations.

    A DP over rows in order keeps, for each set `mask` of columns used so
    far, the (even, odd) sums of the partial products. Putting the next row
    in column j adds one inversion per used column above j, so the parity
    flips with popcount(mask >> (j + 1)). O(2^n n) steps, so n is capped.
    The one DP serves every tag. It keeps the max of the products of the
    `_weights` of the rows, scaled to integers by L, and decodes each sum
    at the end: max-plus sums are unscaled by L, min-plus ones also negated
    back; a max-times product carries L once per factor, so it is unscaled
    by L^n, and a missing one is the zero 0; a boolean sum is true exactly
    when some product exists.
    """
    if not a.is_square:
        raise DimensionMismatch("bideterminant needs a square matrix")
    n, tag = a.rows, a.tag
    if n > BIDETERMINANT_CAP:
        raise TooLarge(f"bideterminant DP capped at n <= {BIDETERMINANT_CAP}")
    w, mul, unit = _weights(a.payload, tag)
    flat, scale = _scaled([v for row in w for v in row])
    items = [[(1 << j, j + 1, v) for j, v in enumerate(flat[i * n:(i + 1) * n]) if v is not None]
             for i in range(n)]
    full = (1 << n) - 1
    even, odd = [None] * (full + 1), [None] * (full + 1)
    even[0] = unit
    for mask in range(full):
        e, o = even[mask], odd[mask]
        if e is None and o is None:
            continue
        for bit, above, v in items[mask.bit_count()]:
            if mask & bit:
                continue
            if (mask >> above).bit_count() & 1:
                pe, po = o, e
            else:
                pe, po = e, o
            t = mask | bit
            if pe is not None:
                pe = mul(pe, v)
                if even[t] is None or pe > even[t]:
                    even[t] = pe
            if po is not None:
                po = mul(po, v)
                if odd[t] is None or po > odd[t]:
                    odd[t] = po
    if tag is BOOLEAN:
        plus, minus = (s is not None for s in (even[full], odd[full]))
    else:
        sign, scale = -1 if tag is MIN_PLUS else 1, scale**n if tag is MAX_TIMES else scale
        plus, minus = (tag.ops.zero if s is None else _unscaled(sign * s, scale) for s in (even[full], odd[full]))
    return Bideterminant(TropScalar._trusted(plus, tag), TropScalar._trusted(minus, tag))


def _weights(rows: Sequence[Sequence], tag: SemiringTag):
    """(w, mul, unit): the payload rows as the weights of one maximization,
    None for the zero, with their product and its unit.

    Max-plus rows are their own weights; min-plus rows are negated; a
    boolean row becomes the 0/bottom pattern of its True entries; all three
    multiply by `+` with unit 0. Max-times entries become Fractions, with 0
    as the bottom, and multiply by `*` with unit 1.
    """
    if tag is MAX_TIMES:
        return [[Fraction(x) if x else None for x in row] for row in rows], operator.mul, 1
    if tag is MIN_PLUS:
        w = [[None if x is None else -x for x in row] for row in rows]
    elif tag is BOOLEAN:
        w = [[0 if x else None for x in row] for row in rows]
    else:
        w = rows
    return w, operator.add, 0


def _optimal_bijections(rows: Sequence[Sequence], tag: SemiringTag, keep: int):
    """(value, witnesses, (u, v)): the optimal permutation sum of the raw
    payload rows, its first `keep` attaining bijections in lexicographic
    order, and the optimal duals.

    One O(n^3) shortest-augmenting-path Hungarian pass (Kuhn 1955) finds
    optimal duals u, v with u_i v_j >= a_ij on the `_weights` of the rows:
    as max-plus with - as the inverse, or as max-times with /. The optimal
    bijections are exactly the perfect matchings of the tight edges
    u_i v_j = a_ij; a depth first search over rows in order and columns
    ascending lists them, pruning a column as soon as the remaining rows
    cannot be rematched. The value is the product along the first witness;
    (None, [], None) when no bijection avoids the bottom. The duals u, v are
    lists of length n in the kernel's arithmetic (max-plus or max-times on
    the weights).
    """
    n = len(rows)
    w, mul, unit = _weights(rows, tag)
    div = operator.truediv if tag is MAX_TIMES else operator.sub
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
                return None, [], None
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
    value = reduce(tag.ops.mul, (rows[i][j] for i, j in enumerate(witnesses[0])), tag.ops.unit)
    return value, witnesses, (u, v[:n])


def _permanent_of(rows: Sequence[Sequence], tag: SemiringTag):
    """The payload of the permanent of the raw payload rows."""
    value, _, _ = _optimal_bijections(rows, tag, 1)
    return tag.ops.zero if value is None else value


def permanent(a: TropMatrix) -> TropScalar:
    """Permutation sum over all of S_n; the optimal assignment value in max-plus.

    The Hungarian kernel gives it in O(n^3): the product along the first
    optimal bijection, or the zero when every bijection meets a bottom.
    """
    if not a.is_square:
        raise DimensionMismatch("permanent needs a square matrix")
    return TropScalar._trusted(_permanent_of(a.payload, a.tag), a.tag)


def rook_coefficients(a: TropMatrix) -> List[TropScalar]:
    """[p_0, ..., p_min(m,n)]: p_0 = unit, p_k = sum of k x k subpermanents.

    p_k is the optimal k-cardinality assignment, one ordinary assignment of
    size m + n - k (Dell'Amico & Martello 1997): A gets m - k unit columns,
    then n - k unit rows over its columns with the zero in the dummy block.
    Every perfect matching of that square matrix pairs exactly k real rows
    with k real columns, so p_k is its permanent.
    """
    m, n = a.rows, a.cols
    unit, zero = a.tag.ops.unit, a.tag.ops.zero
    out = [one(a.tag)]
    for k in range(1, min(m, n) + 1):
        padded = [list(row) + [unit] * (m - k) for row in a.payload]
        padded += [[unit] * n + [zero] * (m - k)] * (n - k)
        out.append(TropScalar._trusted(_permanent_of(padded, a.tag), a.tag))
    return out


def is_trop_singular(a: TropMatrix) -> bool:
    """True iff the extremal permanent value is attained by >= 2 permutations.

    The Hungarian kernel looks for a second optimal bijection; when every
    bijection meets a bottom, all n! products tie at the zero. For
    idempotent addition this coincides with the general balanced-subset
    definition (split off one attaining permutation); the tests check it
    against the literal subset form at small sizes.
    """
    if not a.is_square:
        raise DimensionMismatch("tropical singularity needs a square matrix")
    value, witnesses, _ = _optimal_bijections(a.payload, a.tag, 2)
    if value is None:
        return a.rows >= 2
    return len(witnesses) >= 2


def is_pattern_singular(a: TropMatrix) -> str:
    """Zero-pattern singularity over antinegative semirings without zero
    divisors: A x = 0 with x != 0 forces an all-zero column, and dually for
    rows. Returns "right", "left", or "none" (right checked first)."""
    zero = a.tag.ops.zero
    for side, lines in (("right", zip(*a.payload)), ("left", a.payload)):
        if any(all(v == zero for v in line) for line in lines):
            return side
    return "none"


@_record
class StandardTransform:
    """X -> P D X' E Q with permutations P, Q and invertible diagonals D, E."""

    p: Tuple[int, ...]
    d: Tuple[TropScalar, ...]
    e: Tuple[TropScalar, ...]
    q: Tuple[int, ...]
    transpose: bool = False

    def __post_init__(self):
        if sorted(self.p) != list(range(len(self.p))) or sorted(self.q) != list(range(len(self.q))):
            raise ValueError("p and q of a standard transform must be permutations")
        for s in self.d + self.e:
            if s.is_zero:
                raise ValueError("diagonal entries of a standard transform must be invertible")


def apply_standard_transform(a: TropMatrix, t: StandardTransform) -> TropMatrix:
    """P D X' E Q with X' = A or its transpose; shapes are checked. Entry
    (i, j) is d_p(i) x'_p(i),k e_k with k = q^-1(j), computed directly."""
    x = a.transpose() if t.transpose else a
    if len(t.p) != x.rows or len(t.d) != x.rows:
        raise DimensionMismatch("left factors do not match the row count")
    if len(t.q) != x.cols or len(t.e) != x.cols:
        raise DimensionMismatch("right factors do not match the column count")
    mul, q_inv = a.tag.ops.mul, sorted(range(len(t.q)), key=t.q.__getitem__)
    rows = (tuple(mul(mul(t.d[p].value, x.payload[p][k]), t.e[k].value) for k in q_inv) for p in t.p)
    return TropMatrix._trusted(tuple(rows), a.tag)
