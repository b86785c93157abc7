"""Dense matrices and vectors over a tagged semiring.

Product, left residuation, Kleene star and plus-closure (one Floyd-Warshall
pass on raw payloads that fails fast on divergence), and the endpointwise
interval star.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    Divergent,
    DivisionByBottom,
    EmptySupport,
    TagMismatch,
    ZeroColumn,
)
from .semiring import (
    MAX_PLUS,
    MIN_PLUS,
    Interval,
    ScalarLike,
    SemiringTag,
    TropScalar,
    one,
    scalar,
    sr_add,
    sr_mul,
    sr_residual,
    zero,
)


def _canonical_min(items: Iterable[TropScalar]) -> TropScalar:
    """Greatest lower bound of a nonempty chain in the canonical order."""
    it = iter(items)
    try:
        best = next(it)
    except StopIteration:
        raise EmptySupport("canonical min over an empty set")
    for x in it:
        if x <= best:
            best = x
    return best


@dataclass(frozen=True)
class TropVector:
    entries: Tuple[TropScalar, ...]
    tag: SemiringTag

    def __post_init__(self):
        for e in self.entries:
            if e.tag is not self.tag:
                raise TagMismatch("vector entry tag differs from vector tag")

    @property
    def len(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> TropScalar:
        return self.entries[i]

    def support(self) -> frozenset:
        return frozenset(i for i, e in enumerate(self.entries) if not e.is_zero)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def __add__(self, other: "TropVector") -> "TropVector":
        if len(self) != len(other):
            raise DimensionMismatch("vector lengths differ")
        return TropVector(tuple(sr_add(a, b) for a, b in zip(self.entries, other.entries)), self.tag)

    def scale(self, c: TropScalar) -> "TropVector":
        return TropVector(tuple(sr_mul(c, e) for e in self.entries), self.tag)

    def __le__(self, other: "TropVector") -> bool:
        return all(a <= b for a, b in zip(self.entries, other.entries))

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(e) for e in self.entries) + ")"


def vector(values: Sequence[ScalarLike], tag: SemiringTag = MAX_PLUS) -> TropVector:
    return TropVector(tuple(scalar(v, tag) for v in values), tag)


def unit_vector(n: int, i: int, tag: SemiringTag = MAX_PLUS) -> TropVector:
    return TropVector(tuple(one(tag) if j == i else zero(tag) for j in range(n)), tag)


def vec_residual(x: TropVector, y: TropVector) -> TropScalar:
    """x / y = max{lam : lam * y <= x}, the scalar vector residual.

    Equals min over the support of y of x_i / y_i; the zero vector has no
    residual (empty support).
    """
    if len(x) != len(y):
        raise DimensionMismatch("vector lengths differ")
    supp = y.support()
    if not supp:
        raise EmptySupport("residual against the zero vector")
    return _canonical_min(sr_residual(x[i], y[i]) for i in sorted(supp))


@dataclass(frozen=True)
class TropMatrix:
    entries: Tuple[Tuple[TropScalar, ...], ...]
    tag: SemiringTag

    def __post_init__(self):
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise DimensionMismatch("ragged rows")
        for row in self.entries:
            for e in row:
                if e.tag is not self.tag:
                    raise TagMismatch("matrix entry tag differs from matrix tag")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij: Tuple[int, int]) -> TropScalar:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> TropVector:
        return TropVector(self.entries[i], self.tag)

    def column(self, j: int) -> TropVector:
        return TropVector(tuple(r[j] for r in self.entries), self.tag)

    def columns(self) -> List[TropVector]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "TropMatrix":
        return TropMatrix(tuple(zip(*self.entries)), self.tag) if self.entries else self

    def __add__(self, other: "TropMatrix") -> "TropMatrix":
        if self.tag is not other.tag:
            raise TagMismatch("matrix tags differ")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        return TropMatrix(
            tuple(
                tuple(sr_add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
            self.tag,
        )

    def __matmul__(self, other: "TropMatrix") -> "TropMatrix":
        return mat_mul(self, other)

    def __le__(self, other: "TropMatrix") -> bool:
        return all(
            a <= b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    def scale(self, c: TropScalar) -> "TropMatrix":
        return TropMatrix(tuple(tuple(sr_mul(c, e) for e in r) for r in self.entries), self.tag)

    def apply(self, x: TropVector) -> TropVector:
        """Matrix-vector product A * x; max-plus and min-plus on raw payloads."""
        if self.cols != len(x):
            raise DimensionMismatch(f"{self.rows}x{self.cols} applied to length {len(x)}")
        if self.tag is not x.tag:
            raise TagMismatch("matrix and vector tags differ")
        if self.tag in (MAX_PLUS, MIN_PLUS):
            best = max if self.tag is MAX_PLUS else min
            xs = [e.value for e in x.entries]
            out = []
            for row in self.entries:
                terms = [e.value + v for e, v in zip(row, xs) if e.value is not None and v is not None]
                out.append(TropScalar._fast(best(terms) if terms else None, self.tag))
            return TropVector(tuple(out), self.tag)
        out = []
        for i in range(self.rows):
            acc = zero(self.tag)
            for j in range(self.cols):
                acc = sr_add(acc, sr_mul(self.entries[i][j], x[j]))
            out.append(acc)
        return TropVector(tuple(out), self.tag)

    def __repr__(self) -> str:
        return "[" + "; ".join(", ".join(repr(e) for e in row) for row in self.entries) + "]"


def matrix(rows: Sequence[Sequence[ScalarLike]], tag: SemiringTag = MAX_PLUS) -> TropMatrix:
    return TropMatrix(tuple(tuple(scalar(v, tag) for v in row) for row in rows), tag)


def from_columns(cols: Sequence[TropVector], tag: Optional[SemiringTag] = None) -> TropMatrix:
    if not cols:
        raise DimensionMismatch("need at least one column")
    tag = tag or cols[0].tag
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise DimensionMismatch("column lengths differ")
    return TropMatrix(tuple(tuple(c[i] for c in cols) for i in range(n)), tag)


def identity(n: int, tag: SemiringTag = MAX_PLUS) -> TropMatrix:
    return TropMatrix(
        tuple(tuple(one(tag) if i == j else zero(tag) for j in range(n)) for i in range(n)), tag
    )


def zero_matrix(rows: int, cols: int, tag: SemiringTag = MAX_PLUS) -> TropMatrix:
    return TropMatrix(tuple(tuple(zero(tag) for _ in range(cols)) for _ in range(rows)), tag)


def mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """C_ik = sum_j a_ij * b_jk over the tagged semiring."""
    if a.tag is not b.tag:
        raise TagMismatch("matrix tags differ")
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    bt = b.transpose().entries
    out = []
    for row in a.entries:
        out_row = []
        for col in bt:
            acc = zero(a.tag)
            for x, y in zip(row, col):
                acc = sr_add(acc, sr_mul(x, y))
            out_row.append(acc)
        out.append(tuple(out_row))
    return TropMatrix(tuple(out), a.tag)


def mat_residual_left(v: TropMatrix, x: TropVector) -> TropVector:
    """V \\ x: the greatest vector lam with V * lam <= x.

    Componentwise (V\\x)_j = min over the support of column j of x_i / V_ij.
    Columns of all zeros admit no residual. Max-plus and min-plus run on raw
    payloads, where the canonical min is the numeric min (max for min-plus)
    and any bottom x_i on the support makes the entry the bottom.
    """
    if v.rows != len(x):
        raise DimensionMismatch("row count does not match vector length")
    if v.tag is not x.tag:
        raise TagMismatch("matrix and vector tags differ")
    out = []
    if v.tag in (MAX_PLUS, MIN_PLUS):
        least = min if v.tag is MAX_PLUS else max
        xs = [e.value for e in x.entries]
        for j, col in enumerate(zip(*v.entries)):
            ratios = [None if xi is None else xi - e.value for e, xi in zip(col, xs) if e.value is not None]
            if not ratios:
                raise ZeroColumn(f"column {j} is all zero")
            out.append(TropScalar._fast(None if None in ratios else least(ratios), v.tag))
        return TropVector(tuple(out), v.tag)
    for j in range(v.cols):
        col = v.column(j)
        supp = col.support()
        if not supp:
            raise ZeroColumn(f"column {j} is all zero")
        out.append(_canonical_min(sr_residual(x[i], col[i]) for i in sorted(supp)))
    return TropVector(tuple(out), v.tag)


def _closure(a: TropMatrix, shift=0) -> List[list]:
    """Raw payloads (None = bottom) of the plus-closure of A, with `shift`
    subtracted from every finite entry first, by one Floyd-Warshall pass in
    place on a copy, run as max-plus (min-plus payloads are negated).

    After pivot k, d[i][j] is the best weight of a path i -> j of at least
    one edge with intermediate nodes <= k. A pivot diagonal above the unit
    closes a cycle that makes the series diverge: Divergent, at once.
    """
    if not a.is_square:
        raise DimensionMismatch("star needs a square matrix")
    if a.tag not in (MAX_PLUS, MIN_PLUS):
        raise ValueError("matrix star is provided for max-plus and min-plus tags")
    sign = -1 if a.tag is MIN_PLUS else 1
    d = [[None if e.value is None else sign * (e.value - shift) for e in row] for row in a.entries]
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


def _raw(a: TropMatrix) -> List[list]:
    return [[e.value for e in row] for row in a.entries]


def _box(d: List[list], tag: SemiringTag) -> TropMatrix:
    return TropMatrix(tuple(tuple(TropScalar._fast(v, tag) for v in row) for row in d), tag)


def kleene_star(a: TropMatrix) -> TropMatrix:
    """A* = I + A + A^2 + ..., the optimal path weights on the digraph of A.

    One Floyd-Warshall pass gives the plus-closure A+ and A* = I + A+. A
    cycle weight above the unit raises Divergent as soon as the pass meets it.
    """
    d = _closure(a)
    for i, row in enumerate(d):
        row[i] = 0
    return _box(d, a.tag)


def kleene_plus(a: TropMatrix) -> TropMatrix:
    """A+ = A A* = A + A^2 + ..., the closure over paths with at least one edge."""
    return _box(_closure(a), a.tag)


@dataclass(frozen=True)
class IntervalMatrix:
    entries: Tuple[Tuple[Interval, ...], ...]
    tag: SemiringTag

    def __post_init__(self):
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise DimensionMismatch("ragged rows")
        for row in self.entries:
            for e in row:
                if e.tag is not self.tag:
                    raise TagMismatch("interval entry tag differs from matrix tag")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij: Tuple[int, int]) -> Interval:
        i, j = ij
        return self.entries[i][j]

    def lo_matrix(self) -> TropMatrix:
        return TropMatrix(tuple(tuple(e.lo for e in r) for r in self.entries), self.tag)

    def hi_matrix(self) -> TropMatrix:
        return TropMatrix(tuple(tuple(e.hi for e in r) for r in self.entries), self.tag)

    def contains(self, m: TropMatrix) -> bool:
        return all(
            e.contains(m[i, j]) for i, r in enumerate(self.entries) for j, e in enumerate(r)
        )


def interval_matrix(lo: TropMatrix, hi: TropMatrix) -> IntervalMatrix:
    if lo.tag is not hi.tag:
        raise TagMismatch("endpoint tags differ")
    if (lo.rows, lo.cols) != (hi.rows, hi.cols):
        raise DimensionMismatch("endpoint shapes differ")
    return IntervalMatrix(
        tuple(
            tuple(Interval(lo[i, j], hi[i, j]) for j in range(lo.cols)) for i in range(lo.rows)
        ),
        lo.tag,
    )


def iv_kleene_star(a: IntervalMatrix) -> IntervalMatrix:
    """Interval star [star(lo), star(hi)], exact by isotonicity of star.

    Costs exactly two ordinary stars; diverges iff the upper endpoint
    matrix does (the lower one is dominated, so it converges first).
    """
    hi_star = kleene_star(a.hi_matrix())
    lo_star = kleene_star(a.lo_matrix())
    return interval_matrix(lo_star, hi_star)
