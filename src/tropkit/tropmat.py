"""Dense matrices and vectors over a tagged semiring.

A `TropMatrix` stores one tuple of raw payload rows and its tag, a
`TropVector` one tuple of payloads (see `semiring` for the payload types).
The public constructors accept any scalar-like entries, same-tag
`TropScalar`s included, and coerce each entry once; kernels build their
results from payloads they computed through the private trusted constructor
`_trusted`, which checks nothing. Indexing, `row`, `column` and `entries`
box `TropScalar`s on demand, for callers at the edges.

Every kernel (product, sum, scaling, order, left residuation) picks its
tag's `PayloadOps` once per call and runs the same code for all four tags.
The Kleene star and plus-closure are one Floyd-Warshall pass on signed
payloads that fails fast on divergence, and the interval star runs it on
both endpoint matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    Divergent,
    EmptySupport,
    TagMismatch,
    ZeroColumn,
)
from .semiring import (
    MAX_PLUS,
    MIN_PLUS,
    Interval,
    Payload,
    ScalarLike,
    SemiringTag,
    TropScalar,
    payload_of,
)


def _boxed(values: Iterable[Payload], tag: SemiringTag) -> Tuple[TropScalar, ...]:
    return tuple(TropScalar._fast(v, tag) for v in values)


class _PayloadBacked:
    """Frozen `payload` and `tag` fields, set once by a constructor."""

    def _fill(self, payload, tag: SemiringTag):
        fields = self.__dict__  # written directly: the dataclasses are frozen
        fields["payload"] = payload
        fields["tag"] = tag
        return self

    @classmethod
    def _trusted(cls, payload, tag: SemiringTag):
        """Wrap payloads a kernel computed; nothing is checked or copied."""
        return object.__new__(cls)._fill(payload, tag)


@dataclass(frozen=True, init=False)
class TropVector(_PayloadBacked):
    payload: Tuple[Payload, ...]
    tag: SemiringTag

    def __init__(self, entries: Iterable[ScalarLike], tag: SemiringTag):
        self._fill(tuple(payload_of(v, tag) for v in entries), tag)

    @property
    def entries(self) -> Tuple[TropScalar, ...]:
        return _boxed(self.payload, self.tag)

    def __len__(self) -> int:
        return len(self.payload)

    def __getitem__(self, i: int) -> TropScalar:
        return TropScalar._fast(self.payload[i], self.tag)

    def support(self) -> frozenset:
        zero = self.tag.ops.zero
        return frozenset(i for i, v in enumerate(self.payload) if v != zero)

    @property
    def is_zero(self) -> bool:
        return not self.support()

    def _check_same(self, other: "TropVector") -> None:
        if self.tag is not other.tag:
            raise TagMismatch("vector tags differ")
        if len(self) != len(other):
            raise DimensionMismatch("vector lengths differ")

    def __add__(self, other: "TropVector") -> "TropVector":
        self._check_same(other)
        return TropVector._trusted(tuple(map(self.tag.ops.add, self.payload, other.payload)), self.tag)

    def scale(self, c: TropScalar) -> "TropVector":
        if c.tag is not self.tag:
            raise TagMismatch("scalar and vector tags differ")
        mul, cv = self.tag.ops.mul, c.value
        return TropVector._trusted(tuple(mul(cv, v) for v in self.payload), self.tag)

    def __le__(self, other: "TropVector") -> bool:
        self._check_same(other)
        return all(map(self.tag.ops.le, self.payload, other.payload))

    def __repr__(self) -> str:
        return "(" + ", ".join(map(repr, self.entries)) + ")"


def vector(values: Sequence[ScalarLike], tag: SemiringTag = MAX_PLUS) -> TropVector:
    return TropVector(values, tag)


def unit_vector(n: int, i: int, tag: SemiringTag = MAX_PLUS) -> TropVector:
    ops = tag.ops
    return TropVector._trusted(tuple(ops.unit if j == i else ops.zero for j in range(n)), tag)


def vec_residual(x: TropVector, y: TropVector) -> TropScalar:
    """x / y = max{lam : lam * y <= x}, the scalar vector residual.

    Equals the canonical min over the support of y of x_i / y_i; the zero
    vector has no residual (empty support).
    """
    x._check_same(y)
    ops = x.tag.ops
    residuals = [ops.residual(a, b) for a, b in zip(x.payload, y.payload) if b != ops.zero]
    if not residuals:
        raise EmptySupport("residual against the zero vector")
    le = ops.le
    best = residuals[0]
    for r in residuals[1:]:
        if le(r, best):
            best = r
    return TropScalar._fast(best, x.tag)


@dataclass(frozen=True, init=False)
class TropMatrix(_PayloadBacked):
    payload: Tuple[Tuple[Payload, ...], ...]
    tag: SemiringTag

    def __init__(self, entries: Iterable[Iterable[ScalarLike]], tag: SemiringTag):
        payload = tuple(tuple(payload_of(v, tag) for v in row) for row in entries)
        if len({len(r) for r in payload}) > 1:
            raise DimensionMismatch("ragged rows")
        self._fill(payload, tag)

    @property
    def entries(self) -> Tuple[Tuple[TropScalar, ...], ...]:
        return tuple(_boxed(row, self.tag) for row in self.payload)

    @property
    def rows(self) -> int:
        return len(self.payload)

    @property
    def cols(self) -> int:
        return len(self.payload[0]) if self.payload else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij: Tuple[int, int]) -> TropScalar:
        i, j = ij
        return TropScalar._fast(self.payload[i][j], self.tag)

    def row(self, i: int) -> TropVector:
        return TropVector._trusted(self.payload[i], self.tag)

    def column(self, j: int) -> TropVector:
        return TropVector._trusted(tuple(r[j] for r in self.payload), self.tag)

    def columns(self) -> List[TropVector]:
        return [TropVector._trusted(c, self.tag) for c in zip(*self.payload)]

    def transpose(self) -> "TropMatrix":
        return TropMatrix._trusted(tuple(zip(*self.payload)), self.tag) if self.payload else self

    def _check_same(self, other: "TropMatrix") -> None:
        if self.tag is not other.tag:
            raise TagMismatch("matrix tags differ")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")

    def __add__(self, other: "TropMatrix") -> "TropMatrix":
        self._check_same(other)
        add = self.tag.ops.add
        return TropMatrix._trusted(
            tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self.payload, other.payload)), self.tag
        )

    def __matmul__(self, other: "TropMatrix") -> "TropMatrix":
        return mat_mul(self, other)

    def __le__(self, other: "TropMatrix") -> bool:
        self._check_same(other)
        return all(map(self.tag.ops.le, chain(*self.payload), chain(*other.payload)))

    def scale(self, c: TropScalar) -> "TropMatrix":
        if c.tag is not self.tag:
            raise TagMismatch("scalar and matrix tags differ")
        mul, cv = self.tag.ops.mul, c.value
        return TropMatrix._trusted(tuple(tuple(mul(cv, v) for v in r) for r in self.payload), self.tag)

    def apply(self, x: TropVector) -> TropVector:
        """Matrix-vector product A * x."""
        if self.cols != len(x):
            raise DimensionMismatch(f"{self.rows}x{self.cols} applied to length {len(x)}")
        if self.tag is not x.tag:
            raise TagMismatch("matrix and vector tags differ")
        ops = self.tag.ops
        add, mul, zero, xs = ops.add, ops.mul, ops.zero, x.payload
        return TropVector._trusted(
            tuple(reduce(add, map(mul, row, xs), zero) for row in self.payload), self.tag
        )

    def __repr__(self) -> str:
        return "[" + "; ".join(", ".join(map(repr, row)) for row in self.entries) + "]"


def matrix(rows: Sequence[Sequence[ScalarLike]], tag: SemiringTag = MAX_PLUS) -> TropMatrix:
    return TropMatrix(rows, tag)


def from_columns(cols: Sequence[TropVector], tag: Optional[SemiringTag] = None) -> TropMatrix:
    if not cols:
        raise DimensionMismatch("need at least one column")
    tag = tag or cols[0].tag
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise DimensionMismatch("column lengths differ")
    if any(c.tag is not tag for c in cols):
        raise TagMismatch("column tag differs from matrix tag")
    return TropMatrix._trusted(tuple(zip(*(c.payload for c in cols))), tag)


def identity(n: int, tag: SemiringTag = MAX_PLUS) -> TropMatrix:
    return TropMatrix._trusted(tuple(unit_vector(n, i, tag).payload for i in range(n)), tag)


def zero_matrix(rows: int, cols: int, tag: SemiringTag = MAX_PLUS) -> TropMatrix:
    return TropMatrix._trusted(((tag.ops.zero,) * cols,) * rows, tag)


def mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """C_ik = sum_j a_ij * b_jk over the tagged semiring."""
    if a.tag is not b.tag:
        raise TagMismatch("matrix tags differ")
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    ops = a.tag.ops
    add, mul, zero = ops.add, ops.mul, ops.zero
    b_cols = tuple(zip(*b.payload))
    return TropMatrix._trusted(
        tuple(tuple(reduce(add, map(mul, row, col), zero) for col in b_cols) for row in a.payload),
        a.tag,
    )


def mat_residual_left(v: TropMatrix, x: TropVector) -> TropVector:
    """V \\ x: the greatest vector lam with V * lam <= x.

    Componentwise (V\\x)_j = min over the support of column j of x_i / V_ij,
    in the canonical order. Columns of all zeros admit no residual.
    """
    if v.rows != len(x):
        raise DimensionMismatch("row count does not match vector length")
    if v.tag is not x.tag:
        raise TagMismatch("matrix and vector tags differ")
    ops = v.tag.ops
    residual, le, zero, xs = ops.residual, ops.le, ops.zero, x.payload
    out = []
    for j, col in enumerate(zip(*v.payload)):
        residuals = [residual(xi, e) for e, xi in zip(col, xs) if e != zero]
        if not residuals:
            raise ZeroColumn(f"column {j} is all zero")
        best = residuals[0]
        for r in residuals[1:]:
            if not le(best, r):
                best = r
        out.append(best)
    return TropVector._trusted(tuple(out), v.tag)


def _signed(a: TropMatrix, shift=0) -> Tuple[int, List[list]]:
    """(sign, rows): A's payloads as max-plus weights, `shift` subtracted from
    every finite entry and min-plus negated (sign -1), in fresh lists."""
    if not a.is_square:
        raise DimensionMismatch("star needs a square matrix")
    if a.tag not in (MAX_PLUS, MIN_PLUS):
        raise ValueError("matrix star is provided for max-plus and min-plus tags")
    sign = -1 if a.tag is MIN_PLUS else 1
    return sign, [[None if v is None else sign * (v - shift) for v in row] for row in a.payload]


def _closure(a: TropMatrix, shift=0) -> List[list]:
    """Raw payloads (None = bottom) of the plus-closure of A, with `shift`
    subtracted from every finite entry first, by one Floyd-Warshall pass in
    place on the signed payloads, run as max-plus.

    After pivot k, d[i][j] is the best weight of a path i -> j of at least
    one edge with intermediate nodes <= k. A pivot diagonal above the unit
    closes a cycle that makes the series diverge: Divergent, at once.
    """
    sign, d = _signed(a, shift)
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


def kleene_star(a: TropMatrix) -> TropMatrix:
    """A* = I + A + A^2 + ..., the optimal path weights on the digraph of A.

    One Floyd-Warshall pass gives the plus-closure A+ and A* = I + A+. A
    cycle weight above the unit raises Divergent as soon as the pass meets it.
    """
    d = _closure(a)
    for i, row in enumerate(d):
        row[i] = 0
    return TropMatrix._trusted(tuple(map(tuple, d)), a.tag)


def kleene_plus(a: TropMatrix) -> TropMatrix:
    """A+ = A A* = A + A^2 + ..., the closure over paths with at least one edge."""
    return TropMatrix._trusted(tuple(map(tuple, _closure(a))), a.tag)


@dataclass(frozen=True)
class IntervalMatrix:
    """Matrix of order intervals, stored as its two endpoint matrices."""

    lo: TropMatrix
    hi: TropMatrix

    def __post_init__(self):
        if self.lo.tag is not self.hi.tag:
            raise TagMismatch("endpoint tags differ")
        if (self.lo.rows, self.lo.cols) != (self.hi.rows, self.hi.cols):
            raise DimensionMismatch("endpoint shapes differ")
        if not self.lo <= self.hi:
            pairs = zip(chain(*self.lo.entries), chain(*self.hi.entries))
            lo, hi = next((lo, hi) for lo, hi in pairs if not lo <= hi)
            raise ValueError(f"interval endpoints out of order: {lo!r}, {hi!r}")

    @property
    def tag(self) -> SemiringTag:
        return self.lo.tag

    @property
    def rows(self) -> int:
        return self.lo.rows

    @property
    def cols(self) -> int:
        return self.lo.cols

    @property
    def entries(self) -> Tuple[Tuple[Interval, ...], ...]:
        return tuple(tuple(map(Interval, *rows)) for rows in zip(self.lo.entries, self.hi.entries))

    def __getitem__(self, ij: Tuple[int, int]) -> Interval:
        return Interval(self.lo[ij], self.hi[ij])

    def contains(self, m: TropMatrix) -> bool:
        return self.lo <= m and m <= self.hi


def interval_matrix(lo: TropMatrix, hi: TropMatrix) -> IntervalMatrix:
    return IntervalMatrix(lo, hi)


def iv_kleene_star(a: IntervalMatrix) -> IntervalMatrix:
    """Interval star [star(lo), star(hi)], exact by isotonicity of star.

    Costs exactly two ordinary stars; diverges iff the upper endpoint
    matrix does (the lower one is dominated, so it converges first).
    """
    hi_star = kleene_star(a.hi)
    lo_star = kleene_star(a.lo)
    return IntervalMatrix(lo_star, hi_star)
