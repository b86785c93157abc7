"""Dense matrices and vectors over a tagged semiring.

A `TropMatrix` stores one tuple of raw payload rows and its tag, a
`TropVector` one tuple of payloads (see `semiring` for the payload types).
The public constructors accept any scalar-like entries, same-tag
`TropScalar`s included, and read each row through `semiring.payloads_of`:
`payload_of` per entry, unless the whole row already is canonical (ints
and None under max-plus), which one pass over its types decides. Kernels
build their results from payloads they computed through the trusted
constructor `_trusted` that `semiring._record` gives every record, which
checks nothing. Both classes keep their two fields in `__slots__`, so an
instance holds no `__dict__`. Indexing, `row`, `column` and `entries` box
`TropScalar`s on demand, for callers at the edges.

Every kernel (product, sum, scaling, order, left residuation) picks its
tag's `PayloadOps` once per call. The product and `apply` sum products by
its `dot` law, which the plus tags run in one pass of inline arithmetic;
the least residual behind `vec_residual` and `mat_residual_left` is one
inline min (max-plus) or max (min-plus) of the differences, and the other
tags fold their `residual` law.
The Kleene star and plus-closure are one Floyd-Warshall pass that fails
fast on divergence, and the interval star runs it on both endpoint
matrices. The pass scales the signed weights to integers with
`semiring._scaled` and packs each row into one int, a fixed-width field per
column: a finite weight v is stored as v + 4R + 1, where R = n max |v|
bounds every path weight, and a bottom as R, a weight so low that any path
through it stays below -R. Every field then stays in [0, 6R + 1] during a
pivot, so one big-int subtract over guard bits compares a whole row pair
without borrows between fields, and a pivot updates a row in about a dozen
big-int operations (see `_closure`). Payloads come back canonical, as the
`semiring` laws and the closure's unscaling return them.
"""

from __future__ import annotations

import sys
from array import array
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
    _canonical,
    _record,
    _scaled,
    _unscaled,
    payloads_of,
)


def _boxed(values: Iterable[Payload], tag: SemiringTag) -> Tuple[TropScalar, ...]:
    return tuple(TropScalar._trusted(v, tag) for v in values)


@_record
class TropVector:
    __slots__ = ("payload", "tag")

    payload: Tuple[Payload, ...]
    tag: SemiringTag

    def __init__(self, entries: Iterable[ScalarLike], tag: SemiringTag):
        object.__setattr__(self, "payload", payloads_of(entries, tag))  # the record is frozen
        object.__setattr__(self, "tag", tag)

    @property
    def entries(self) -> Tuple[TropScalar, ...]:
        return _boxed(self.payload, self.tag)

    def __len__(self) -> int:
        return len(self.payload)

    def __getitem__(self, i: int) -> TropScalar:
        return TropScalar._trusted(self.payload[i], self.tag)

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


def _least_residual(xs: Sequence[Payload], ys: Sequence[Payload], tag: SemiringTag) -> Payload:
    """The canonical min of x_i / y_i over the i with y_i nonzero, or EmptySupport.

    Under max-plus and min-plus the residual is x_i - y_i and a bottom x_i is
    the least value, so one pass of inline subtractions gives the numeric
    min (max-plus) or max (min-plus), canonicalised once. The other tags fold
    their `residual` law by `le`; equal values have one canonical payload, so
    neither path needs a tie rule."""
    if tag is MAX_PLUS or tag is MIN_PLUS:
        gaps = [None if x is None else x - y for x, y in zip(xs, ys) if y is not None]
        if not gaps:
            raise EmptySupport("residual against the zero vector")
        if None in gaps:
            return None
        best = min(gaps) if tag is MAX_PLUS else max(gaps)
        return best if type(best) is int else _canonical(best)
    ops = tag.ops
    residual, zero, le = ops.residual, ops.zero, ops.le
    residuals = [residual(x, y) for x, y in zip(xs, ys) if y != zero]
    if not residuals:
        raise EmptySupport("residual against the zero vector")
    best = residuals[0]
    for r in residuals[1:]:
        if not le(best, r):
            best = r
    return best


def vec_residual(x: TropVector, y: TropVector) -> TropScalar:
    """x / y = max{lam : lam * y <= x}, the scalar vector residual.

    Equals the canonical min over the support of y of x_i / y_i; the zero
    vector has no residual (empty support).
    """
    x._check_same(y)
    return TropScalar._trusted(_least_residual(x.payload, y.payload, x.tag), x.tag)


def mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """C_ik = sum_j a_ij * b_jk over the tagged semiring."""
    if a.tag is not b.tag:
        raise TagMismatch("matrix tags differ")
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    dot, b_cols = a.tag.ops.dot, tuple(zip(*b.payload))
    return TropMatrix._trusted(tuple(tuple([dot(row, col) for col in b_cols]) for row in a.payload), a.tag)


@_record
class TropMatrix:
    __slots__ = ("payload", "tag")

    payload: Tuple[Tuple[Payload, ...], ...]
    tag: SemiringTag

    def __init__(self, entries: Iterable[Iterable[ScalarLike]], tag: SemiringTag):
        payload = tuple([payloads_of(row, tag) for row in entries])
        if len({len(r) for r in payload}) > 1:
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "payload", payload)  # the record is frozen
        object.__setattr__(self, "tag", tag)

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
        return TropScalar._trusted(self.payload[i][j], self.tag)

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

    __matmul__ = mat_mul

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
        return TropVector._trusted(_apply(self.payload, x.payload, self.tag), self.tag)

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
    ops = tag.ops
    zeros = (ops.zero,) * n
    return TropMatrix._trusted(tuple(zeros[:i] + (ops.unit,) + zeros[i + 1:] for i in range(n)), tag)


def mat_residual_left(v: TropMatrix, x: TropVector) -> TropVector:
    """V \\ x: the greatest vector lam with V * lam <= x.

    Componentwise (V\\x)_j = min over the support of column j of x_i / V_ij,
    in the canonical order. Columns of all zeros admit no residual.
    """
    if v.rows != len(x):
        raise DimensionMismatch("row count does not match vector length")
    if v.tag is not x.tag:
        raise TagMismatch("matrix and vector tags differ")
    return TropVector._trusted(_residual_left(v.payload, x.payload, v.tag), v.tag)


def _apply(rows: Sequence[tuple], xs: Sequence[Payload], tag: SemiringTag) -> Tuple[Payload, ...]:
    """A x on payloads: the rows of A, the payload of x and their tag."""
    dot = tag.ops.dot
    return tuple([dot(row, xs) for row in rows])


def _residual_left(rows: Sequence[tuple], xs: Sequence[Payload], tag: SemiringTag) -> Tuple[Payload, ...]:
    """V \\ x on payloads, as `mat_residual_left`; ZeroColumn for an all-zero column."""
    out = []
    for j, col in enumerate(zip(*rows)):
        try:
            out.append(_least_residual(xs, col, tag))
        except EmptySupport:
            raise ZeroColumn(f"column {j} is all zero") from None
    return tuple(out)


# field bytes -> array typecode, for the fields that pack through `array`
_ARRAY_CODES = {array(code).itemsize: code for code in "HIQ"}


def _pack(values: List[int], nbytes: int, n: int) -> List[int]:
    """The values n fields to an int, each field nbytes wide: field j of
    int i holds values[i n + j] in bytes [j nbytes, (j + 1) nbytes),
    little-endian."""
    code = _ARRAY_CODES.get(nbytes)
    if code is None:
        data = b"".join(v.to_bytes(nbytes, "little") for v in values)
    else:
        fields = array(code, values)
        if sys.byteorder == "big":
            fields.byteswap()
        data = fields.tobytes()
    size = n * nbytes
    return [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]


def _unpack(packed: List[int], n: int, nbytes: int) -> Sequence[int]:
    """All fields of `_pack`'s ints, in one flat sequence."""
    data = b"".join(p.to_bytes(n * nbytes, "little") for p in packed)
    code = _ARRAY_CODES.get(nbytes)
    if code is None:
        return [int.from_bytes(data[j:j + nbytes], "little") for j in range(0, len(data), nbytes)]
    fields = array(code, data)
    if sys.byteorder == "big":
        fields.byteswap()
    return fields


def _closure(a: TropMatrix) -> List[list]:
    """Raw payloads (None = bottom) of the plus-closure of A, by one
    Floyd-Warshall pass on A's max-plus weights (min-plus negated), scaled
    to integers by `semiring._scaled` and packed one row per int.

    Let m be the largest |scaled weight| and R = n m, so a path of at most
    n finite edges weighs in [-R, R]. Row i is one int with column j in
    field j of F = 8 nbytes bits, the top one a guard bit that stays clear.
    A finite weight v is stored as v + off, off = 4R + 1, and a bottom as R,
    the weight -3R - 1. Until a positive cycle is met, every cycle through
    the pivoted nodes weighs <= 0, so an entry is the best path weight, in
    [-R, R] and stored in [3R + 1, 5R + 1], when a path of finite edges
    exists, and else the weight of a walk that ends in a bottom edge (a
    pivot skips the rows whose d_ik is such a weight, so no edge follows
    it): a finite walk of weight <= R to the edge's tail, then the edge, so
    stored in [R, 2R]. Every stored field stays in [R, 5R + 1], a stored
    value below low = 3R + 1 decodes to bottom, and q = p_k + d_ik ONES,
    for d_ik in [-R, R], has every field in [0, 5R + 1]. The fields are
    sized for 6R + 1 < 2^(F-1), a margin of R: no field borrows from the
    next. Field j of d = (p_i | guards) - q is then 2^(F-1) + p_ij - q_j,
    its guard bit is set iff p_ij >= q_j, and p_i becomes the fieldwise max
    q + (d & mask) in about a dozen big-int operations.

    After pivot k, d_ij is the best weight of a path i -> j of at least one
    edge with intermediate nodes <= k. A pivot diagonal above the unit
    closes a cycle that makes the series diverge: Divergent, at once. Pivot
    0 reads a_00 of A itself, so that case raises before any pass over A.
    """
    if not a.is_square:
        raise DimensionMismatch("star needs a square matrix")
    if a.tag not in (MAX_PLUS, MIN_PLUS):
        raise ValueError("matrix star is provided for max-plus and min-plus tags")
    sign = -1 if a.tag is MIN_PLUS else 1
    n = a.rows
    if not n:
        return []
    a00 = a.payload[0][0]
    if a00 is not None and sign * a00 > 0:  # pivot 0 reads A itself: no pass needed
        raise Divergent(f"a cycle through node 0 has weight {a00}, above the unit")
    flat, scale = _scaled(list(chain.from_iterable(a.payload)))
    bound = n * max(map(abs, [v for v in flat if v is not None]), default=0)
    off, low = 4 * bound + 1, 3 * bound + 1
    nbytes = ((6 * bound + 1).bit_length() + 8) // 8  # room for the guard bit
    nbytes = min((b for b in _ARRAY_CODES if b >= nbytes), default=nbytes)
    top = 8 * nbytes - 1  # the guard bit of a field
    (ones,) = _pack([1] * n, nbytes, n)
    guards = ones << top
    field = (1 << (top + 1)) - 1
    p = _pack([bound if v is None else sign * v + off for v in flat], nbytes, n)
    for k, pk in enumerate(p):
        at = k * (top + 1)
        dkk = ((pk >> at) & field) - off
        if dkk > 0:
            raise Divergent(f"a cycle through node {k} has weight {sign * _unscaled(dkk, scale)}, above the unit")
        base = pk - off * ones
        # row k itself is left unchanged, as d_kk <= 0
        for i, pi in enumerate(p):
            dik = (pi >> at) & field
            if dik < low:
                continue
            q = base + dik * ones
            d = (pi | guards) - q  # field j: 2^top + p_ij - q_j, in (0, 2^(top+1))
            g = d & guards  # guard set where p_ij >= q_j
            p[i] = q + (d & (g - (g >> top)))
    out = [None if s < low else sign * (s - off) for s in _unpack(p, n, nbytes)]
    if scale != 1:
        out = [_unscaled(v, scale) for v in out]
    return [out[i:i + n] for i in range(0, n * n, n)]


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


@_record
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

    # __post_init__ checked the tag and order of every entry, so entries
    # are boxed as trusted Intervals

    @property
    def entries(self) -> Tuple[Tuple[Interval, ...], ...]:
        pairs = zip(self.lo.entries, self.hi.entries)
        return tuple(tuple(map(Interval._trusted, *rows)) for rows in pairs)

    def __getitem__(self, ij: Tuple[int, int]) -> Interval:
        i, j = ij
        tag = self.lo.tag
        lo = TropScalar._trusted(self.lo.payload[i][j], tag)
        return Interval._trusted(lo, TropScalar._trusted(self.hi.payload[i][j], tag))

    def contains(self, m: TropMatrix) -> bool:
        return self.lo <= m and m <= self.hi


def interval_matrix(lo: TropMatrix, hi: TropMatrix) -> IntervalMatrix:
    return IntervalMatrix(lo, hi)


def iv_kleene_star(a: IntervalMatrix) -> IntervalMatrix:
    """Interval star [star(lo), star(hi)], exact by isotonicity of star.

    Costs exactly two ordinary stars; diverges iff the upper endpoint
    matrix does (the lower one is dominated, so it converges first). The
    star is isotone, so star(lo) <= star(hi) needs no check.
    """
    hi_star = kleene_star(a.hi)
    lo_star = kleene_star(a.lo)
    return IntervalMatrix._trusted(lo_star, hi_star)
