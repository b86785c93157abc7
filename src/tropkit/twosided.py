"""Two-sided max-linear inequality systems A x <= B x.

Solutions are generated by the tropical double description method: start
from the unit vectors, which generate the whole space, and intersect with
one row a x <= b x at a time. A generator g with a g <= b g stays, and it
pairs with every generator h with a h > b h into (a h) g + (b g) h, on which
both sides of the row are equal. A single row is this step applied once to
the unit vectors. After every step, columns generated by the others are
pruned, so only extreme rays remain.

The steps run on raw max-plus payload tuples (None for -inf). Products and
sums are written inline as plain comparisons, and every non-int result goes
through `semiring._canonical`, so each value keeps its one payload. Columns
are normalized by subtracting their first finite coordinate and compared as
tuples. A column c lies in the span of others iff every finite c_i is
attained by the greatest multiple of some other column below c (the
covering criterion), which needs no projector. Extreme rays are unique up
to scaling and generate every other column, so each distinct column is
tested against all the others, with no dependence on order: an int support
mask skips every column whose support is not inside c's, and the test stops
once the attained coordinates cover c's support. The pairwise one-pass
pruning this replaces is the test oracle in `tests/twosided_oracle.py`.

Before they are returned, the generators are checked against every row on
their payloads by the max-plus law `dot` of `semiring`, the one test
`check_solution` runs and not the row step's inline arithmetic, and boxed
into one matrix.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import CertificateInvalid, DimensionMismatch, Infeasible, TagMismatch, TooLarge
from .semiring import MAX_PLUS, Payload, _canonical, _record
from .tropmat import TropMatrix, TropVector, identity

COMBINATORIAL_CAP = 6
Column = Tuple[Payload, ...]  # max-plus payloads, None for -inf
_dot, _le = MAX_PLUS.ops.dot, MAX_PLUS.ops.le


@_record
class InequalitySystem:
    a: TropMatrix
    b: TropMatrix

    def __post_init__(self):
        if self.a.tag is not MAX_PLUS or self.b.tag is not MAX_PLUS:
            raise TagMismatch("two-sided systems are over max-plus")
        if (self.a.rows, self.a.cols) != (self.b.rows, self.b.cols):
            raise DimensionMismatch("A and B must have equal shapes")

    @property
    def rows(self) -> int:
        return self.a.rows

    @property
    def cols(self) -> int:
        return self.a.cols


@_record
class GeneratorSet:
    generators: TropMatrix

    def columns(self) -> List[TropVector]:
        return self.generators.columns()


def check_solution(s: InequalitySystem, x: TropVector) -> bool:
    """True iff A x <= B x holds entrywise, exactly."""
    if len(x) != s.cols:
        raise DimensionMismatch("vector length does not match the system")
    if x.tag is not MAX_PLUS:
        raise TagMismatch("matrix and vector tags differ")
    return _satisfies(s.a.payload, s.b.payload, x.payload)


def _satisfies(a_rows: Tuple[Column, ...], b_rows: Tuple[Column, ...], x: Column) -> bool:
    """A x <= B x on payloads by the max-plus law `dot`, not the row step's inline arithmetic."""
    return all(_le(_dot(a, x), _dot(b, x)) for a, b in zip(a_rows, b_rows))


def _normalize(col: Column) -> Column:
    """Shift a nonzero column of canonical payloads so its first finite
    coordinate is 0."""
    for first in col:
        if first is not None:
            break
    if first == 0:
        return col
    out = []
    for v in col:
        if v is not None:
            v -= first
            if type(v) is not int:
                v = _canonical(v)
        out.append(v)
    return tuple(out)


def _prune(cols: List[Column]) -> List[Column]:
    """Drop duplicates of normalized columns, then each column that the
    other distinct columns generate, by the covering criterion.

    The greatest multiple of g below c is lam g with lam = min of c_i - g_i
    over the support of g, finite only when that support lies inside c's.
    Their sum never exceeds c, and equals it iff every finite c_i is
    attained, lam + g_i = c_i, by some g. Extreme rays are unique up to
    scaling and generate every other column, so testing each column against
    all the others keeps exactly the extreme rays, in first-seen order.
    """
    distinct = list(dict.fromkeys(cols))
    supports = []
    for c in distinct:
        mask, items = 0, []
        for i, v in enumerate(c):
            if v is not None:
                mask |= 1 << i
                items.append((1 << i, i, v))
        supports.append((mask, items))
    kept: List[Column] = []
    for k, c in enumerate(distinct):
        mask = supports[k][0]
        covered = 0
        for j, (g_mask, items) in enumerate(supports):
            if j == k or g_mask & ~mask:
                continue
            lam = None
            for bit, i, v in items:
                gap = c[i] - v
                if lam is None or gap < lam:
                    lam, hit = gap, bit
                elif gap == lam:
                    hit |= bit
            covered |= hit
            if covered == mask:
                break
        else:
            kept.append(c)
    return kept


def _intersect(gens: List[Column], a: Column, b: Column) -> List[Column]:
    """Generators of {x in span(gens) : a x <= b x} for one row; gens are
    normalized.

    Each g with a g <= b g stays and, for every h with a h > b h, adds
    (a h) g + (b g) h, whose two sides both equal (a h)(b g). When b g is
    -inf the combination is a multiple of g, which is already kept.
    """
    sides = []
    for g in gens:
        ag = bg = None
        for x, y, v in zip(a, b, g):
            if v is not None:
                if x is not None:
                    t = x + v
                    if ag is None or t > ag:
                        ag = t
                if y is not None:
                    t = y + v
                    if bg is None or t > bg:
                        bg = t
        sides.append((ag, bg))
    over = [(h, ah) for h, (ah, bh) in zip(gens, sides) if ah is not None and (bh is None or ah > bh)]
    out: List[Column] = []
    for g, (ag, bg) in zip(gens, sides):
        if ag is not None and (bg is None or ag > bg):
            continue
        out.append(g)
        if bg is None:
            continue
        for h, ah in over:
            col = []
            for u, w in zip(g, h):
                if u is None:
                    t = None if w is None else bg + w
                elif w is None:
                    t = ah + u
                else:
                    t, q = ah + u, bg + w
                    if q > t:
                        t = q
                col.append(t if t is None or type(t) is int else _canonical(t))
            out.append(_normalize(tuple(col)))
    return _prune(out)


def _certified(a_rows: Tuple[Column, ...], b_rows: Tuple[Column, ...], gens: List[Column]) -> GeneratorSet:
    """Check each generator by `_satisfies`, the test `check_solution` runs,
    and raise if one fails; then box them."""
    for g in gens:
        if not _satisfies(a_rows, b_rows, g):
            raise CertificateInvalid(f"generator {TropVector._trusted(g, MAX_PLUS)!r} violates A x <= B x")
    return GeneratorSet(TropMatrix._trusted(tuple(zip(*gens)), MAX_PLUS))


def row_generators(a: TropVector, b: TropVector) -> GeneratorSet:
    """Generators of {x : a x <= b x} for one inequality row.

    One intersection step on the unit vectors: with J = {j : a_j <= b_j},
    the extreme rays among e_j (j in J) and e_j + (b_j / a_l) e_l for j in J
    and l outside J. Infeasible when J is empty (b strictly below a
    everywhere). Ties a_j = b_j put j in J; columns keep index order.
    """
    if len(a) != len(b):
        raise DimensionMismatch("row lengths differ")
    if a.tag is not MAX_PLUS or b.tag is not MAX_PLUS:
        raise TagMismatch("two-sided rows are over max-plus")
    gens = _intersect(list(identity(len(a)).payload), a.payload, b.payload)
    if not gens:
        raise Infeasible("b dominates a strictly in every coordinate; only x = 0 solves")
    return _certified((a.payload,), (b.payload,), gens)


def solve_system(s: InequalitySystem) -> GeneratorSet:
    """Generators of {x : A x <= B x}, intersecting one row at a time.

    Starts from the unit vectors and applies the row step of
    `row_generators` to the current generators for each row in turn; every
    intermediate set is pruned to its extreme rays.
    """
    m, n = s.rows, s.cols
    if m > COMBINATORIAL_CAP or n > COMBINATORIAL_CAP:
        raise TooLarge(f"combinatorial path is capped at {COMBINATORIAL_CAP}x{COMBINATORIAL_CAP}")
    gens = list(identity(n).payload)
    for a_row, b_row in zip(s.a.payload, s.b.payload):
        gens = _intersect(gens, a_row, b_row)
    if not gens:
        raise Infeasible("only the zero vector solves the system")
    return _certified(s.a.payload, s.b.payload, gens)
