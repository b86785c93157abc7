"""Two-sided max-linear inequality systems A x <= B x.

Solutions are generated by the tropical double description method: start
from the unit vectors, which generate the whole space, and intersect with
one row a x <= b x at a time. A generator g with a g <= b g stays, and it
pairs with every generator h with a h > b h into (a h) g + (b g) h, on which
both sides of the row are equal. A single row is this step applied once to
the unit vectors. After every step, columns generated by the others are
pruned, so only extreme rays remain.

The steps run on raw max-plus payload tuples (None for -inf) with the
max-plus payload laws of `semiring`. Columns are normalized by subtracting
their first finite coordinate and compared as tuples. A column c lies in
the span of others iff every finite c_i is attained by the greatest
multiple of some other column below c (the covering criterion), which needs
no projector. Generators are boxed into vectors once, and each is checked
against the system by `check_solution` before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from typing import List, Optional, Tuple

from .errors import CertificateInvalid, DimensionMismatch, Infeasible, TagMismatch, TooLarge
from .semiring import MAX_PLUS, Payload
from .tropmat import TropMatrix, TropVector, from_columns, identity

COMBINATORIAL_CAP = 6
Column = Tuple[Payload, ...]  # max-plus payloads, None for -inf
_add, _mul, _le = MAX_PLUS.ops.add, MAX_PLUS.ops.mul, MAX_PLUS.ops.le


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class GeneratorSet:
    generators: TropMatrix

    def columns(self) -> List[TropVector]:
        return self.generators.columns()


def check_solution(s: InequalitySystem, x: TropVector) -> bool:
    """True iff A x <= B x holds entrywise, exactly."""
    if len(x) != s.cols:
        raise DimensionMismatch("vector length does not match the system")
    return s.a.apply(x) <= s.b.apply(x)


def _normalize(col: Column) -> Optional[Column]:
    """Shift so the first finite coordinate is the unit; None for the zero column."""
    first = next((v for v in col if v is not None), None)
    if first is None:
        return None
    return tuple(map(_mul, repeat(0 - first), col))


def _spans(gens: List[Column], c: Column) -> bool:
    """True iff c lies in the span of gens, by the covering criterion.

    The greatest multiple of g below c is lam g with lam = min of c_i - g_i
    over the support of g, finite only when c is finite there. Their sum
    never exceeds c, and equals it iff every finite c_i is attained,
    lam + g_i = c_i, by some g.
    """
    missing = {i for i, v in enumerate(c) if v is not None}
    for g in gens:
        supp = [i for i, v in enumerate(g) if v is not None]
        if any(c[i] is None for i in supp):
            continue
        gaps = [c[i] - g[i] for i in supp]
        lam = min(gaps)
        missing.difference_update(i for i, gap in zip(supp, gaps) if gap == lam)
        if not missing:
            return True
    return False


def _prune(cols: List[Column]) -> List[Column]:
    """Normalize, drop duplicates, then drop in one pass each column that the
    columns still kept generate. Extreme rays are unique up to scaling, so
    exactly they stay, in their first-seen order."""
    kept: List[Column] = []
    for c in cols:
        nc = _normalize(c)
        if nc is not None and nc not in kept:
            kept.append(nc)
    for c in list(kept):
        if _spans([o for o in kept if o is not c], c):
            kept.remove(c)
    return kept


def _intersect(gens: List[Column], a: Column, b: Column) -> List[Column]:
    """Generators of {x in span(gens) : a x <= b x} for one row.

    Each g with a g <= b g stays and, for every h with a h > b h, adds
    (a h) g + (b g) h, whose two sides both equal (a h)(b g).
    """
    sides = [tuple(reduce(_add, map(_mul, row, g), None) for row in (a, b)) for g in gens]
    over = [(h, ah) for h, (ah, bh) in zip(gens, sides) if not _le(ah, bh)]
    out: List[Column] = []
    for g, (ag, bg) in zip(gens, sides):
        if _le(ag, bg):
            out.append(g)
            out.extend(tuple(map(_add, map(_mul, repeat(ah), g), map(_mul, repeat(bg), h))) for h, ah in over)
    return _prune(out)


def _certified(s: InequalitySystem, gens: List[Column]) -> GeneratorSet:
    """Box the generators, check each against the system; raise if one fails."""
    vecs = [TropVector._trusted(g, MAX_PLUS) for g in gens]
    for v in vecs:
        if not check_solution(s, v):
            raise CertificateInvalid(f"generator {v!r} violates A x <= B x")
    return GeneratorSet(from_columns(vecs, MAX_PLUS))


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
    s = InequalitySystem(*(TropMatrix._trusted((v.payload,), MAX_PLUS) for v in (a, b)))
    gens = _intersect(list(identity(len(a)).payload), a.payload, b.payload)
    if not gens:
        raise Infeasible("b dominates a strictly in every coordinate; only x = 0 solves")
    return _certified(s, gens)


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
    return _certified(s, gens)
