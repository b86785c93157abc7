"""Two-sided max-linear inequality systems A x <= B x.

Solutions are generated by the tropical double description method: start
from the unit vectors, which generate the whole space, and intersect with
one row a x <= b x at a time. A generator g with a g <= b g stays, and it
pairs with every generator h with a h > b h into (a h) g + (b g) h, on which
both sides of the row are equal. A single row is this step applied once to
the unit vectors. After every step, columns generated by the others are
pruned with the projector membership test, so only extreme rays remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .errors import CertificateInvalid, DimensionMismatch, Infeasible, TagMismatch, TooLarge
from .projector import Semimodule, project
from .semiring import MAX_PLUS, one, sr_residual
from .tropmat import TropMatrix, TropVector, from_columns, unit_vector

COMBINATORIAL_CAP = 6


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
    certified: bool

    def columns(self) -> List[TropVector]:
        return self.generators.columns()


def check_solution(s: InequalitySystem, x: TropVector) -> bool:
    """True iff A x <= B x holds entrywise, exactly."""
    if len(x) != s.cols:
        raise DimensionMismatch("vector length does not match the system")
    return s.a.apply(x) <= s.b.apply(x)


def _normalize(col: TropVector) -> Optional[TropVector]:
    """Scale so the first finite coordinate is the unit; None for the zero column."""
    supp = col.support()
    return col.scale(sr_residual(one(col.tag), col[min(supp)])) if supp else None


def _prune(cols: List[TropVector]) -> List[TropVector]:
    """Normalize, drop duplicates, then drop in one pass each column that the
    columns still kept generate. Extreme rays are unique up to scaling, so
    exactly they stay, in their first-seen order."""
    kept: List[TropVector] = []
    for c in cols:
        nc = _normalize(c)
        if nc is not None and nc not in kept:
            kept.append(nc)
    for c in list(kept):
        others = [o for o in kept if o is not c]
        if others and project(Semimodule(from_columns(others, c.tag)), c) == c:
            kept.remove(c)
    return kept


def _intersect(gens: List[TropVector], a: TropMatrix, b: TropMatrix) -> List[TropVector]:
    """Generators of {x in span(gens) : a x <= b x} for one row (1 x n matrices).

    Each g with a g <= b g stays and, for every h with a h > b h, adds
    (a h) g + (b g) h, whose two sides both equal (a h)(b g).
    """
    sides = [(a.apply(g)[0], b.apply(g)[0]) for g in gens]
    out: List[TropVector] = []
    for g, (ag, bg) in zip(gens, sides):
        if ag <= bg:
            out.append(g)
            out.extend(g.scale(ah) + h.scale(bg) for h, (ah, bh) in zip(gens, sides) if ah > bh)
    return _prune(out)


def _certified(s: InequalitySystem, gens: List[TropVector]) -> GeneratorSet:
    """Check every generator against the system; raise if one fails."""
    for g in gens:
        if not check_solution(s, g):
            raise CertificateInvalid(f"generator {g!r} violates A x <= B x")
    return GeneratorSet(from_columns(gens, MAX_PLUS), certified=True)


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
    units = [unit_vector(len(a), j) for j in range(len(a))]
    gens = _intersect(units, s.a, s.b)
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
    gens = [unit_vector(n, j) for j in range(n)]
    for rows in zip(s.a.payload, s.b.payload):
        gens = _intersect(gens, *(TropMatrix._trusted((r,), MAX_PLUS) for r in rows))
    if not gens:
        raise Infeasible("only the zero vector solves the system")
    return _certified(s, gens)
