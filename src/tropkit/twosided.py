"""Two-sided max-linear inequality systems A x <= B x.

Solutions are generated by the tropical double description method: start
from the unit vectors, which generate the whole space, and intersect with
one row a x <= b x at a time. A generator g with a g <= b g stays, and it
pairs with every generator h with a h > b h into (a h) g + (b g) h, on which
both sides of the row are equal. A single row is this step applied once to
the unit vectors. After every step, columns generated by the others are
pruned, so only extreme rays remain.

This module owns the systems, their checks and their records. The row
step, the pruning and the loop over the rows are payload kernels of
`tropkit._cones`, which `projector`'s separation check runs too.

Before they are returned, the generators are checked against every row on
their payloads by the max-plus law `dot` of `semiring`, the one test
`check_solution` runs and not the row step's inline arithmetic, and boxed
into one matrix.
"""

from __future__ import annotations

from typing import List, Tuple

from ._cones import Column, _generators
from .errors import CertificateInvalid, DimensionMismatch, Infeasible, TagMismatch, TooLarge
from .semiring import MAX_PLUS, _record
from .tropmat import TropMatrix, TropVector

COMBINATORIAL_CAP = 6
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
    gens = _generators(len(a), [(a.payload, b.payload)])
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
    gens = _generators(n, zip(s.a.payload, s.b.payload))
    if not gens:
        raise Infeasible("only the zero vector solves the system")
    return _certified(s.a.payload, s.b.payload, gens)
