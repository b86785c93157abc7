"""Object-level double description: the test oracle for the two-sided kernel.

The row step and the pruning as they ran on `TropVector`s, with membership
decided by the projector: a column is dropped when projecting it onto the
span of the other kept columns fixes it. Production code runs the same step
on raw max-plus payload tuples in `tropkit.twosided`, with a covering test
in place of the projector; the generators must agree in value, order and
payload type.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from tropkit.projector import Semimodule, project
from tropkit.semiring import MAX_PLUS, one, sr_residual
from tropkit.tropmat import TropMatrix, TropVector, from_columns, unit_vector
from tropkit.twosided import InequalitySystem


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


def generators_oracle(s: InequalitySystem) -> List[Tuple]:
    """Payload tuples of the generators of {x : A x <= B x}, one row at a time
    from the unit vectors; an empty list when only x = 0 solves."""
    gens = [unit_vector(s.cols, j) for j in range(s.cols)]
    for rows in zip(s.a.payload, s.b.payload):
        gens = _intersect(gens, *(TropMatrix._trusted((r,), MAX_PLUS) for r in rows))
    return [g.payload for g in gens]
