"""Test oracles for the two-sided kernel.

`generators_oracle` runs the row step and the pruning on `TropVector`s, with
membership decided by the projector: a column is dropped when projecting it
onto the span of the other kept columns fixes it.

`intersect_oracle` runs the row step on raw max-plus payload tuples through
the semiring laws, one call per term, and `prune_oracle` drops, in one pass,
each column that the columns still kept generate, by a pairwise covering
test. `tropkit.twosided` runs the same step with inline arithmetic and an
order-free support-mask test; all three must agree in value, order and
payload type.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
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


PayloadColumn = Tuple  # max-plus payloads, None for -inf
_add, _mul, _le = MAX_PLUS.ops.add, MAX_PLUS.ops.mul, MAX_PLUS.ops.le


def _normalize_payload(col: PayloadColumn) -> Optional[PayloadColumn]:
    """Shift so the first finite coordinate is the unit; None for the zero column."""
    first = next((v for v in col if v is not None), None)
    if first is None:
        return None
    return tuple(map(_mul, repeat(0 - first), col))


def _spans(gens: List[PayloadColumn], c: PayloadColumn) -> bool:
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


def prune_oracle(cols: List[PayloadColumn]) -> List[PayloadColumn]:
    """Normalize, drop duplicates, then drop in one pass each column that the
    columns still kept generate. Extreme rays are unique up to scaling, so
    exactly they stay, in their first-seen order."""
    kept: List[PayloadColumn] = []
    for c in cols:
        nc = _normalize_payload(c)
        if nc is not None and nc not in kept:
            kept.append(nc)
    for c in list(kept):
        if _spans([o for o in kept if o is not c], c):
            kept.remove(c)
    return kept


def intersect_oracle(gens: List[PayloadColumn], a: PayloadColumn, b: PayloadColumn) -> List[PayloadColumn]:
    """Generators of {x in span(gens) : a x <= b x} for one row, on payloads.

    Each g with a g <= b g stays and, for every h with a h > b h, adds
    (a h) g + (b g) h, whose two sides both equal (a h)(b g).
    """
    sides = [tuple(reduce(_add, map(_mul, row, g), None) for row in (a, b)) for g in gens]
    over = [(h, ah) for h, (ah, bh) in zip(gens, sides) if not _le(ah, bh)]
    out: List[PayloadColumn] = []
    for g, (ag, bg) in zip(gens, sides):
        if _le(ag, bg):
            out.append(g)
            out.extend(tuple(map(_add, map(_mul, repeat(ah), g), map(_mul, repeat(bg), h))) for h, ah in over)
    return prune_oracle(out)
