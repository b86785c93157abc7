"""Payload kernels of max-plus cones, shared by `twosided` and `projector`.

Every kernel here runs on raw max-plus payload tuples (None for -inf) and
boxes nothing; the public functions and records that call them, with their
argument checks and certificates, stay in `twosided` and `projector`.

- The row step of the tropical double description: `_intersect` cuts the
  cone generated by normalized columns with one two-sided row a x <= b x,
  and `_prune` keeps the extreme rays. `_generators` runs a list of rows
  from a set of unit vectors; `twosided.solve_system`, `row_generators`
  and `_common_point` all start there.
- Separation: `_in_halfspace` decides membership in {x : u/x >= v/x} u {0}
  by two least residuals, and `_common_point` decides, exactly, whether
  halfspaces meet outside zero by a fixed point over the row step.
- Projection and the projector game: `_project` is P_V(x) = V (V \\ x) for
  every tag, and `_choose` and `_push` are the stage helpers of the strategy
  iteration in `projector.cyclic_spectral_radius`, which keeps the loop
  itself because only it needs `spectral`.

The row step's products and sums are written inline as plain comparisons,
and every non-int result goes through `semiring._canonical`, so each value
keeps its one payload. Columns are normalized by subtracting their first
finite coordinate and compared as tuples. A column c lies in the span of
others iff every finite c_i is attained by the greatest multiple of some
other column below c (the covering criterion), which needs no projector.
Extreme rays are unique up to scaling and generate every other column, so
each distinct column is tested against all the others, with no dependence
on order: an int support mask skips every column whose support is not
inside c's, and the test stops once the attained coordinates cover c's
support. The pairwise one-pass pruning this replaces is the test oracle in
`tests/twosided_oracle.py`.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, List, Optional, Sequence, Tuple

from .semiring import MAX_PLUS, Payload, SemiringTag, _canonical
from .tropmat import _apply, _least_residual, _residual_left, identity

Column = Tuple[Payload, ...]  # max-plus payloads, None for -inf
_add, _le = MAX_PLUS.ops.add, MAX_PLUS.ops.le


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


def _generators(n: int, rows: Iterable[Tuple[Column, Column]], off=frozenset()) -> List[Column]:
    """Extreme rays of {x : a x <= b x for every row (a, b)} among the x of
    length n supported off `off`: the row step, one row at a time, from the
    unit vectors e_j with j outside `off`."""
    gens = [e for j, e in enumerate(identity(n).payload) if j not in off]
    for a, b in rows:
        gens = _intersect(gens, a, b)
    return gens


def _in_halfspace(u: Column, v: Column, x: Column) -> bool:
    """x in {y : u/y >= v/y} u {0}: v/x <= u/x by `tropmat._least_residual`,
    and the zero x is in."""
    return x.count(None) == len(x) or _le(_least_residual(v, x, MAX_PLUS), _least_residual(u, x, MAX_PLUS))


def _common_point(bounds: Sequence[Tuple[Column, Column]]) -> Optional[Column]:
    """A nonzero point of every halfspace {x : u/x >= v/x}, given as payload
    pairs (u, v) of one length, or None when they meet only at zero.

    With Z(w) the bottoms of w, x lies in the halfspace iff supp x meets
    Z(v), or supp x avoids Z(u), which holds Z(v) as u <= v, and
    (-u) x <= (-v) x, a two-sided row finite on supp x. F holds the
    halfspaces that x may enter through Z(v); it starts as every halfspace
    with a bottom in v. Each pass runs `_generators` with the rows outside
    F, from the unit vectors off their Z(u), and takes x as the sum of the
    generators left. A common point enters through Z(v) only halfspaces of
    F, so it lies in that cone and supp x holds its support: F, cut to the
    halfspaces whose Z(v) supp x meets, keeps them. Once F stays, x is a
    common point; once the cone is {0}, none exists. F shrinks on every pass
    but the last: at most len(bounds) + 1 passes.
    """
    free = [t for t, (_, v) in enumerate(bounds) if None in v]
    while True:
        held = [b for t, b in enumerate(bounds) if t not in free]
        bottoms = {j for u, _ in held for j, uj in enumerate(u) if uj is None}
        negated = ([tuple(None if w is None else -w for w in r) for r in b] for b in held)
        gens = _generators(len(bounds[0][0]), negated, bottoms)
        if not gens:
            return None
        x = tuple(reduce(_add, c) for c in zip(*gens))
        kept = [t for t in free if any(xi is not None and vi is None for xi, vi in zip(x, bounds[t][1]))]
        if kept == free:
            return x
        free = kept


def _project(rows: Sequence[tuple], xs: tuple, tag: SemiringTag) -> tuple:
    """P_V(x) = V (V \\ x) on payloads, for every tag: the generator matrix's
    rows and x's payload in, the projection's payload out."""
    return _apply(rows, _residual_left(rows, xs, tag), tag)


def _choose(cols: Sequence[Column], sigma: Sequence[Optional[int]], chi: list, eta: list) -> Tuple[int, ...]:
    """Per generator g, the row i of supp g with the least residual
    (chi_i, eta_i - g_i), bottom least and ties to the smallest i; the
    current row (None: none yet) stays unless strictly beaten."""

    def key(g, i):
        return (0,) if chi[i] is None else (1, chi[i], eta[i] - g[i])

    return tuple(min((i for i, v in enumerate(g) if v is not None), key=lambda i: (key(g, i), i != cur))
                 for g, cur in zip(cols, sigma))


def _push(cols: Sequence[Column], sigma: Sequence[int], chi: list, eta: list) -> Tuple[list, list]:
    """Growth rate and second-order term of M x for x = N chi + eta, N large,
    with M[l][i] = max of g_l - g_i over the generators g with sigma(g) = i:
    per row l, the lexicographic max of (chi_i, g_l - g_i + eta_i).

    The residual's min over supp g is at most its term at row sigma(g), so
    the stage projector is at most M pointwise.
    """
    best: List[Optional[tuple]] = [None] * len(chi)
    for g, i in zip(cols, sigma):
        if chi[i] is not None:
            for l, gl in enumerate(g):
                if gl is not None and (best[l] is None or (chi[i], gl - g[i] + eta[i]) > best[l]):
                    best[l] = (chi[i], gl - g[i] + eta[i])
    return [b and b[0] for b in best], [b and b[1] for b in best]
