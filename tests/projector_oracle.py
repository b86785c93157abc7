"""Test oracles for `tropkit.projector`: support-class enumeration for the
cyclic spectral radius, and boxed separation checks.

Loops over all 2^n support sets M, keeps the valid classes (every
semimodule has generators supported inside M that cover M), solves each
class by orbit iteration with exact eigenvector extraction, and takes the
best eigenvalue, larger classes first on ties. Exponential in the ambient
dimension, and the orbit search stops at a cycle budget with TooLarge, so it
lives with the tests; production code runs strategy iteration on the
projectors' min-max game in `tropkit.projector`.

`separate_oracle` checks the halfspaces `separate` builds on boxed vectors:
containment by two `vec_residual`s per generator, and the empty
intersection by `common_point_oracle`, which enumerates the supports and
solves each restricted two-sided system with the semiring-law row step
`tests/twosided_oracle.intersect_oracle`. Production code checks
containment on payload tuples and finds a common point by a fixed point
over the row step `tropkit._cones._intersect`, with no enumeration.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from typing import FrozenSet, List, Optional, Sequence, Union

from tropkit.errors import CertificateInvalid, DimensionMismatch, TooLarge
from tropkit.projector import (
    Halfspace,
    HilbertReport,
    NotSeparable,
    Semimodule,
    _halfspaces,
    cyclic_spectral_radius,
    hilbert_value,
    project,
)
from tropkit.semiring import MAX_PLUS, TropScalar, one, zero
from tropkit.tropmat import TropVector, from_columns, vec_residual, vector

from twosided_oracle import intersect_oracle

Supports = List[List[FrozenSet[int]]]  # per semimodule, the support of each generator


def _active_generators(supports: Supports, m: FrozenSet[int]) -> Optional[List[List[int]]]:
    """Per-stage generator indices supported inside M, provided they cover M.

    M is a valid support class iff every stage has such generators and
    their supports cover M exactly; vectors of support M then keep support
    M around the whole projector cycle.
    """
    active: List[List[int]] = []
    for stage in supports:
        idx = [j for j, s in enumerate(stage) if s <= m]
        if not idx or frozenset().union(*(stage[j] for j in idx)) != m:
            return None
        active.append(idx)
    return active


def _class_semimodules(vs: Sequence[Semimodule], active: List[List[int]]) -> List[Semimodule]:
    return [
        Semimodule(from_columns([v.generators.column(j) for j in idx], v.tag))
        for v, idx in zip(vs, active)
    ]


def _orbit_solve(ws: List[Semimodule], y: TropVector, max_cycles: int = 120):
    """Exact eigenpair of the composed projector on an invariant class.

    Iterates full cycles from y, looking for additive periodicity
    F^p(x) = c x. Period one is an eigenvector directly; otherwise the
    cycle sum z = sum_j lam^{-j} F^j(x) with lam = c/p is one (checked
    exactly before being returned).
    """
    tag = y.tag
    residual = tag.ops.residual
    supp = sorted(y.support())

    def full_cycle(x: TropVector) -> TropVector:
        for w in ws:
            x = project(w, x)
        return x

    orbit = [y]
    for _ in range(max_cycles):
        orbit.append(full_cycle(orbit[-1]))
        z = orbit[-1]
        for p in range(1, len(orbit)):
            prev = orbit[-1 - p]
            diffs = {residual(z.payload[i], prev.payload[i]) for i in supp}
            if len(diffs) != 1:
                continue
            lam = TropScalar(Fraction(diffs.pop(), p), tag)
            if p == 1:
                return lam, prev
            cand = prev
            cur = prev
            for j in range(1, p):
                cur = full_cycle(cur)
                cand = cand + cur.scale(TropScalar(-j * lam.value, tag))
            if full_cycle(cand) == cand.scale(lam):
                return lam, cand
    raise TooLarge("orbit did not become periodic within the cycle budget")


def cyclic_spectral_radius_oracle(vs: Sequence[Semimodule]) -> HilbertReport:
    """The best class eigenvalue over all 2^n support classes.

    Raises TooLarge when some class orbit does not become periodic within
    the cycle budget.
    """
    if not vs:
        raise ValueError("need at least one semimodule")
    dims = {v.ambient_dim for v in vs}
    if len(dims) != 1:
        raise DimensionMismatch("ambient dimensions differ")
    if any(v.tag is not MAX_PLUS for v in vs):
        raise ValueError("the cyclic spectral radius is provided over max-plus")
    n = next(iter(dims))
    tag = MAX_PLUS
    supports = [[g.support() for g in v.generators.columns()] for v in vs]

    def solve_class(m: FrozenSet[int], active: List[List[int]]):
        ws = _class_semimodules(vs, active)
        top = None
        for g in ws[-1].generators.columns():
            top = g if top is None else top + g
        lam, eig = _orbit_solve(ws, top)
        witnesses = []
        x = eig
        for w in ws:
            x = project(w, x)
            witnesses.append(x)
        if hilbert_value(witnesses) != lam:
            raise CertificateInvalid("orbit witnesses fail to attain the eigenvalue")
        return lam, tuple(witnesses), eig

    best = None
    for mask in range(1, 1 << n):
        m = frozenset(i for i in range(n) if mask >> i & 1)
        active = _active_generators(supports, m)
        if active is None:
            continue
        lam, wit, eig = solve_class(m, active)
        if best is None or best[0] < lam or (best[0] == lam and len(m) > len(best[2])):
            best = (lam, wit, m, eig)
    if best is None:
        return HilbertReport(zero(tag), (), frozenset())
    return HilbertReport(best[0], best[1], best[2], best[3])


def contains_oracle(h: Halfspace, x: TropVector) -> bool:
    """x in {y : u/y >= v/y} u {0} by boxed vector residuals."""
    if x.is_zero:
        return True
    return vec_residual(h.u, x) >= vec_residual(h.v, x)


def _generator_sum(rows: List[tuple], size: int) -> Sequence:
    """The sum of the generators of {y : a y <= b y for every row (a, b)}
    over `size` coordinates, one row at a time from the unit vectors by
    `intersect_oracle`; all bottoms when only y = 0 solves."""
    if not rows:
        return [0] * size
    gens = [tuple(0 if i == j else None for i in range(size)) for j in range(size)]
    for a, b in rows:
        gens = intersect_oracle(gens, a, b)
    return reduce(TropVector.__add__, map(vector, gens)).payload if gens else [None] * size


def common_point_oracle(halfspaces: Sequence[Halfspace]) -> Optional[TropVector]:
    """A nonzero point of every halfspace, or None, by support enumeration.

    A point x with support S lies in {y : u/y >= v/y} iff S meets the
    bottoms of v, or S avoids the bottoms of u and x satisfies the row
    (-u_S) x <= (-v_S) x over S. For each S, from the largest down, the
    rows of the halfspaces whose v has no bottom on S are solved over S by
    `_generator_sum`. The sum of the generators is a common point iff it
    is finite on all of S. Otherwise it is finite on some T only, and every
    common point supported inside S is supported inside T, as the rows held
    on S are held on every subset; so the subsets of S outside T are
    skipped. Common points are closed under sums, so the first S found
    holds the support of every other, and its point is the one `separate`
    reports.
    """
    n = len(halfspaces[0].u)
    ruled_out = []  # (S, T): every common point supported inside S is supported inside T
    for size in range(n, 0, -1):
        for s in itertools.combinations(range(n), size):
            if any(big.issuperset(s) and not t.issuperset(s) for big, t in ruled_out):
                continue
            held = [(h.u.payload, h.v.payload) for h in halfspaces if all(h.v.payload[i] is not None for i in s)]
            if any(u[i] is None for u, _ in held for i in s):
                continue
            rows = [([-u[i] for i in s], [-v[i] for i in s]) for u, v in held]
            x = dict(zip(s, _generator_sum(rows, size)))
            t = {i for i, xi in x.items() if xi is not None}
            if len(t) == size:
                return vector([x.get(i) for i in range(n)])
            ruled_out.append((set(s), t))
    return None


def separate_oracle(vs: Sequence[Semimodule]) -> Union[List[Halfspace], NotSeparable]:
    """`separate` with its containment check on boxed vectors and its
    common-point check by `common_point_oracle`."""
    rep = cyclic_spectral_radius(vs)
    if rep.value == one(MAX_PLUS):
        return NotSeparable(witness=rep.witness_vectors[0])
    halfspaces = _halfspaces(vs, rep)
    for v, h in zip(vs, halfspaces):
        for g in v.generators.columns():
            if not contains_oracle(h, g):
                raise CertificateInvalid("separation halfspace fails to contain its semimodule")
    x = common_point_oracle(halfspaces)
    if x is not None:
        raise CertificateInvalid(
            f"separation halfspaces share the nonzero point {x!r}; "
            "supports outside the attaining class are not separated by this construction"
        )
    return halfspaces
