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
membership by two `vec_residual`s per point, over the generators and their
pairwise sums as `TropVector`s. Production code runs the same checks on
payload tuples with inline max-plus arithmetic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import FrozenSet, List, Optional, Sequence, Union

from tropkit.errors import CertificateInvalid, DimensionMismatch, TooLarge, TropkitError
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
from tropkit.tropmat import TropVector, from_columns, vec_residual

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


def _grid_points(vs: Sequence[Semimodule]) -> List[TropVector]:
    """Generators plus pairwise sums: the falsification grid for separation."""
    gens = [g for v in vs for g in v.generators.columns()]
    pts = list(gens)
    for a, b in itertools.combinations(gens, 2):
        pts.append(a + b)
    return pts


def separate_oracle(vs: Sequence[Semimodule]) -> Union[List[Halfspace], NotSeparable]:
    """`separate` with its containment and grid checks on boxed vectors."""
    rep = cyclic_spectral_radius(vs)
    if rep.value == one(MAX_PLUS):
        return NotSeparable(witness=rep.witness_vectors[0])
    halfspaces = _halfspaces(vs, rep)
    for v, h in zip(vs, halfspaces):
        for g in v.generators.columns():
            if not contains_oracle(h, g):
                raise TropkitError("separation halfspace fails to contain its semimodule")
    for x in _grid_points(vs):
        if not x.is_zero and all(contains_oracle(h, x) for h in halfspaces):
            raise TropkitError(
                "separation verification found a common grid point; supports "
                "outside the attaining class are not separated by this construction"
            )
    return halfspaces
