"""Projectors onto finitely generated semimodules, cyclic projectors,
Hilbert values, the cyclic spectral radius, and separation certificates.

The projector onto the column span V of a generator matrix G is
P_V(x) = G (G \\ x), the greatest element of V below x. Compositions of
several such projectors (cyclic projectors) are isotone, homogeneous and
continuous, so their spectral radius obeys the nonlinear Collatz-Wielandt
formula; it equals the largest Hilbert value of the semimodules, attained
on some common support set. The radius is computed per support class by
orbit iteration with exact eigenvector extraction; an exact eigenvector
with full class support pins the class radius from both sides, so every
reported value is certified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from .errors import CertificateInvalid, DimensionMismatch, EmptySupport, TagMismatch, TooLarge, TropkitError
from .semiring import MAX_PLUS, SemiringTag, TropScalar, one, sr_mul, zero
from .tropmat import TropMatrix, TropVector, from_columns, mat_residual_left, vec_residual, vector

SUPPORT_ENUM_CAP = 12
Supports = List[List[FrozenSet[int]]]  # per semimodule, the support of each generator


@dataclass(frozen=True)
class Semimodule:
    """Finitely generated subsemimodule, described by generator columns."""

    generators: TropMatrix

    def __post_init__(self):
        for j, g in enumerate(self.generators.columns()):
            if g.is_zero:
                raise ValueError(f"generator column {j} is all zero")

    @property
    def tag(self) -> SemiringTag:
        return self.generators.tag

    @property
    def ambient_dim(self) -> int:
        return self.generators.rows

    @property
    def num_generators(self) -> int:
        return self.generators.cols

    def generator_list(self) -> List[TropVector]:
        return self.generators.columns()

    def contains(self, x: TropVector) -> bool:
        """Exact membership: x belongs to the span iff the projection fixes it."""
        if x.is_zero:
            return True
        return project(self, x) == x


def semimodule(columns, tag: SemiringTag = MAX_PLUS) -> Semimodule:
    """Build a semimodule from generator columns (vectors or plain lists)."""
    if isinstance(columns, TropMatrix):
        return Semimodule(columns)
    vecs = [c if isinstance(c, TropVector) else vector(c, tag) for c in columns]
    return Semimodule(from_columns(vecs, tag))


def project(v: Semimodule, x: TropVector) -> TropVector:
    """P_V(x) = V (V \\ x) = max{u in V : u <= x}; idempotent, below x."""
    if v.ambient_dim != len(x):
        raise DimensionMismatch("ambient dimensions differ")
    if v.tag is not x.tag:
        raise TagMismatch("semimodule and vector tags differ")
    return v.generators.apply(mat_residual_left(v.generators, x))


def cyclic_orbit(vs: Sequence[Semimodule], x0: TropVector, sweeps: int) -> List[TropVector]:
    """Orbit x1 = P1 x0, x2 = P2 x1, ... cycling through the projectors.

    Returns k * sweeps points; windowed Hilbert values along the orbit are
    nondecreasing.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    dims = {v.ambient_dim for v in vs} | {len(x0)}
    if len(dims) != 1:
        raise DimensionMismatch("ambient dimensions differ")
    out = []
    x = x0
    for _ in range(sweeps):
        for v in vs:
            x = project(v, x)
            out.append(x)
    return out


def hilbert_value(xs: Sequence[TropVector]) -> TropScalar:
    """d_H(x1, ..., xk) = (x1/x2)(x2/x3)...(xk/x1) via vector residuation."""
    if not xs:
        raise ValueError("need at least one vector")
    for x in xs:
        if x.is_zero:
            raise EmptySupport("Hilbert value of a zero vector")
    k = len(xs)
    total = one(xs[0].tag)
    for t in range(k):
        total = sr_mul(total, vec_residual(xs[t], xs[(t + 1) % k]))
    return total


@dataclass(frozen=True)
class HilbertReport:
    """Cyclic spectral radius with attaining witnesses and its eigenvector."""

    value: TropScalar
    witness_vectors: Tuple[TropVector, ...]
    support_set: FrozenSet[int]
    certified: bool
    eigenvector: Optional[TropVector] = None


@dataclass(frozen=True)
class Halfspace:
    """Idempotent halfspace {x : u/x >= v/x} plus the zero vector, u <= v."""

    u: TropVector
    v: TropVector

    def __post_init__(self):
        if not self.u <= self.v:
            raise ValueError("halfspace needs u <= v")

    def contains(self, x: TropVector) -> bool:
        if x.is_zero:
            return True
        return vec_residual(self.u, x) >= vec_residual(self.v, x)


@dataclass(frozen=True)
class NotSeparable:
    """Returned when the semimodules share a nonzero point."""

    witness: TropVector


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


def _maximal_class(supports: Supports, n: int) -> Optional[FrozenSet[int]]:
    """Largest valid support class, by monotone shrinking from full support."""
    m = frozenset(range(n))
    while m:
        new_m = m
        for stage in supports:
            inside = [s for s in stage if s <= new_m]
            if not inside:
                return None
            new_m = frozenset().union(*inside)
        if new_m == m:
            return m
        m = new_m
    return None


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


def cyclic_spectral_radius(vs: Sequence[Semimodule]) -> HilbertReport:
    """Largest Hilbert value of the semimodules = spectral radius of Pk...P1.

    Certified path (ambient dimension <= 12): enumerate the support classes
    M on which all semimodules have vectors of support exactly M, solve each
    class exactly by orbit iteration, and take the best eigenvalue. The
    returned witnesses are the eigenvector orbit; they attain the value as a
    Hilbert value, exactly. Above the cap only the maximal class is solved
    and the report is flagged uncertified.
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
    supports = [[g.support() for g in v.generator_list()] for v in vs]

    def solve_class(m: FrozenSet[int], active: List[List[int]]):
        ws = _class_semimodules(vs, active)
        top = None
        for g in ws[-1].generator_list():
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

    if n > SUPPORT_ENUM_CAP:
        m = _maximal_class(supports, n)
        if m is None:
            return HilbertReport(zero(tag), (), frozenset(), False)
        active = _active_generators(supports, m)
        lam, wit, eig = solve_class(m, active)
        return HilbertReport(lam, wit, m, False, eig)

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
        return HilbertReport(zero(tag), (), frozenset(), True)
    return HilbertReport(best[0], best[1], best[2], True, best[3])


def _grid_points(vs: Sequence[Semimodule]) -> List[TropVector]:
    """Generators plus pairwise sums: the falsification grid for separation."""
    gens = [g for v in vs for g in v.generator_list()]
    pts = list(gens)
    for a, b in itertools.combinations(gens, 2):
        pts.append(a + b)
    return pts


def separate(vs: Sequence[Semimodule]) -> Union[List[Halfspace], NotSeparable]:
    """Separating halfspaces for semimodules meeting only at zero.

    A unit spectral radius means the eigenvector is a common nonzero point,
    reported through NotSeparable. Otherwise each semimodule V_t receives
    the halfspace built from the eigenvector orbit: u = P_t(v) with v the
    stage input, following the constructive route of the separation theorem.
    Supports are restricted to the class attaining the radius; containment
    of each V_t is exact and the empty intersection is verified on the
    generator grid before the halfspaces are returned.
    """
    return _separate(vs, cyclic_spectral_radius(vs))


def _separate(vs: Sequence[Semimodule], rep: HilbertReport) -> Union[List[Halfspace], NotSeparable]:
    """separate(vs), given the cyclic spectral radius report `rep` of vs."""
    unit = one(MAX_PLUS)
    if rep.value == unit:
        return NotSeparable(witness=rep.witness_vectors[0])
    halfspaces: List[Halfspace] = []
    if rep.witness_vectors:
        inputs = [rep.eigenvector] + list(rep.witness_vectors[:-1])
        for v, vin in zip(vs, inputs):
            halfspaces.append(Halfspace(project(v, vin), vin))
    else:
        top = None
        for v in vs:
            for g in v.generator_list():
                top = g if top is None else top + g
        for v in vs:
            halfspaces.append(Halfspace(project(v, top), top))
    for v, h in zip(vs, halfspaces):
        for g in v.generator_list():
            if not h.contains(g):
                raise TropkitError("separation halfspace fails to contain its semimodule")
    for x in _grid_points(vs):
        if not x.is_zero and all(h.contains(x) for h in halfspaces):
            raise TropkitError(
                "separation verification found a common grid point; supports "
                "outside the attaining class are not separated by this construction"
            )
    return halfspaces
