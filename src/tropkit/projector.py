"""Projectors onto finitely generated semimodules, cyclic projectors,
Hilbert values, the cyclic spectral radius, and separation certificates.

The projector onto the column span V of a generator matrix G is
P_V(x) = G (G \\ x), the greatest element of V below x. Compositions of
several such projectors (cyclic projectors) are isotone, homogeneous and
continuous, so their spectral radius obeys the nonlinear Collatz-Wielandt
formula; it equals the largest Hilbert value of the semimodules, attained
on some common support set. A cyclic projector is a min-max function, and
its radius is the value of a mean-payoff game: strategy iteration over the
residuals' row choices (Cochet-Terrasson, Gaubert & Gunawardena) bounds it
from above by a max-plus linear map and from below by an exact eigenvector,
so every reported value is certified at every dimension.

This module owns the semimodules, the halfspaces, their records and
checks, and the strategy loop of the radius, the one piece that needs
`spectral`. The payload kernels it calls belong to `tropkit._cones`: the
projection that `project` and the game share, the game's stage helpers,
halfspace membership for `Halfspace.contains` and the containment check of
`separate`, and the exact check that the halfspaces meet only at zero, a
fixed point over the two-sided row step. The game runs on payload tuples
and boxes only the report it returns. The boxed containment check and a
support enumeration over the two-sided oracle are the test oracle in
`tests/projector_oracle.py`.
"""

from __future__ import annotations

from functools import reduce
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from ._cones import _choose, _common_point, _in_halfspace, _project, _push
from .errors import CertificateInvalid, DimensionMismatch, EmptySupport, SchemaError, TagMismatch
from .semiring import MAX_PLUS, Payload, SemiringTag, TropScalar, _record, one, zero
from .spectral import _cycle_time
from .tropmat import TropMatrix, TropVector, _least_residual, from_columns, vector

_add, _mul = MAX_PLUS.ops.add, MAX_PLUS.ops.mul


@_record
class Semimodule:
    """Finitely generated subsemimodule, described by generator columns."""

    generators: TropMatrix

    def __post_init__(self):
        for j, g in enumerate(self.generators.columns()):
            if g.is_zero:
                raise SchemaError(f"generator column {j} is all zero")

    @property
    def tag(self) -> SemiringTag:
        return self.generators.tag

    @property
    def ambient_dim(self) -> int:
        return self.generators.rows

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
    return TropVector._trusted(_project(v.generators.payload, x.payload, x.tag), x.tag)


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
    if any(x.is_zero for x in xs):
        raise EmptySupport("Hilbert value of a zero vector")
    for x in xs:
        xs[0]._check_same(x)
    return TropScalar._trusted(_hilbert([x.payload for x in xs], xs[0].tag), xs[0].tag)


def _hilbert(xs: List[tuple], tag: SemiringTag) -> Payload:
    """d_H on the payloads of nonzero vectors of one tag and length."""
    return reduce(tag.ops.mul, [_least_residual(x, y, tag) for x, y in zip(xs, xs[1:] + xs[:1])], tag.ops.unit)


@_record
class HilbertReport:
    """Cyclic spectral radius with attaining witnesses and its eigenvector.

    Every report is certified: a result whose certificate fails raises
    CertificateInvalid instead of being returned.
    """

    value: TropScalar
    witness_vectors: Tuple[TropVector, ...]
    support_set: FrozenSet[int]
    eigenvector: Optional[TropVector] = None


@_record
class Halfspace:
    """Idempotent halfspace {x : u/x >= v/x} plus the zero vector, u <= v,
    over max-plus (the only tag `separate` produces)."""

    u: TropVector
    v: TropVector

    def __post_init__(self):
        if self.u.tag is not MAX_PLUS or self.v.tag is not MAX_PLUS:
            raise ValueError("halfspaces are provided over max-plus")
        if not self.u <= self.v:
            raise ValueError("halfspace needs u <= v")

    def contains(self, x: TropVector) -> bool:
        if x.tag is not MAX_PLUS:
            raise TagMismatch("vector tags differ")
        if len(x) != len(self.u):
            raise DimensionMismatch("vector lengths differ")
        return _in_halfspace(self.u.payload, self.v.payload, x.payload)


@_record
class NotSeparable:
    """Returned when the semimodules share a nonzero point."""

    witness: TropVector


def cyclic_spectral_radius(vs: Sequence[Semimodule]) -> HilbertReport:
    """Largest Hilbert value of the semimodules = spectral radius of Pk...P1.

    Strategy iteration on the projectors' min-max game. A strategy sigma
    picks one row of each generator's support in place of the residual's
    min, so P <= A_sigma = Mk...M1 pointwise (stage matrices as in `_push`).
    It starts as P's own choices along the orbit of top, the sum of the last
    stage's generators. Each round evaluates A_sigma's cycle-time vector chi
    and bias eta by policy iteration; r = max chi is A_sigma's cycle mean, an upper bound
    on the radius. If x = eta on S = {chi = r} satisfies P(x) = r x exactly,
    r is attained and the iteration stops. Otherwise each choice switches to
    a row with a strictly smaller residual at (chi, eta) pushed through the
    stages; meeting a strategy again raises CertificateInvalid. An acyclic
    A_sigma certifies the zero radius. The eigenvector is the greatest
    multiple of x below the sum of the last stage's generators supported in
    S; its orbit, the witnesses, must attain r as a Hilbert value, or
    CertificateInvalid is raised. A semimodule without generators is {0},
    which sends every orbit to zero: the radius is zero, with no witnesses.
    Every step runs on payload tuples; only the returned report is boxed.
    """
    if not vs:
        raise ValueError("need at least one semimodule")
    dims = {v.ambient_dim for v in vs}
    if len(dims) != 1:
        raise DimensionMismatch("ambient dimensions differ")
    if any(v.tag is not MAX_PLUS for v in vs):
        raise ValueError("the cyclic spectral radius is provided over max-plus")
    n = next(iter(dims))
    if any(not v.generators.cols for v in vs):
        return HilbertReport(zero(MAX_PLUS), (), frozenset())
    rows = [v.generators.payload for v in vs]
    cols = [list(zip(*r)) for r in rows]
    eta = [reduce(_add, r) for r in rows[-1]]
    chi, sigma = [None if v is None else 0 for v in eta], []
    for c in cols:
        sigma.append(_choose(c, [None] * len(c), chi, eta))
        chi, eta = _push(c, sigma[-1], chi, eta)
    sigma, seen = tuple(sigma), set()
    while True:
        columns = [[None] * n] * n  # A_sigma e_i, stage by stage; bottom unless stage 1 picks i
        for i in set(sigma[0]):
            chi = eta = [0 if l == i else None for l in range(n)]
            for c, s in zip(cols, sigma):
                chi, eta = _push(c, s, chi, eta)
            columns[i] = eta
        chi, eta = _cycle_time(TropMatrix._trusted(tuple(zip(*columns)), MAX_PLUS))
        if all(c is None for c in chi):
            return HilbertReport(zero(MAX_PLUS), (), frozenset())
        lam = max(c for c in chi if c is not None)
        orbit = [tuple(e if c == lam else None for c, e in zip(chi, eta))]  # x, then its images
        for r in rows:
            orbit.append(_project(r, orbit[-1], MAX_PLUS))
        if orbit[-1] == tuple(_mul(lam, e) for e in orbit[0]):
            break
        seen.add(sigma)
        improved = []
        for c, s in zip(cols, sigma):
            improved.append(_choose(c, s, chi, eta))
            chi, eta = _push(c, s, chi, eta)
        sigma = tuple(improved)
        if sigma in seen:
            raise CertificateInvalid("strategy iteration stalled without an eigenvector")

    support = frozenset(i for i, e in enumerate(orbit[0]) if e is not None)
    inside = [g for g in cols[-1] if all(i in support for i, gi in enumerate(g) if gi is not None)]
    c = _least_residual([reduce(_add, r) for r in zip(*inside)], orbit[0], MAX_PLUS)
    scaled = [tuple(_mul(c, e) for e in w) for w in orbit]
    if _hilbert(scaled[1:], MAX_PLUS) != lam:
        raise CertificateInvalid("orbit witnesses fail to attain the eigenvalue")
    eig, *witnesses = (TropVector._trusted(w, MAX_PLUS) for w in scaled)
    return HilbertReport(TropScalar._trusted(lam, MAX_PLUS), tuple(witnesses), support, eig)


def separate(vs: Sequence[Semimodule]) -> Union[List[Halfspace], NotSeparable]:
    """Separating halfspaces for semimodules meeting only at zero.

    A unit spectral radius means the eigenvector is a common nonzero point,
    reported through NotSeparable. Otherwise each semimodule V_t receives
    the halfspace built from the eigenvector orbit: u = P_t(v) with v the
    stage input, following the constructive route of the separation theorem.
    Supports are restricted to the class attaining the radius. Before the
    halfspaces are returned, containment of each V_t is checked on its
    generators, and the empty intersection by the exact check on the row
    step, `_common_point`; a failed check raises CertificateInvalid.
    """
    return _separate(vs, cyclic_spectral_radius(vs))


def _separate(vs: Sequence[Semimodule], rep: HilbertReport) -> Union[List[Halfspace], NotSeparable]:
    """separate(vs), given the cyclic spectral radius report `rep` of vs."""
    if rep.value == one(MAX_PLUS):
        return NotSeparable(witness=rep.witness_vectors[0])
    halfspaces = _halfspaces(vs, rep)
    bounds = [(h.u.payload, h.v.payload) for h in halfspaces]
    for v, (u, w) in zip(vs, bounds):
        if not all(_in_halfspace(u, w, g) for g in zip(*v.generators.payload)):
            raise CertificateInvalid("separation halfspace fails to contain its semimodule")
    x = _common_point(bounds)
    if x is not None:
        raise CertificateInvalid(
            f"separation halfspaces share the nonzero point {TropVector._trusted(x, MAX_PLUS)!r}; "
            "supports outside the attaining class are not separated by this construction"
        )
    return halfspaces


def _halfspaces(vs: Sequence[Semimodule], rep: HilbertReport) -> List[Halfspace]:
    """The unchecked halfspace per semimodule, for a radius below the unit:
    u = P_t(v), the report's witness w_t, with v the stage input along the
    eigenvector orbit, or v = the sum of all generators for a zero radius."""
    if rep.witness_vectors:
        inputs = [rep.eigenvector] + list(rep.witness_vectors[:-1])
        return [Halfspace(u, vin) for u, vin in zip(rep.witness_vectors, inputs)]
    # sum of all generators; with none at all, a finite top makes each halfspace {0}
    gens = [g for v in vs for g in v.generators.columns()]
    top = reduce(TropVector.__add__, gens) if gens else vector([0] * vs[0].ambient_dim, MAX_PLUS)
    return [Halfspace(project(v, top), top) for v in vs]
