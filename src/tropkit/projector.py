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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from .errors import CertificateInvalid, DimensionMismatch, EmptySupport, TagMismatch, TropkitError
from .semiring import MAX_PLUS, SemiringTag, TropScalar, one, sr_mul, zero
from .spectral import _cycle_time
from .tropmat import TropMatrix, TropVector, from_columns, mat_residual_left, vec_residual, vector


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
    """Cyclic spectral radius with attaining witnesses and its eigenvector.

    Every report is certified: a result whose certificate fails raises
    CertificateInvalid instead of being returned.
    """

    value: TropScalar
    witness_vectors: Tuple[TropVector, ...]
    support_set: FrozenSet[int]
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


def _choose(cols: Sequence[tuple], sigma: Sequence[Optional[int]], chi: list, eta: list) -> Tuple[int, ...]:
    """Per generator g, the row i of supp g with the least residual
    (chi_i, eta_i - g_i), bottom least and ties to the smallest i; the
    current row (None: none yet) stays unless strictly beaten."""

    def key(g, i):
        return (0,) if chi[i] is None else (1, chi[i], eta[i] - g[i])

    out = []
    for g, cur in zip(cols, sigma):
        best = min((i for i, v in enumerate(g) if v is not None), key=lambda i: key(g, i))
        out.append(best if cur is None or key(g, best) < key(g, cur) else cur)
    return tuple(out)


def _push(cols: Sequence[tuple], sigma: Sequence[int], chi: list, eta: list) -> Tuple[list, list]:
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


def cyclic_spectral_radius(vs: Sequence[Semimodule]) -> HilbertReport:
    """Largest Hilbert value of the semimodules = spectral radius of Pk...P1.

    Strategy iteration on the projectors' min-max game. A strategy sigma
    picks one row of each generator's support in place of the residual's
    min, so P <= A_sigma = Mk...M1 pointwise (stage matrices as in `_push`).
    It starts as P's own choices along the orbit of top, the sum of the last
    stage's generators. Each round evaluates A_sigma's cycle-time vector chi
    and bias eta; r = max chi is A_sigma's cycle mean (Karp), an upper bound
    on the radius. If x = eta on S = {chi = r} satisfies P(x) = r x exactly,
    r is attained and the iteration stops. Otherwise each choice switches to
    a row with a strictly smaller residual at (chi, eta) pushed through the
    stages; meeting a strategy again raises CertificateInvalid. An acyclic
    A_sigma certifies the zero radius. The eigenvector is the greatest
    multiple of x below the sum of the last stage's generators supported in
    S; its orbit, the witnesses, must attain r as a Hilbert value, or
    CertificateInvalid is raised.
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
    cols = [list(zip(*v.generators.payload)) for v in vs]
    eta = list(reduce(TropVector.__add__, vs[-1].generator_list()).payload)
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
        a = TropMatrix._trusted(tuple(zip(*columns)), MAX_PLUS)
        chi, eta = _cycle_time(a)
        if all(c is None for c in chi):
            return HilbertReport(zero(tag), (), frozenset())
        lam = TropScalar._fast(max(c for c in chi if c is not None), tag)
        x = TropVector._trusted(tuple(e if c == lam.value else None for c, e in zip(chi, eta)), tag)
        orbit = cyclic_orbit(vs, x, 1)
        if orbit[-1] == x.scale(lam):
            break
        seen.add(sigma)
        improved = []
        for c, s in zip(cols, sigma):
            improved.append(_choose(c, s, chi, eta))
            chi, eta = _push(c, s, chi, eta)
        sigma = tuple(improved)
        if sigma in seen:
            raise CertificateInvalid("strategy iteration stalled without an eigenvector")

    support = x.support()
    inside = [g for g in vs[-1].generator_list() if g.support() <= support]
    c = vec_residual(reduce(TropVector.__add__, inside), x)
    eig, witnesses = x.scale(c), tuple(w.scale(c) for w in orbit)
    if hilbert_value(witnesses) != lam:
        raise CertificateInvalid("orbit witnesses fail to attain the eigenvalue")
    return HilbertReport(lam, witnesses, support, eig)


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
        top = reduce(TropVector.__add__, (g for v in vs for g in v.generator_list()))
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
