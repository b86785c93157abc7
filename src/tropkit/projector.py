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

Separation checks its halfspaces, which hold max-plus vectors only, on
payload tuples: one helper decides membership by two least residuals, for
`Halfspace.contains` after its tag and length checks and for the
containment check of `separate`. Whether the halfspaces meet outside zero
is an exact check on the row step of `twosided`: each halfspace is a
two-sided row on the supports that avoid its bottoms. `project` and the
radius's eigenvector test share one payload projection. The boxed
containment check and a support enumeration over the two-sided oracle are
the test oracle in `tests/projector_oracle.py`.
"""

from __future__ import annotations

from functools import reduce
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from .errors import CertificateInvalid, DimensionMismatch, EmptySupport, TagMismatch
from .semiring import MAX_PLUS, SemiringTag, TropScalar, _record, one, sr_mul, zero
from .spectral import _cycle_time
from .tropmat import TropMatrix, TropVector, _apply, _least_residual, _residual_left, from_columns, identity
from .tropmat import vec_residual, vector
from .twosided import _intersect

_add, _le = MAX_PLUS.ops.add, MAX_PLUS.ops.le


@_record
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
    return TropVector._trusted(_project(v, x.payload), x.tag)


def _project(v: Semimodule, xs: tuple) -> tuple:
    """P_V(x) on payloads, for every tag: x's payload in, the projection's out."""
    rows, tag = v.generators.payload, v.tag
    return _apply(rows, _residual_left(rows, xs, tag), tag)


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


def _in_halfspace(u: tuple, v: tuple, x: tuple) -> bool:
    """x in {y : u/y >= v/y} u {0}, on max-plus payload tuples (None for -inf):
    v/x <= u/x by `tropmat._least_residual`, and the zero x is in."""
    return x.count(None) == len(x) or _le(_least_residual(v, x, MAX_PLUS), _least_residual(u, x, MAX_PLUS))


def _common_point(bounds: Sequence[Tuple[tuple, tuple]]) -> Optional[tuple]:
    """A nonzero point of every halfspace {x : u/x >= v/x}, given as max-plus
    payload pairs (u, v) of one length, or None when they meet only at zero.

    With Z(w) the bottoms of w, x lies in the halfspace iff supp x meets
    Z(v), or supp x avoids Z(u), which holds Z(v) as u <= v, and
    (-u) x <= (-v) x, a two-sided row finite on supp x. F holds the
    halfspaces that x may enter through Z(v); it starts as every halfspace
    with a bottom in v. Each pass runs `twosided._intersect` with the rows
    outside F, from the unit vectors off their Z(u), and takes x as the sum
    of the generators left. A common point enters through Z(v) only
    halfspaces of F, so it lies in that cone and supp x holds its support:
    F, cut to the halfspaces whose Z(v) supp x meets, keeps them. Once F
    stays, x is a common point; once the cone is {0}, none exists. F
    shrinks on every pass but the last: at most len(bounds) + 1 passes.
    """
    free = [t for t, (_, v) in enumerate(bounds) if None in v]
    while True:
        held = [b for t, b in enumerate(bounds) if t not in free]
        bottoms = {j for u, _ in held for j, uj in enumerate(u) if uj is None}
        gens = [e for j, e in enumerate(identity(len(bounds[0][0])).payload) if j not in bottoms]
        for u, v in held:
            gens = _intersect(gens, *(tuple(None if w is None else -w for w in r) for r in (u, v)))
        if not gens:
            return None
        x = tuple(reduce(_add, c) for c in zip(*gens))
        kept = [t for t in free if any(xi is not None and vi is None for xi, vi in zip(x, bounds[t][1]))]
        if kept == free:
            return x
        free = kept


@_record
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
    if any(not v.generators.cols for v in vs):
        return HilbertReport(zero(tag), (), frozenset())
    cols = [list(zip(*v.generators.payload)) for v in vs]
    eta = list(reduce(TropVector.__add__, vs[-1].generators.columns()).payload)
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
        orbit, y = [], x.payload
        for v in vs:
            y = _project(v, y)
            orbit.append(y)
        if y == x.scale(lam).payload:
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
    inside = [g for g in vs[-1].generators.columns() if g.support() <= support]
    c = vec_residual(reduce(TropVector.__add__, inside), x)
    eig, witnesses = x.scale(c), tuple(TropVector._trusted(w, tag).scale(c) for w in orbit)
    if hilbert_value(witnesses) != lam:
        raise CertificateInvalid("orbit witnesses fail to attain the eigenvalue")
    return HilbertReport(lam, witnesses, support, eig)


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
    halfspaces: List[Halfspace] = []
    if rep.witness_vectors:
        inputs = [rep.eigenvector] + list(rep.witness_vectors[:-1])
        for u, vin in zip(rep.witness_vectors, inputs):
            halfspaces.append(Halfspace(u, vin))
    else:
        # sum of all generators; with none at all, a finite top makes each halfspace {0}
        gens = [g for v in vs for g in v.generators.columns()]
        top = reduce(TropVector.__add__, gens) if gens else vector([0] * vs[0].ambient_dim, MAX_PLUS)
        for v in vs:
            halfspaces.append(Halfspace(project(v, top), top))
    return halfspaces
