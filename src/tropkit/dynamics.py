"""Degree-one homogeneous min-plus dynamics and traffic models.

Covers the exclusion process on a ring, its min-plus linear event-graph
counterpart, general degree-one homogeneous iteration with throughput
measurement, the eigenproblem reduction to a fixed point, the tent-map
chaotic system, two roads through one crossing (priority or fifty-fifty
completion), fundamental-diagram sweeps, and triangular one-homogeneous
(T1H) systems with a min-plus linear light-control layer.

Every branch of a homogeneous map, and every entry of a T1H control
matrix, is one `MinPlusTerm`: a constant plus a sparse sum of exponent
times coordinate, so a road step costs O(m).

Every model steps on integer numerators X over one common denominator D.
A map whose term constants and exponents have denominators dividing L is
compiled once to integer terms scaled by L, and one step sends X / D to
X' / (D L) with integer min and plus only (L = 1 for roads and the light,
2 for both crossings). Iterations divide out gcd(D, X) after each step and
build `Fraction`s only for the points they return, one per distinct value.
`HomogeneousMap.step` is the one integer kernel of every model but the
tent, whose scalar orbit runs on its own numerators. A T1H system is
compiled to one `HomogeneousMap` on the concatenated state (u, x). Both
crossing policies are built from one geometry; the priority `CrossingMap`
is a `HomogeneousMap` whose step patches the non-priority entry with the
priority entry's current-step value, the one sequential read of the model.

Everything is exact: binary floating point would collapse tent orbits onto
the fixed point and blur the exact plateau values the models predict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import BadConfig, DimensionMismatch, Diverged
from .semiring import MIN_PLUS
from .tropmat import TropMatrix, mat_mul, matrix

Rat = Fraction
DEFAULT_SPREAD_BOUND = Fraction(10**6)
# steps within which t1h_simulate looks for the normalized control orbit to repeat
PERIOD_DETECT_WINDOW = 64


# ---------------------------------------------------------------------------
# exclusion process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingWord:
    """Circular word of occupancies: 1 = car, 0 = free cell."""

    bits: Tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 2:
            raise BadConfig("ring needs at least two cells")
        if any(b not in (0, 1) for b in self.bits):
            raise BadConfig("occupancies are 0/1")

    @staticmethod
    def from_string(s: str) -> "RingWord":
        return RingWord(tuple(int(c) for c in s))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    @property
    def length(self) -> int:
        return len(self.bits)

    @property
    def cars(self) -> int:
        return sum(self.bits)

    @property
    def density(self) -> Rat:
        return Fraction(self.cars, self.length)


def exclusion_step(w: RingWord) -> Tuple[RingWord, int]:
    """One simultaneous application of the rule 10 -> 01; returns moves made."""
    m = w.length
    nxt = list(w.bits)
    moved = 0
    for i in range(m):
        if w.bits[i] == 1 and w.bits[(i + 1) % m] == 0:
            nxt[i] = 0
            nxt[(i + 1) % m] = 1
            moved += 1
    return RingWord(tuple(nxt)), moved


def exclusion_run(w: RingWord, steps: int) -> Tuple[List[RingWord], List[Rat]]:
    """Trajectory and per-step flows (cars moved / ring length)."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    traj = [w]
    flows: List[Rat] = []
    for _ in range(steps):
        w, moved = exclusion_step(w)
        traj.append(w)
        flows.append(Fraction(moved, w.length))
    return traj, flows


# ---------------------------------------------------------------------------
# homogeneous min-plus maps
# ---------------------------------------------------------------------------


IntTerm = Tuple[int, Tuple[Tuple[int, int], ...]]


def _scale_in(x: Sequence) -> Tuple[List[int], int]:
    """Integer numerators X and the least common denominator D of x = X / D."""
    fr = [Fraction(v) for v in x]
    D = math.lcm(*(v.denominator for v in fr))
    return [v.numerator * (D // v.denominator) for v in fr], D


def _reduced(X: List[int], D: int) -> Tuple[List[int], int]:
    """X / D with gcd(D, *X) divided out."""
    if D == 1:
        return X, D
    g = math.gcd(D, *X)
    if g == 1:
        return X, D
    return [v // g for v in X], D // g


class _FractionsOver(dict):
    """numerator -> Fraction(numerator, D) for one denominator D, built on first use."""

    def __init__(self, D: int):
        super().__init__()
        self.D = D

    def __missing__(self, v: int) -> Rat:
        f = self[v] = Fraction(v, self.D)
        return f


class _Points(dict):
    """Builds points X / D as Fractions, each distinct value once per run.

    Trajectory points repeat their values heavily (a 450-step priority
    crossing run holds 9,020 entries but 228 distinct values), and building
    a `Fraction` costs far more than a dict lookup. Fractions are immutable,
    so points may share them.
    """

    def __missing__(self, D: int) -> _FractionsOver:
        over = self[D] = _FractionsOver(D)
        return over

    def __call__(self, X: Sequence[int], D: int) -> List[Rat]:
        return list(map(self[D].__getitem__, X))


def _fractions(X: Sequence[int], D: int) -> List[Rat]:
    """The point X / D, one Fraction per coordinate."""
    return _Points()(X, D)


@dataclass(frozen=True)
class MinPlusTerm:
    """constant + sum of e * x_i over the sparse exponent pairs (i, e).

    `exponents` is a tuple of (index, coefficient) pairs sorted by index,
    every coefficient nonzero; one branch of a min.
    """

    constant: Rat
    exponents: Tuple[Tuple[int, Rat], ...]

    @property
    def denominator(self) -> int:
        """Least common denominator of the constant and the coefficients."""
        return math.lcm(self.constant.denominator, *(e.denominator for _, e in self.exponents))

    def scaled(self, L: int) -> IntTerm:
        """(C, ((i, E), ...)) with C = constant * L and E = e * L.

        The entries are integers when `denominator` divides L; at x = X / D
        the term equals (C D + sum E X_i) / (D L).
        """
        c = self.constant
        exps = tuple((i, e.numerator * (L // e.denominator)) for i, e in self.exponents)
        return c.numerator * (L // c.denominator), exps

    def eval(self, x: Sequence[Rat]) -> Rat:
        return self.constant + sum((e * Fraction(x[i]) for i, e in self.exponents), Fraction(0))


def _term(constant, pairs) -> MinPlusTerm:
    """The term with the given (index, coefficient) pairs; zeros dropped."""
    return MinPlusTerm(Fraction(constant), tuple(sorted((i, Fraction(e)) for i, e in pairs if e)))


def term(constant, exponents) -> MinPlusTerm:
    """The term with a dense exponent sequence, stored sparsely."""
    return _term(constant, enumerate(exponents))


@dataclass(frozen=True)
class HomogeneousMap:
    """Per-coordinate min over affine terms whose exponents sum to one."""

    dim: int
    coords: Tuple[Tuple[MinPlusTerm, ...], ...]

    def __post_init__(self):
        if len(self.coords) != self.dim:
            raise DimensionMismatch("one term list per coordinate required")
        for terms in self.coords:
            if not terms:
                raise ValueError("each coordinate needs at least one term")
            for t in terms:
                if any(not 0 <= i < self.dim for i, _ in t.exponents):
                    raise DimensionMismatch(f"term index outside 0..{self.dim - 1}")
                if sum(e for _, e in t.exponents) != 1:
                    raise ValueError("exponents of a degree-one term must sum to 1")

    @cached_property
    def _compiled(self) -> Tuple[int, Tuple[Tuple[IntTerm, ...], ...]]:
        """(L, coords): every term scaled by the lcm L of all its denominators."""
        L = math.lcm(*(t.denominator for terms in self.coords for t in terms))
        return L, tuple(tuple(t.scaled(L) for t in terms) for terms in self.coords)

    def step(self, X: Sequence[int], D: int) -> Tuple[List[int], int]:
        """One step on integer numerators: the point X / D maps to X' / (D L)."""
        if len(X) != self.dim:
            raise DimensionMismatch("point dimension differs from map dimension")
        L, coords = self._compiled
        out = []
        for terms in coords:
            best = None
            for C, exps in terms:
                v = C * D
                for i, E in exps:
                    v += E * X[i]
                if best is None or v < best:
                    best = v
            out.append(best)
        return out, D * L

    def __call__(self, x: Sequence[Rat]) -> List[Rat]:
        return _fractions(*self.step(*_scale_in(x)))

    def is_linear(self) -> bool:
        return all(
            len(t.exponents) == 1 and t.exponents[0][1] == 1
            for terms in self.coords
            for t in terms
        )

    def linear_matrix(self) -> TropMatrix:
        """The min-plus matrix of a linear map (single unit exponent per term)."""
        if not self.is_linear():
            raise ValueError("map is not min-plus linear")
        rows = []
        for terms in self.coords:
            row: List[Optional[Rat]] = [None] * self.dim
            for t in terms:
                ((j, _),) = t.exponents
                row[j] = t.constant if row[j] is None else min(row[j], t.constant)
            rows.append(row)
        return matrix(rows, MIN_PLUS)


def road_event_graph(occupancy: Sequence[int], m: Optional[int] = None) -> HomogeneousMap:
    """Min-plus linear event graph of a circular road.

    Coordinate i advances by min(a_{i-1} + x_{i-1}, (1 - a_i) + x_{i+1});
    the matrix eigenvalue is min(n/m, (m-n)/m, 1/2) for n cars on m cells.
    """
    a = [int(b) for b in occupancy]
    m = m if m is not None else len(a)
    if m != len(a) or m < 2:
        raise BadConfig("need one occupancy bit per cell, at least two cells")
    coords = tuple(
        (_term(a[i - 1], [((i - 1) % m, 1)]), _term(1 - a[i], [((i + 1) % m, 1)]))
        for i in range(m)
    )
    return HomogeneousMap(m, coords)


def hom_iterate(
    f,
    x0: Sequence[Rat],
    k: int,
    spread_bound: Rat = DEFAULT_SPREAD_BOUND,
) -> Tuple[List[List[Rat]], Rat]:
    """Iterate x^{t+1} = f(x^t) and measure the throughput.

    f is a `HomogeneousMap` (the priority `CrossingMap` is one); the
    iteration runs on its integer `step`. The estimate is
    (x_i^K - x_i^{K/2}) / (K - K/2) averaged over the coordinates; for a
    min-plus linear f it equals the matrix eigenvalue exactly once K/2
    clears the transient and the span covers whole periods. Raises Diverged
    when coordinate spread exceeds `spread_bound`.
    """
    if k < 2:
        raise ValueError("need at least two steps")
    bound = Fraction(spread_bound)
    X, D = _scale_in(x0)
    point = _Points()
    traj = [point(X, D)]
    for _ in range(k):
        X, D = _reduced(*f.step(X, D))
        # max(x) - min(x) > bound for x = X / D, cross-multiplied
        if (max(X) - min(X)) * bound.denominator > bound.numerator * D:
            raise Diverged("coordinate spread exceeded the configured bound")
        traj.append(point(X, D))
    rates = coordinate_rates(traj)
    lam = sum(rates, Fraction(0)) / len(rates)
    return traj, lam


def coordinate_rates(traj: List[List[Rat]]) -> List[Rat]:
    """Per-coordinate second-half growth rates of a trajectory."""
    k = len(traj) - 1
    half = k // 2
    span = k - half
    return [(traj[k][i] - traj[half][i]) / span for i in range(len(traj[0]))]


@dataclass(frozen=True)
class EigenReduction:
    """Fixed-point form of the degree-one homogeneous eigenproblem.

    Normalizing by the first coordinate turns lam x = f(x) into y = g(y)
    with y_i = x_{i+1} - x_1; the eigenvalue is recovered as lam(y) at a
    fixed point of g.
    """

    dim: int
    g: Callable[[Sequence[Rat]], List[Rat]]
    lam: Callable[[Sequence[Rat]], Rat]

    def is_fixed_point(self, y: Sequence[Rat]) -> bool:
        return [Fraction(v) for v in self.g(y)] == [Fraction(v) for v in y]


def eigen_reduce(f) -> EigenReduction:
    """Reduce the eigenproblem of a degree-one homogeneous map to y = g(y)."""
    dim = f.dim

    def embed(y: Sequence[Rat]) -> List[Rat]:
        return [Fraction(0)] + [Fraction(v) for v in y]

    def g(y: Sequence[Rat]) -> List[Rat]:
        fx = f(embed(y))
        return [fx[i] - fx[0] for i in range(1, dim)]

    def lam(y: Sequence[Rat]) -> Rat:
        return f(embed(y))[0]

    return EigenReduction(dim - 1, g, lam)


# ---------------------------------------------------------------------------
# tent map
# ---------------------------------------------------------------------------


def tent_system() -> HomogeneousMap:
    """The two-dimensional homogeneous system whose reduction is the tent map.

    The first coordinate is invariant; the second follows
    min(2 x2 - x1, 2 + 3 x1 - 2 x2), so y = x2 - x1 obeys y' = min(2y, 2-2y)
    with fixed points 0 and 2/3.
    """
    return HomogeneousMap(
        2,
        (
            (_term(0, [(0, 1)]),),
            (_term(0, [(0, -1), (1, 2)]), _term(2, [(0, 3), (1, -2)])),
        ),
    )


def tent_trajectory(
    y0: Rat, k: int, bins: Optional[int] = None
) -> Tuple[List[Rat], Optional[List[int]]]:
    """Exact orbit of y -> min(2y, 2 - 2y) on [0, 1], with optional histogram.

    The map never grows the denominator q of y0, so the orbit runs on
    integer numerators over q: p -> min(2p, 2q - 2p).
    """
    y = Fraction(y0)
    if not 0 <= y <= 1:
        raise BadConfig("tent map runs on [0, 1]")
    if k < 1:
        raise ValueError("need at least one step")
    if bins is not None and bins < 1:
        raise ValueError("need at least one bin")
    p, q = y.numerator, y.denominator
    nums = [p]
    for _ in range(k):
        p = 2 * p if 2 * p <= q else 2 * (q - p)
        nums.append(p)
    hist: Optional[List[int]] = None
    if bins is not None:
        hist = [0] * bins
        for n in nums:
            hist[n * bins // q if n < q else bins - 1] += 1
    return _fractions(nums, q), hist


# ---------------------------------------------------------------------------
# two roads, one crossing
# ---------------------------------------------------------------------------


def _occupancy_from_cars(total: int, cars: Sequence[int]) -> List[int]:
    occ = [0] * total
    for c in cars:
        if not 0 <= c < total:
            raise BadConfig(f"car position {c} outside 0..{total - 1}")
        if occ[c]:
            raise BadConfig(f"two cars on place {c}")
        occ[c] = 1
    return occ


@dataclass(frozen=True)
class CrossingMap(HomogeneousMap):
    """The priority crossing: a homogeneous map plus one sequential patch.

    The non-priority entry's free-space term reads the priority entry's
    current-step value, so after the plain step it is lowered to
    (1 - a) + x_exit1 + x_exit2 - x'_entry1 (still degree-one homogeneous).
    The fields are the four places and 1 - a at the non-priority entry.
    """

    entry1: int
    entry2: int
    exit1: int
    exit2: int
    free2: int

    def step(self, X: Sequence[int], D: int) -> Tuple[List[int], int]:
        out, DL = super().step(X, D)
        patch = self._compiled[0] * (self.free2 * D + X[self.exit1] + X[self.exit2]) - out[self.entry1]
        if patch < out[self.entry2]:
            out[self.entry2] = patch
        return out, DL


def build_crossing(
    n_road1: int,
    n_road2: int,
    cars: Sequence[int],
    policy: str = "priority",
) -> HomogeneousMap:
    """Degree-one homogeneous map of the two-roads-one-crossing system.

    Roads occupy coordinates 0..n1-1 and n1..n1+n2-1, the crossing places
    are the last cell of each road, and the exits are the first cells. Exits
    split the crossing output evenly (square root, i.e. half-exponents), so
    both policies compile at L = 2. The policies differ only at the entries.
    policy "priority": road 1's entry divides by the other road's entry
    counter, and road 2's entry yields to road 1's current step (a
    `CrossingMap`). policy "fifty_fifty": both entries average the free
    space over the exits, a plain `HomogeneousMap`.
    """
    occ = _occupancy_from_cars(n_road1 + n_road2, cars)
    if policy not in ("priority", "fifty_fifty"):
        raise BadConfig(f"unknown policy {policy!r}")
    n1, n2 = n_road1, n_road2
    if n1 < 2 or n2 < 2:
        raise BadConfig("each road needs at least two cells")
    dim = n1 + n2
    a = occ
    exit1, exit2 = 0, n1
    entry1, entry2 = n1 - 1, n1 + n2 - 1
    half = Fraction(1, 2)
    coords: List[Tuple[MinPlusTerm, ...]] = [()] * dim
    for i in [*range(1, n1 - 1), *range(n1 + 1, n1 + n2 - 1)]:
        coords[i] = (_term(a[i - 1], [(i - 1, 1)]), _term(1 - a[i], [(i + 1, 1)]))
    cross = [(entry1, half), (entry2, half)]
    coords[exit1] = (_term(a[entry1], cross), _term(1 - a[exit1], [(1 % n1, 1)]))
    coords[exit2] = (_term(a[entry2], cross), _term(1 - a[exit2], [(n1 + (1 % n2), 1)]))
    upstream = {e: _term(a[e - 1], [(e - 1, 1)]) for e in (entry1, entry2)}
    if policy == "priority":
        free1 = _term(1 - a[entry1], [(exit1, 1), (exit2, 1), (entry2, -1)])
        coords[entry1] = (free1, upstream[entry1])
        coords[entry2] = (upstream[entry2],)
        return CrossingMap(dim, tuple(coords), entry1, entry2, exit1, exit2, 1 - a[entry2])
    # fifty-fifty entries average the free-space constraint over the exits:
    # x' = (abar + exit1 + exit2) / 2 keeps the exponent sum at one
    exits = [(exit1, half), (exit2, half)]
    for e in (entry1, entry2):
        coords[e] = (_term(Fraction(1 - a[e], 2), exits), upstream[e])
    return HomogeneousMap(dim, tuple(coords))


def spread_cars(cells: int, cars: int) -> List[int]:
    """Evenly spread car positions (deterministic rounding)."""
    if not 0 <= cars <= cells:
        raise BadConfig("car count outside 0..cells")
    return [i for i in range(cells) if (i + 1) * cars // cells - i * cars // cells]


def fundamental_diagram(
    builder: Callable[[Rat], Tuple[object, Sequence[Rat]]],
    densities: Sequence[Rat],
    steps: int = 4000,
) -> List[Tuple[Rat, Optional[Rat]]]:
    """Sweep densities; builder(rho) -> (map, x0); records (rho, throughput).

    A density the builder rejects with BadConfig (not realizable on the
    network) and a Diverged run (spread above `DEFAULT_SPREAD_BOUND`) both
    record None for that density instead of aborting the sweep.
    """
    out: List[Tuple[Rat, Optional[Rat]]] = []
    for rho in densities:
        rho = Fraction(rho)
        try:
            f, x0 = builder(rho)
            _, lam = hom_iterate(f, x0, steps)
        except (BadConfig, Diverged):
            lam = None
        out.append((rho, lam))
    return out


def single_road_builder(m: int) -> Callable[[Rat], Tuple[HomogeneousMap, List[Rat]]]:
    """builder(rho) for one circular road with evenly spread cars."""

    def build(rho: Rat) -> Tuple[HomogeneousMap, List[Rat]]:
        cars = Fraction(rho) * m
        if cars.denominator != 1:
            raise BadConfig(f"density {rho} is not realizable on {m} cells")
        occ = [0] * m
        for c in spread_cars(m, int(cars)):
            occ[c] = 1
        return road_event_graph(occ), [Fraction(0)] * m

    return build


def crossing_builder(
    n: int, policy: str = "priority"
) -> Callable[[Rat], Tuple[HomogeneousMap, List[Rat]]]:
    """builder(rho) for two symmetric n-cell roads through one crossing.

    Cars are split evenly between the roads and spread evenly along each.
    """

    def build(rho: Rat) -> Tuple[HomogeneousMap, List[Rat]]:
        total = Fraction(rho) * (2 * n)
        if total.denominator != 1:
            raise BadConfig(f"density {rho} is not realizable on {2 * n} places")
        cars = int(total)
        c1 = cars // 2
        c2 = cars - c1
        if max(c1, c2) > n - 1:
            raise BadConfig("too many cars: the crossing places start empty")
        # cars start on ordinary road cells; a preloaded junction would
        # pipeline it forever and erase the saturated phase
        pos = [p for p in spread_cars(n - 1, c1)] + [n + p for p in spread_cars(n - 1, c2)]
        return build_crossing(n, n, pos, policy), [Fraction(0)] * (2 * n)

    return build


# ---------------------------------------------------------------------------
# T1H systems
# ---------------------------------------------------------------------------


def _zero_homogeneous(t: MinPlusTerm) -> MinPlusTerm:
    if sum(e for _, e in t.exponents) != 0:
        raise ValueError("control-matrix terms must be 0-homogeneous in u")
    return t


def uterm(constant, exponents) -> MinPlusTerm:
    """A control-matrix term: dense exponents in u that sum to zero."""
    return _zero_homogeneous(term(constant, exponents))


UEntry = Optional[Tuple[MinPlusTerm, ...]]


@dataclass(frozen=True)
class UTermMatrix:
    """Matrix whose entries are min-combined 0-homogeneous terms in u."""

    rows: int
    cols: int
    udim: int
    entries: Tuple[Tuple[UEntry, ...], ...]

    def __post_init__(self):
        if any(entry == () for row in self.entries for entry in row):
            raise ValueError("an entry needs at least one term; None stands for no edge")
        terms = [t for row in self.entries for entry in row if entry for t in entry]
        if any(not 0 <= i < self.udim for t in terms for i, _ in t.exponents):
            raise DimensionMismatch(f"control term index outside 0..{self.udim - 1}")
        for t in terms:
            _zero_homogeneous(t)

    def eval(self, u: Sequence[Rat]) -> TropMatrix:
        rows = [[None if e is None else min(t.eval(u) for t in e) for e in row] for row in self.entries]
        return matrix(rows, MIN_PLUS)


def uterm_matrix(udim: int, rows: Sequence[Sequence[object]]) -> UTermMatrix:
    """Entries: None (no edge), a constant, a MinPlusTerm or an iterable of them."""
    norm: List[Tuple[UEntry, ...]] = []
    for row in rows:
        out_row: List[UEntry] = []
        for entry in row:
            if entry is None:
                out_row.append(None)
            elif isinstance(entry, MinPlusTerm):
                out_row.append((entry,))
            elif isinstance(entry, (int, Fraction)):
                out_row.append((_term(entry, ()),))
            else:
                out_row.append(tuple(entry))
        norm.append(tuple(out_row))
    return UTermMatrix(len(norm), len(norm[0]), udim, tuple(norm))


@dataclass(frozen=True)
class T1HSystem:
    """u_{k+1} = C u_k (min-plus linear); x_{k+1} = A(u_k) x_k + B(u_k) u_k."""

    c: TropMatrix
    a_of_u: UTermMatrix
    b_of_u: Optional[UTermMatrix]
    u0: Tuple[Rat, ...]
    x0: Tuple[Rat, ...]

    def __post_init__(self):
        if self.c.tag is not MIN_PLUS:
            raise ValueError("the control layer is min-plus linear")
        if self.c.rows != self.c.cols or self.c.rows != len(self.u0):
            raise DimensionMismatch("control matrix and u0 disagree")
        if self.a_of_u.rows != self.a_of_u.cols or self.a_of_u.rows != len(self.x0):
            raise DimensionMismatch("state matrix and x0 disagree")
        if self.b_of_u and (self.b_of_u.rows, self.b_of_u.cols) != (len(self.x0), len(self.u0)):
            raise DimensionMismatch("input matrix disagrees with x0 and u0")
        if any(m and m.udim != len(self.u0) for m in (self.a_of_u, self.b_of_u)):
            raise DimensionMismatch("control-matrix udim disagrees with u0")


@dataclass(frozen=True)
class PeriodReport:
    start: int
    period: int
    gain: Tuple[Rat, ...]


def _plus_coordinate(t: MinPlusTerm, i: int) -> MinPlusTerm:
    """The term t + x_i, merged with any x_i exponent t already has.

    A new exponent stays the int 1: this term only feeds the integer compile.
    """
    exps = dict(t.exponents)
    exps[i] = exps.get(i, 0) + 1
    return MinPlusTerm(t.constant, tuple(sorted((j, e) for j, e in exps.items() if e)))


def _t1h_map(system: T1HSystem) -> HomogeneousMap:
    """The pair (u, x) as one degree-one homogeneous map on udim + xdim coordinates.

    Entry c_ij becomes the term c_ij + u_j, a term t of A(u) entry (r, j)
    becomes t + x_j and one of B(u) entry (r, j) becomes t + u_j; control
    terms are 0-homogeneous, so every compiled term has exponent sum one.
    """
    udim = len(system.u0)
    c = uterm_matrix(udim, system.c.payload)
    layers = (("control", [(c, 0)]), ("state", [(system.a_of_u, udim), (system.b_of_u, 0)]))
    coords = []
    for name, blocks in layers:
        for r in range(blocks[0][0].rows):
            terms = tuple(
                _plus_coordinate(t, offset + j)
                for m, offset in blocks if m is not None
                for j, entry in enumerate(m.entries[r]) if entry for t in entry
            )
            if not terms:
                raise Diverged(f"{name} coordinate {r} has no input")
            coords.append(terms)
    return HomogeneousMap(udim + len(system.x0), tuple(coords))


def t1h_simulate(system: T1HSystem, k: int):
    """Iterate the triangular system; returns trajectories, periodicity, rates.

    The u-orbit of a min-plus linear layer is eventually periodic after
    normalization; the report holds the first repeat found within
    `PERIOD_DETECT_WINDOW` steps, or None. Once the orbit is periodic, the
    matrices A(u_k) repeat with the period and the state behaves as a
    linear periodic system. Returned flow rates
    are per-coordinate second-half growth rates of x. The pair (u, x) steps
    as one homogeneous map on integer numerators over a shared denominator.
    """
    if k < 2:
        raise ValueError("need at least two steps")
    f = _t1h_map(system)
    udim = len(system.u0)
    Y, D = _scale_in([*system.u0, *system.x0])
    point = _Points()
    u_traj = [point(Y[:udim], D)]
    x_traj = [point(Y[udim:], D)]
    seen: Dict[Tuple[Rat, ...], int] = {}
    report: Optional[PeriodReport] = None
    for step in range(k):
        if report is None and step <= PERIOD_DETECT_WINDOW:
            u = u_traj[step]
            norm = tuple(v - u[0] for v in u)
            if norm in seen:
                start = seen[norm]
                period = step - start
                gain = tuple((u[i] - u_traj[start][i]) / period for i in range(udim))
                report = PeriodReport(start, period, gain)
            else:
                seen[norm] = step
        Y, D = _reduced(*f.step(Y, D))
        u_traj.append(point(Y[:udim], D))
        x_traj.append(point(Y[udim:], D))
    rates = coordinate_rates(x_traj)
    return u_traj, x_traj, report, rates


def traffic_light_system(
    n_vertical: int,
    n_horizontal: int,
    cars_vertical: Sequence[int],
    cars_horizontal: Sequence[int],
    phase_tokens: Sequence[int] = (1, 0, 0, 0),
) -> T1HSystem:
    """Crossing with a four-phase traffic light and no turning.

    The light is the autonomous min-plus counter system u_{k+1} = C u_k
    with one token travelling through the four phase places; with the
    default single token and u0 = 0 the gate markings
    a0(k) = 1 + u1 - u2 and b0(k) = u3 - u4 cycle through
    (1,0), (0,0), (0,1), (0,0). Each road is a circular event graph whose
    junction cell carries the 0-homogeneous gate entry a0 u1/u2
    (resp. b0 u3/u4) on the diagonal.
    """
    phi = [Fraction(p) for p in phase_tokens]
    if len(phi) != 4:
        raise BadConfig("four phase places are required")
    inf = "+inf"
    c = matrix(
        [
            [inf, inf, inf, phi[3]],
            [phi[0], inf, inf, inf],
            [inf, phi[1], inf, inf],
            [inf, inf, phi[2], inf],
        ],
        MIN_PLUS,
    )
    occ_v = _occupancy_from_cars(n_vertical, cars_vertical)
    occ_h = _occupancy_from_cars(n_horizontal, cars_horizontal)
    dim = n_vertical + n_horizontal

    def road_block(offset: int, cells: int, occ: List[int], gate: MinPlusTerm):
        rows: List[List[object]] = []
        for local in range(cells):
            row: List[object] = [None] * dim
            prev = offset + (local - 1) % cells
            nxt = offset + (local + 1) % cells
            row[prev] = occ[(local - 1) % cells]
            row[nxt] = min(1 - occ[local], row[nxt]) if isinstance(row[nxt], int) else 1 - occ[local]
            if local == cells - 1:
                row[offset + local] = gate
            rows.append(row)
        return rows

    gate_v = _term(1, [(0, 1), (1, -1)])
    gate_h = _term(0, [(2, 1), (3, -1)])
    rows = road_block(0, n_vertical, occ_v, gate_v) + road_block(
        n_vertical, n_horizontal, occ_h, gate_h
    )
    a_of_u = uterm_matrix(4, rows)
    return T1HSystem(
        c,
        a_of_u,
        None,
        tuple(Fraction(0) for _ in range(4)),
        tuple(Fraction(0) for _ in range(dim)),
    )


def light_gate_marking(system: T1HSystem, u: Sequence[Rat]) -> Tuple[Rat, Rat]:
    """The (a0, b0) token counts of the light at control state u."""
    u = [Fraction(v) for v in u]
    return (1 + u[0] - u[1], u[2] - u[3])


def four_phase_product(system: T1HSystem, road: str, n_vertical: int) -> TropMatrix:
    """Monodromy over one light cycle of the chosen road block.

    Returns A(u^3) A(u^2) A(u^1) A(u^0) restricted to the road's rows and
    columns; its min-plus eigenvalue over 4 equals the asymptotic flow.
    """
    dim = system.a_of_u.rows
    if road == "vertical":
        idx = range(n_vertical)
    elif road == "horizontal":
        idx = range(n_vertical, dim)
    else:
        raise ValueError("road must be vertical or horizontal")
    f = _t1h_map(system)
    udim = len(system.u0)
    Y, D = _scale_in([*system.u0, *system.x0])
    mats = []
    for _ in range(4):
        a = system.a_of_u.eval(_fractions(Y[:udim], D)).payload
        mats.append(matrix([[a[i][j] for j in idx] for i in idx], MIN_PLUS))
        Y, D = _reduced(*f.step(Y, D))
    prod = mats[3]
    for m in (mats[2], mats[1], mats[0]):
        prod = mat_mul(prod, m)
    return prod
