"""Degree-one homogeneous min-plus dynamics and traffic models.

Covers the exclusion process on a ring, its min-plus linear event-graph
counterpart, general degree-one homogeneous iteration with throughput
measurement, the eigenproblem reduction to a fixed point, the tent-map
chaotic system, two roads through one crossing (priority or fifty-fifty
completion), fundamental-diagram sweeps, and triangular one-homogeneous
(T1H) systems with a min-plus linear light-control layer.

Every branch of a homogeneous map, and every entry of a T1H control
matrix, is one `MinPlusTerm`: a constant plus a sparse sum of exponent
times coordinate, so a road step costs O(m). T1H steps evaluate A(u) and
B(u) to raw payload rows and apply them without boxing a matrix.

Everything runs in exact rational arithmetic: binary floating point would
collapse tent orbits onto the fixed point and blur the exact plateau
values the models predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import BadConfig, DimensionMismatch, Diverged
from .semiring import MIN_PLUS
from .tropmat import TropMatrix, mat_mul, matrix

Rat = Fraction
DEFAULT_SPREAD_BOUND = Fraction(10**6)


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


@dataclass(frozen=True)
class MinPlusTerm:
    """constant + sum of e * x_i over the sparse exponent pairs (i, e).

    `exponents` is a tuple of (index, coefficient) pairs sorted by index,
    every coefficient nonzero; one branch of a min.
    """

    constant: Rat
    exponents: Tuple[Tuple[int, Rat], ...]

    def eval(self, x: Sequence[Rat]) -> Rat:
        acc = self.constant
        for i, e in self.exponents:
            acc += e * x[i]
        return acc


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

    def __call__(self, x: Sequence[Rat]) -> List[Rat]:
        if len(x) != self.dim:
            raise DimensionMismatch("point dimension differs from map dimension")
        return [min([t.eval(x) for t in terms]) for terms in self.coords]

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

    The estimate is (x_i^K - x_i^{K/2}) / (K - K/2) averaged over the
    coordinates; for a min-plus linear f it equals the matrix eigenvalue
    exactly once K/2 clears the transient and the span covers whole
    periods. Raises Diverged when coordinate spread explodes.
    """
    if k < 2:
        raise ValueError("need at least two steps")
    x = [Fraction(v) for v in x0]
    traj = [list(x)]
    for _ in range(k):
        x = [Fraction(v) for v in f(x)]
        if max(x) - min(x) > spread_bound:
            raise Diverged("coordinate spread exceeded the configured bound")
        traj.append(list(x))
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
    p, q = y.numerator, y.denominator
    nums = [p]
    for _ in range(k):
        p = min(2 * p, 2 * q - 2 * p)
        nums.append(p)
    hist: Optional[List[int]] = None
    if bins is not None:
        hist = [0] * bins
        for n in nums:
            hist[min(n * bins // q, bins - 1)] += 1
    return [Fraction(n, q) for n in nums], hist


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
class CrossingMap:
    """Two circular roads through one crossing, with right priority.

    Roads occupy coordinates 0..n1-1 and n1..n1+n2-1, the crossing places
    are the last cell of each road, and the exits are the first cells. The
    priority completion divides by the other road's entry counter; the
    non-priority entry reads the priority entry's current-step value, which
    is what makes the map sequential (still degree-one homogeneous). Exits
    split the crossing output evenly (square root, i.e. half-exponents).
    """

    n1: int
    n2: int
    occupancy: Tuple[int, ...]

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise BadConfig("each road needs at least two cells")
        if len(self.occupancy) != self.n1 + self.n2:
            raise BadConfig("occupancy length differs from total places")

    @property
    def dim(self) -> int:
        return self.n1 + self.n2

    def __call__(self, x: Sequence[Rat]) -> List[Rat]:
        n1, n2 = self.n1, self.n2
        a = self.occupancy
        exit1, exit2 = 0, n1
        entry1, entry2 = n1 - 1, n1 + n2 - 1
        half = Fraction(1, 2)
        out: List[Optional[Rat]] = [None] * (n1 + n2)

        def road_cell(i: int, prev: int, nxt: int) -> Rat:
            return min(a[prev] + x[prev], (1 - a[i]) + x[nxt])

        for i in range(1, n1 - 1):
            out[i] = road_cell(i, i - 1, i + 1)
        for idx in range(n1 + 1, n1 + n2 - 1):
            out[idx] = road_cell(idx, idx - 1, idx + 1)
        cross_out = half * (x[entry1] + x[entry2])
        out[exit1] = min(a[entry1] + cross_out, (1 - a[exit1]) + x[1 % n1])
        out[exit2] = min(a[entry2] + cross_out, (1 - a[exit2]) + x[n1 + (1 % n2)])
        out[entry1] = min(
            (1 - a[entry1]) + x[exit1] + x[exit2] - x[entry2],
            a[entry1 - 1] + x[entry1 - 1],
        )
        out[entry2] = min(
            (1 - a[entry2]) + x[exit1] + x[exit2] - out[entry1],
            a[entry2 - 1] + x[entry2 - 1],
        )
        return [Fraction(v) for v in out]


def build_crossing(
    n_road1: int,
    n_road2: int,
    cars: Sequence[int],
    policy: str = "priority",
):
    """Degree-one homogeneous map of the two-roads-one-crossing system.

    policy "priority": the displayed sequential system with division terms.
    policy "fifty_fifty": the routing completion where both the entries and
    the exits use half-exponent (square-root) terms, a plain HomogeneousMap.
    """
    occ = _occupancy_from_cars(n_road1 + n_road2, cars)
    if policy == "priority":
        return CrossingMap(n_road1, n_road2, tuple(occ))
    if policy != "fifty_fifty":
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
    # fifty-fifty entries average the free-space constraint over the exits:
    # x' = (abar + exit1 + exit2) / 2 keeps the exponent sum at one
    exits = [(exit1, half), (exit2, half)]
    coords[entry1] = (
        _term(Fraction(1 - a[entry1], 2), exits),
        _term(a[entry1 - 1], [(entry1 - 1, 1)]),
    )
    coords[entry2] = (
        _term(Fraction(1 - a[entry2], 2), exits),
        _term(a[entry2 - 1], [(entry2 - 1, 1)]),
    )
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
    spread_bound: Rat = DEFAULT_SPREAD_BOUND,
) -> List[Tuple[Rat, Optional[Rat]]]:
    """Sweep densities; builder(rho) -> (map, x0); records (rho, throughput).

    A Diverged run records None for its density instead of aborting the
    sweep.
    """
    out: List[Tuple[Rat, Optional[Rat]]] = []
    for rho in densities:
        rho = Fraction(rho)
        f, x0 = builder(rho)
        try:
            _, lam = hom_iterate(f, x0, steps, spread_bound)
            out.append((rho, lam))
        except Diverged:
            out.append((rho, None))
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
) -> Callable[[Rat], Tuple[object, List[Rat]]]:
    """builder(rho) for two symmetric n-cell roads through one crossing.

    Cars are split evenly between the roads and spread evenly along each.
    """

    def build(rho: Rat) -> Tuple[object, List[Rat]]:
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


def uterm(constant, exponents) -> MinPlusTerm:
    """A control-matrix term: dense exponents in u that sum to zero."""
    t = term(constant, exponents)
    if sum(e for _, e in t.exponents) != 0:
        raise ValueError("control-matrix terms must be 0-homogeneous in u")
    return t


UEntry = Optional[Tuple[MinPlusTerm, ...]]


@dataclass(frozen=True)
class UTermMatrix:
    """Matrix whose entries are min-combined 0-homogeneous terms in u."""

    rows: int
    cols: int
    udim: int
    entries: Tuple[Tuple[UEntry, ...], ...]

    def __post_init__(self):
        terms = (t for row in self.entries for entry in row if entry for t in entry)
        if any(not 0 <= i < self.udim for t in terms for i, _ in t.exponents):
            raise DimensionMismatch(f"control term index outside 0..{self.udim - 1}")

    def _payload_at(self, u: Sequence[Rat]) -> List[List[Optional[Rat]]]:
        """Min-plus payload rows at u, None standing for +inf."""
        return [
            [None if entry is None else min([t.eval(u) for t in entry]) for entry in row]
            for row in self.entries
        ]

    def eval(self, u: Sequence[Rat]) -> TropMatrix:
        return matrix(self._payload_at(u), MIN_PLUS)


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


def _min_plus_apply(rows: Sequence[Sequence[Optional[Rat]]], v: Sequence[Rat]) -> List[Rat]:
    """Min-plus product of raw payload rows (None = +inf) with a finite vector."""
    out = []
    for i, row in enumerate(rows):
        sums = [a + b for a, b in zip(row, v) if a is not None]
        if not sums:
            raise Diverged(f"state coordinate {i} has no input")
        out.append(min(sums))
    return out


def t1h_simulate(system: T1HSystem, k: int, detect_window: int = 64):
    """Iterate the triangular system; returns trajectories, periodicity, rates.

    The u-orbit of a min-plus linear layer is eventually periodic after
    normalization; once it is, the matrices A(u_k) repeat with the period
    and the state behaves as a linear periodic system. Returned flow rates
    are per-coordinate second-half growth rates of x.
    """
    if k < 2:
        raise ValueError("need at least two steps")
    u = [Fraction(v) for v in system.u0]
    x = [Fraction(v) for v in system.x0]
    u_traj = [list(u)]
    x_traj = [list(x)]
    seen: Dict[Tuple[Rat, ...], int] = {}
    report: Optional[PeriodReport] = None
    for step in range(k):
        if report is None and step <= detect_window:
            norm = tuple(v - u[0] for v in u)
            if norm in seen:
                start = seen[norm]
                period = step - start
                gain = tuple(
                    (u_traj[step][i] - u_traj[start][i]) / period for i in range(len(u))
                )
                report = PeriodReport(start, period, gain)
            else:
                seen[norm] = step
        new_x = _min_plus_apply(system.a_of_u._payload_at(u), x)
        if system.b_of_u is not None:
            bu = _min_plus_apply(system.b_of_u._payload_at(u), u)
            new_x = [min(p, q) for p, q in zip(new_x, bu)]
        u = _min_plus_apply(system.c.payload, u)
        x = new_x
        u_traj.append(list(u))
        x_traj.append(list(x))
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
    u = [Fraction(v) for v in system.u0]
    mats = []
    for _ in range(4):
        full = system.a_of_u._payload_at(u)
        mats.append(matrix([[full[i][j] for j in idx] for i in idx], MIN_PLUS))
        u = _min_plus_apply(system.c.payload, u)
    prod = mats[3]
    for m in (mats[2], mats[1], mats[0]):
        prod = mat_mul(prod, m)
    return prod
