"""Degree-one homogeneous min-plus dynamics and traffic models.

Covers the exclusion process on a ring, its min-plus linear event-graph
counterpart, general degree-one homogeneous iteration with throughput
measurement, the eigenproblem reduction to a fixed point, the tent-map
chaotic system, two roads through one crossing (priority or fifty-fifty
completion), fundamental-diagram sweeps, and triangular one-homogeneous
(T1H) systems with a min-plus linear light-control layer.

Every branch of a homogeneous map, and every entry of a T1H control
matrix, is one `MinPlusTerm`: a constant plus a sparse sum of exponent
times coordinate, so a road step costs O(m). A `UTermMatrix`'s shape is
its table's, and an empty or ragged table raises DimensionMismatch.

Caller values enter through `semiring._rational`, and every model steps on
integer numerators X over one denominator D from `semiring._scaled`. A map
is compiled once to integer terms scaled by L, and one step sends X / D to
X' / (D L) with integer min and plus only (L = 1 for roads and the light,
2 for both crossings), in one loop over a flat list of every coordinate's
terms; each compiled term keeps its first exponent pair flat, since most
terms have only one. Iterations divide out gcd(D, X) after each step. Every
value a function here returns is a canonical payload: an int exactly when
it is integral, else a `Fraction`, never a float. A run that returns its
k + 1 points holds them in one form, their integer numerators ("keys")
over M, the lcm of the run's stepped denominators (`_keys`): the T1H
period report is read from the keys in integer arithmetic, and `_points`
turns them into values, a point over M = 1 being its key list itself and
every other value coming from one table per run keyed by its key, so each
distinct value becomes a payload once per run. A throughput is read from
the key sums of the stepped states alone (`_throughput`), so
`fundamental_diagram`, which keeps only throughputs, builds no points.
Quotients (rates, throughputs, gains, densities) are exact canonical
ratios, not true division. `HomogeneousMap.step` is the one integer kernel
of every model but the tent, whose scalar orbit runs on its own
numerators, and `_orbit` is the one loop that iterates it.

`_orbit` and the tent's loop stop stepping once the orbit is periodic.
`_orbit` works on shift blocks, a partition of the coordinates such that
f(x + sum_b sigma_b 1_b) = f(x) + sum_b sigma_b 1_b: once x_t - x_s is
constant on every block for some s < t, every later point is a shift of an
earlier one. Every map `HomogeneousMap.__post_init__` accepts is degree-one,
and so is the `CrossingMap` patch, so roads and crossings are one block and
a repeat is x_t = x_s + sigma 1. A T1H system is compiled once to one
`HomogeneousMap` on the concatenated state (u, x) and its blocks: the light
u, and each connected component of the state coupling of A(u), a component
fed by B(u) joining u's block, so the light and each road may advance at
their own rates. `_orbit` tests each new state exactly against the earlier
states with the same reduced denominator, and `_keys` builds the rest of
the k + 1 points from the cycle, each the keys of the point one cycle
earlier plus the integer shift of one turn. On one block the spread
max(x) - min(x) is shift-invariant, so a spread bound is tested on the
stepped states only. The tent orbit stops at its first repeated numerator
and tiles the cycle. The cyclicity of max-plus linear maps
(Baccelli, Cohen, Olsder & Quadrat, 1992) says linear orbits do repeat; the
test on each run needs no such theorem for the nonlinear crossings. Both
crossing policies are built from one geometry; the priority `CrossingMap` is
a `HomogeneousMap` whose step patches the non-priority entry with the
priority entry's current-step value, the one sequential read of the model.

Everything is exact: binary floating point would collapse tent orbits onto
the fixed point and blur the exact plateau values the models predict.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import add, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import BadConfig, DimensionMismatch, Diverged
from .semiring import MIN_PLUS, _canonical, _rational, _record, _scaled, _unscaled
from .tropmat import TropMatrix, mat_mul, matrix

Rat = Union[int, Fraction]  # a canonical payload: an int exactly when integral
DEFAULT_SPREAD_BOUND = 10**6


def _ratio(a: Rat, b: int) -> Rat:
    """a / b as a canonical payload, for a nonzero int b."""
    return _canonical(Fraction(a, b))


# ---------------------------------------------------------------------------
# exclusion process
# ---------------------------------------------------------------------------


@_record
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
        return _ratio(self.cars, self.length)


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
        flows.append(_ratio(moved, w.length))
    return traj, flows


# ---------------------------------------------------------------------------
# homogeneous min-plus maps
# ---------------------------------------------------------------------------


# a compiled term: coordinate r, constant C, first exponent pair (i, E), the other pairs
IntTerm = Tuple[int, int, int, int, Tuple[Tuple[int, int], ...]]


def _reduced(X: List[int], D: int) -> Tuple[List[int], int]:
    """X / D with gcd(D, *X) divided out."""
    if D == 1:
        return X, D
    g = math.gcd(D, *X)
    if g == 1:
        return X, D
    return [v // g for v in X], D // g


class _Values(dict):
    """One run's value table: a key (a numerator over the run's denominator
    lcm M) -> its canonical payload, each distinct value of the run built once.

    Trajectory points repeat their values heavily (a 450-step priority
    crossing run holds 9,020 entries but 228 distinct values), and building
    a `Fraction` costs far more than a dict lookup. Fractions are immutable,
    so points may share them.
    """

    def __init__(self, M: int):
        super().__init__()
        self.M = M

    def __missing__(self, key: int) -> Rat:
        value = self[key] = _unscaled(key, self.M)
        return value


State = Tuple[List[int], int]  # a point x = X / D as its numerators X and denominator D


def _orbit(f, x0: Sequence[Rat], k: int, bound: Optional[Rat] = None,
           blocks: Optional[Sequence[Sequence[int]]] = None) -> Tuple[List[State], Optional[int]]:
    """(states, s): x0 and its images under f's integer `step` up to the
    first repeat, each as (X, D) with x = X / D and gcd(D, *X) = 1.

    `blocks` partitions the coordinates into shift blocks, one block when it
    is None, and f must commute with a shift on each block:
    f(x + sum_b sigma_b 1_b) = f(x) + sum_b sigma_b 1_b for all rationals
    sigma_b. A min of terms does so when every term has exponent sum 1 on its
    own coordinate's block and 0 on every other. Every map
    `HomogeneousMap.__post_init__` accepts does so on one block, and so does
    the `CrossingMap` patch; `_t1h_map` finds a T1H system's blocks. So once
    x_t - x_s is constant on each block for an earlier s, every later point
    is x_{j-c} + (x_t - x_s) with c = t - s, and the loop stops stepping
    there: states ends with x_t and s is the cycle start (`_keys` builds the
    later points). Without a repeat in k steps, states holds all k + 1
    points and s is None.

    The repeat test is exact: an earlier state with the same reduced D and
    the same X less its block's first coordinate on every block. States are
    indexed by the sum of that shape and its last coordinate first, and
    (D, shape) is built and compared only where that key recurs, so a step
    that finds no repeat mostly costs one sum and one dict lookup.

    With a `bound`, a stepped state whose spread max(x) - min(x) exceeds it
    raises Diverged. On one block the spread is shift-invariant and every
    cycle point has the spread of a stepped state, so the later points need
    no test; a bound is for one-block runs only.
    """
    X, D = _scaled(list(map(_rational, x0)))
    if len(X) != f.dim:  # `step` checks it too, but the repeat key reads X[0] before any step
        raise DimensionMismatch("point dimension differs from map dimension")
    blocks = blocks or [range(len(X))]
    anchors = [0] * len(X)  # coordinate -> the first coordinate of its block
    for block in blocks:
        for i in block:
            anchors[i] = block[0]
    (a0, n0), *others = [(block[0], len(block)) for block in blocks]
    last = anchors[-1]

    def shape(X: List[int]) -> Tuple[int, ...]:
        return tuple([v - X[a] for v, a in zip(X, anchors)])

    states: List[State] = []
    first: Dict[Tuple[int, int], int] = {}  # (sum of the shape, its last coordinate) -> its first step
    shapes: Dict[Tuple[int, int], Dict[Tuple[int, Tuple[int, ...]], int]] = {}  # that key -> {(D, shape): step}
    for t in range(k + 1):
        if t:
            X, D = _reduced(*f.step(X, D))
            # max(x) - min(x) > bound for x = X / D, cross-multiplied
            if bound is not None and (max(X) - min(X)) * bound.denominator > bound.numerator * D:
                raise Diverged("coordinate spread exceeded the configured bound")
        states.append((X, D))
        key = (sum(X) - n0 * X[a0] - sum([n * X[a] for a, n in others]), X[-1] - X[last])
        s = first.setdefault(key, t)
        if s != t:
            if key not in shapes:
                shapes[key] = {(states[s][1], shape(states[s][0])): s}
            s = shapes[key].setdefault((D, shape(X)), t)
            if s != t:
                return states, s
    return states, None


def _keys(states: List[State], s: Optional[int], k: int) -> Tuple[int, List[List[int]]]:
    """(M, keys): all k + 1 points of the orbit `_orbit` returned as
    (states, s), each as its integer numerators ("keys") over M, the lcm of
    the stepped denominators.

    A stepped state X / D is rescaled to M by M / D. Past the repeat t,
    point j is keys[j - c] + sigma, with c = t - s and sigma = keys[t] - keys[s].
    """
    M = math.lcm(*{D for _, D in states})
    keys = [X if D == M else list(map((M // D).__mul__, X)) for X, D in states]
    t = len(states) - 1
    if t < k:
        c, sigma = t - s, list(map(sub, keys[t], keys[s]))
        for j in range(t + 1, k + 1):
            keys.append(list(map(add, keys[j - c], sigma)))
    return M, keys


def _throughput(states: List[State], s: Optional[int], k: int) -> Rat:
    """`hom_iterate`'s estimate, the mean of the coordinate rates
    (x_k - x_{k/2}) / (k - k/2), for the orbit `_orbit` returned as
    (states, s).

    Only two point sums are read, and neither needs `_keys`' tiling: past
    the repeat t, point j is the stepped point j - r c plus r shifts
    x_t - x_s, with c = t - s and r = ceil((j - t) / c). The sums are taken
    over the lcm L of the at most four denominators they read."""
    t = len(states) - 1

    def at(j: int) -> Tuple[int, int]:
        # (the stepped state of point j, the cycle turns it lies past)
        if j <= t:
            return j, 0
        r = -(-(j - t) // (t - s))
        return j - r * (t - s), r

    (a, ra), (b, rb) = at(k), at(k // 2)
    read = (a, b, t, s) if ra or rb else (a, b)
    L = math.lcm(*{states[i][1] for i in read})

    def key_sum(i: int) -> int:
        X, D = states[i]
        return sum(X) * (L // D)

    diff = key_sum(a) - key_sum(b)
    if ra or rb:
        diff += (ra - rb) * (key_sum(t) - key_sum(s))
    return _ratio(diff, L * (k - k // 2) * len(states[0][0]))


def _points(M: int, keys: List[List[int]]) -> List[List[Rat]]:
    """The points keys / M, each a list of canonical payloads. Over M = 1 a
    point is its key list itself; otherwise every value is drawn from one
    `_Values` table for the run."""
    if M == 1:
        return keys
    get = _Values(M).__getitem__
    return [list(map(get, K)) for K in keys]


@_record
class MinPlusTerm:
    """constant + sum of e * x_i over the sparse exponent pairs (i, e).

    `exponents` is a tuple of (index, coefficient) pairs sorted by index,
    every coefficient nonzero; one branch of a min. The constructor reads
    the constant and each coefficient once through `semiring._rational`,
    then drops the zero coefficients and sorts the pairs by index.
    """

    constant: Rat
    exponents: Tuple[Tuple[int, Rat], ...]

    def __init__(self, constant, exponents):
        fields = self.__dict__  # written directly: the record is frozen
        fields["constant"] = _rational(constant)
        exps = ((i, _rational(e)) for i, e in exponents)
        fields["exponents"] = tuple(sorted((i, e) for i, e in exps if e))

    def eval(self, x: Sequence[Rat]) -> Rat:
        return _canonical(self.constant + sum(e * _rational(x[i]) for i, e in self.exponents))


def term(constant, exponents) -> MinPlusTerm:
    """The term with a dense exponent sequence, stored sparsely."""
    return MinPlusTerm(constant, enumerate(exponents))


@_record
class HomogeneousMap:
    """Per-coordinate min over affine terms whose exponents sum to one."""

    dim: int
    coords: Tuple[Tuple[MinPlusTerm, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("a map needs at least one coordinate")
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
    def _compiled(self) -> Tuple[int, Tuple[IntTerm, ...]]:
        """(L, terms): every term's constant C and exponents E scaled to
        integers by one `_scaled` call; at x = X / D a term is (C D + sum E X_i) / (D L).
        One flat tuple holds the terms of every coordinate, in coordinate
        order, each as (r, C, i, E, rest): its coordinate r, its first
        exponent pair flat (every degree-one term has one) and the other
        pairs, usually none, as a tuple."""
        flat = [(r, t) for r, terms in enumerate(self.coords) for t in terms]
        ints, L = _scaled([t.constant for _, t in flat] + [e for _, t in flat for _, e in t.exponents])
        consts, exps = iter(ints[:len(flat)]), iter(ints[len(flat):])
        return L, tuple([
            (r, next(consts), t.exponents[0][0], next(exps),
             tuple([(j, next(exps)) for j, _ in t.exponents[1:]]) if len(t.exponents) > 1 else ())
            for r, t in flat
        ])

    def step(self, X: Sequence[int], D: int) -> Tuple[List[int], int]:
        """One step on integer numerators: the point X / D maps to X' / (D L)."""
        if len(X) != self.dim:
            raise DimensionMismatch("point dimension differs from map dimension")
        L, terms = self._compiled
        out: List[Optional[int]] = [None] * self.dim
        for r, C, i, E, rest in terms:
            v = C * D + E * X[i]
            if rest:
                for j, F in rest:
                    v += F * X[j]
            best = out[r]
            if best is None or v < best:
                out[r] = v
        return out, D * L

    def __call__(self, x: Sequence[Rat]) -> List[Rat]:
        X, D = self.step(*_scaled(list(map(_rational, x))))
        return [_unscaled(v, D) for v in X]

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


def road_event_graph(occupancy: Sequence[int]) -> HomogeneousMap:
    """Min-plus linear event graph of a circular road.

    Coordinate i advances by min(a_{i-1} + x_{i-1}, (1 - a_i) + x_{i+1});
    the matrix eigenvalue is min(n/m, (m-n)/m, 1/2) for n cars on m cells.
    """
    a = list(occupancy)
    m = len(a)
    if m < 2:
        raise BadConfig("need one occupancy bit per cell, at least two cells")
    if any(b not in (0, 1) for b in a):
        raise BadConfig("occupancies are 0/1")
    a = list(map(int, a))
    coords = tuple(
        (MinPlusTerm(a[i - 1], [((i - 1) % m, 1)]), MinPlusTerm(1 - a[i], [((i + 1) % m, 1)]))
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
    iteration runs on its integer `step` through `_orbit`, which stops
    stepping at the first exact repeat x_t = x_s + sigma 1 (f is degree-one,
    so every later point is a shift of an earlier one) and returns the same
    k + 1 points, each coordinate a canonical payload (an int exactly when
    integral). The estimate is (x_i^K - x_i^{K/2}) / (K - K/2) averaged over
    the coordinates, an exact canonical ratio; for a min-plus linear f it
    equals the matrix eigenvalue exactly once K/2 clears the transient and
    the span covers whole periods. Raises Diverged when the coordinate
    spread of a stepped state exceeds `spread_bound`; the spread is
    shift-invariant, so the points built as shifts of the cycle need no
    test, and a run that repeats before it diverges never diverges.
    """
    if k < 2:
        raise ValueError("need at least two steps")
    states, s = _orbit(f, x0, k, _rational(spread_bound))
    lam = _throughput(states, s, k)
    M, keys = _keys(states, s, k)
    del states  # freed before the points are built, so the collector does not walk them
    return _points(M, keys), lam


def coordinate_rates(traj: List[List[Rat]]) -> List[Rat]:
    """Per-coordinate second-half growth rates of a trajectory, as exact
    canonical payloads: an int where the rate is integral. The two points
    read are exact rationals, each value read through `semiring._rational`."""
    k = len(traj) - 1
    half = k // 2
    span = k - half
    return [_ratio(_rational(b) - _rational(a), span) for a, b in zip(traj[half], traj[k])]


@_record
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
        return self.g(y) == list(map(_rational, y))


def eigen_reduce(f) -> EigenReduction:
    """Reduce the eigenproblem of a degree-one homogeneous map to y = g(y)."""
    dim = f.dim

    def g(y: Sequence[Rat]) -> List[Rat]:
        fx = f([0, *y])
        return [_canonical(fx[i] - fx[0]) for i in range(1, dim)]

    def lam(y: Sequence[Rat]) -> Rat:
        return f([0, *y])[0]

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
            (MinPlusTerm(0, [(0, 1)]),),
            (MinPlusTerm(0, [(0, -1), (1, 2)]), MinPlusTerm(2, [(0, 3), (1, -2)])),
        ),
    )


def _tent_cycle(
    y0: Rat, k: int, bins: Optional[int]
) -> Tuple[int, List[int], int, Optional[List[int]]]:
    """(q, nums, start, hist) of the k-step tent orbit of y0.

    nums are the numerators over q of the orbit's distinct points, up to its
    first repeated numerator or its k + 1 points, and the cycle is
    nums[start:]: point j > start is nums[start + (j - start) % len(cycle)].
    hist counts all k + 1 points from nums, each cycle point as often as the
    tiling repeats it; it is None when bins is None.
    """
    y = _rational(y0)
    if not 0 <= y <= 1:
        raise BadConfig("tent map runs on [0, 1]")
    if k < 1:
        raise ValueError("need at least one step")
    if bins is not None and bins < 1:
        raise ValueError("need at least one bin")
    p, q = y.numerator, y.denominator
    index: Dict[int, int] = {}  # numerator -> its first step, in step order
    for t in range(k + 1):
        if index.setdefault(p, t) != t:
            break
        p = 2 * p if 2 * p <= q else 2 * (q - p)
    nums = list(index)
    start = index.get(p, len(nums))
    hist: Optional[List[int]] = None
    if bins is not None:
        period = len(nums) - start
        hist = [0] * bins
        for i, n in enumerate(nums):
            hist[n * bins // q if n < q else bins - 1] += 1 if i < start else (k - i) // period + 1
    return q, nums, start, hist


def tent_trajectory(
    y0: Rat, k: int, bins: Optional[int] = None
) -> Tuple[List[Rat], Optional[List[int]]]:
    """Exact orbit of y -> min(2y, 2 - 2y) on [0, 1], with optional histogram.

    The map never grows the denominator q of y0, so the orbit runs on
    integer numerators over q: p -> min(2p, 2q - 2p). It stops stepping at
    the first repeated numerator, which is exact for a map of one variable,
    and the k + 1 points tile the cycle after the transient; the histogram
    is built from the transient's and the cycle's counts.
    """
    q, nums, start, hist = _tent_cycle(y0, k, bins)
    points = [Fraction(v, q) if v % q else v // q for v in nums]  # distinct values: no table
    cycle = points[start:]
    if cycle:
        turns, rest = divmod(k + 1 - start, len(cycle))
        points = points[:start] + cycle * turns + cycle[:rest]
    return points, hist


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


@_record
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
        coords[i] = (MinPlusTerm(a[i - 1], [(i - 1, 1)]), MinPlusTerm(1 - a[i], [(i + 1, 1)]))
    cross = [(entry1, half), (entry2, half)]
    coords[exit1] = (MinPlusTerm(a[entry1], cross), MinPlusTerm(1 - a[exit1], [(1 % n1, 1)]))
    coords[exit2] = (MinPlusTerm(a[entry2], cross), MinPlusTerm(1 - a[exit2], [(n1 + (1 % n2), 1)]))
    upstream = {e: MinPlusTerm(a[e - 1], [(e - 1, 1)]) for e in (entry1, entry2)}
    if policy == "priority":
        free1 = MinPlusTerm(1 - a[entry1], [(exit1, 1), (exit2, 1), (entry2, -1)])
        coords[entry1] = (free1, upstream[entry1])
        coords[entry2] = (upstream[entry2],)
        return CrossingMap(dim, tuple(coords), entry1, entry2, exit1, exit2, 1 - a[entry2])
    # fifty-fifty entries average the free-space constraint over the exits:
    # x' = (abar + exit1 + exit2) / 2 keeps the exponent sum at one
    exits = [(exit1, half), (exit2, half)]
    for e in (entry1, entry2):
        coords[e] = (MinPlusTerm(Fraction(1 - a[e], 2), exits), upstream[e])
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
    if steps < 2:
        raise ValueError("need at least two steps")
    out: List[Tuple[Rat, Optional[Rat]]] = []
    for rho in densities:
        rho = _rational(rho)
        try:
            f, x0 = builder(rho)
            lam = _throughput(*_orbit(f, x0, steps, DEFAULT_SPREAD_BOUND), steps)
        except (BadConfig, Diverged):
            lam = None
        out.append((rho, lam))
    return out


def single_road_builder(m: int) -> Callable[[Rat], Tuple[HomogeneousMap, List[Rat]]]:
    """builder(rho) for one circular road with evenly spread cars."""

    def build(rho: Rat) -> Tuple[HomogeneousMap, List[Rat]]:
        cars = _rational(rho) * m
        if cars.denominator != 1:
            raise BadConfig(f"density {rho} is not realizable on {m} cells")
        occ = _occupancy_from_cars(m, spread_cars(m, int(cars)))
        return road_event_graph(occ), [0] * m

    return build


def crossing_builder(
    n: int, policy: str = "priority"
) -> Callable[[Rat], Tuple[HomogeneousMap, List[Rat]]]:
    """builder(rho) for two symmetric n-cell roads through one crossing.

    Cars are split evenly between the roads and spread evenly along each.
    """

    def build(rho: Rat) -> Tuple[HomogeneousMap, List[Rat]]:
        total = _rational(rho) * (2 * n)
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
        return build_crossing(n, n, pos, policy), [0] * (2 * n)

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


@_record
class UTermMatrix:
    """Matrix whose entries are min-combined 0-homogeneous terms in u."""

    udim: int
    entries: Tuple[Tuple[UEntry, ...], ...]

    def __post_init__(self):
        if len({len(row) for row in self.entries}) != 1 or not self.entries[0]:
            raise DimensionMismatch("a control matrix needs a nonempty rectangular table")
        if any(entry == () for row in self.entries for entry in row):
            raise ValueError("an entry needs at least one term; None stands for no edge")
        terms = [t for row in self.entries for entry in row if entry for t in entry]
        if any(not 0 <= i < self.udim for t in terms for i, _ in t.exponents):
            raise DimensionMismatch(f"control term index outside 0..{self.udim - 1}")
        for t in terms:
            _zero_homogeneous(t)

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.entries), len(self.entries[0])

    def eval(self, u: Sequence[Rat]) -> TropMatrix:
        rows = [[None if e is None else min(t.eval(u) for t in e) for e in row] for row in self.entries]
        return matrix(rows, MIN_PLUS)


def _uentry(entry) -> UEntry:
    """None, or an entry's terms: a MinPlusTerm as it is, anything else as a constant."""
    if entry is None:
        return None
    terms = entry if isinstance(entry, (list, tuple)) else (entry,)
    return tuple(t if isinstance(t, MinPlusTerm) else MinPlusTerm(t, ()) for t in terms)


def uterm_matrix(udim: int, rows: Sequence[Sequence[object]]) -> UTermMatrix:
    """Entries: None (no edge), a term, or a list or tuple of terms, where a
    term is a MinPlusTerm or else a constant: an int, a Fraction or a "p/q"
    string (a float or a bool raises TypeError)."""
    return UTermMatrix(udim, tuple(tuple(map(_uentry, row)) for row in rows))


@_record
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
        if self.a_of_u.shape != (len(self.x0), len(self.x0)):
            raise DimensionMismatch("state matrix and x0 disagree")
        if self.b_of_u and self.b_of_u.shape != (len(self.x0), len(self.u0)):
            raise DimensionMismatch("input matrix disagrees with x0 and u0")
        if any(m and m.udim != len(self.u0) for m in (self.a_of_u, self.b_of_u)):
            raise DimensionMismatch("control-matrix udim disagrees with u0")

    @cached_property
    def _compiled(self) -> Tuple[HomogeneousMap, Optional[List[List[int]]]]:
        """The pair (u, x) as one homogeneous map and its shift blocks, by
        `_t1h_map`, built once per system."""
        return _t1h_map(self)


@_record
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
    return MinPlusTerm(t.constant, tuple(exps.items()))


def _t1h_map(system: T1HSystem) -> Tuple[HomogeneousMap, Optional[List[List[int]]]]:
    """The pair (u, x) as one degree-one homogeneous map on udim + xdim
    coordinates, and its shift blocks for `_orbit` (None for one block).

    Entry c_ij becomes the term c_ij + u_j, a term t of A(u) entry (r, j)
    becomes t + x_j and one of B(u) entry (r, j) becomes t + u_j; control
    terms are 0-homogeneous, so every compiled term has exponent sum one.
    """
    udim = len(system.u0)
    c = uterm_matrix(udim, system.c.payload)
    layers = (("control", [(c, 0)]), ("state", [(system.a_of_u, udim), (system.b_of_u, 0)]))
    coords = []
    for name, parts in layers:
        for r in range(len(parts[0][0].entries)):
            terms = tuple(
                _plus_coordinate(t, offset + j)
                for m, offset in parts if m is not None
                for j, entry in enumerate(m.entries[r]) if entry for t in entry
            )
            if not terms:
                raise Diverged(f"{name} coordinate {r} has no input")
            coords.append(terms)
    f = HomogeneousMap(udim + len(system.x0), tuple(coords))
    return f, _shift_blocks(system, f)


def _shift_blocks(system: T1HSystem, f: HomogeneousMap) -> Optional[List[List[int]]]:
    """The shift blocks of the pair (u, x) that f steps, or None for one block.

    The blocks are u, plus each connected component of the x-coupling graph
    of A(u) (x_r and x_j joined where entry (r, j) is present); a component
    joins u's block where B(u) feeds one of its rows. Then a term of row r
    has exponent sum 1 on r's block and 0 on every other, so f commutes with
    a shift on each block. `_shifts_by_block` checks that term by term;
    where it fails, f runs as one block.
    """
    udim = len(system.u0)
    root = list(range(f.dim))  # union-find over the coordinates

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    def join(i: int, j: int) -> None:
        root[find(i)] = find(j)

    for i in range(1, udim):
        join(i, 0)
    for r, row in enumerate(system.a_of_u.entries):
        for j, entry in enumerate(row):
            if entry:
                join(udim + r, udim + j)
    for r, row in enumerate(system.b_of_u.entries if system.b_of_u else ()):
        if any(row):
            join(udim + r, 0)
    groups: Dict[int, List[int]] = {}
    for i in range(f.dim):
        groups.setdefault(find(i), []).append(i)
    blocks = list(groups.values())
    if len(blocks) == 1 or not _shifts_by_block(f, blocks):
        return None
    return blocks


def _shifts_by_block(f: HomogeneousMap, blocks: List[List[int]]) -> bool:
    """Whether every term of f has exponent sum 1 on its own coordinate's
    block and 0 on every other, so f(x + sum_b sigma_b 1_b) = f(x) + sum_b sigma_b 1_b."""
    block_of = {i: b for b, block in enumerate(blocks) for i in block}
    for r, terms in enumerate(f.coords):
        for t in terms:
            sums = [0] * len(blocks)
            for i, e in t.exponents:
                sums[block_of[i]] += e
            if any(v != (b == block_of[r]) for b, v in enumerate(sums)):
                return False
    return True


def t1h_simulate(system: T1HSystem, k: int):
    """Iterate the triangular system; returns trajectories, periodicity, rates.

    The u-orbit of a min-plus linear layer is eventually periodic after
    normalization (each u less its first coordinate); the report holds the
    first repeat among all k + 1 points, or None. Once the orbit is
    periodic, the matrices A(u_k) repeat with the period and the state
    behaves as a linear periodic system. Returned flow rates are
    per-coordinate second-half growth rates of x. The pair (u, x) steps as
    one homogeneous map on integer numerators over a shared denominator,
    compiled once per system with its shift blocks (`_t1h_map`), through
    `_orbit`: once (u_t, x_t) - (u_s, x_s) is constant on each block (the
    light and each road may advance at their own rates), the rest of the run
    is built from the cycle without stepping. u lies in one block, so its
    first repeat is at or before that step, among the stepped states; their
    keys over M compare u - u_0 exactly and give the gain as an integer ratio.
    """
    if k < 2:
        raise ValueError("need at least two steps")
    udim = len(system.u0)
    f, blocks = system._compiled
    states, s = _orbit(f, [*system.u0, *system.x0], k, blocks=blocks)
    M, keys = _keys(states, s, k)
    points = _points(M, keys)
    u_traj: List[List[Rat]] = [p[:udim] for p in points]
    x_traj: List[List[Rat]] = [p[udim:] for p in points]
    seen: Dict[Tuple[int, ...], int] = {}  # u - u_0 over M -> its first step
    report: Optional[PeriodReport] = None
    for step in range(len(states)):
        K = keys[step]
        start = seen.setdefault(tuple([v - K[0] for v in K[:udim]]), step)
        if start != step:
            period = step - start
            gain = tuple([_ratio(K[i] - keys[start][i], M * period) for i in range(udim)])
            report = PeriodReport(start, period, gain)
            break
    rates = coordinate_rates(x_traj)
    return u_traj, x_traj, report, rates


def traffic_light_system(
    n_vertical: int,
    n_horizontal: int,
    cars_vertical: Sequence[int],
    cars_horizontal: Sequence[int],
) -> T1HSystem:
    """Crossing with a four-phase traffic light and no turning.

    The light is the autonomous min-plus counter system u_{k+1} = C u_k
    with one token travelling through the four phase places; with u0 = 0
    the gate markings a0(k) = 1 + u1 - u2 and b0(k) = u3 - u4 cycle through
    (1,0), (0,0), (0,1), (0,0). Each road is a circular event graph whose
    junction cell carries the 0-homogeneous gate entry a0 u1/u2
    (resp. b0 u3/u4) on the diagonal.
    """
    inf = "+inf"
    c = matrix(
        [
            [inf, inf, inf, 0],
            [1, inf, inf, inf],
            [inf, 0, inf, inf],
            [inf, inf, 0, inf],
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

    gate_v = MinPlusTerm(1, [(0, 1), (1, -1)])
    gate_h = MinPlusTerm(0, [(2, 1), (3, -1)])
    rows = road_block(0, n_vertical, occ_v, gate_v) + road_block(
        n_vertical, n_horizontal, occ_h, gate_h
    )
    a_of_u = uterm_matrix(4, rows)
    return T1HSystem(
        c,
        a_of_u,
        None,
        (0,) * 4,
        (0,) * dim,
    )


def light_gate_marking(system: T1HSystem, u: Sequence[Rat]) -> Tuple[Rat, Rat]:
    """The (a0, b0) token counts of the light at control state u."""
    u = list(map(_rational, u))
    return _canonical(1 + u[0] - u[1]), _canonical(u[2] - u[3])


def four_phase_product(system: T1HSystem, road: str, n_vertical: int) -> TropMatrix:
    """Monodromy over one light cycle of the chosen road block.

    Returns A(u^3) A(u^2) A(u^1) A(u^0) restricted to the road's rows and
    columns; its min-plus eigenvalue over 4 equals the asymptotic flow.
    """
    dim = len(system.x0)
    if road == "vertical":
        idx = range(n_vertical)
    elif road == "horizontal":
        idx = range(n_vertical, dim)
    else:
        raise ValueError("road must be vertical or horizontal")
    udim = len(system.u0)
    f, blocks = system._compiled
    mats = []
    for point in _points(*_keys(*_orbit(f, [*system.u0, *system.x0], 3, blocks=blocks), 3)):
        a = system.a_of_u.eval(point[:udim]).payload
        mats.append(matrix([[a[i][j] for j in idx] for i in idx], MIN_PLUS))
    prod = mats[3]
    for m in (mats[2], mats[1], mats[0]):
        prod = mat_mul(prod, m)
    return prod
