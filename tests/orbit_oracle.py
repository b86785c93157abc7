"""Step-every-time orbits: the test oracle for `tropkit.dynamics`.

`_orbit` stops calling `step` at the first exact repeat, where x_t - x_s is
constant on each shift block, and builds the rest of the run from the
cycle, and the tent orbit stops at its first repeated numerator. These are
the loops they replaced: every one of the k points is stepped, reduced and
converted by `semiring._unscaled`, and the spread bound is tested on every
point. The tests require equal values, canonical payloads (an int exactly
when integral), the same `Diverged` and its text, and `CountingMap` pins
how many steps the production loop takes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from tropkit.dynamics import (
    DEFAULT_SPREAD_BOUND,
    CrossingMap,
    HomogeneousMap,
    PeriodReport,
    _reduced,
    _t1h_map,
    coordinate_rates,
)
from tropkit.errors import Diverged
from tropkit.semiring import _rational, _scaled, _unscaled


class CountingMap(HomogeneousMap):
    """A homogeneous map that counts the integer steps taken through it."""

    steps = 0

    def step(self, X, D):
        object.__setattr__(self, "steps", self.steps + 1)
        return super().step(X, D)


class CountingCrossing(CountingMap, CrossingMap):
    """The priority crossing, counting its steps."""


def counting(f: HomogeneousMap) -> CountingMap:
    """A counting copy of f, the priority patch included."""
    cls = CountingCrossing if isinstance(f, CrossingMap) else CountingMap
    return cls(**{name: getattr(f, name) for name in f._fields})


def orbit_oracle(f, x0, k: int) -> Iterator[Tuple[List[int], int]]:
    """x0 and its k images under f's integer `step`, each as reduced (X, D)."""
    X, D = _scaled(list(map(_rational, x0)))
    yield X, D
    for _ in range(k):
        X, D = _reduced(*f.step(X, D))
        yield X, D


def _point(X: List[int], D: int) -> list:
    """X / D, one canonical payload per coordinate."""
    return [_unscaled(v, D) for v in X]


def first_repeat(f, x0, k: int, blocks=None) -> Optional[int]:
    """The first step t <= k whose reduced state has the same D as an earlier
    one and, on every block of `blocks` (one block when None), the same X
    less the block's first coordinate, by comparing every pair; None if
    there is none."""
    blocks = blocks or [range(f.dim)]

    def shape(X):
        return [[X[i] - X[block[0]] for i in block] for block in blocks]

    states: List[Tuple[List[int], int]] = []
    for t, (X, D) in enumerate(orbit_oracle(f, x0, k)):
        if any(E == D and shape(Y) == shape(X) for Y, E in states):
            return t
        states.append((X, D))
    return None


def hom_iterate_oracle(f, x0, k: int, spread_bound=DEFAULT_SPREAD_BOUND):
    """`hom_iterate` on the step-every-time orbit."""
    if k < 2:
        raise ValueError("need at least two steps")
    bound = _rational(spread_bound)
    orbit = orbit_oracle(f, x0, k)
    traj = [_point(*next(orbit))]
    for X, D in orbit:
        if (max(X) - min(X)) * bound.denominator > bound.numerator * D:
            raise Diverged("coordinate spread exceeded the configured bound")
        traj.append(_point(X, D))
    rates = coordinate_rates(traj)
    return traj, sum(rates, Fraction(0)) / len(rates)


def t1h_simulate_oracle(system, k: int):
    """`t1h_simulate` on the step-every-time orbit of the pair (u, x)."""
    if k < 2:
        raise ValueError("need at least two steps")
    udim = len(system.u0)
    f, _ = _t1h_map(system)
    u_traj: List[List[Fraction]] = []
    x_traj: List[List[Fraction]] = []
    seen: Dict[Tuple[Tuple[int, ...], int], int] = {}
    report: Optional[PeriodReport] = None
    for step, (Y, D) in enumerate(orbit_oracle(f, [*system.u0, *system.x0], k)):
        u_traj.append(_point(Y[:udim], D))
        x_traj.append(_point(Y[udim:], D))
        if report is None:
            X, E = _reduced([v - Y[0] for v in Y[:udim]], D)
            start = seen.setdefault((tuple(X), E), step)
            if start != step:
                u = u_traj[step]
                gain = tuple(Fraction(u[i] - u_traj[start][i], step - start) for i in range(udim))
                report = PeriodReport(start, step - start, gain)
    return u_traj, x_traj, report, coordinate_rates(x_traj)


def tent_trajectory_oracle(y0, k: int, bins: Optional[int] = None):
    """`tent_trajectory` stepping all k numerators, histogram over all k + 1."""
    y = _rational(y0)
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
    return _point(nums, q), hist
