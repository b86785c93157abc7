"""Scaling of measured times to a fixed reference machine speed.

The benchmark runs on shared virtual machines whose speed drifts by 20 to
40 % over tens of seconds, far more than the changes it must resolve. Every
timed span is therefore bracketed by a fixed standard-library calibration
pass that shares the span's character: small-object allocation, dict and
tuple churn, int and Fraction arithmetic, and no tropkit code. A span's
time is reported as

    wall time * REFERENCE_S / (mean of the calibrations before and after it)

which is the wall time the span would take on a machine where one
calibration pass takes REFERENCE_S. The unscaled wall times go into each
run's metadata line.
"""

from __future__ import annotations

import time
from fractions import Fraction

ITERATIONS = 6000
REFERENCE_S = 0.006  # about one pass on the 2-vCPU Xeon VM the benchmark was defined on


def calibrate() -> float:
    """Wall time of one fixed calibration pass."""
    t0 = time.perf_counter()
    seen = {}
    acc = 0
    for i in range(ITERATIONS):
        item = (i, i * 7 % 13, Fraction(i, 7))
        seen[item[1]] = item
        acc += item[0] * item[1]
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time between two calibrations into reference time."""
    return REFERENCE_S / ((before + after) / 2)


def timed(fn, *args):
    """(reference-scaled seconds, wall seconds) of one call of fn."""
    before = calibrate()
    t0 = time.perf_counter()
    fn(*args)
    wall = time.perf_counter() - t0
    return wall * scale(before, calibrate()), wall
