"""Seeded random inputs shared by the randomized tests.

`square_matrices(seed, count, tag)` draws square matrices as lists of rows
of payloads of `tag` (max-plus by default): n from 1 to 6, a share of
zeros of 0, 20 or 40 % per matrix, and every other entry drawn by
`payload`. `rational(rng)` draws one p/q with p in [-9, 9] and q from 1 to
3, each canonical (an int exactly when it is integral). The module name
keeps pytest from collecting it.
"""

import random
from fractions import Fraction

from tropkit.semiring import BOOLEAN, MAX_PLUS, MAX_TIMES


def _canonical(v):
    return v.numerator if v.denominator == 1 else v


def rational(rng):
    """p/q with p in [-9, 9] and q in 1..3, as a canonical payload."""
    return _canonical(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))


def payload(rng, tag):
    """One entry of tag where `square_matrices` puts no zero: `rational`
    for max-plus and min-plus, p/q with p in [0, 9] and q in 1..3 for
    max-times (0 is its zero, so p = 0 adds a few), and True for boolean."""
    if tag is BOOLEAN:
        return True
    if tag is MAX_TIMES:
        return _canonical(Fraction(rng.randint(0, 9), rng.randint(1, 3)))
    return rational(rng)


def square_matrices(seed, count, tag=MAX_PLUS):
    """count seeded square matrices of tag, each a list of n rows of n payloads."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, zeros = rng.randint(1, 6), rng.choice((0, 0.2, 0.4))
        out.append([[tag.ops.zero if rng.random() < zeros else payload(rng, tag) for _ in range(n)]
                    for _ in range(n)])
    return out
