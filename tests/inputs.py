"""Seeded random inputs shared by the randomized tests.

`square_matrices(seed, count)` draws square matrices as lists of rows of
max-plus payloads: n from 1 to 6, a share of bottoms (None) of 0, 20 or
40 % per matrix, and finite entries p/q with p in [-9, 9] and q from 1 to
3, each canonical (an int exactly when it is integral). `rational(rng)`
draws one such entry. The module name keeps pytest from collecting it.
"""

import random
from fractions import Fraction


def rational(rng):
    """p/q with p in [-9, 9] and q in 1..3, as a canonical payload."""
    v = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    return v.numerator if v.denominator == 1 else v


def square_matrices(seed, count):
    """count seeded square matrices, each a list of n rows of n payloads."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, bottoms = rng.randint(1, 6), rng.choice((0, 0.2, 0.4))
        out.append([[None if rng.random() < bottoms else rational(rng) for _ in range(n)] for _ in range(n)])
    return out
