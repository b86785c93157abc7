import random
from fractions import Fraction

import pytest

from tropkit.errors import DivisionByBottom, Divergent, TagMismatch
from tropkit.semiring import (
    BOOLEAN,
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    Interval,
    interval,
    iv_binary,
    one,
    scalar,
    sr_add,
    sr_mul,
    sr_residual,
    sr_star,
    zero,
)


def test_add_examples():
    assert sr_add(scalar(3), scalar(5)) == scalar(5)
    assert sr_add(zero(MAX_PLUS), scalar(7)) == scalar(7)
    assert sr_add(scalar(4, MAX_TIMES), scalar(6, MAX_TIMES)) == scalar(6, MAX_TIMES)
    assert sr_add(scalar(3, MIN_PLUS), scalar(5, MIN_PLUS)) == scalar(3, MIN_PLUS)


def test_mul_examples():
    assert sr_mul(scalar(3), scalar(5)) == scalar(8)
    assert sr_mul(zero(MAX_PLUS), scalar(5)) == zero(MAX_PLUS)
    assert sr_mul(scalar(2, MAX_TIMES), scalar(3, MAX_TIMES)) == scalar(6, MAX_TIMES)


def test_residual_examples():
    assert sr_residual(scalar(5), scalar(3)) == scalar(2)
    assert sr_residual(zero(MAX_PLUS), scalar(3)) == zero(MAX_PLUS)
    assert sr_residual(scalar(6, MAX_TIMES), scalar(2, MAX_TIMES)) == scalar(3, MAX_TIMES)
    with pytest.raises(DivisionByBottom):
        sr_residual(scalar(5), zero(MAX_PLUS))


def test_star_examples():
    assert sr_star(scalar(-2)) == scalar(0)
    assert sr_star(scalar(0)) == scalar(0)
    with pytest.raises(Divergent):
        sr_star(scalar(1))
    assert sr_star(scalar(True, BOOLEAN)) == one(BOOLEAN)
    assert sr_star(scalar(False, BOOLEAN)) == one(BOOLEAN)
    # min-plus: below the unit in the canonical order means above it numerically
    assert sr_star(scalar(2, MIN_PLUS)) == one(MIN_PLUS)
    with pytest.raises(Divergent):
        sr_star(scalar(-1, MIN_PLUS))


def test_tag_mismatch():
    with pytest.raises(TagMismatch):
        sr_add(scalar(1), scalar(1, MIN_PLUS))


def test_idempotency_and_distributivity():
    rng = random.Random(0)
    for _ in range(300):
        tag = rng.choice([MAX_PLUS, MIN_PLUS, MAX_TIMES])
        lo = 0 if tag is MAX_TIMES else -8
        vals = [Fraction(rng.randint(lo, 8), rng.randint(1, 4)) for _ in range(3)]
        a, b, c = (scalar(v, tag) for v in vals)
        assert sr_add(a, a) == a
        assert sr_add(a, b) == sr_add(b, a)
        assert sr_add(sr_add(a, b), c) == sr_add(a, sr_add(b, c))
        assert sr_mul(a, sr_add(b, c)) == sr_add(sr_mul(a, b), sr_mul(a, c))


def test_residuation_adjunction_grid():
    # lam * y <= x iff lam <= x / y, over a grid of lambdas
    rng = random.Random(1)
    for _ in range(100):
        x = scalar(Fraction(rng.randint(-6, 6)))
        y = scalar(Fraction(rng.randint(-6, 6)))
        r = sr_residual(x, y)
        for num in range(-16, 17):
            lam = scalar(Fraction(num, 2))
            assert (sr_mul(lam, y) <= x) == (lam <= r)


def test_direct_order_agrees_with_sum():
    # each tag's le is computed directly; it must be the canonical order
    # a <= b iff a + b == b, bottoms and integral Fractions included
    rationals = [-2, 0, 3, Fraction(1, 2), Fraction(-7, 3), Fraction(3), Fraction(0)]
    grid = {
        MAX_PLUS: [None] + rationals,
        MIN_PLUS: [None] + rationals,
        MAX_TIMES: [Fraction(0), 0, 1, 2, Fraction(1, 2), Fraction(7, 3), Fraction(2)],
        BOOLEAN: [False, True],
    }
    for tag, values in grid.items():
        ops = tag.ops
        for a in values:
            for b in values:
                assert ops.le(a, b) == (ops.add(a, b) == b), (tag, a, b)


def test_interval_examples():
    a, b = interval(1, 2), interval(0, 3)
    assert iv_binary("add", a, b) == interval(1, 3)
    assert iv_binary("mul", a, b) == interval(1, 5)
    assert iv_binary("residual", a, b) == interval(-2, 2)
    with pytest.raises(DivisionByBottom):
        iv_binary("residual", a, Interval(zero(MAX_PLUS), scalar(3)))


def test_interval_residual_against_sampled_box():
    # derived value: brute-force min/max of x - y over sampled pairs
    a, b = interval(1, 2), interval(0, 3)
    diffs = [
        Fraction(xn, 10) - Fraction(yn, 10)
        for xn in range(10, 21)
        for yn in range(0, 31)
    ]
    assert min(diffs) == -2 and max(diffs) == 2


def test_interval_soundness_and_exactness():
    rng = random.Random(2)
    for _ in range(40):
        lo1, hi1 = sorted(rng.randint(-6, 6) for _ in range(2))
        lo2, hi2 = sorted(rng.randint(-6, 6) for _ in range(2))
        a, b = interval(lo1, hi1), interval(lo2, hi2)
        for op, fn in (
            ("add", lambda x, y: max(x, y)),
            ("mul", lambda x, y: x + y),
            ("residual", lambda x, y: x - y),
        ):
            out = iv_binary(op, a, b)
            samples = []
            for _ in range(25):
                x = Fraction(rng.randint(4 * lo1, 4 * hi1), 4)
                y = Fraction(rng.randint(4 * lo2, 4 * hi2), 4)
                v = fn(x, y)
                samples.append(v)
                assert out.contains(scalar(v))
            # endpoints are attained at corner points
            corners = [fn(x, y) for x in (lo1, hi1) for y in (lo2, hi2)]
            assert out.lo.value == min(corners + samples)
            assert out.hi.value == max(corners + samples)


def test_interval_order_validation():
    with pytest.raises(ValueError):
        interval(3, 1)
    # min-plus canonical order is reversed: lo is numerically the larger end
    iv = interval(5, 2, MIN_PLUS)
    assert iv.lo == scalar(5, MIN_PLUS)


def test_reject_floats():
    with pytest.raises(TypeError):
        scalar(0.5)
