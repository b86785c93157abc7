import random
from fractions import Fraction

import pytest

from tropkit.errors import DimensionMismatch, Divergent, NoCycle, TagMismatch, ZeroColumn
from tropkit.projector import Halfspace
from tropkit.semiring import (
    BOOLEAN,
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    SemiringTag,
    scalar,
    sr_add,
    sr_mul,
    sr_residual,
    zero,
)
from tropkit.spectral import max_cycle_mean
from tropkit.tropmat import (
    TropMatrix,
    TropVector,
    identity,
    interval_matrix,
    iv_kleene_star,
    kleene_plus,
    kleene_star,
    mat_mul,
    mat_residual_left,
    matrix,
    vec_residual,
    vector,
    zero_matrix,
)

BOT = "-inf"


def rand_matrix(rng, n, lo=-5, hi=5, density=0.8, tag=MAX_PLUS):
    bot = BOT if tag is MAX_PLUS else "+inf"
    return matrix(
        [
            [rng.randint(lo, hi) if rng.random() < density else bot for _ in range(n)]
            for _ in range(n)
        ],
        tag,
    )


def test_mat_mul_examples():
    a = matrix([[0, 3], [2, 1]])
    assert mat_mul(identity(2), a) == a
    assert mat_mul(a, matrix([[0], [0]])) == matrix([[3], [2]])
    with pytest.raises(DimensionMismatch):
        mat_mul(matrix([[0, 0, 0], [0, 0, 0]]), matrix([[0, 0], [0, 0]]))


def test_mat_mul_associative_random():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 6)
        a, b, c = (rand_matrix(rng, n) for _ in range(3))
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_residual_examples():
    # single column of zeros against x = (1,3): min(1-0, 3-0) = 1
    v = matrix([[0], [0]])
    assert mat_residual_left(v, vector([1, 3])) == vector([1])
    assert mat_residual_left(identity(2), vector([4, 7])) == vector([4, 7])
    with pytest.raises(ZeroColumn):
        mat_residual_left(matrix([[BOT, 0], [BOT, 0]]), vector([1, 1]))


def test_residual_adjunction():
    rng = random.Random(4)
    for _ in range(80):
        n = rng.randint(2, 4)
        cols = rng.randint(1, 3)
        v = matrix(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(n)]
        )
        x = vector([rng.randint(-6, 6) for _ in range(n)])
        lam = mat_residual_left(v, x)
        assert v.apply(lam) <= x
        # any grid lambda satisfying V lam <= x is dominated by the residual
        for _ in range(25):
            cand = vector([rng.randint(-9, 9) for _ in range(cols)])
            if v.apply(cand) <= x:
                assert cand <= lam


def test_kleene_star_examples():
    with pytest.raises(Divergent):
        kleene_star(matrix([[1]]))
    st = kleene_star(matrix([[-1, -3], [-2, -1]]))
    assert st == matrix([[0, -3], [-2, 0]])
    assert mat_mul(st, st) == st
    assert kleene_star(zero_matrix(2, 2)) == identity(2)


def rand_convergent(rng, n, tag, denominators=(1,)):
    """Random matrix whose every cycle weight is <= unit: all weights on the
    non-positive side of the unit, Fraction-valued when denominators allow."""
    sign = 1 if tag is MAX_PLUS else -1
    bot = BOT if tag is MAX_PLUS else "+inf"
    return matrix(
        [
            [
                sign * Fraction(rng.randint(-5, 0), rng.choice(denominators))
                if rng.random() < 0.7
                else bot
                for _ in range(n)
            ]
            for _ in range(n)
        ],
        tag,
    )


def test_star_partial_sums_oracle():
    # star equals the stabilized partial sums I + A + A^2 + ... + A^(n-1),
    # in max-plus and min-plus, with integer and Fraction weights
    rng = random.Random(5)
    for _ in range(160):
        n = rng.randint(1, 8)
        tag = rng.choice([MAX_PLUS, MIN_PLUS])
        denominators = rng.choice([(1,), (1, 2, 3, 7)])
        a = rand_convergent(rng, n, tag, denominators)
        st = kleene_star(a)
        acc = identity(n, tag)
        p = identity(n, tag)
        for _ in range(n):
            p = mat_mul(p, a)
            acc = acc + p
        assert st == acc
        # star fixed point identity, and the plus-closure A+ = A A*
        assert st == identity(n, tag) + mat_mul(a, st)
        assert kleene_plus(a) == mat_mul(a, st)


@pytest.mark.parametrize("tag", [MAX_PLUS, MIN_PLUS])
def test_star_diverges_iff_cycle_mean_above_unit(tag):
    # Karp's cycle mean is the oracle for the divergence verdict
    rng = random.Random(f"diverge-{tag.value}")
    verdicts = set()
    for _ in range(200):
        n = rng.randint(1, 7)
        a = rand_matrix(rng, n, lo=-6, hi=3, density=rng.choice([0.2, 0.4, 0.7]), tag=tag)
        try:
            diverges = max_cycle_mean(a) > scalar(0, tag)
        except NoCycle:
            diverges = False
        verdicts.add(diverges)
        if diverges:
            with pytest.raises(Divergent):
                kleene_star(a)
            with pytest.raises(Divergent):
                kleene_plus(a)
        else:
            assert kleene_plus(a) == mat_mul(a, kleene_star(a))
    assert verdicts == {False, True}


def test_min_plus_star():
    # shortest-path closure: diverges on a negative cycle
    a = matrix([[ "+inf", 2], [3, "+inf"]], MIN_PLUS)
    st = kleene_star(a)
    assert st == matrix([[0, 2], [3, 0]], MIN_PLUS)
    with pytest.raises(Divergent):
        kleene_star(matrix([["+inf", 2], [-3, "+inf"]], MIN_PLUS))


def test_vec_residual():
    assert vec_residual(vector([1, 3]), vector([0, 0])) == scalar(1)
    assert vec_residual(vector([0, BOT]), vector([0, 0])).is_zero


def test_interval_star_examples():
    lo = matrix([[BOT, BOT], [BOT, BOT]])
    hi = matrix([[-1, -3], [-2, -1]])
    st = iv_kleene_star(interval_matrix(lo, hi))
    assert st.lo == identity(2)
    assert st.hi == matrix([[0, -3], [-2, 0]])
    # degenerate point interval
    pt = iv_kleene_star(interval_matrix(hi, hi))
    assert pt.lo == pt.hi == kleene_star(hi)
    with pytest.raises(Divergent):
        iv_kleene_star(interval_matrix(matrix([[0]]), matrix([[1]])))


def test_interval_star_soundness_random():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(2, 3)
        hi = rand_matrix(rng, n, lo=-5, hi=0, density=0.8)
        lo_rows = []
        for i in range(n):
            row = []
            for j in range(n):
                e = hi[i, j]
                if not e.is_finite or rng.random() < 0.3:
                    row.append(BOT)
                else:
                    row.append(e.value - rng.randint(0, 3))
            lo_rows.append(row)
        lo = matrix(lo_rows)
        iv = interval_matrix(lo, hi)
        st = iv_kleene_star(iv)
        for _ in range(20):
            sample_rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    e_lo, e_hi = iv[i, j].lo, iv[i, j].hi
                    if not e_hi.is_finite:
                        row.append(BOT)
                    elif not e_lo.is_finite:
                        row.append(BOT if rng.random() < 0.5 else e_hi.value)
                    else:
                        row.append(e_lo.value + Fraction(rng.randint(0, 4), 4) * (e_hi.value - e_lo.value))
                sample_rows.append(row)
            sample = matrix(sample_rows)
            sample_star = kleene_star(sample)
            for i in range(n):
                for j in range(n):
                    assert st[i, j].contains(sample_star[i, j])


_SHAPE_AND_TAG_CHECKS = {
    "vector_longer": (lambda: vector([1, 2]) <= vector([1]), DimensionMismatch),
    "vector_shorter": (lambda: vector([1]) <= vector([1, 2]), DimensionMismatch),
    "matrix_larger": (lambda: matrix([[0, 0], [5, 5]]) <= matrix([[0]]), DimensionMismatch),
    "matrix_wider": (lambda: matrix([[0]]) <= matrix([[0, 0]]), DimensionMismatch),
    "halfspace_lengths": (lambda: Halfspace(vector([0, 0, 0]), vector([1, 1])), DimensionMismatch),
    "vector_tags": (lambda: vector([1]) <= vector([1], MIN_PLUS), TagMismatch),
    "matrix_tags": (lambda: matrix([[1]]) <= matrix([[1]], MIN_PLUS), TagMismatch),
}


@pytest.mark.parametrize("name", sorted(_SHAPE_AND_TAG_CHECKS))
def test_order_checks_shape_and_tag(name):
    compare, error = _SHAPE_AND_TAG_CHECKS[name]
    with pytest.raises(error):
        compare()


def _rand_payload(rng, tag: SemiringTag):
    if tag is BOOLEAN:
        return rng.random() < 0.5
    if rng.random() < 0.25:
        return None  # the zero: -inf, +inf, or 0 in max-times
    value = Fraction(rng.randint(0 if tag is MAX_TIMES else -4, 4), rng.choice([1, 2]))
    return int(value) if rng.random() < 0.5 and value.denominator == 1 else value


def _rand_rows(rng, tag, rows, cols):
    return [[_rand_payload(rng, tag) for _ in range(cols)] for _ in range(rows)]


def _fold(op, items, start):
    acc = start
    for x in items:
        acc = op(acc, x)
    return acc


def _assert_same(got, want):
    """Equal values, equal repr, and payloads of the same Python type."""
    assert got == want and repr(got) == repr(want)
    if isinstance(got, TropMatrix):
        assert [[type(v) for v in row] for row in got.payload] == [[type(v) for v in row] for row in want.payload]
    elif isinstance(got, TropVector):
        assert [type(v) for v in got.payload] == [type(v) for v in want.payload]
    else:
        assert type(got.value) is type(want.value)


@pytest.mark.parametrize("tag", [MAX_PLUS, MIN_PLUS, MAX_TIMES, BOOLEAN], ids=lambda t: t.value)
def test_kernels_equal_scalar_folds_all_tags(tag):
    # every kernel against plain folds of the scalar operations, entry by entry
    rng = random.Random(f"kernels-{tag.value}")
    for _ in range(150):
        m, n, k = (rng.randint(1, 6) for _ in range(3))
        a = matrix(_rand_rows(rng, tag, m, n), tag)
        b = matrix(_rand_rows(rng, tag, n, k), tag)
        a2 = matrix(_rand_rows(rng, tag, m, n), tag)
        x = vector(_rand_rows(rng, tag, 1, n)[0], tag)
        y = vector(_rand_rows(rng, tag, 1, m)[0], tag)
        c = scalar(_rand_payload(rng, tag), tag)

        product = TropMatrix(
            [[_fold(sr_add, (sr_mul(a[i, j], b[j, l]) for j in range(n)), zero(tag)) for l in range(k)]
             for i in range(m)],
            tag,
        )
        _assert_same(mat_mul(a, b), product)
        image = TropVector([_fold(sr_add, (sr_mul(a[i, j], x[j]) for j in range(n)), zero(tag)) for i in range(m)], tag)
        _assert_same(a.apply(x), image)
        _assert_same(a + a2, TropMatrix([[sr_add(a[i, j], a2[i, j]) for j in range(n)] for i in range(m)], tag))
        _assert_same(a.scale(c), TropMatrix([[sr_mul(c, a[i, j]) for j in range(n)] for i in range(m)], tag))
        _assert_same(x.scale(c), TropVector([sr_mul(c, e) for e in x.entries], tag))
        assert (a <= a2) == all(a[i, j] <= a2[i, j] for i in range(m) for j in range(n))
        assert a <= a + a2 and x <= x + x.scale(c)
        if not tag.is_semifield:
            continue
        for j in range(n):
            residuals = [sr_residual(y[i], a[i, j]) for i in range(m) if not a[i, j].is_zero]
            if not residuals:
                with pytest.raises(ZeroColumn):
                    mat_residual_left(a, y)
                break
        else:
            columns = []
            for j in range(n):
                residuals = [sr_residual(y[i], a[i, j]) for i in range(m) if not a[i, j].is_zero]
                columns.append(_fold(lambda best, r: r if r < best else best, residuals[1:], residuals[0]))
            _assert_same(mat_residual_left(a, y), TropVector(columns, tag))
        if x.is_zero:
            continue
        for x2 in (vector(row, tag) for row in _rand_rows(rng, tag, 4, n)):
            residuals = [sr_residual(x2[i], x[i]) for i in range(n) if not x[i].is_zero]
            want = _fold(lambda best, r: r if r <= best else best, residuals[1:], residuals[0])
            _assert_same(vec_residual(x2, x), want)


_CONSTRUCTOR_ERRORS = {
    "matrix_other_tag_scalar": (lambda: TropMatrix([[scalar(1, MIN_PLUS)]], MAX_PLUS), TagMismatch),
    "vector_other_tag_scalar": (lambda: TropVector([scalar(1), scalar(1, MAX_TIMES)], MAX_PLUS), TagMismatch),
    "matrix_float": (lambda: matrix([[0, 1.5]]), TypeError),
    "vector_float": (lambda: vector([0.5], MAX_TIMES), TypeError),
    "ragged_rows": (lambda: matrix([[1, 2], [3]]), DimensionMismatch),
}


@pytest.mark.parametrize("name", sorted(_CONSTRUCTOR_ERRORS))
def test_constructor_rejects(name):
    build, error = _CONSTRUCTOR_ERRORS[name]
    with pytest.raises(error):
        build()


def test_constructor_accepts_same_tag_scalars():
    rows = [[scalar(1, MIN_PLUS), "+inf"], [Fraction(4, 2), scalar("1/3", MIN_PLUS)]]
    m = TropMatrix(rows, MIN_PLUS)
    assert m.payload == ((1, None), (2, Fraction(1, 3))) and type(m.payload[1][0]) is int
    assert m == matrix(rows, MIN_PLUS) and m.entries[1][1] == scalar("1/3", MIN_PLUS)
