import random
from fractions import Fraction
from itertools import chain

import pytest

from cycle_oracle import closure_oracle
from tropkit.errors import DimensionMismatch, Divergent, EmptySupport, NoCycle, TagMismatch, ZeroColumn
from tropkit.projector import Halfspace
from tropkit.semiring import (
    BOOLEAN,
    Interval,
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
    _closure,
    _least_residual,
    from_columns,
    identity,
    interval_matrix,
    iv_kleene_star,
    kleene_plus,
    kleene_star,
    mat_mul,
    mat_residual_left,
    matrix,
    unit_vector,
    vec_residual,
    vector,
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


def _least_residual_fold(xs, ys, ops):
    """The generic path: the tag's `residual` law over the support of ys,
    folded by `le`, keeping the first least value."""
    residuals = [ops.residual(x, y) for x, y in zip(xs, ys) if y != ops.zero]
    if not residuals:
        raise EmptySupport("residual against the zero vector")
    best = residuals[0]
    for r in residuals[1:]:
        if not ops.le(best, r):
            best = r
    return best


@pytest.mark.parametrize("tag", [MAX_PLUS, MIN_PLUS], ids=lambda t: t.value)
def test_plus_least_residual_equals_the_generic_fold(tag):
    # the inline min (max-plus) or max (min-plus) of x_i - y_i: same payload,
    # same type, EmptySupport on the same inputs, bottoms on either side
    rng = random.Random(f"least-residual-{tag.value}")
    pool = [0, 3, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(1, 3)]
    empty = 0
    for trial in range(2000):
        n = trial % 8
        xs, ys = ([None if rng.random() < rate else rng.choice(pool) for _ in range(n)]
                  for rate in ((0, 0.2, 0.5)[trial % 3], (0, 0.3, 0.7)[trial // 3 % 3]))
        try:
            want = _least_residual_fold(xs, ys, tag.ops)
        except EmptySupport:
            with pytest.raises(EmptySupport):
                _least_residual(xs, ys, tag)
            empty += 1
            continue
        got = _least_residual(xs, ys, tag)
        assert (got, type(got)) == (want, type(want)), (xs, ys)
    assert empty >= 100


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
    assert kleene_star(matrix([[None] * 2] * 2)) == identity(2)


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
    # the cycle-mean eigenvalue is the oracle for the divergence verdict
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


def _closure_outcome(closure, a):
    try:
        return closure(a)
    except Divergent as exc:
        return f"Divergent: {exc}"


def test_packed_closure_matches_oracle_random():
    # the packed-row closure against the plain Floyd-Warshall loop: equal
    # values, identical Divergent text, and a payload that is an int exactly
    # when it is integral; weights up to 10^30 need fields wider than 64 bits
    rng = random.Random(19)
    verdicts, magnitudes = set(), set()
    for _ in range(800):
        n = rng.randint(0, 12)
        tag = rng.choice([MAX_PLUS, MIN_PLUS])
        sign = 1 if tag is MAX_PLUS else -1
        p_bottom = rng.choice([0, 0.3, 0.6, 0.85])
        big = rng.choice([6, 10**6, 10**12, 10**30])
        denominators = rng.choice([(1,), (1, 2, 3, 7), (4, 9)])
        a = matrix(
            [
                [
                    None if rng.random() < p_bottom
                    else sign * Fraction(rng.randint(-big, big // 8), rng.choice(denominators))
                    for _ in range(n)
                ]
                for _ in range(n)
            ],
            tag,
        )
        got, want = _closure_outcome(_closure, a), _closure_outcome(closure_oracle, a)
        assert got == want
        verdicts.add(isinstance(got, str))
        if n and not isinstance(got, str):
            magnitudes.add(big)
            for v in chain(*got):
                assert v is None or (type(v) is int) == (v.denominator == 1)
    assert verdicts == {False, True}
    assert magnitudes == {6, 10**6, 10**12, 10**30}


def test_packed_closure_bottom_and_extreme_entries():
    # one huge weight beside small ones, all-bottom rows, a zero matrix,
    # Fractions that multiply to integers, and Divergent text for rational cycles
    big = 10**30
    a = matrix([[BOT, big, BOT], [-big, BOT, -1], [BOT, BOT, BOT]])
    assert _closure(a) == closure_oracle(a) == [[0, big, big - 1], [-big, 0, -1], [None, None, None]]
    assert kleene_star(matrix([[BOT] * 3] * 3)) == identity(3)
    assert _closure(matrix([[0, 0], [0, 0]])) == [[0, 0], [0, 0]]
    # a product of Fractions that lands on integers holds int payloads
    half = matrix([[Fraction(-1, 2), Fraction(-1, 2)], [Fraction(-1, 2), BOT]])
    square = mat_mul(half, half)
    assert square.payload[0] == (-1, -1) and all(type(v) is int for v in square.payload[0])
    got = kleene_star(square).payload
    assert got == ((0, -1), (-1, 0)) and all(type(v) is int for v in chain(*got))
    with pytest.raises(Divergent, match="node 1 has weight 1/3, above"):
        kleene_star(matrix([[BOT, Fraction(1, 6)], [Fraction(1, 6), BOT]]))
    with pytest.raises(Divergent, match="node 1 has weight -1, above"):
        kleene_star(matrix([["+inf", Fraction(-1, 2)], [Fraction(-1, 2), "+inf"]], MIN_PLUS))


def test_divergence_at_pivot_0_matches_oracle_random(monkeypatch):
    # a_00 above the unit raises before the scaling and packing pass, with
    # the oracle's text, on max-plus and min-plus matrices with Fraction weights
    def no_pass(values, scale=1):
        raise AssertionError("the closure scaled A before reading a_00")

    monkeypatch.setattr("tropkit.tropmat._scaled", no_pass)
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 9)
        tag = rng.choice([MAX_PLUS, MIN_PLUS])
        sign = 1 if tag is MAX_PLUS else -1
        rows = [
            [None if rng.random() < 0.3 else sign * Fraction(rng.randint(-9, 4), rng.choice((1, 2, 3, 7)))
             for _ in range(n)]
            for _ in range(n)
        ]
        rows[0][0] = sign * Fraction(rng.randint(1, 40), rng.choice((1, 2, 3, 7)))
        a = matrix(rows, tag)
        want = _closure_outcome(closure_oracle, a)
        assert want.startswith("Divergent: a cycle through node 0 has weight ")
        assert _closure_outcome(_closure, a) == want
        with pytest.raises(Divergent) as got:
            kleene_star(a)
        assert f"Divergent: {got.value}" == want


def test_identity_rows():
    for tag in (MAX_PLUS, MIN_PLUS, MAX_TIMES, BOOLEAN):
        for n in range(5):
            want = tuple(unit_vector(n, i, tag).payload for i in range(n))
            got = identity(n, tag)
            assert got.payload == want and got.tag is tag and (got.rows, got.cols) == (n, n)


def test_interval_star_endpoints_in_order_and_user_intervals_checked():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 6)
        lo = rand_convergent(rng, n, MAX_PLUS, (1, 2))
        hi = matrix([[BOT if v is None else min(0, v + rng.randint(0, 2)) for v in row] for row in lo.payload])
        st = iv_kleene_star(interval_matrix(lo, hi))
        assert st.lo == kleene_star(lo) and st.hi == kleene_star(hi)
        assert st.lo <= st.hi
    with pytest.raises(ValueError, match="out of order"):
        interval_matrix(matrix([[0]]), matrix([[-1]]))


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


def test_interval_matrix_entries_equal_checked_intervals():
    cases = (
        (matrix([[BOT, -2], [0, -4]]), matrix([[-1, -2], [3, -1]])),
        (matrix([[5, "+inf"], [2, 7]], MIN_PLUS), matrix([[1, 0], [2, 6]], MIN_PLUS)),
    )
    for lo, hi in cases:
        iv = interval_matrix(lo, hi)
        for i in range(2):
            for j in range(2):
                want = Interval(lo[i, j], hi[i, j])
                assert iv[i, j] == want and iv.entries[i][j] == want
                assert iv[i, j].tag is lo.tag
        # a user-built interval still checks its endpoint order
        with pytest.raises(ValueError):
            Interval(hi[0, 0], lo[0, 0])


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
        if tag is BOOLEAN:
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


@pytest.mark.parametrize("call, error", [
    (lambda: mat_mul(matrix([[0]]), matrix([[0]], MIN_PLUS)), TagMismatch),
    (lambda: vector([0]).scale(scalar(0, MIN_PLUS)), TagMismatch),
    (lambda: matrix([[0]]).scale(scalar(0, MIN_PLUS)), TagMismatch),
    (lambda: matrix([[0, 0]]).apply(vector([0])), DimensionMismatch),
    (lambda: matrix([[0]]).apply(vector([0], MIN_PLUS)), TagMismatch),
    (lambda: from_columns([]), DimensionMismatch),
    (lambda: from_columns([vector([0]), vector([0, 1])]), DimensionMismatch),
    (lambda: from_columns([vector([0]), vector([0], MIN_PLUS)]), TagMismatch),
    (lambda: mat_residual_left(matrix([[0]]), vector([0, 1])), DimensionMismatch),
    (lambda: mat_residual_left(matrix([[0]]), vector([0], MIN_PLUS)), TagMismatch),
    (lambda: kleene_star(matrix([[0, 0]])), DimensionMismatch),
    (lambda: kleene_star(matrix([[1]], MAX_TIMES)), ValueError),
    (lambda: interval_matrix(matrix([[0]]), matrix([[0]], MIN_PLUS)), TagMismatch),
], ids=["mat_mul-tag", "vector-scale-tag", "matrix-scale-tag", "apply-length", "apply-tag",
        "from_columns-empty", "from_columns-lengths", "from_columns-tag", "residual-length", "residual-tag",
        "star-square", "star-tag", "interval-tags"])
def test_tropmat_input_checks_raise(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
