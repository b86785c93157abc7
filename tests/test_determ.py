import itertools
import random
import time
from fractions import Fraction
from functools import reduce

import pytest

from tropkit.assign import (
    NotStronglyRegular,
    RegularityCertificate,
    assign_matrix,
    optimal_bijections,
    strong_regularity,
)
from tropkit.determ import (
    BIDETERMINANT_CAP,
    StandardTransform,
    _optimal_bijections,
    apply_standard_transform,
    bideterminant,
    is_pattern_singular,
    is_trop_singular,
    permanent,
    rook_coefficients,
)
from tropkit.errors import DimensionMismatch, TooLarge
from tropkit.semiring import (
    BOOLEAN,
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    one,
    scalar,
    sr_add,
    sr_mul,
    zero,
)
from tropkit.tropmat import identity, matrix, unit_vector

BOT = "-inf"

# -- enumeration oracles: every permutation, every subset -----------------------

SUBSET_CAP = 3


def _perm_parity(perm):
    """0 for even, 1 for odd (cycle decomposition)."""
    seen = [False] * len(perm)
    parity = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def _diag_products(a):
    """(perm, payload of the product along perm) for every perm in S_n, in order."""
    ops = a.tag.ops
    mul, unit, rows = ops.mul, ops.unit, a.payload
    for perm in itertools.permutations(range(a.rows)):
        yield perm, reduce(mul, (rows[i][j] for i, j in enumerate(perm)), unit)


def is_trop_singular_subsets(a):
    """Literal general definition: some nonempty proper subset T of S_n
    balances the two permutation sums. Exponential in n!, capped small."""
    n = a.rows
    if n > SUBSET_CAP:
        raise TooLarge(f"subset enumeration capped at n <= {SUBSET_CAP}")
    terms = [term for _, term in _diag_products(a)]
    total = len(terms)
    add, zero = a.tag.ops.add, a.tag.ops.zero
    for mask in range(1, (1 << total) - 1):
        left = right = zero
        for t in range(total):
            if mask >> t & 1:
                left = add(left, terms[t])
            else:
                right = add(right, terms[t])
        if left == right:
            return True
    return False


def _bideterminant_oracle(a):
    """(plus, minus) payloads: the products along every permutation of S_n,
    folded by parity."""
    add = a.tag.ops.add
    sums = [a.tag.ops.zero, a.tag.ops.zero]
    for perm, term in _diag_products(a):
        parity = _perm_parity(perm)
        sums[parity] = add(sums[parity], term)
    return tuple(sums)


def _rook_oracle(a):
    """[p_0, ..., p_min(m,n)] payloads: p_k folds the products of every
    placement of k non-attacking rooks, a k-subset of rows sent injectively
    into the columns."""
    ops, rows = a.tag.ops, a.payload
    out = [ops.unit]
    for k in range(1, min(a.rows, a.cols) + 1):
        acc = ops.zero
        for rs in itertools.combinations(range(a.rows), k):
            for cs in itertools.permutations(range(a.cols), k):
                term = reduce(ops.mul, (rows[r][c] for r, c in zip(rs, cs)), ops.unit)
                acc = ops.add(acc, term)
        out.append(acc)
    return out


def _assert_same_payload(got, want, tag):
    """Equal value, repr and payload type."""
    assert got == want and repr(scalar(got, tag)) == repr(scalar(want, tag))
    assert type(got) is type(want)


def test_bideterminant_worked_examples():
    a = matrix([[1, 2], [3, 4]], MAX_TIMES)
    bd = bideterminant(a)
    assert (bd.plus, bd.minus) == (scalar(4, MAX_TIMES), scalar(6, MAX_TIMES))
    b = matrix([[0, 0, 1], [1, 1, 0], [0, 0, 1]], MAX_TIMES)
    bd3 = bideterminant(b)
    assert bd3.plus == scalar(0, MAX_TIMES) and bd3.minus == scalar(0, MAX_TIMES)
    bdi = bideterminant(identity(3))
    assert bdi.plus == scalar(0) and bdi.minus.is_zero


def test_permanent_examples():
    assert permanent(matrix([[0, 3], [2, 1]])) == scalar(5)
    assert permanent(matrix([[None] * 3] * 3)).is_zero
    assert permanent(identity(4)) == scalar(0)


def _random_entry(rng, tag, bottom_rate, pool):
    if tag is BOOLEAN:
        return rng.random() >= bottom_rate
    if rng.random() < bottom_rate:
        return 0 if tag is MAX_TIMES else None
    v = rng.choice(pool)
    return (abs(v) or 1) if tag is MAX_TIMES else v


def _random_instance(rng, tag, m=None, n=None):
    n = n or rng.randint(1, 7)
    m = m or n
    bottom_rate = rng.choice([0, 0.2, 0.5])
    pool = rng.choice([[0], [0, 1], list(range(-3, 4)), [Fraction(1, 2), 1, Fraction(3, 2), 2]])
    rows = [[_random_entry(rng, tag, bottom_rate, pool) for _ in range(n)] for _ in range(m)]
    if m >= 2 and rng.random() < 0.25:  # a repeated row forces a tie
        rows[rng.randrange(m)] = list(rows[rng.randrange(m)])
    return rows


def _nfact_oracle(a):
    """The permutation sum (the zero, or the first best product in
    lexicographic order) and every permutation attaining it, by the tag's
    own arithmetic over all of S_n."""
    n = a.rows
    best, attaining = zero(a.tag), []
    for perm in itertools.permutations(range(n)):
        term = one(a.tag)
        for i, j in enumerate(perm):
            term = sr_mul(term, a[i, j])
        if term > best:
            best, attaining = term, [perm]
        elif term == best:
            attaining.append(perm)
    return best, attaining


def test_permanent_equals_assignment_value():
    # n! oracle for the Hungarian kernel behind permanent, is_trop_singular
    # and optimal_bijections: value, payload type and witness order
    rng = random.Random(16)
    for trial in range(280):
        tag = (MAX_PLUS, MIN_PLUS, MAX_TIMES, BOOLEAN)[trial % 4]
        rows = _random_instance(rng, tag)
        a = matrix(rows, tag)
        best, attaining = _nfact_oracle(a)
        per = permanent(a)
        assert per == best and type(per.value) is type(best.value)
        assert is_trop_singular(a) == (len(attaining) >= 2)
        payloads = [[e.value for e in row] for row in a.entries]
        try:
            b = assign_matrix(rows) if tag is MAX_PLUS else None
        except ValueError:  # a row or column of bottoms
            b = None
        for keep in range(1, 5):
            value, witnesses, _ = _optimal_bijections(payloads, tag, keep)
            if best.is_zero:
                assert (value, witnesses) == (None, [])
            else:
                assert witnesses == attaining[:keep]
                assert value == best.value and type(value) is type(best.value)
            if b is not None:
                ob_best, ob_witnesses = optimal_bijections(b, keep)
                assert ob_witnesses == witnesses
                assert ob_best == value and (best.is_zero or type(ob_best) is type(value))


def _planted(rng, n):
    """A max-plus matrix whose unique optimal bijection is known: a zero
    diagonal and strictly negative (or bottom) off-diagonal entries, rows
    and columns permuted and shifted."""
    sigma, tau = list(range(n)), list(range(n))
    rng.shuffle(sigma)
    rng.shuffle(tau)
    s = [Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3])) for _ in range(n)]
    t = [rng.randint(-20, 20) for _ in range(n)]

    def core(i, j):
        if i == j:
            return 0
        return None if rng.random() < 0.3 else -rng.randint(1, 9)

    c = [[core(i, j) for j in range(n)] for i in range(n)]
    rows = [
        [None if c[sigma[r]][tau[k]] is None else c[sigma[r]][tau[k]] + s[r] + t[k] for k in range(n)]
        for r in range(n)
    ]
    bijection = tuple(tau.index(sigma[r]) for r in range(n))
    return rows, bijection, sum(s) + sum(t)


def test_unique_optimum_above_old_enumeration_cap():
    rng = random.Random(22)
    for n in (12, 17, 25, 33, 40):
        rows, bijection, value = _planted(rng, n)
        a = matrix(rows)
        assert permanent(a) == scalar(value)
        assert not is_trop_singular(a)
        cert = strong_regularity(assign_matrix(rows))
        assert isinstance(cert, RegularityCertificate) and cert.bijection == bijection
    flat = [[0] * 40 for _ in range(40)]
    t0 = time.perf_counter()
    assert permanent(matrix(flat)) == scalar(0)
    assert is_trop_singular(matrix(flat))
    res = strong_regularity(assign_matrix(flat))
    assert time.perf_counter() - t0 < 1.0
    assert isinstance(res, NotStronglyRegular)
    assert res.best_bijection == tuple(range(40))
    assert res.second_bijection == tuple(range(38)) + (39, 38)


_TAGS = (MAX_PLUS, MIN_PLUS, MAX_TIMES, BOOLEAN)


def test_bideterminant_matches_parity_oracle():
    # the used-column DP against the parity fold over all of S_n, n <= 7
    rng = random.Random(23)
    for trial in range(240):
        tag = _TAGS[trial % 4]
        a = matrix(_random_instance(rng, tag), tag)
        bd = bideterminant(a)
        plus, minus = _bideterminant_oracle(a)
        _assert_same_payload(bd.plus.value, plus, tag)
        _assert_same_payload(bd.minus.value, minus, tag)


def test_plus_bideterminant_equals_the_parity_oracle():
    # max-plus and min-plus run the DP on scaled integers (min-plus by sign):
    # every n <= 7, bottoms, ints and Fractions, ties from repeated rows
    rng = random.Random(35)
    pools = ([0, 1], list(range(-4, 5)), [Fraction(k, d) for d in (1, 2, 3) for k in range(-4, 5)])
    for trial in range(168):
        tag = (MAX_PLUS, MIN_PLUS)[trial % 2]
        n, pool, rate = trial % 7 + 1, pools[trial % 3], (0, 0.2, 0.5)[trial // 7 % 3]
        rows = [[None if rng.random() < rate else rng.choice(pool) for _ in range(n)] for _ in range(n)]
        if n >= 2 and trial % 4 == 0:
            rows[0] = list(rows[-1])
        a = matrix(rows, tag)
        bd, (plus, minus) = bideterminant(a), _bideterminant_oracle(a)
        _assert_same_payload(bd.plus.value, plus, tag)
        _assert_same_payload(bd.minus.value, minus, tag)


def test_rook_coefficients_match_subset_oracle():
    # the padded-matrix permanent against every rook placement, m, n <= 6
    rng = random.Random(24)
    for trial in range(240):
        tag = _TAGS[trial % 4]
        n = rng.randint(1, 6)
        m = n if trial % 8 < 4 else rng.randint(1, 6)
        a = matrix(_random_instance(rng, tag, m, n), tag)
        got, want = rook_coefficients(a), _rook_oracle(a)
        assert len(got) == len(want) == min(m, n) + 1
        for p, w in zip(got, want):
            _assert_same_payload(p.value, w, tag)


def test_rook_and_bideterminant_above_old_caps():
    rng = random.Random(25)
    diag = [Fraction(v, 3) for v in rng.sample(range(-60, 60), 12)]
    rows = [[diag[i] if i == j else BOT for j in range(12)] for i in range(12)]
    top = sorted(diag, reverse=True)
    assert rook_coefficients(matrix(rows)) == [scalar(sum(top[:k])) for k in range(13)]
    cycle = tuple(range(1, 14)) + (0,)
    shuffled = tuple(rng.sample(range(14), 14))
    for perm, tag in ((cycle, MAX_PLUS), (shuffled, MAX_TIMES), (shuffled[::-1], BOOLEAN)):
        unit_rows = identity(14, tag).payload
        bd = bideterminant(matrix([unit_rows[p] for p in perm], tag))
        parts = (bd.plus, bd.minus) if _perm_parity(perm) == 0 else (bd.minus, bd.plus)
        assert parts == (one(tag), zero(tag))
    with pytest.raises(TooLarge):
        bideterminant(identity(BIDETERMINANT_CAP + 1))


def test_rook_examples():
    assert rook_coefficients(matrix([[0, 3], [2, 1]])) == [scalar(0), scalar(3), scalar(5)]
    assert rook_coefficients(matrix([[7]])) == [scalar(0), scalar(7)]
    rc = rook_coefficients(matrix([[None] * 2] * 2))
    assert rc[0] == scalar(0) and rc[1].is_zero and rc[2].is_zero


def test_singularity_examples():
    assert is_trop_singular(matrix([[0, 0], [0, 0]]))
    assert not is_trop_singular(matrix([[0, 3], [2, 1]]))
    assert not is_trop_singular(identity(2))


def test_singularity_subset_equivalence():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 3)
        tag = rng.choice([MAX_PLUS, MAX_TIMES])
        if tag is MAX_PLUS:
            rows = [
                [rng.choice([BOT] + list(range(-2, 3))) for _ in range(n)]
                for _ in range(n)
            ]
        else:
            rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        m = matrix(rows, tag)
        assert is_trop_singular(m) == is_trop_singular_subsets(m)
    with pytest.raises(TooLarge):
        is_trop_singular_subsets(identity(4))


def test_pattern_singularity():
    assert is_pattern_singular(matrix([[BOT, BOT], [1, 1]])) == "left"
    assert is_pattern_singular(matrix([[BOT, 0], [BOT, 1]])) == "right"
    assert is_pattern_singular(matrix([[0, 0], [1, 1]])) == "none"


def test_standard_transform_examples():
    x = matrix([[0, 3], [2, 1]])
    units, ids = (scalar(0), scalar(0)), (0, 1)
    assert apply_standard_transform(x, StandardTransform(ids, units, units, ids)) == x
    assert apply_standard_transform(x, StandardTransform(ids, units, units, ids, True)) == x.transpose()
    t = StandardTransform((1, 0), (scalar(1), scalar(-1)), (scalar(0), scalar(0)), (0, 1))
    p = matrix([[BOT, 0], [0, BOT]])
    d = matrix([[1, BOT], [BOT, -1]])
    assert apply_standard_transform(x, t) == p @ d @ x @ identity(2) @ identity(2)


@pytest.mark.parametrize("p, q", [((0, 0), (0, 1)), ((0, 5), (0, 1)), ((0, 1), (1, 1))])
def test_standard_transform_rejects_a_non_permutation(p, q):
    # (0, 0) would copy row 0 over row 1, and (0, 5) would leave a zero row
    units = (one(MAX_PLUS),) * 2
    with pytest.raises(ValueError):
        StandardTransform(p, units, units, q)


def _transform_oracle(a, t):
    """P D X' E Q as four matrix products of permutation and diagonal matrices."""
    tag = a.tag

    def perm_matrix(perm):
        return matrix([unit_vector(len(perm), p, tag).payload for p in perm], tag)

    def diag_matrix(diag):
        return matrix([unit_vector(len(diag), i, tag).scale(d).payload for i, d in enumerate(diag)], tag)

    x = a.transpose() if t.transpose else a
    return perm_matrix(t.p) @ diag_matrix(t.d) @ x @ diag_matrix(t.e) @ perm_matrix(t.q)


def test_standard_transform_matches_four_products():
    # the entrywise formula against the four-product oracle: equal value and
    # payload type, on every tag, shape and transpose flag
    rng = random.Random(26)
    units = [Fraction(1, 2), 1, Fraction(-3, 2), 2, Fraction(2, 3)]
    for trial in range(400):
        tag = _TAGS[trial % 4]
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        x = matrix(_random_instance(rng, tag, m, n), tag)
        transpose = rng.random() < 0.5
        rows, cols = (n, m) if transpose else (m, n)
        t = StandardTransform(
            tuple(rng.sample(range(rows), rows)),
            tuple(scalar(_random_entry(rng, tag, 0, units), tag) for _ in range(rows)),
            tuple(scalar(_random_entry(rng, tag, 0, units), tag) for _ in range(cols)),
            tuple(rng.sample(range(cols), cols)),
            transpose,
        )
        got, want = apply_standard_transform(x, t), _transform_oracle(x, t)
        assert got == want
        for g, w in zip(itertools.chain(*got.payload), itertools.chain(*want.payload)):
            _assert_same_payload(g, w, tag)


def test_weak_multiplicativity():
    rng = random.Random(18)
    for _ in range(120):
        n = rng.randint(1, 3)
        tag = rng.choice([MAX_PLUS, MAX_TIMES])
        def rnd():
            if tag is MAX_PLUS:
                return rng.choice([BOT] + list(range(-3, 4)))
            return rng.randint(0, 4)
        a = matrix([[rnd() for _ in range(n)] for _ in range(n)], tag)
        b = matrix([[rnd() for _ in range(n)] for _ in range(n)], tag)
        ab, da, db = bideterminant(a @ b), bideterminant(a), bideterminant(b)
        lhs = sr_add(sr_add(ab.plus, sr_mul(da.plus, db.minus)), sr_mul(da.minus, db.plus))
        rhs = sr_add(sr_add(ab.minus, sr_mul(da.plus, db.plus)), sr_mul(da.minus, db.minus))
        assert lhs == rhs


def _even_permutation_pair(rng, n):
    perms = list(itertools.permutations(range(n)))
    while True:
        p, q = rng.choice(perms), rng.choice(perms)
        pm = apply_standard_transform(
            identity(n),
            StandardTransform(p, tuple(one(MAX_PLUS) for _ in range(n)),
                              tuple(one(MAX_PLUS) for _ in range(n)), q),
        )
        bd = bideterminant(pm)
        if bd.plus == one(MAX_PLUS) and bd.minus.is_zero:
            return p, q


def test_bideterminant_transform_invariance():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(2, 3)
        p, q = _even_permutation_pair(rng, n)
        d = [rng.randint(-3, 3) for _ in range(n)]
        e = [-v for v in d]  # D*E has unit bideterminant
        t = StandardTransform(p, tuple(scalar(v) for v in d), tuple(scalar(v) for v in e), q)
        x = matrix(
            [[rng.choice([BOT] + list(range(-3, 4))) for _ in range(n)] for _ in range(n)]
        )
        bx, btx = bideterminant(x), bideterminant(apply_standard_transform(x, t))
        assert (bx.plus, bx.minus) == (btx.plus, btx.minus)


def test_rook_coefficient_preservation():
    # permutations, transpose, and scalar diagonals c, -c have p_j(DE) = unit
    # for every j and preserve the whole rook polynomial
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(2, 3)
        perms = list(itertools.permutations(range(n)))
        p, q = rng.choice(perms), rng.choice(perms)
        c = rng.randint(-3, 3)
        t = StandardTransform(
            p,
            tuple(scalar(c) for _ in range(n)),
            tuple(scalar(-c) for _ in range(n)),
            q,
            transpose=rng.random() < 0.5,
        )
        de = matrix([[0 if i == j else BOT for j in range(n)] for i in range(n)])
        assert all(v == one(MAX_PLUS) for v in rook_coefficients(de)[1:])
        x = matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        assert rook_coefficients(x) == rook_coefficients(apply_standard_transform(x, t))


@pytest.mark.parametrize("call, error", [
    (lambda: bideterminant(matrix([[0, 0]])), DimensionMismatch),
    (lambda: permanent(matrix([[0, 0]])), DimensionMismatch),
    (lambda: is_trop_singular(matrix([[0, 0]])), DimensionMismatch),
    (lambda: apply_standard_transform(matrix([[0, 0]]), StandardTransform((0, 1), (scalar(0),) * 2, (scalar(0),) * 2, (0, 1))),
     DimensionMismatch),
    (lambda: apply_standard_transform(matrix([[0, 0]]), StandardTransform((0,), (scalar(0),), (scalar(0),), (0,))),
     DimensionMismatch),
], ids=["bideterminant", "permanent", "trop-singular", "transform-rows", "transform-cols"])
def test_determ_input_checks_raise(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
