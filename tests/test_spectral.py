import itertools
import math
import random
from fractions import Fraction

import pytest

from tropkit import spectral
from tropkit.errors import CertificateInvalid, DimensionMismatch, NoCycle, Unbounded
from tropkit.semiring import MAX_PLUS, MAX_TIMES, MIN_PLUS, one, scalar, sr_mul, sr_residual
from tropkit.spectral import (
    collatz_wielandt_certificate,
    max_cycle_mean,
    spectral_analysis,
)
from tropkit.tropmat import TropMatrix, kleene_star, mat_mul, matrix, vector

from cycle_oracle import (
    cycle_means_bruteforce,
    max_cycle_mean_bruteforce,
    max_cycle_mean_karp,
    spectral_analysis_closure,
)

BOT = "-inf"


def test_cycle_mean_examples():
    a = matrix([[BOT, 2], [0, BOT]])
    assert max_cycle_mean(a) == scalar(1)
    # oracle: the single 2-cycle has weight 2
    means = cycle_means_bruteforce(a)
    assert [(c, m) for c, m in means] == [((0, 1), Fraction(1))]
    assert max_cycle_mean(matrix([[3]])) == scalar(3)
    with pytest.raises(NoCycle):
        max_cycle_mean(matrix([[BOT, 1], [BOT, BOT]]))


def test_circular_road_instance():
    # m=4 cells, one car: eigenvalue 1/4 in min-plus
    occ = [1, 0, 0, 0]
    rows = []
    for i in range(4):
        row = ["+inf"] * 4
        row[(i - 1) % 4] = occ[(i - 1) % 4]
        row[(i + 1) % 4] = 1 - occ[i]
        rows.append(row)
    r = matrix(rows, MIN_PLUS)
    lam = max_cycle_mean(r)
    assert lam == scalar(Fraction(1, 4), MIN_PLUS)
    assert max_cycle_mean_bruteforce(r) == lam


def test_karp_equals_bruteforce_random():
    rng = random.Random(7)
    for _ in range(250):
        n = rng.randint(2, 6)
        tag = rng.choice([MAX_PLUS, MIN_PLUS])
        bot = BOT if tag is MAX_PLUS else "+inf"
        m = matrix(
            [
                [rng.choice([bot] + list(range(-5, 6))) for _ in range(n)]
                for _ in range(n)
            ],
            tag,
        )
        try:
            k = max_cycle_mean(m)
        except NoCycle:
            k = "nocycle"
        try:
            bf = max_cycle_mean_bruteforce(m)
        except NoCycle:
            bf = "nocycle"
        assert k == bf


@pytest.mark.parametrize("tag", [MAX_PLUS, MIN_PLUS])
@pytest.mark.parametrize("unit", [1, Fraction(1, 3), Fraction(-5, 2)])
def test_karp_tied_ratios_against_oracle(tag, unit):
    # a loop of weight 2, a 2-cycle of weight 4 and a 3-cycle of weight 6
    # all have mean 2, so cycles of different lengths tie for the eigenvalue
    bot = BOT if tag is MAX_PLUS else "+inf"
    w = [[2, 1, bot], [3, bot, 0], [5, bot, bot]]
    m = matrix([[v if v == bot else v * unit for v in row] for row in w], tag)
    lam = max_cycle_mean(m)
    assert lam == scalar(2 * unit, tag) == max_cycle_mean_bruteforce(m)
    assert type(lam.value) is type(max_cycle_mean_bruteforce(m).value)


def test_karp_equals_bruteforce_rational_random():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 5)
        tag = rng.choice([MAX_PLUS, MIN_PLUS])
        bot = BOT if tag is MAX_PLUS else "+inf"
        m = matrix(
            [
                [rng.choice([bot, Fraction(rng.randint(-6, 6), rng.randint(1, 4))]) for _ in range(n)]
                for _ in range(n)
            ],
            tag,
        )
        try:
            k = max_cycle_mean(m)
        except NoCycle:
            with pytest.raises(NoCycle):
                max_cycle_mean_bruteforce(m)
            continue
        bf = max_cycle_mean_bruteforce(m)
        assert k == bf and type(k.value) is type(bf.value)


def _random_matrix(rng, n, tag):
    # bottoms, ties from a narrow range of weights, and rationals
    bot = BOT if tag is MAX_PLUS else "+inf"
    p_bot = rng.choice([0, 0.3, 0.6, 0.85])
    span = rng.choice([1, 2, 10])
    den = rng.choice([1, 1, 3])
    return matrix(
        [[bot if rng.random() < p_bot else Fraction(rng.randint(-span, span), rng.randint(1, den))
          for _ in range(n)] for _ in range(n)],
        tag,
    )


def test_max_cycle_mean_equals_karp_random():
    # Karp's recurrence checks sizes that cycle enumeration cannot reach
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 40)
        m = _random_matrix(rng, n, rng.choice([MAX_PLUS, MIN_PLUS]))
        try:
            k = max_cycle_mean_karp(m)
        except NoCycle:
            with pytest.raises(NoCycle):
                max_cycle_mean(m)
            continue
        lam = max_cycle_mean(m)
        assert lam == k and type(lam.value) is type(k.value)


def test_cycle_time_equals_karp_on_reachable_submatrix_random():
    # chi_l is the eigenvalue of the submatrix on the nodes that l reaches
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randint(1, 16)
        tag = rng.choice([MAX_PLUS, MIN_PLUS])
        m = _random_matrix(rng, n, tag)
        chi, _ = spectral._cycle_time(m)
        for l in range(n):
            reach, todo = {l}, [l]
            while todo:
                i = todo.pop()
                for j in range(n):
                    if m.payload[i][j] is not None and j not in reach:
                        reach.add(j)
                        todo.append(j)
            nodes = sorted(reach)
            sub = matrix([[m.payload[i][j] for j in nodes] for i in nodes], tag)
            try:
                k = max_cycle_mean_karp(sub).value
            except NoCycle:
                assert chi[l] is None
                continue
            assert chi[l] == (k if tag is MAX_PLUS else -k) and type(chi[l]) is type(k)


def test_critical_graph_examples():
    res = spectral_analysis(matrix([[BOT, 2], [0, BOT]]))
    assert res.critical_nodes == frozenset({0, 1})
    assert res.critical_edges == frozenset({(0, 1), (1, 0)})
    assert len(res.critical_classes) == 1
    res2 = spectral_analysis(matrix([[0, BOT], [BOT, -1]]))
    assert res2.critical_nodes == frozenset({0})
    res3 = spectral_analysis(matrix([[3]]))
    assert res3.critical_nodes == frozenset({0})
    assert res3.critical_edges == frozenset({(0, 0)})


def test_critical_nodes_equal_plus_closure_diagonal_random():
    # oracle: i is critical iff (N N*)_ii is the unit, N the normalized matrix
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 7)
        tag = rng.choice([MAX_PLUS, MIN_PLUS])
        bot = BOT if tag is MAX_PLUS else "+inf"
        m = matrix(
            [[rng.choice([bot, bot] + list(range(-5, 6))) for _ in range(n)] for _ in range(n)],
            tag,
        )
        try:
            res = spectral_analysis(m)
        except NoCycle:
            continue
        norm = m.scale(sr_residual(one(tag), res.eigenvalue))
        plus = mat_mul(norm, kleene_star(norm))
        assert res.critical_nodes == frozenset(i for i in range(n) if plus[i, i] == one(tag))


def test_critical_graph_equals_cycle_enumeration_random():
    # oracle: the critical graph is the union of the simple cycles whose mean
    # is the eigenvalue, and the critical classes are its strongly connected
    # components, found here by reachability
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randint(1, 6)
        tag = rng.choice([MAX_PLUS, MIN_PLUS])
        bot = BOT if tag is MAX_PLUS else "+inf"
        m = matrix(
            [[rng.choice([bot, bot] + list(range(-3, 4))) for _ in range(n)] for _ in range(n)],
            tag,
        )
        try:
            res = spectral_analysis(m)
        except NoCycle:
            continue
        cycles = [c for c, mean in cycle_means_bruteforce(m) if mean == res.eigenvalue.value]
        edges = {(c[k], c[(k + 1) % len(c)]) for c in cycles for k in range(len(c))}
        nodes = {i for c in cycles for i in c}
        assert res.critical_nodes == nodes and res.critical_edges == edges
        reach = {i: {j for i2, j in edges if i2 == i} for i in nodes}
        for _ in nodes:
            reach = {i: r.union(*(reach[j] for j in r)) for i, r in reach.items()}
        classes = {frozenset(j for j in reach[i] if i in reach[j]) for i in nodes}
        assert set(res.critical_classes) == classes
        assert [min(c) for c in res.critical_classes] == sorted(min(c) for c in classes)


def _assert_canonical(res):
    # an integral payload is an int, never an integral Fraction
    values = [res.eigenvalue.value] + [x for v in res.eigenvectors for x in v.payload if x is not None]
    assert all(type(x) is int or x.denominator != 1 for x in values)


def test_spectral_analysis_equals_closure_oracle_random():
    # every field, the order of the classes and the generator values agree
    # with the normalized closure; reducible instances bottom every entry
    # from a trailing block of nodes into a leading one
    rng = random.Random(16)
    for t in range(800):
        n = rng.randint(15, 40) if t % 20 == 0 else rng.randint(1, 14)
        tag = rng.choice([MAX_PLUS, MIN_PLUS])
        m = _random_matrix(rng, n, tag)
        if rng.random() < 0.3:
            cut = rng.randint(0, n)
            m = matrix([[None if i >= cut > j else v for j, v in enumerate(row)] for i, row in enumerate(m.payload)], tag)
        try:
            want = spectral_analysis_closure(m)
        except NoCycle:
            with pytest.raises(NoCycle):
                spectral_analysis(m)
            continue
        res = spectral_analysis(m)
        assert res.eigenvalue == want.eigenvalue
        assert type(res.eigenvalue.value) is type(want.eigenvalue.value)
        assert res.critical_nodes == want.critical_nodes
        assert res.critical_edges == want.critical_edges
        assert res.critical_classes == want.critical_classes
        assert res.eigenvectors == want.eigenvectors
        _assert_canonical(res)


def test_spectral_analysis_rational_eigenvalue_n40():
    # a dense_matrix-style instance whose weights are at most 8 apart from the
    # cycle 1 -> 2 -> 3 -> 1 of weights 9, 9, 10: every other cycle has mean
    # at most 9, so lambda = 28/3 and that cycle is the one critical class
    rng = random.Random(28)
    n = 40
    rows = [[None if rng.random() < 0.3 else rng.randint(-9, 8) for _ in range(n)] for _ in range(n)]
    for i in range(n):  # a Hamiltonian cycle
        if rows[i][(i + 1) % n] is None:
            rows[i][(i + 1) % n] = rng.randint(-9, 8)
    rows[0][0] = 8
    rows[1][2], rows[2][3], rows[3][1] = 9, 9, 10
    m = matrix(rows)
    res = spectral_analysis(m)
    assert res.eigenvalue == scalar(Fraction(28, 3))
    assert res.critical_classes == (frozenset({1, 2, 3}),)
    assert res.critical_edges == frozenset({(1, 2), (2, 3), (3, 1)})
    assert res == spectral_analysis_closure(m)
    (v,) = res.eigenvectors
    assert m.apply(v) == v.scale(res.eigenvalue) and v[1] == scalar(0)
    _assert_canonical(res)
    _assert_collatz_wielandt(m)


def test_spectral_analysis_large_ring_without_recursion():
    # a 1,500-node ring is deeper than the interpreter's default recursion
    # limit; its weights i mod 3 sum to 1,500, so lambda = 1 and all of it
    # is critical
    n = 1500
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = i % 3
    m = TropMatrix._trusted(tuple(map(tuple, rows)), MAX_PLUS)
    res = spectral_analysis(m)
    assert res.eigenvalue == scalar(1)
    assert res.critical_nodes == frozenset(range(n))
    assert res.critical_edges == frozenset((i, (i + 1) % n) for i in range(n))
    assert res.critical_classes == (frozenset(range(n)),)
    (v,) = res.eigenvectors
    assert m.apply(v) == v.scale(res.eigenvalue) and v[0] == scalar(0)


def _path(n):
    """Rows of the path 0 -> 1 -> ... -> n - 1 of weight 1 per edge."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
    return rows


def test_long_path_has_no_cycle():
    # every node of the path is dropped before Howard runs, the last first
    m = TropMatrix._trusted(tuple(map(tuple, _path(2000))), MAX_PLUS)
    with pytest.raises(NoCycle):
        max_cycle_mean(m)


@pytest.mark.parametrize("tag", [MAX_PLUS, MIN_PLUS])
def test_path_feeding_a_loop_gets_the_loop_mean(tag):
    # the 2-cycle n-2 <-> n-1 of weights 1 and 2 ends the path: every node reaches it
    n = 300
    rows = _path(n)
    rows[n - 1][n - 2] = 2
    m = TropMatrix._trusted(tuple(map(tuple, rows)), tag)
    assert max_cycle_mean(m) == scalar(Fraction(3, 2), tag)
    chi, _ = spectral._cycle_time(m)
    assert chi == [Fraction(3, 2) if tag is MAX_PLUS else Fraction(-3, 2)] * n
    res = spectral_analysis(m)
    assert res.critical_classes == (frozenset({n - 2, n - 1}),)


def test_dead_rows_and_acyclic_tails_agree_with_karp_random():
    # a random core, some of its rows emptied, and a tail of nodes whose
    # edges only go further down the tail, shuffled into the core
    rng = random.Random(33)
    outcomes = set()
    for _ in range(200):
        core, tail = rng.randint(1, 8), rng.randint(0, 8)
        n, tag = core + tail, rng.choice([MAX_PLUS, MIN_PLUS])
        share = rng.choice([0.3, 0.7, 0.9])
        weight = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        rows = [[None] * n for _ in range(n)]
        for i in range(core):
            if rng.random() < 0.2:
                continue  # an all-bottom row
            for j in range(n):
                if rng.random() > share:
                    rows[i][j] = weight()
        for i in range(core, n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i][j] = weight()
        order = rng.sample(range(n), n)
        m = matrix([[rows[i][j] for j in order] for i in order], tag)
        try:
            k = max_cycle_mean_karp(m)
        except NoCycle:
            with pytest.raises(NoCycle):
                max_cycle_mean(m)
            outcomes.add("acyclic")
            continue
        assert max_cycle_mean(m) == k
        assert spectral_analysis(m).eigenvalue == k
        outcomes.add("cyclic")
    assert outcomes == {"acyclic", "cyclic"}


def test_cycle_time_of_integral_fraction_weights():
    # payloads a kernel left as integral Fractions take the general scaling
    # path and give the same integers as int payloads
    rows = [[3, 5, None, None], [None, 1, None, None], [0, None, None, 2], [None] * 4]
    ints = TropMatrix._trusted(tuple(map(tuple, rows)), MAX_PLUS)
    fracs = TropMatrix._trusted(
        tuple(tuple(None if v is None else Fraction(v) for v in row) for row in rows), MAX_PLUS
    )
    assert spectral._cycle_time(ints) == spectral._cycle_time(fracs) == ([3, 1, 3, None], [4, 0, 1, None])
    for a in (ints, fracs):
        assert spectral._howard(a)[1:4] == ([3, 1, 3, None], [4, 0, 1, None], 1)


def test_howard_grows_the_scale_by_the_least_factor_a_cycle_needs():
    # a 2-cycle of weights 1, 0 beside a disjoint 3-cycle of weights 1, 0, 0:
    # the means 1/2 and 1/3 need scale 6, where lcm(1..5) would be 60
    rows = [[None] * 5 for _ in range(5)]
    rows[0][1], rows[1][0] = 1, 0
    rows[2][3], rows[3][4], rows[4][2] = 1, 0, 0
    for tag in (MAX_PLUS, MIN_PLUS):
        a = matrix(rows, tag)
        sign, chi, _, scale, _ = spectral._howard(a)
        assert ([sign * c for c in chi], scale) == ([3, 3, 2, 2, 2], 6)
        assert spectral._cycle_time(a)[0] == [Fraction(sign, 2)] * 2 + [Fraction(sign, 3)] * 3
    # a 4-cycle of weights 1, 1, 0, 0 has mean 2/4: the factor is 4 / gcd(2, 4) = 2, not 4
    cycle = matrix([[None, 1, None, None], [None, None, 1, None], [None, None, None, 0], [0, None, None, None]])
    assert spectral._howard(cycle)[1:4] == ([1, 1, 1, 1], [0, -1, -2, -1], 2)


def test_howard_starts_from_each_nodes_first_best_edge():
    # node 1's first best edge is 1 -> 0, so the first policy cycle is
    # 0 -> 1 -> 0 of mean 5/2: it grows the scale to 2, which the loop at
    # node 1 (mean 3) keeps, and the loop's root keeps the bias 1/2 that
    # cycle gave it; starting from the loop would give eta = (-1, 0)
    a = matrix([[0, 2], [3, 3]])
    assert spectral._howard(a)[1:4] == ([6, 6], [-1, 1], 2)
    assert spectral._cycle_time(a) == ([3, 3], [Fraction(-1, 2), Fraction(1, 2)])


def test_spectral_elements_at_bench_sizes_random():
    # n = 12, 24 and 40, where lcm(1..n) passes 2^30: ints or p/q entries,
    # 0 or 30 % bottoms, both tags; the scale Howard returns divides the
    # lcm of 1..n and of the entries' denominators
    rng = random.Random(44)
    grew = False
    for n, p_bot, den, tag in itertools.product((12, 24, 40), (0, 0.3), (1, 4), (MAX_PLUS, MIN_PLUS)):
        rows = [[None if rng.random() < p_bot else Fraction(rng.randint(-9, 9), rng.randint(1, den))
                 for _ in range(n)] for _ in range(n)]
        for row in rows:  # an all-zero row is Unbounded for Collatz-Wielandt
            if all(v is None for v in row):
                row[rng.randrange(n)] = rng.randint(-9, 9)
        a = matrix(rows, tag)
        lam = max_cycle_mean(a)
        assert lam == max_cycle_mean_karp(a)
        res = spectral_analysis(a)
        assert res.eigenvalue == lam
        for cls, v in zip(res.critical_classes, res.eigenvectors):
            assert a.apply(v) == v.scale(lam) and v[min(cls)] == scalar(0, tag)
        _assert_collatz_wielandt(a)
        denominators = math.lcm(*(Fraction(v).denominator for row in rows for v in row if v is not None))
        scale = spectral._howard(a)[3]
        assert math.lcm(*range(1, n + 1)) * denominators % scale == 0
        grew |= scale > denominators
    assert grew


def test_eigenvector_examples():
    vs = spectral_analysis(matrix([[BOT, 2], [0, BOT]])).eigenvectors
    assert vs == (vector([0, -1]),)
    # identity: lambda = 0, both unit vectors are generators
    vs2 = spectral_analysis(matrix([[0, BOT], [BOT, 0]])).eigenvectors
    assert len(vs2) == 2
    assert vs2[0] == vector([0, BOT]) and vs2[1] == vector([BOT, 0])
    assert spectral_analysis(matrix([[3]])).eigenvectors == (vector([0]),)


def test_eigenvectors_exact_random():
    rng = random.Random(8)
    for _ in range(150):
        n = rng.randint(2, 5)
        m = matrix(
            [
                [rng.choice([BOT] + list(range(-5, 6))) for _ in range(n)]
                for _ in range(n)
            ]
        )
        try:
            res = spectral_analysis(m)
        except NoCycle:
            continue
        assert res.eigenvectors
        for v in res.eigenvectors:
            assert m.apply(v) == v.scale(res.eigenvalue)
        # normalization: the representative coordinate carries the unit
        for cls, v in zip(res.critical_classes, res.eigenvectors):
            assert v[min(cls)] == scalar(0)


def test_cycle_time_of_reducible_matrix():
    # node 0 (loop 3) reaches node 1 (loop 1), node 2 reaches node 0 and
    # node 3 reaches no cycle; the bias keeps only edges of equal growth,
    # so the edge 0 -> 1 of weight 5 does not raise eta_0; the first policy
    # takes that edge and sets eta_0 = 5 - 1 + eta_1 = 4, which the root of
    # the loop at node 0 keeps once the policy switches to it
    a = matrix([[3, 5, BOT, BOT], [BOT, 1, BOT, BOT], [0, BOT, BOT, 2], [BOT] * 4])
    assert spectral._cycle_time(a) == ([3, 1, 3, None], [4, 0, 1, None])


def test_cycle_time_against_cycle_enumeration_random():
    rng = random.Random(10)
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = [[rng.choice([BOT, BOT] + [Fraction(v, rng.choice([1, 2])) for v in range(-5, 6)])
                 for _ in range(n)] for _ in range(n)]
        a = matrix(rows)
        chi, eta = spectral._cycle_time(a)
        reach = [{i} for i in range(n)]  # nodes reachable by paths of length >= 0
        for _ in range(n):
            reach = [r | {j for i in r for j in range(n) if a.payload[i][j] is not None} for r in reach]
        means = cycle_means_bruteforce(a)
        for l in range(n):
            reached = [m for cyc, m in means if cyc[0] in reach[l]]
            assert chi[l] == (max(reached) if reached else None)
            if chi[l] is None:
                assert eta[l] is None
                continue
            level = [
                a.payload[l][i] + eta[i] for i in range(n) if a.payload[l][i] is not None and chi[i] == chi[l]
            ]
            assert eta[l] == max(level) - chi[l]


def test_scaling_invariance():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        c = scalar(rng.randint(-3, 3))
        assert max_cycle_mean(m.scale(c)) == sr_mul(c, max_cycle_mean(m))


def test_collatz_wielandt():
    a = matrix([[BOT, 2], [0, BOT]])
    lam, u = collatz_wielandt_certificate(a)
    assert lam == scalar(1)
    au = a.apply(u)
    residuals = [au[i].value - u[i].value for i in range(2)]
    assert max(residuals) == 1
    assert collatz_wielandt_certificate(matrix([[3]]))[0] == scalar(3)
    with pytest.raises(Unbounded):
        collatz_wielandt_certificate(matrix([[BOT, BOT], [0, 0]]))
    with pytest.raises(Unbounded):
        collatz_wielandt_certificate(matrix([[1, 2], ["+inf", "+inf"]], MIN_PLUS))


def test_collatz_wielandt_equals_cycle_mean_random():
    rng = random.Random(10)
    for _ in range(120):
        n = rng.randint(2, 5)
        m = matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        assert collatz_wielandt_certificate(m)[0] == max_cycle_mean(m)
        # grid of vectors only bounds the infimum from above
        lam = max_cycle_mean(m).value
        for _ in range(10):
            u = [rng.randint(-3, 3) for _ in range(n)]
            val = max(
                max(m[i, j].value + u[j] for j in range(n)) - u[i] for i in range(n)
            )
            assert val >= lam


def _assert_collatz_wielandt(m):
    # the value is the eigenvalue and the finite witness attains it, recomputed
    # here with plain Fraction arithmetic
    lam, u = collatz_wielandt_certificate(m)
    assert lam == max_cycle_mean(m)
    assert all(x is not None for x in u.payload)
    best = max if m.tag is MAX_PLUS else min
    u = [Fraction(x) for x in u.payload]
    au = [best(Fraction(v) + x for v, x in zip(row, u) if v is not None) for row in m.payload]
    assert best(y - x for y, x in zip(au, u)) == lam.value


def test_collatz_wielandt_witness_random():
    # min-plus, bottoms, rationals and reducible matrices up to n = 15
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 15)
        tag = rng.choice([MAX_PLUS, MIN_PLUS])
        rows = [list(row) for row in _random_matrix(rng, n, tag).payload]
        if rng.random() < 0.3:  # block triangular: no edge from the last nodes back
            k = rng.randint(1, n)
            for row in rows[k:]:
                row[:k] = [None] * k
        for i, row in enumerate(rows):  # an all-zero row is Unbounded
            if all(v is None for v in row):
                row[rng.randrange(i, n)] = rng.randint(-3, 3)
        _assert_collatz_wielandt(TropMatrix._trusted(tuple(map(tuple, rows)), tag))


def test_collatz_wielandt_rejects_a_witness_that_misses_the_value(monkeypatch):
    # on [[-inf, 2], [0, -inf]] (scale 1, chi = (1, 1)) the bias (0, -10)
    # is the witness itself, which attains 10, not lambda = 1; the check
    # rejects it, with asserts stripped too
    howard = spectral._howard

    def corrupted(a):
        sign, chi, _, scale, succ = howard(a)
        return sign, chi, [0, -10], scale, succ

    monkeypatch.setattr(spectral, "_howard", corrupted)
    with pytest.raises(CertificateInvalid):
        collatz_wielandt_certificate(matrix([[BOT, 2], [0, BOT]]))


@pytest.mark.parametrize("call, error", [
    (lambda: max_cycle_mean(matrix([[0, 0]])), DimensionMismatch),
    (lambda: max_cycle_mean(matrix([[1]], MAX_TIMES)), ValueError),
    (lambda: spectral_analysis(matrix([[1]], MAX_TIMES)), ValueError),
], ids=["square", "max-times", "analysis-max-times"])
def test_spectral_input_checks_raise(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
