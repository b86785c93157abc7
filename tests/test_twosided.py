import itertools
import random
from fractions import Fraction

import pytest

from tropkit import _cones, twosided
from tropkit.errors import CertificateInvalid, DimensionMismatch, Infeasible, TagMismatch, TooLarge
from tropkit.projector import Semimodule, project
from tropkit.semiring import MIN_PLUS, scalar, sr_residual
from tropkit.tropmat import from_columns, identity, matrix, vector
from tropkit.twosided import (
    InequalitySystem,
    check_solution,
    row_generators,
    solve_system,
)

from twosided_oracle import generators_oracle, intersect_oracle

BOT = "-inf"


def normalized(columns):
    out = set()
    for c in columns:
        finite = [e for e in c.entries if e.is_finite]
        shift = sr_residual(scalar(0), finite[0])
        out.add(tuple(repr(e) for e in c.scale(shift).entries))
    return out


def test_row_generators_examples():
    g = row_generators(vector([0, 3]), vector([2, 1]))
    assert normalized(g.columns()) == {("0", "-inf"), ("0", "-1")}
    s = InequalitySystem(matrix([[0, 3]]), matrix([[2, 1]]))
    for c in g.columns():
        assert check_solution(s, c)
    g2 = row_generators(vector([0, BOT]), vector([BOT, 0]))
    assert normalized(g2.columns()) == {("-inf", "0"), ("0", "0")}
    g3 = row_generators(vector([1, 2]), vector([1, 2]))
    assert normalized(g3.columns()) == {("0", "-inf"), ("-inf", "0")}
    with pytest.raises(Infeasible):
        row_generators(vector([5, 5]), vector([1, 1]))


def test_row_generators_hull_against_grid():
    # cone x1 <= x2: every integer grid solution lies in the generated hull
    a, b = vector([0, BOT]), vector([BOT, 0])
    gens = row_generators(a, b).columns()
    sm = Semimodule(from_columns(gens))
    s = InequalitySystem(matrix([[0, BOT]]), matrix([[BOT, 0]]))
    for p in itertools.product([None] + list(range(-3, 4)), repeat=2):
        x = vector(list(p))
        if x.is_zero or not check_solution(s, x):
            continue
        assert project(sm, x) == x


def test_check_solution_examples():
    s = InequalitySystem(matrix([[0, 3]]), matrix([[2, 1]]))
    assert check_solution(s, vector([BOT, BOT]))
    assert check_solution(s, vector([0, -1]))  # both sides equal 2
    assert s.a.apply(vector([0, -1])) == s.b.apply(vector([0, -1]))
    assert not check_solution(s, vector([0, 0]))  # lhs 3 > rhs 2
    with pytest.raises(DimensionMismatch):
        check_solution(s, vector([0, 0, 0]))
    with pytest.raises(TagMismatch):
        check_solution(s, vector([0, 0], MIN_PLUS))


def test_solve_system_examples():
    a = matrix([[0, 1], [1, 0]])
    s = InequalitySystem(a, a)
    sols = solve_system(s)
    sm = Semimodule(sols.generators)
    for v in (vector([5, -7]), vector([0, 0]), vector([BOT, 3])):
        assert project(sm, v) == v
    # x1 <= x2 and x2 <= x1: the diagonal
    s2 = InequalitySystem(
        matrix([[0, BOT], [BOT, 0]]), matrix([[BOT, 0], [0, BOT]])
    )
    sols2 = solve_system(s2).columns()
    assert len(sols2) == 1
    assert sr_residual(sols2[0][0], sols2[0][1]) == scalar(0)


@pytest.mark.parametrize("m, n", [(7, 2), (2, 7)])
def test_solve_system_above_the_cap_raises_too_large(m, n):
    a = matrix([[i - j for j in range(n)] for i in range(m)])
    with pytest.raises(TooLarge):
        solve_system(InequalitySystem(a, a))


def random_rows(rng, m, n):
    return [[rng.choice([BOT] + list(range(-3, 4))) for _ in range(n)] for _ in range(m)]


def test_unsound_generator_raises_certificate_invalid(monkeypatch):
    # skip the row step: the unit vector e_1 violates 3 + x1 <= 1 + x1
    monkeypatch.setattr(_cones, "_intersect", lambda gens, a, b: gens)
    with pytest.raises(CertificateInvalid):
        solve_system(InequalitySystem(matrix([[0, 3]]), matrix([[2, 1]])))


def test_generator_violating_only_the_last_row_raises_certificate_invalid(monkeypatch):
    # the injected column satisfies the first row and violates the second;
    # the check runs every row, with no assert, so -O keeps it too
    bad = (0, 0)
    s = InequalitySystem(matrix([[0, 0], [1, 0]]), matrix([[0, 0], [0, 0]]))
    assert check_solution(InequalitySystem(matrix([[0, 0]]), matrix([[0, 0]])), vector(bad))
    assert not check_solution(s, vector(bad))
    monkeypatch.setattr(_cones, "_intersect", lambda gens, a, b: [bad])
    with pytest.raises(CertificateInvalid):
        solve_system(s)
    with pytest.raises(CertificateInvalid):
        row_generators(vector([1, 0]), vector([0, 0]))


def test_randomized_soundness_and_completeness():
    rng = random.Random(15)
    for _ in range(50):
        m = rng.randint(1, 3)
        n = rng.randint(2, 3)
        s = InequalitySystem(matrix(random_rows(rng, m, n)), matrix(random_rows(rng, m, n)))
        try:
            sols = solve_system(s).columns()
        except Infeasible:
            sols = []
        for c in sols:
            assert check_solution(s, c)
        sm = Semimodule(from_columns(sols)) if sols else None
        for p in itertools.product([None] + list(range(-3, 4)), repeat=n):
            x = vector(list(p))
            if x.is_zero or not check_solution(s, x):
                continue
            assert sm is not None
            assert project(sm, x) == x


def test_generators_are_minimal_random():
    # no returned generator lies in the span of the others
    rng = random.Random(16)
    checked = 0
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(2, 5)
        s = InequalitySystem(matrix(random_rows(rng, m, n)), matrix(random_rows(rng, m, n)))
        try:
            cols = solve_system(s).columns()
        except Infeasible:
            continue
        for k, c in enumerate(cols):
            others = cols[:k] + cols[k + 1:]
            if others:
                assert project(Semimodule(from_columns(others)), c) != c
                checked += 1
    assert checked > 50


def test_row_order_invariance_random():
    rng = random.Random(17)
    for _ in range(60):
        m, n = rng.randint(2, 4), rng.randint(2, 5)
        a, b = random_rows(rng, m, n), random_rows(rng, m, n)
        perm = list(range(m))
        rng.shuffle(perm)
        answers = []
        for rows in (range(m), perm):
            s = InequalitySystem(matrix([a[i] for i in rows]), matrix([b[i] for i in rows]))
            try:
                answers.append(normalized(solve_system(s).columns()))
            except Infeasible:
                answers.append(None)
        assert answers[0] == answers[1]


def test_single_row_system_equals_row_generators_random():
    # same columns in the same order, and the same infeasibility
    rng = random.Random(18)
    for _ in range(100):
        n = rng.randint(1, 6)
        (a,), (b,) = random_rows(rng, 1, n), random_rows(rng, 1, n)
        try:
            row = row_generators(vector(a), vector(b)).generators
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_system(InequalitySystem(matrix([a]), matrix([b])))
            continue
        assert solve_system(InequalitySystem(matrix([a]), matrix([b]))).generators == row


def payload_types(columns):
    return [tuple(map(type, c)) for c in columns]


def test_tied_combination_keeps_left_payload_type():
    # a combination (a h) g + (b g) h ties two zeros in its first coordinate,
    # one of them reached through Fractions; the laws give both the one
    # canonical payload, so the second generator starts with the int 0, as
    # the oracle's does
    h = Fraction(1, 2)
    s = InequalitySystem(
        matrix([[-1, 0, 1, 0], [1, 3 * h, 1, 3 * h]]),
        matrix([[-h, h, -1, -1], [-h, BOT, 1, 3 * h]]),
    )
    got = [c.payload for c in solve_system(s).columns()]
    assert got == generators_oracle(s)
    assert payload_types(got) == payload_types(generators_oracle(s))
    assert type(got[1][0]) is int


def test_generators_match_object_level_oracle_random():
    # the payload kernel against the projector-based row step and pruning:
    # equal generators in value, order and payload type, up to the cap
    rng = random.Random(19)
    values = [None] * 3 + list(range(-3, 4)) + [Fraction(1, 2), Fraction(-5, 3), Fraction(4, 3)]
    cap = twosided.COMBINATORIAL_CAP
    for _ in range(150):
        m, n = rng.randint(1, cap), rng.randint(1, cap)
        a, b = ([[rng.choice(values) for _ in range(n)] for _ in range(m)] for _ in "ab")
        s = InequalitySystem(matrix(a), matrix(b))
        want = generators_oracle(s)
        try:
            got = [c.payload for c in solve_system(s).columns()]
        except Infeasible:
            got = []
        assert got == want and payload_types(got) == payload_types(want)
        assert not any(type(v) is Fraction and v.denominator == 1 for c in got for v in c)
        row = InequalitySystem(matrix(a[:1]), matrix(b[:1]))
        want = generators_oracle(row)
        try:
            got = [c.payload for c in row_generators(vector(a[0]), vector(b[0])).columns()]
        except Infeasible:
            got = []
        assert got == want and payload_types(got) == payload_types(want)


def test_row_step_matches_payload_oracle_random():
    # the inline row step and order-free pruning against the laws-based row
    # step and one-pass pairwise pruning, chained row by row: equal columns
    # in value, order and payload type, with 0/20/50 % bottoms, Fractions of
    # mixed denominators 2, 3, 6 and 7, weights scaled by 10**25, every shape
    # up to the cap and a few 8x8 systems past it
    rng = random.Random(22)
    cap = twosided.COMBINATORIAL_CAP
    shapes = [(rng.randint(1, cap), rng.randint(1, cap)) for _ in range(240)] + [(8, 8)] * 3
    steps = 0
    for k, (m, n) in enumerate(shapes):
        bottoms, weight = (0, 0.2, 0.5)[k % 3], (1, 10**25)[k % 4 == 0]
        denominators = ((1,), (1, 2), (1, 2, 3, 6, 7))[k // 3 % 3]

        def row():
            return vector([
                None if rng.random() < bottoms
                else Fraction(rng.randint(-3, 3) * weight * (q := rng.choice(denominators)) + rng.randrange(q), q)
                for _ in range(n)
            ]).payload

        gens = list(identity(n).payload)
        for _ in range(m):
            a, b = row(), row()
            got, want = _cones._intersect(gens, a, b), intersect_oracle(gens, a, b)
            assert got == want and payload_types(got) == payload_types(want)
            gens, steps = got, steps + 1
            if not gens:
                break
    assert steps > 500


@pytest.mark.parametrize("call, error", [
    (lambda: row_generators(vector([0]), vector([0, 1])), DimensionMismatch),
    (lambda: row_generators(vector([0], MIN_PLUS), vector([0], MIN_PLUS)), TagMismatch),
], ids=["lengths", "tag"])
def test_row_generators_input_checks_raise(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
