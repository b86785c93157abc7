import enum
import operator
import random
from fractions import Fraction
from functools import reduce
from math import lcm

import pytest

from tropkit import dynamics
from tropkit.assign import (
    AssignMatrix,
    RegularityCertificate,
    apply_b,
    assign_matrix,
    distances_potentials,
    optimal_bijections,
    strong_regularity,
    subdifferential,
)
from tropkit.determ import bideterminant, permanent, rook_coefficients
from tropkit.errors import DivisionByBottom, Divergent, Inconsistent, Infeasible, NoCycle, TagMismatch
from tropkit.plucker import (
    flow_tp,
    grid_edges,
    grid_net,
    interval_masks,
    reconstruct_from_intervals,
    subset_function,
)
from tropkit.projector import project, semimodule
from tropkit.semiring import (
    BOOLEAN,
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    Interval,
    SemiringTag,
    TropScalar,
    _canonical,
    _scaled,
    _unscaled,
    interval,
    iv_binary,
    one,
    parse_rational,
    payload_of,
    payloads_of,
    scalar,
    sr_add,
    sr_mul,
    sr_residual,
    sr_star,
    zero,
)
from tropkit.spectral import collatz_wielandt_certificate, spectral_analysis
from tropkit.tropmat import (
    interval_matrix,
    iv_kleene_star,
    kleene_plus,
    kleene_star,
    mat_mul,
    mat_residual_left,
    matrix,
    vec_residual,
    vector,
)
from tropkit.twosided import InequalitySystem, solve_system


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


@pytest.mark.parametrize("text, value", [
    ("7", 7), ("-7", -7), ("+7", 7), ("1/2", Fraction(1, 2)), ("-6/4", Fraction(-3, 2)),
    ("007/0021", Fraction(1, 3)),
])
def test_parse_rational_accepts_the_documented_syntax(text, value):
    got = parse_rational(text)
    assert got == value and type(got) is Fraction


@pytest.mark.parametrize("text", [
    "1e3", "-1e3", "1.5", "1_0", "1_0.5e1", ".5", "1/0", "1/-2", "1 / 2", "", "/2", "1/",
    "١", "inf", "nan", "0x10", "1e1000000000000",
])
def test_parse_rational_rejects_everything_else(text):
    with pytest.raises(ValueError):
        parse_rational(text)
    with pytest.raises(ValueError):
        scalar(text)


# Every constructor reads a scalar through `payload_of`, so each one takes
# exactly the documented spellings and nothing else.
_PAYLOAD_OF = {
    "scalar": lambda v, tag: scalar(v, tag).value,
    "TropScalar": lambda v, tag: TropScalar(v, tag).value,
    "vector": lambda v, tag: vector([v], tag).payload[0],
    "matrix": lambda v, tag: matrix([[v]], tag).payload[0][0],
}


@pytest.mark.parametrize("make", sorted(_PAYLOAD_OF))
@pytest.mark.parametrize("value, tag, error", [
    (" 3 ", MAX_PLUS, ValueError), ("3 ", MIN_PLUS, ValueError), ("-oo", MAX_PLUS, ValueError),
    ("+oo", MIN_PLUS, ValueError), ("inf", MIN_PLUS, ValueError), (" -inf", MAX_PLUS, ValueError),
    ("+inf", MAX_PLUS, ValueError), ("-inf", MIN_PLUS, ValueError), ("-inf", MAX_TIMES, ValueError),
    (1.0, BOOLEAN, TypeError), (0.0, BOOLEAN, TypeError), (Fraction(1), BOOLEAN, TypeError),
    (2, BOOLEAN, TypeError), ("1", BOOLEAN, TypeError), (None, BOOLEAN, TypeError),
])
def test_every_constructor_rejects_undocumented_spellings(make, value, tag, error):
    with pytest.raises(error):
        _PAYLOAD_OF[make](value, tag)


@pytest.mark.parametrize("make", sorted(_PAYLOAD_OF))
def test_every_constructor_reads_the_documented_spellings(make):
    cases = [
        ("-inf", MAX_PLUS, None), ("+inf", MIN_PLUS, None), (None, MAX_PLUS, None),
        (None, MAX_TIMES, 0), ("6/4", MAX_PLUS, Fraction(3, 2)), ("4/2", MIN_PLUS, 2),
        (Fraction(4, 2), MAX_TIMES, 2), (-3, MAX_PLUS, -3), (True, BOOLEAN, True),
        (0, BOOLEAN, False), (1, BOOLEAN, True), (scalar(3), MAX_PLUS, 3),
        (scalar("+inf", MIN_PLUS), MIN_PLUS, None),
    ]
    for value, tag, want in cases:
        got = _PAYLOAD_OF[make](value, tag)
        assert (got, type(got)) == (want, type(want)), (value, tag)
    with pytest.raises(TagMismatch):
        _PAYLOAD_OF[make](scalar(3), MIN_PLUS)


class _Level(enum.IntEnum):
    LOW = 1


def _cell_pool(tag):
    """Every kind of cell a caller may pass, accepted or not under `tag`."""
    other = MIN_PLUS if tag is not MIN_PLUS else MAX_PLUS
    return [
        -7, 0, 1, 3, 10**30, None, True, False, Fraction(4, 2), Fraction(-5, 3), "7/2", "-6/3",
        "-inf", "+inf", 1.0, -0.5, scalar(0, tag) if tag is not BOOLEAN else scalar(True, tag),
        scalar(2, other), _Level.LOW,
    ]


def _per_cell(row, tag):
    """(payloads, None) or (None, exception type) of the per-cell reader."""
    try:
        return [payload_of(v, tag) for v in row], None
    except (TypeError, ValueError, TagMismatch) as exc:
        return None, type(exc)


def _rows(rng, tag):
    """Seeded rows of length 1 to 40 mixing every kind of cell, and all-int
    rows holding one rejected or non-canonical cell first, in the middle or last."""
    pool = _cell_pool(tag)
    own = [True, False] if tag is BOOLEAN else [0, 1, 2, 5] if tag is MAX_TIMES else [-3, 0, 4, None]
    rows = []
    for _ in range(60):
        n = rng.randint(1, 40)
        rows.append([rng.choice(own) for _ in range(n)])
        rows.append([rng.choice(pool) for _ in range(n)])
        rows.append([rng.choice(own if rng.random() < 0.9 else pool) for _ in range(n)])
    ints = [1] * 40 if tag is BOOLEAN else list(range(40))
    for cell in pool + [-1]:
        for at in (0, 20, 39):
            rows.append(ints[:at] + [cell] + ints[at + 1:])
    return rows


@pytest.mark.parametrize("tag", list(SemiringTag))
def test_row_reader_equals_the_per_cell_reader(tag):
    # `payloads_of` returns a wholly canonical row as it is and reads any
    # other row cell by cell: the payloads, their types and the exception
    # type must be those of `payload_of` on each cell
    rng = random.Random(28)
    for row in _rows(rng, tag):
        want, error = _per_cell(row, tag)
        readers = {
            "payloads_of": lambda: payloads_of(row, tag),
            "payloads_of_iter": lambda: payloads_of(iter(row), tag),
            "vector": lambda: vector(row, tag).payload,
            "matrix": lambda: matrix([row, row], tag).payload[1],
        }
        for name, read in readers.items():
            if error is not None:
                with pytest.raises(error):
                    read()
                continue
            got = read()
            assert type(got) is tuple, name
            assert [(v, type(v)) for v in got] == [(v, type(v)) for v in want], (name, row)


def test_tropscalar_reads_a_same_tag_scalar():
    assert TropScalar(scalar(3), MAX_PLUS) == scalar(3)


# -- scalar operators and order ---------------------------------------------------

# small pools, so that ties, bottoms and the unit come up often
_SCALAR_POOL = {
    MAX_PLUS: [None, -2, 0, 1, Fraction(1, 2), Fraction(-7, 3)],
    MIN_PLUS: [None, -2, 0, 1, Fraction(1, 2), Fraction(-7, 3)],
    MAX_TIMES: [0, 1, 2, Fraction(1, 2), Fraction(7, 3)],
    BOOLEAN: [False, True],
}


def _outcome(call):
    """('value', result) or ('raises', exception type)."""
    try:
        return "value", call()
    except Exception as exc:
        return "raises", type(exc)


def test_scalar_operators_are_the_semiring_functions_random():
    rng = random.Random(29)
    pairs = 0
    for tag, pool in _SCALAR_POOL.items():
        le = tag.ops.le
        for _ in range(150):
            a, b = (scalar(rng.choice(pool), tag) for _ in range(2))
            assert _outcome(lambda: a + b) == _outcome(lambda: sr_add(a, b))
            assert _outcome(lambda: a * b) == _outcome(lambda: sr_mul(a, b))
            assert _outcome(lambda: a / b) == _outcome(lambda: sr_residual(a, b))
            assert _outcome(a.star) == _outcome(lambda: sr_star(a))
            forward, backward = le(a.value, b.value), le(b.value, a.value)
            assert (a <= b) is forward and (a >= b) is backward
            assert (a < b) is (forward and not backward)
            assert (a > b) is (backward and not forward)
            pairs += 1
            for compare in (operator.le, operator.ge, operator.lt, operator.gt):
                assert _outcome(lambda: compare(a, 100)) == ("raises", AttributeError), compare
                assert _outcome(lambda: compare(100, a)) == ("raises", AttributeError), compare
    assert pairs >= 500


# -- canonical payloads from every kernel ----------------------------------------


def _assert_canonical(payloads, tag):
    """An int exactly when the value is integral; bool only under the boolean
    tag; None only as a max-plus or min-plus bottom (the max-times zero is 0)."""
    for v in payloads:
        if tag is BOOLEAN:
            assert type(v) is bool, v
        elif v is None:
            assert tag in (MAX_PLUS, MIN_PLUS)
        else:
            assert type(v) is (int if v.denominator == 1 else Fraction), (tag, v)


def _flat(m):
    return [v for row in m.payload for v in row]


# denominators 1 to 3, so that sums, differences and products land on integers
_THIRDS_HALVES = [Fraction(k, d) for d in (1, 2, 3) for k in range(-4, 5)]
_POSITIVE = [Fraction(k, d) for d in (1, 2, 3) for k in (1, 2, 3, 4, 6)]


def _entry(rng, tag, nonpositive=False):
    if tag is BOOLEAN:
        return rng.random() < 0.7
    if rng.random() < 0.15:
        return None
    if tag is MAX_TIMES:
        return rng.choice(_POSITIVE)
    v = rng.choice(_THIRDS_HALVES)
    if nonpositive:  # every cycle weighs at most the unit: the star converges
        v = -abs(v) if tag is MAX_PLUS else abs(v)
    return v


def _rand_matrix(rng, tag, m, n, nonpositive=False):
    return matrix([[_entry(rng, tag, nonpositive) for _ in range(n)] for _ in range(m)], tag)


def test_every_kernel_returns_canonical_payloads():
    rng = random.Random(20)
    plucker_rng = random.Random(23)  # its own stream, so the draws above stay as they were
    certificates = reconstructions = 0
    for trial in range(240):
        tag = (MAX_PLUS, MIN_PLUS, MAX_TIMES, BOOLEAN)[trial % 4]
        n = rng.randint(1, 4)
        a, b = _rand_matrix(rng, tag, n, n), _rand_matrix(rng, tag, n, n)
        x = vector([_entry(rng, tag) for _ in range(n)], tag)
        c = scalar(rng.choice([True] if tag is BOOLEAN else _POSITIVE), tag)
        outs = [_flat(mat_mul(a, b)), _flat(a + b), _flat(a.scale(c)), a.apply(x).payload,
                x.scale(c).payload, (x + a.row(0)).payload]
        bd = bideterminant(a)
        outs.append([permanent(a).value, bd.plus.value, bd.minus.value])
        outs.append([p.value for p in rook_coefficients(_rand_matrix(rng, tag, n, rng.randint(1, 4)))])
        if tag is not BOOLEAN:
            y = vector([rng.choice(_POSITIVE) for _ in range(n)], tag)
            outs.append([vec_residual(x, y).value])
            outs.append(mat_residual_left(a, x).payload if all(not col.is_zero for col in a.columns()) else [])
            gens = [col for col in a.columns() if not col.is_zero]
            if gens:
                outs.append(project(semimodule(gens, tag), x).payload)
        if tag in (MAX_PLUS, MIN_PLUS):
            s = _rand_matrix(rng, tag, n, n, nonpositive=True)
            outs += [_flat(kleene_star(s)), _flat(kleene_plus(s))]
            iv = iv_kleene_star(interval_matrix(s.scale(scalar(Fraction(-1, 2) if tag is MAX_PLUS else Fraction(1, 2), tag)), s))
            outs += [_flat(iv.lo), _flat(iv.hi)]
            try:
                sa = spectral_analysis(a)
                outs.append([sa.eigenvalue.value] + [v for e in sa.eigenvectors for v in e.payload])
            except NoCycle:
                pass
            if all(any(v is not None for v in row) for row in a.payload):
                lam, u = collatz_wielandt_certificate(a)
                outs.append((lam.value,) + u.payload)
        if tag is MAX_PLUS:
            try:
                outs.append([g for col in solve_system(InequalitySystem(a, b)).columns() for g in col.payload])
            except Infeasible:
                pass
            full = matrix([[v if v is not None else rng.choice(_THIRDS_HALVES) for v in row] for row in a.payload])
            am = AssignMatrix(full)
            outs.append(apply_b(am, [rng.choice(_THIRDS_HALVES) for _ in range(n)]))
            closure, phi, phi_t = distances_potentials(am, optimal_bijections(am)[1][0])
            outs += [_flat(closure), phi.payload, phi_t.payload]
            # and the same matrix with its entries scaled by 6 to integers
            for b in (am, AssignMatrix(matrix([[6 * v for v in row] for row in full.payload]))):
                outs.append([optimal_bijections(b)[0]])
                reg = strong_regularity(b)
                if isinstance(reg, RegularityCertificate):
                    outs += [reg.f, reg.g]
                    certificates += 1
            # plucker tables, from Fractions that may be integral; reconstruction
            # sums and differences can build an integral Fraction as well
            net = grid_net(n, {e: plucker_rng.choice(_THIRDS_HALVES) for e in grid_edges(n)})
            outs.append(flow_tp(net).table)
            outs.append(subset_function(n, {m: plucker_rng.choice(_THIRDS_HALVES + [None]) for m in range(1 << n)}).table)
            intervals = {m: plucker_rng.choice(_THIRDS_HALVES) for m in interval_masks(n)}
            try:
                outs.append(reconstruct_from_intervals(n, intervals).table)
                reconstructions += n >= 3
            except Inconsistent:
                pass
        for out in outs:
            _assert_canonical(out, tag)
    assert certificates >= 50  # strongly regular cases, integer and rational, were checked
    assert reconstructions >= 10  # reconstructions that derive non-interval values


@pytest.mark.parametrize("tag", list(SemiringTag))
def test_dot_equals_the_fold_of_add_over_mul(tag):
    # `dot` is every kernel's sum of products: the payload of the fold, value
    # and type, on rows of length 0 to 9 with 0, 30 and 60 % bottoms and
    # halves and thirds whose sums or products are integral
    ops, rng = tag.ops, random.Random(f"dot-{tag.value}")
    if tag is BOOLEAN:
        pool = [True]
    else:
        pool = [_canonical(v) for v in (_POSITIVE if tag is MAX_TIMES else _THIRDS_HALVES)]
    cases = integral = 0
    for n in range(10):
        for rate in (0, 0.3, 0.6):
            for _ in range(70):
                row, xs = ([ops.zero if rng.random() < rate else rng.choice(pool) for _ in range(n)]
                           for _ in range(2))
                want = reduce(ops.add, map(ops.mul, row, xs), ops.zero)
                got = ops.dot(row, xs)
                assert (got, type(got)) == (want, type(want)), (row, xs)
                cases += 1
                integral += type(want) is int and Fraction in set(map(type, row + xs))
    assert cases >= 2000
    assert tag is BOOLEAN or integral >= 100


def test_scaled_round_trips_through_unscaled_random():
    rng = random.Random(23)
    for trial in range(400):
        n = rng.randint(1, 12)
        big = 10 ** rng.choice((1, 6, 30))
        den = 1 if trial % 3 == 0 else rng.choice((2, 3, 7, 10**6, 10**30))  # every third list is all ints
        values = [None if rng.random() < 0.2 else _canonical(Fraction(rng.randint(-big, big), rng.randint(1, den)))
                  for _ in range(n)]
        for base in (1, lcm(*range(1, n + 1))):
            ints, scale = _scaled(list(values), base)
            assert scale % base == 0
            assert all((v is None) == (x is None) and (v is None or type(v) is int) for v, x in zip(ints, values))
            back = [_unscaled(v, scale) for v in ints]
            assert back == values
            _assert_canonical(back, MAX_PLUS)


def test_floats_and_bools_are_rejected_at_every_rational_entry():
    road = dynamics.road_event_graph([1, 0, 1, 0])
    am = assign_matrix([[0, 1], [2, 0]])
    edge = grid_edges(2)[0]
    entries = {
        "dynamics.term constant": lambda x: dynamics.term(x, [1]),
        "dynamics.term exponent": lambda x: dynamics.term(0, [x, 1]),
        "dynamics.uterm": lambda x: dynamics.uterm(x, [1, -1]),
        "dynamics.hom_iterate x0": lambda x: dynamics.hom_iterate(road, [x, 0, 0, 0], 4),
        "dynamics.hom_iterate spread_bound": lambda x: dynamics.hom_iterate(road, [0, 0, 0, 0], 4, x),
        "dynamics.HomogeneousMap.__call__": lambda x: road([x, 0, 0, 0]),
        "dynamics.tent_trajectory": lambda x: dynamics.tent_trajectory(x, 2),
        "dynamics.fundamental_diagram": lambda x: dynamics.fundamental_diagram(
            dynamics.single_road_builder(4), [x], steps=4),
        "plucker.subset_function": lambda x: subset_function(1, {0: x, 1: 1}),
        "plucker.grid_net": lambda x: grid_net(2, {edge: x}),
        "plucker.reconstruct_from_intervals": lambda x: reconstruct_from_intervals(1, {0: x, 1: 0}),
        "assign.apply_b": lambda x: apply_b(am, [x, 0]),
        "assign.subdifferential": lambda x: subdifferential(am, [x, 0]),
    }
    accepted = []
    for name, call in entries.items():
        for x in (0.5, 1.0, True, False):
            try:
                call(x)
            except TypeError as exc:
                assert "exact rational required" in str(exc), (name, x, exc)
            else:
                accepted.append((name, x))
    assert accepted == []


@pytest.mark.parametrize("call, error", [
    (lambda: iv_binary("pow", interval(0, 1), interval(0, 1)), ValueError),
    (lambda: iv_binary("add", interval(0, 1), interval(1, 0, MIN_PLUS)), TagMismatch),
], ids=["unknown-op", "tags"])
def test_interval_operation_checks_raise(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
