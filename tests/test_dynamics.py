import random
from fractions import Fraction

import pytest

from tropkit.dynamics import (
    DEFAULT_SPREAD_BOUND,
    CrossingMap,
    HomogeneousMap,
    MinPlusTerm,
    RingWord,
    T1HSystem,
    build_crossing,
    coordinate_rates,
    crossing_builder,
    eigen_reduce,
    exclusion_run,
    four_phase_product,
    fundamental_diagram,
    hom_iterate,
    light_gate_marking,
    road_event_graph,
    single_road_builder,
    spread_cars,
    t1h_simulate,
    tent_system,
    tent_trajectory,
    term,
    traffic_light_system,
    uterm,
    uterm_matrix,
)
from tropkit.errors import BadConfig, DimensionMismatch, Diverged
from tropkit.semiring import MIN_PLUS, scalar
from tropkit.spectral import max_cycle_mean
from tropkit.tropmat import matrix


def test_exclusion_reference_sequence():
    traj, flows = exclusion_run(RingWord.from_string("1101001001"), 4)
    assert [str(w) for w in traj[1:]] == [
        "1010100101",
        "0101010011",
        "1010101010",
        "0101010101",
    ]


def test_exclusion_simple_cases():
    traj, flows = exclusion_run(RingWord.from_string("1010"), 1)
    assert str(traj[1]) == "0101" and flows[0] == Fraction(1, 2)
    traj0, flows0 = exclusion_run(RingWord.from_string("0000"), 3)
    assert str(traj0[-1]) == "0000" and all(f == 0 for f in flows0)


def test_exclusion_long_run_flow():
    rng = random.Random(31)
    for _ in range(20):
        m = rng.randint(2, 12)
        n = rng.randint(0, m)
        bits = [0] * m
        for c in spread_cars(m, n):
            bits[c] = 1
        rng.shuffle(bits)
        w = RingWord(tuple(bits))
        _, flows = exclusion_run(w, 4 * m + 6)
        want = min(Fraction(n, m), Fraction(m - n, m))
        assert all(f == want for f in flows[4 * m :])


def test_road_event_graph_law():
    for m in range(2, 10):
        for n in range(0, m + 1):
            occ = [0] * m
            for c in spread_cars(m, n):
                occ[c] = 1
            f = road_event_graph(occ)
            lam = max_cycle_mean(f.linear_matrix())
            want = min(Fraction(n, m), Fraction(m - n, m), Fraction(1, 2))
            assert lam == scalar(want, MIN_PLUS)


def test_exclusion_event_graph_agreement():
    # after the transient, counter growth equals the exclusion flow
    rng = random.Random(32)
    for _ in range(10):
        m = rng.randint(3, 9)
        n = rng.randint(0, m)
        bits = [0] * m
        for c in spread_cars(m, n):
            bits[c] = 1
        f = road_event_graph(bits)
        traj, lam = hom_iterate(f, [0] * m, 8 * m)
        _, flows = exclusion_run(RingWord(tuple(bits)), 8 * m)
        want = min(Fraction(n, m), Fraction(m - n, m))
        assert lam == want
        assert flows[-1] == want


def test_hom_iterate_examples():
    f = road_event_graph([1, 0, 0, 0])
    _, lam = hom_iterate(f, [0, 0, 0, 0], 64)
    assert lam == Fraction(1, 4)
    perm = HomogeneousMap(
        3,
        tuple(
            (term(0, [1 if j == (i + 1) % 3 else 0 for j in range(3)]),)
            for i in range(3)
        ),
    )
    _, lam0 = hom_iterate(perm, [0, 1, 2], 32)
    assert lam0 == 0
    _, lamt = hom_iterate(tent_system(), [0, 0], 64)
    assert lamt == 0


def test_hom_iterate_diverged():
    grow = HomogeneousMap(2, ((term(0, (2, -1)),), (term(0, (-1, 2)),)))
    with pytest.raises(Diverged):
        hom_iterate(grow, [0, 10], 200, spread_bound=Fraction(100))


def test_degree_one_homogeneity_and_monotonicity():
    rng = random.Random(33)
    road = road_event_graph([1, 0, 1, 0, 0])
    cross_ff = build_crossing(3, 4, [0, 4], "fifty_fifty")
    cross_pr = build_crossing(3, 4, [0, 4], "priority")
    for f, monotone in ((road, True), (cross_ff, True), (cross_pr, False)):
        dim = f.dim
        for _ in range(25):
            x = [Fraction(rng.randint(-5, 5)) for _ in range(dim)]
            c = Fraction(rng.randint(-3, 3))
            fx = f(x)
            assert f([v + c for v in x]) == [v + c for v in fx]
            if monotone:
                y = [v + Fraction(rng.randint(0, 2)) for v in x]
                assert all(p <= q for p, q in zip(fx, f(y)))


def test_eigen_reduce_tent():
    red = eigen_reduce(tent_system())
    for num in range(0, 11):
        y = Fraction(num, 10)
        assert red.g([y]) == [min(2 * y, 2 - 2 * y)]
    assert red.is_fixed_point([Fraction(0)]) and red.is_fixed_point([Fraction(2, 3)])
    assert red.lam([Fraction(0)]) == 0 and red.lam([Fraction(2, 3)]) == 0


def test_eigen_reduce_linear():
    f = road_event_graph([1, 0])
    red = eigen_reduce(f)
    lam = max_cycle_mean(f.linear_matrix()).value
    fixed = [Fraction(num, 2) for num in range(-8, 9) if red.is_fixed_point([Fraction(num, 2)])]
    assert fixed
    assert any(red.lam([y]) == lam for y in fixed)


def test_tent_trajectory():
    orbit, _ = tent_trajectory(Fraction(0), 5)
    assert all(v == 0 for v in orbit)
    orbit, _ = tent_trajectory(Fraction(2, 3), 5)
    assert all(v == Fraction(2, 3) for v in orbit)
    orbit, _ = tent_trajectory(Fraction(1, 5), 6)
    assert orbit[:4] == [Fraction(1, 5), Fraction(2, 5), Fraction(4, 5), Fraction(2, 5)]
    _, hist = tent_trajectory(Fraction(1, 7), 100, bins=10)
    assert sum(hist) == 101


def test_build_crossing_validation():
    with pytest.raises(BadConfig):
        build_crossing(3, 3, [1, 1])
    with pytest.raises(BadConfig):
        build_crossing(3, 3, [99])
    with pytest.raises(BadConfig):
        build_crossing(1, 3, [])


def test_crossing_policies_share_one_geometry():
    ff = build_crossing(3, 4, [1, 4], "fifty_fifty")
    pr = build_crossing(3, 4, [1, 4], "priority")
    assert type(ff) is HomogeneousMap and isinstance(pr, CrossingMap)
    entries = (pr.entry1, pr.entry2)
    assert entries == (2, 6)
    assert [c for i, c in enumerate(pr.coords) if i not in entries] == [
        c for i, c in enumerate(ff.coords) if i not in entries
    ]
    # the priority entry divides by the other entry's counter
    assert pr.coords[2][0].exponents == ((0, 1), (3, 1), (6, -1))


def test_crossing_phases_small():
    build = crossing_builder(6, "priority")
    points = dict(fundamental_diagram(build, [Fraction(1, 12), Fraction(1, 3)], steps=600))
    assert points[Fraction(1, 12)] == Fraction(1, 12)
    assert points[Fraction(1, 3)] == Fraction(1, 4)


def test_single_road_diagram():
    build = single_road_builder(10)
    densities = [Fraction(0), Fraction(3, 10), Fraction(1, 3), Fraction(7, 10)]
    pts = dict(fundamental_diagram(build, densities, steps=400))
    assert pts[Fraction(0)] == 0
    # 1/3 of 10 cells is no whole number of cars: the builder raises BadConfig
    assert pts[Fraction(1, 3)] is None
    assert pts[Fraction(3, 10)] == Fraction(3, 10)
    assert pts[Fraction(7, 10)] == Fraction(3, 10)


def test_t1h_traffic_light():
    sys = traffic_light_system(5, 5, [0, 2], [1, 3])
    u_traj, x_traj, report, rates = t1h_simulate(sys, 400)
    marks = [light_gate_marking(sys, u) for u in u_traj[:8]]
    assert marks[:4] == [(1, 0), (0, 0), (0, 1), (0, 0)]
    assert marks[4:8] == marks[:4]
    assert report is not None and report.period == 4
    assert all(g == Fraction(1, 4) for g in report.gain)
    lam_v = max_cycle_mean(four_phase_product(sys, "vertical", 5)).value
    lam_h = max_cycle_mean(four_phase_product(sys, "horizontal", 5)).value
    assert abs(rates[0] - lam_v / 4) <= Fraction(1, 2 * 400)
    assert abs(rates[7] - lam_h / 4) <= Fraction(1, 2 * 400)


def test_t1h_matrices_repeat_with_period():
    sys = traffic_light_system(4, 6, [1], [0, 3])
    u_traj, _, report, _ = t1h_simulate(sys, 60)
    p = report.period
    for k in range(report.start, report.start + 2 * p):
        a1 = sys.a_of_u.eval(u_traj[k])
        a2 = sys.a_of_u.eval(u_traj[k + p])
        assert a1 == a2


def test_t1h_constant_control_reduces_to_linear():
    cid = matrix([[0, "+inf"], ["+inf", 0]], MIN_PLUS)
    a_const = uterm_matrix(2, [[1, 3], [None, 2]])
    s = T1HSystem(cid, a_const, None, (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    _, x_traj, report, _ = t1h_simulate(s, 40)
    assert report is not None and report.period == 1
    a = a_const.eval([Fraction(0), Fraction(0)])
    x = [Fraction(0), Fraction(0)]
    for _ in range(40):
        x = [
            min(a[i, j].value + x[j] for j in range(2) if a[i, j].is_finite)
            for i in range(2)
        ]
    assert x == x_traj[-1]


def test_terms_store_exponents_sparsely():
    half = Fraction(1, 2)
    t = term(3, [0, half, 0, half])
    assert t.exponents == ((1, half), (3, half)) and t.eval([9, 2, 9, 4]) == 6
    assert type(uterm(1, (1, -1, 0, 0))) is MinPlusTerm
    assert uterm(1, (1, -1, 0, 0)).exponents == ((0, 1), (1, -1))
    road = road_event_graph([1, 0, 0, 1, 0])
    assert all(len(t.exponents) == 1 for terms in road.coords for t in terms)
    cross = build_crossing(3, 4, [1, 4], "fifty_fifty")
    assert max(len(t.exponents) for terms in cross.coords for t in terms) == 2


def _map2(first):
    """A two-dimensional map whose first coordinate has the given terms."""
    return HomogeneousMap(2, (first, (term(0, (0, 1)),)))


def _light2(a_of_u, b_of_u):
    """A T1H system with the identity control layer on two places and one state."""
    u0, x0 = (Fraction(0), Fraction(0)), (Fraction(0),)
    return T1HSystem(matrix([[0, "+inf"], ["+inf", 0]], MIN_PLUS), a_of_u, b_of_u, u0, x0)


_BAD_TERMS = {
    "exponent_sum_2": (lambda: _map2((term(0, (1, 1)),)), ValueError),
    "exponent_sum_0": (lambda: _map2((term(0, (0, 0)),)), ValueError),
    "index_above_dim": (lambda: _map2((term(0, (0, 0, 1)),)), DimensionMismatch),
    "index_negative": (lambda: _map2((MinPlusTerm(Fraction(0), ((-1, Fraction(1)),)),)), DimensionMismatch),
    "empty_coordinate": (lambda: _map2(()), ValueError),
    "missing_coordinate": (lambda: HomogeneousMap(2, ((term(0, (0, 1)),),)), DimensionMismatch),
    "uterm_sum_1": (lambda: uterm(0, (1, 0, 0, 0)), ValueError),
    "control_index_outside_u": (lambda: _light2(uterm_matrix(2, [[uterm(0, (1, 0, -1))]]), None), DimensionMismatch),
    "input_matrix_shape": (lambda: _light2(uterm_matrix(2, [[0]]), uterm_matrix(2, [[5]])), DimensionMismatch),
    "udim_disagrees_with_u0": (lambda: _light2(uterm_matrix(3, [[0]]), None), DimensionMismatch),
    "control_entry_without_terms": (lambda: uterm_matrix(2, [[[], 0]]), ValueError),
    "control_term_not_0_homogeneous": (lambda: uterm_matrix(2, [[term(0, (1, 0))]]), ValueError),
    "tent_bins_0": (lambda: tent_trajectory(Fraction(1, 3), 4, bins=0), ValueError),
    "tent_bins_-2": (lambda: tent_trajectory(Fraction(1, 3), 4, bins=-2), ValueError),
}


@pytest.mark.parametrize("name", sorted(_BAD_TERMS))
def test_term_and_map_validation(name):
    build, error = _BAD_TERMS[name]
    with pytest.raises(error):
        build()


def _plain_iterate(step, x0, k):
    traj = [list(x0)]
    for _ in range(k):
        traj.append(step(traj[-1]))
    return traj


def _plain_rates(traj):
    k = len(traj) - 1
    half = k // 2
    return [(traj[k][i] - traj[half][i]) / (k - half) for i in range(len(traj[0]))]


def _plain_road(a):
    m = len(a)
    return lambda x: [min(a[i - 1] + x[i - 1], 1 - a[i] + x[(i + 1) % m]) for i in range(m)]


def _plain_crossing(n1, n2, a, priority):
    exit1, exit2, entry1, entry2 = 0, n1, n1 - 1, n1 + n2 - 1
    half = Fraction(1, 2)

    def step(x):
        y = list(x)
        for i in list(range(1, n1 - 1)) + list(range(n1 + 1, n1 + n2 - 1)):
            y[i] = min(a[i - 1] + x[i - 1], 1 - a[i] + x[i + 1])
        y[exit1] = min(a[entry1] + half * (x[entry1] + x[entry2]), 1 - a[exit1] + x[1 % n1])
        y[exit2] = min(a[entry2] + half * (x[entry1] + x[entry2]), 1 - a[exit2] + x[n1 + 1 % n2])
        if priority:
            y[entry1] = min(1 - a[entry1] + x[exit1] + x[exit2] - x[entry2], a[entry1 - 1] + x[entry1 - 1])
            y[entry2] = min(1 - a[entry2] + x[exit1] + x[exit2] - y[entry1], a[entry2 - 1] + x[entry2 - 1])
        else:
            for e in (entry1, entry2):
                y[e] = min(half * (1 - a[e] + x[exit1] + x[exit2]), a[e - 1] + x[e - 1])
        return y

    return step


def _plain_light(occ_v, occ_h, phi, k, window=64):
    """u, x trajectories, (start, period, gain) and rates of the four-phase light."""
    nv = len(occ_v)
    u, x = [Fraction(0)] * 4, [Fraction(0)] * (nv + len(occ_h))
    us, xs, seen, report = [u], [x], {}, None
    for step in range(k):
        norm = tuple(v - u[0] for v in u)
        if report is None and step <= window:
            if norm in seen:
                p = step - seen[norm]
                report = (seen[norm], p, tuple((u[i] - us[seen[norm]][i]) / p for i in range(4)))
            else:
                seen[norm] = step
        gates = (1 + u[0] - u[1], u[2] - u[3])
        y = []
        for off, occ, gate in ((0, occ_v, gates[0]), (nv, occ_h, gates[1])):
            c = len(occ)
            for loc in range(c):
                cands = [occ[loc - 1] + x[off + (loc - 1) % c], 1 - occ[loc] + x[off + (loc + 1) % c]]
                if loc == c - 1:
                    cands.append(gate + x[off + loc])
                y.append(min(cands))
        u = [phi[3] + u[3], phi[0] + u[0], phi[1] + u[1], phi[2] + u[2]]
        x = y
        us.append(u)
        xs.append(x)
    return us, xs, report, _plain_rates(xs)


def _plain_t1h(system, k):
    """u and x trajectories of any T1H system, in plain Fraction arithmetic on its fields."""
    c = system.c

    def entry(terms, u):
        return min(t.constant + sum(e * u[i] for i, e in t.exponents) for t in terms)

    def apply(m, u, v):
        return [
            min(entry(terms, u) + v[j] for j, terms in enumerate(row) if terms is not None)
            for row in m.entries
        ]

    u, x = [Fraction(v) for v in system.u0], [Fraction(v) for v in system.x0]
    us, xs = [u], [x]
    for _ in range(k):
        y = apply(system.a_of_u, u, x)
        if system.b_of_u is not None:
            y = [min(p, q) for p, q in zip(y, apply(system.b_of_u, u, u))]
        u = [
            min(c[i, j].value + u[j] for j in range(c.cols) if c[i, j].is_finite)
            for i in range(c.rows)
        ]
        x = y
        us.append(u)
        xs.append(x)
    return us, xs


def _all_fractions(*trajectories):
    return all(type(v) is Fraction for traj in trajectories for point in traj for v in point)


def test_trajectories_equal_plain_resimulation_random():
    rng = random.Random(35)
    for _ in range(40):
        m = rng.randint(2, 12)
        occ = [rng.randint(0, 1) for _ in range(m)]
        x0 = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5))) for _ in range(m)]
        k = rng.randint(2, 40)
        traj, lam = hom_iterate(road_event_graph(occ), x0, k)
        want = _plain_iterate(_plain_road(occ), x0, k)
        assert traj == want and lam == sum(_plain_rates(want)) / m
        assert _all_fractions(traj)
    for _ in range(40):
        n1, n2 = rng.randint(2, 7), rng.randint(2, 7)
        cars = sorted(rng.sample(range(n1 + n2), rng.randint(0, n1 + n2)))
        occ = [int(i in cars) for i in range(n1 + n2)]
        x0 = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5))) for _ in occ]
        # long runs: the crossings double D each step, so the gcd reduction must keep it small
        k = rng.randint(2, 300)
        for policy in ("fifty_fifty", "priority"):
            f = build_crossing(n1, n2, cars, policy)
            want = _plain_iterate(_plain_crossing(n1, n2, occ, policy == "priority"), x0, k)
            if any(max(p) - min(p) > DEFAULT_SPREAD_BOUND for p in want[1:]):
                with pytest.raises(Diverged):
                    hom_iterate(f, x0, k)
                continue
            traj, lam = hom_iterate(f, x0, k)
            assert traj == want and lam == sum(_plain_rates(want)) / (n1 + n2)
            assert _all_fractions(traj)
    for _ in range(30):
        nv, nh = rng.randint(2, 7), rng.randint(2, 7)
        cv = sorted(rng.sample(range(nv), rng.randint(0, nv)))
        ch = sorted(rng.sample(range(nh), rng.randint(0, nh)))
        phi = [rng.choice((0, 0, 1, 2, Fraction(1, 2), Fraction(2, 3))) for _ in range(4)]
        if not any(phi):
            phi[rng.randrange(4)] = 1
        k = rng.randint(2, 90)
        u_traj, x_traj, report, rates = t1h_simulate(traffic_light_system(nv, nh, cv, ch, phi), k)
        occ_v, occ_h = [int(i in cv) for i in range(nv)], [int(i in ch) for i in range(nh)]
        us, xs, want_report, want_rates = _plain_light(occ_v, occ_h, phi, k)
        assert u_traj == us and x_traj == xs and rates == want_rates
        assert _all_fractions(u_traj, x_traj)
        got = None if report is None else (report.start, report.period, report.gain)
        assert got == want_report


def test_t1h_input_matrix_and_rational_phases_equal_plain_resimulation():
    rng = random.Random(36)
    half = Fraction(1, 2)
    for _ in range(30):
        nv, nh = rng.randint(2, 5), rng.randint(2, 5)
        cv = sorted(rng.sample(range(nv), rng.randint(0, nv)))
        ch = sorted(rng.sample(range(nh), rng.randint(0, nh)))
        phi = [rng.choice((0, 1, half, Fraction(2, 3), Fraction(5, 4))) for _ in range(4)]
        light = traffic_light_system(nv, nh, cv, ch, phi)
        b_rows = []
        for _ in range(nv + nh):
            row = [None] * 4
            row[rng.randrange(4)] = Fraction(rng.randint(0, 9), rng.choice((1, 3)))
            if rng.random() < 0.5:
                i, j = rng.sample(range(4), 2)
                e = rng.choice((half, 1, Fraction(3, 2)))
                exponents = [e if t == i else -e if t == j else 0 for t in range(4)]
                row[rng.randrange(4)] = uterm(rng.randint(-2, 2), exponents)
            b_rows.append(row)
        u0 = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))) for _ in range(4))
        x0 = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 3))) for _ in range(nv + nh))
        system = T1HSystem(light.c, light.a_of_u, uterm_matrix(4, b_rows), u0, x0)
        k = rng.randint(2, 120)
        u_traj, x_traj, _, rates = t1h_simulate(system, k)
        us, xs = _plain_t1h(system, k)
        assert u_traj == us and x_traj == xs and rates == _plain_rates(xs)
        assert _all_fractions(u_traj, x_traj)


def test_integer_steps_and_exact_spread_bound():
    x = [0, 1, 0, 1, 1, 0, 0]
    assert road_event_graph([1, 0, 0, 1, 0, 1, 0]).step(x, 1)[1] == 1
    assert build_crossing(3, 4, [0, 4], "fifty_fifty").step(x, 1)[1] == 2
    assert build_crossing(3, 4, [0, 4], "priority").step(x, 1)[1] == 2
    # the swap keeps the spread of x0 at every step
    swap = HomogeneousMap(2, ((term(0, (0, 1)),), (term(0, (1, 0)),)))
    bound = Fraction(7, 3)
    traj, _ = hom_iterate(swap, [Fraction(1, 5), Fraction(1, 5) + bound], 6, spread_bound=bound)
    assert traj[-1] == [Fraction(1, 5), Fraction(1, 5) + bound] and _all_fractions(traj)
    with pytest.raises(Diverged):
        hom_iterate(swap, [0, bound + Fraction(1, 10**12)], 6, spread_bound=bound)
    hom_iterate(swap, [0, 3], 6, spread_bound=3)
    with pytest.raises(Diverged):
        hom_iterate(swap, [0, Fraction(301, 100)], 6, spread_bound=3)


def test_t1h_input_term_cancelling_its_control_column_equals_plain_resimulation():
    light = traffic_light_system(3, 4, [0], [1, 2], (1, Fraction(1, 2), 0, 2))
    # u_0 - u_1 in column 1 multiplies u_1, so the input term is u_0 alone
    b_rows = [[None, uterm(0, (1, -1, 0, 0)), None, None]] + [[3, None, None, Fraction(5, 2)]] * 6
    u0 = (Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2, 3))
    x0 = (Fraction(4),) * 7
    system = T1HSystem(light.c, light.a_of_u, uterm_matrix(4, b_rows), u0, x0)
    u_traj, x_traj, report, rates = t1h_simulate(system, 50)
    us, xs = _plain_t1h(system, 50)
    assert u_traj == us and x_traj == xs and rates == _plain_rates(xs)
    assert _all_fractions(u_traj, x_traj)
    assert x_traj[1][0] == u0[0]
    assert x_traj != t1h_simulate(T1HSystem(light.c, light.a_of_u, None, u0, x0), 50)[1]


def test_t1h_coordinate_without_input_diverges():
    zeros = (Fraction(0), Fraction(0))
    identity = matrix([[0, "+inf"], ["+inf", 0]], MIN_PLUS)
    control = matrix([[0, "+inf"], ["+inf", "+inf"]], MIN_PLUS)
    no_control = T1HSystem(control, uterm_matrix(2, [[0]]), None, zeros, (Fraction(0),))
    with pytest.raises(Diverged, match="control coordinate 1 has no input"):
        t1h_simulate(no_control, 4)
    with pytest.raises(Diverged, match="control coordinate 1 has no input"):
        four_phase_product(no_control, "vertical", 1)
    a_of_u = uterm_matrix(2, [[0, None], [None, None]])
    with pytest.raises(Diverged, match="state coordinate 1 has no input"):
        t1h_simulate(T1HSystem(identity, a_of_u, None, zeros, zeros), 4)
    # an input entry alone feeds a state coordinate
    fed = T1HSystem(identity, a_of_u, uterm_matrix(2, [[None, None], [None, 3]]), zeros, zeros)
    assert t1h_simulate(fed, 4)[1][1] == [0, 3]
