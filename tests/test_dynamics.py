import random
from fractions import Fraction

import pytest
from orbit_oracle import (
    counting,
    first_repeat,
    hom_iterate_oracle,
    t1h_simulate_oracle,
    tent_trajectory_oracle,
)
from result_leaves import is_canonical, numbers

from tropkit.dynamics import (
    DEFAULT_SPREAD_BOUND,
    CrossingMap,
    HomogeneousMap,
    MinPlusTerm,
    PeriodReport,
    RingWord,
    T1HSystem,
    _shifts_by_block,
    _t1h_map,
    build_crossing,
    coordinate_rates,
    crossing_builder,
    eigen_reduce,
    exclusion_run,
    exclusion_step,
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
from tropkit.tropmat import matrix, vector


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
    # integer densities and throughputs come back as ints, the others as Fractions
    assert {type(v) for point in fundamental_diagram(build, [0, 1], steps=4) for v in point} == {int}
    assert _all_canonical([[v for v in point if v is not None] for point in pts.items()])


@pytest.mark.parametrize("build, densities, steps", [
    (single_road_builder(10), [Fraction(k, 10) for k in (1, 3, 5)], 60),  # golden traffic_diagram
    (crossing_builder(5, "fifty_fifty"), [Fraction(1, 5), Fraction(2, 5)], 60),  # golden, fifty-fifty
    (crossing_builder(5, "priority"), [Fraction(k, 10) for k in range(1, 9)], 80),  # golden, priority
    (crossing_builder(5, "priority"), [Fraction(k, 10) for k in range(1, 9)], 401),
    (single_road_builder(10), [Fraction(k, 10) for k in range(11)] + [Fraction(1, 3)], 401),
    (crossing_builder(10, "priority"), [Fraction(p, 100) for p in (10, 20, 30, 40, 55, 70)], 1500),  # demo 09
], ids=["road", "fifty", "priority", "priority-401", "road-401", "demo09"])
def test_diagram_points_equal_hom_iterate(build, densities, steps):
    # `fundamental_diagram` reads each throughput from the stepped states
    # alone; it must be `hom_iterate`'s estimate, value and type, whether the
    # orbit repeats (and k or k/2 falls past the repeat) or never does
    for rho, q in fundamental_diagram(build, densities, steps):
        try:
            want = hom_iterate(*build(rho), steps)[1]
        except BadConfig:
            want = None
        assert (q, type(q)) == (want, type(want)), rho


def test_t1h_traffic_light():
    sys = traffic_light_system(5, 5, [0, 2], [1, 3])
    u_traj, x_traj, report, rates = t1h_simulate(sys, 400)
    marks = [light_gate_marking(sys, u) for u in u_traj[:8]]
    assert marks[:4] == [(1, 0), (0, 0), (0, 1), (0, 0)]
    assert marks[4:8] == marks[:4]
    assert {type(v) for m in marks + [light_gate_marking(sys, [0, 0, 0, 0])] for v in m} == {int}
    assert report is not None and report.period == 4
    assert all(g == Fraction(1, 4) and type(g) is Fraction for g in report.gain)
    assert _all_canonical(u_traj, x_traj, [rates])
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
    assert uterm_matrix(1, [["1/2"]]) == uterm_matrix(1, [[Fraction(1, 2)]])
    assert uterm_matrix(1, [[[0, "1/2"]]]) == uterm_matrix(1, [[(term(0, ()), term(Fraction(1, 2), ()))]])
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


def test_t1h_reports_a_late_control_period():
    # u_2 - u_1 climbs by 1/100 a step to 1, so (0, 1) first repeats at step 101
    c = matrix([[0, 1], [1, Fraction(1, 100)]], MIN_PLUS)
    zeros = (Fraction(0), Fraction(0))
    s = T1HSystem(c, uterm_matrix(2, [[0]]), None, zeros, (Fraction(0),))
    u_traj, _, report, _ = t1h_simulate(s, 200)
    assert u_traj[100] == u_traj[101] == [0, 1]
    assert report == PeriodReport(100, 1, (0, 0))


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
    "no_coordinates": (lambda: HomogeneousMap(0, ()), DimensionMismatch),
    "x0_empty": (lambda: hom_iterate(road_event_graph([1, 0]), [], 4), DimensionMismatch),
    "x0_too_long": (lambda: hom_iterate(road_event_graph([1, 0]), [0, 0, 0], 4), DimensionMismatch),
    "road_occupancy_2": (lambda: road_event_graph([2, 0, 0]), BadConfig),
    "road_occupancy_string": (lambda: road_event_graph([1, "0"]), BadConfig),
    "uterm_sum_1": (lambda: uterm(0, (1, 0, 0, 0)), ValueError),
    "control_index_outside_u": (lambda: _light2(uterm_matrix(2, [[uterm(0, (1, 0, -1))]]), None), DimensionMismatch),
    "input_matrix_shape": (lambda: _light2(uterm_matrix(2, [[0]]), uterm_matrix(2, [[5]])), DimensionMismatch),
    "udim_disagrees_with_u0": (lambda: _light2(uterm_matrix(3, [[0]]), None), DimensionMismatch),
    "control_entry_without_terms": (lambda: uterm_matrix(2, [[[], 0]]), ValueError),
    "control_entry_float": (lambda: uterm_matrix(1, [[0.5]]), TypeError, "exact rational required"),
    "control_table_empty": (lambda: uterm_matrix(1, []), DimensionMismatch),
    "control_table_ragged": (lambda: uterm_matrix(1, [[0, None], [0]]), DimensionMismatch),
    "control_table_one_row_for_two_states": (
        lambda: T1HSystem(matrix([[0]], MIN_PLUS), uterm_matrix(1, [[0, None]]), None, (Fraction(0),), (Fraction(0),) * 2),
        DimensionMismatch,
    ),
    "control_term_not_0_homogeneous": (lambda: uterm_matrix(2, [[term(0, (1, 0))]]), ValueError),
    "tent_bins_0": (lambda: tent_trajectory(Fraction(1, 3), 4, bins=0), ValueError),
    "tent_bins_-2": (lambda: tent_trajectory(Fraction(1, 3), 4, bins=-2), ValueError),
}


@pytest.mark.parametrize("name", sorted(_BAD_TERMS))
def test_term_and_map_validation(name):
    build, error, *message = _BAD_TERMS[name]
    with pytest.raises(error, match=message[0] if message else None):
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


def _plain_light(occ_v, occ_h, phi, k):
    """u, x trajectories, (start, period, gain) and rates of the four-phase light."""
    nv = len(occ_v)
    u, x = [Fraction(0)] * 4, [Fraction(0)] * (nv + len(occ_h))
    us, xs, seen, report = [u], [x], {}, None
    for step in range(k + 1):
        norm = tuple(v - u[0] for v in u)
        if report is None:
            if norm in seen:
                p = step - seen[norm]
                report = (seen[norm], p, tuple((u[i] - us[seen[norm]][i]) / p for i in range(4)))
            else:
                seen[norm] = step
        if step == k:
            break
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


def _phased_light(nv, nh, cv, ch, phi):
    """The four-phase light with phi[t] tokens on the arc out of phase place t."""
    light = traffic_light_system(nv, nh, cv, ch)
    inf = "+inf"
    c = matrix(
        [[inf, inf, inf, phi[3]], [phi[0], inf, inf, inf], [inf, phi[1], inf, inf], [inf, inf, phi[2], inf]],
        MIN_PLUS,
    )
    return T1HSystem(c, light.a_of_u, None, light.u0, light.x0)


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


def _all_canonical(*trajectories):
    return all(is_canonical(v) for traj in trajectories for point in traj for v in point)


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
        assert _all_canonical(traj)
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
            assert _all_canonical(traj)
    for _ in range(30):
        nv, nh = rng.randint(2, 7), rng.randint(2, 7)
        cv = sorted(rng.sample(range(nv), rng.randint(0, nv)))
        ch = sorted(rng.sample(range(nh), rng.randint(0, nh)))
        phi = [rng.choice((0, 0, 1, 2, Fraction(1, 2), Fraction(2, 3))) for _ in range(4)]
        if not any(phi):
            phi[rng.randrange(4)] = 1
        k = rng.randint(2, 90)
        u_traj, x_traj, report, rates = t1h_simulate(_phased_light(nv, nh, cv, ch, phi), k)
        occ_v, occ_h = [int(i in cv) for i in range(nv)], [int(i in ch) for i in range(nh)]
        us, xs, want_report, want_rates = _plain_light(occ_v, occ_h, phi, k)
        assert u_traj == us and x_traj == xs and rates == want_rates
        assert _all_canonical(u_traj, x_traj)
        got = None if report is None else (report.start, report.period, report.gain)
        assert got == want_report


def _random_input_light(rng):
    """A four-phase light with rational phases, u0 and x0, and a random B(u)."""
    half = Fraction(1, 2)
    nv, nh = rng.randint(2, 5), rng.randint(2, 5)
    cv = sorted(rng.sample(range(nv), rng.randint(0, nv)))
    ch = sorted(rng.sample(range(nh), rng.randint(0, nh)))
    phi = [rng.choice((0, 1, half, Fraction(2, 3), Fraction(5, 4))) for _ in range(4)]
    light = _phased_light(nv, nh, cv, ch, phi)
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
    return T1HSystem(light.c, light.a_of_u, uterm_matrix(4, b_rows), u0, x0)


def test_t1h_input_matrix_and_rational_phases_equal_plain_resimulation():
    rng = random.Random(36)
    for _ in range(30):
        system = _random_input_light(rng)
        k = rng.randint(2, 120)
        u_traj, x_traj, _, rates = t1h_simulate(system, k)
        us, xs = _plain_t1h(system, k)
        assert u_traj == us and x_traj == xs and rates == _plain_rates(xs)
        assert _all_canonical(u_traj, x_traj)


def test_integer_steps_and_exact_spread_bound():
    x = [0, 1, 0, 1, 1, 0, 0]
    assert road_event_graph([1, 0, 0, 1, 0, 1, 0]).step(x, 1)[1] == 1
    assert build_crossing(3, 4, [0, 4], "fifty_fifty").step(x, 1)[1] == 2
    assert build_crossing(3, 4, [0, 4], "priority").step(x, 1)[1] == 2
    # the swap keeps the spread of x0 at every step
    swap = HomogeneousMap(2, ((term(0, (0, 1)),), (term(0, (1, 0)),)))
    bound = Fraction(7, 3)
    traj, _ = hom_iterate(swap, [Fraction(1, 5), Fraction(1, 5) + bound], 6, spread_bound=bound)
    assert traj[-1] == [Fraction(1, 5), Fraction(1, 5) + bound] and _all_canonical(traj)
    with pytest.raises(Diverged):
        hom_iterate(swap, [0, bound + Fraction(1, 10**12)], 6, spread_bound=bound)
    hom_iterate(swap, [0, 3], 6, spread_bound=3)
    with pytest.raises(Diverged):
        hom_iterate(swap, [0, Fraction(301, 100)], 6, spread_bound=3)


def test_t1h_input_term_cancelling_its_control_column_equals_plain_resimulation():
    light = _phased_light(3, 4, [0], [1, 2], (1, Fraction(1, 2), 0, 2))
    # u_0 - u_1 in column 1 multiplies u_1, so the input term is u_0 alone
    b_rows = [[None, uterm(0, (1, -1, 0, 0)), None, None]] + [[3, None, None, Fraction(5, 2)]] * 6
    u0 = (Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2, 3))
    x0 = (Fraction(4),) * 7
    system = T1HSystem(light.c, light.a_of_u, uterm_matrix(4, b_rows), u0, x0)
    u_traj, x_traj, report, rates = t1h_simulate(system, 50)
    us, xs = _plain_t1h(system, 50)
    assert u_traj == us and x_traj == xs and rates == _plain_rates(xs)
    assert _all_canonical(u_traj, x_traj)
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


def test_min_plus_term_constructor_reads_values_as_exact_rationals():
    # a float constant used to fail late, inside hom_iterate's integer kernel
    with pytest.raises(TypeError):
        MinPlusTerm(0.5, ((0, 1),))
    with pytest.raises(TypeError):
        MinPlusTerm(0, ((0, 0.0), (1, 1)))  # read before zero coefficients drop
    t = MinPlusTerm(Fraction(4, 2), ((1, Fraction(1)), (0, 0)))
    assert t == term(2, (0, 1)) and type(t.constant) is int
    assert t.exponents == ((1, 1),) and type(t.exponents[0][1]) is int


def _thirds_map(rng, n):
    """A random degree-one map whose terms mix two coordinates in thirds (L = 3).

    An exponent 4/3 or 5/3 pairs with -1/3 or -2/3, so some of these maps are not monotone
    and their spread grows until `hom_iterate` raises Diverged.
    """
    coords = []
    for _ in range(n):
        terms = []
        for _ in range(rng.randint(1, 3)):
            j, l = rng.randrange(n), rng.randrange(n)
            e = Fraction(rng.choice((1, 2, 3, 4, 5)), 3)
            exps = {j: e}
            exps[l] = exps.get(l, 0) + 1 - e
            terms.append(MinPlusTerm(Fraction(rng.randint(-3, 3), 3), tuple(exps.items())))
        coords.append(tuple(terms))
    return HomogeneousMap(n, tuple(coords))


def _iterate_against_oracle(f, x0, k, bound=DEFAULT_SPREAD_BOUND):
    """hom_iterate equals the step-every-time oracle and steps no further than
    the first repeat; returns "diverged", "repeated" or "stepped"."""
    counted = counting(f)
    try:
        want = hom_iterate_oracle(f, x0, k, bound)
    except Diverged as exc:
        with pytest.raises(Diverged) as got:
            hom_iterate(counted, x0, k, bound)
        assert str(got.value) == str(exc)
        return "diverged"
    traj, lam = hom_iterate(counted, x0, k, bound)
    assert traj == want[0] and lam == want[1]
    assert _all_canonical(traj) and is_canonical(lam)
    t = first_repeat(f, x0, k)
    if t is None:
        assert counted.steps == k
        return "stepped"
    assert counted.steps <= t
    return "repeated"


def _ks(rng, f, x0, longest, blocks=None):
    """A random run length and the lengths just before, at and past the first repeat."""
    t = first_repeat(f, x0, longest, blocks)
    near = () if t is None else (t - 1, t, t + 1)
    return sorted({rng.randint(2, longest), *(k for k in near if k >= 2)})


def test_orbit_stops_at_the_first_repeat_and_equals_the_oracle():
    rng = random.Random(271)
    seen = {"diverged": 0, "repeated": 0, "stepped": 0}
    for _ in range(25):
        m = rng.randint(2, 9)
        occ = [rng.randint(0, 1) for _ in range(m)]
        x0 = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(m)]
        f = road_event_graph(occ)
        for k in _ks(rng, f, x0, 40):
            seen[_iterate_against_oracle(f, x0, k)] += 1
    for _ in range(25):
        n1, n2 = rng.randint(2, 6), rng.randint(2, 6)
        cars = sorted(rng.sample(range(n1 + n2), rng.randint(0, n1 + n2)))
        x0 = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 5))) for _ in range(n1 + n2)]
        for policy in ("fifty_fifty", "priority"):
            f = build_crossing(n1, n2, cars, policy)
            for k in _ks(rng, f, x0, 60):
                seen[_iterate_against_oracle(f, x0, k)] += 1
    for _ in range(40):
        n = rng.randint(1, 5)
        f = _thirds_map(rng, n)
        x0 = [Fraction(rng.randint(-3, 3), rng.choice((1, 3))) for _ in range(n)]
        for k in _ks(rng, f, x0, 40):
            seen[_iterate_against_oracle(f, x0, k, bound=10)] += 1
    assert min(seen.values()) >= 10, seen


def test_orbit_repeat_whose_shift_has_another_denominator():
    # (x1, x2) -> (x2 + 1/2, x1 + 1/2) from (0, 1): the points alternate
    # between D = 1 and D = 2, and x_2 = x_0 + 1 is the first repeat with one D
    half = Fraction(1, 2)
    swap = HomogeneousMap(2, ((MinPlusTerm(half, ((1, 1),)),), (MinPlusTerm(half, ((0, 1),)),)))
    assert first_repeat(swap, [0, 1], 10) == 2
    for k in (2, 3, 4, 9, 40):
        assert _iterate_against_oracle(swap, [0, 1], k) == "repeated"
    # the shift x -> x + 1/2: x_1 = x_0 + 1/2 has D = 2, so the repeat is found at x_2
    shift = HomogeneousMap(3, tuple((MinPlusTerm(half, ((i, 1),)),) for i in range(3)))
    assert first_repeat(shift, [0, 5, -2], 10) == 2
    counted = counting(shift)
    traj, lam = hom_iterate(counted, [0, 5, -2], 7)
    assert traj[7] == [Fraction(7, 2), Fraction(17, 2), Fraction(3, 2)] and lam == half
    assert counted.steps <= 2


def test_orbit_steps_every_time_without_a_repeat_and_stops_on_divergence():
    grow = HomogeneousMap(2, ((term(0, (2, -1)),), (term(0, (-1, 2)),)))
    counted = counting(grow)
    with pytest.raises(Diverged, match="coordinate spread exceeded the configured bound"):
        hom_iterate(counted, [0, 10], 200, spread_bound=Fraction(100))
    assert counted.steps == 3  # spreads 10, 30, 90, then 270 > 100 at step 3
    counted = counting(road_event_graph([1, 1, 0, 0, 0, 1, 0]))
    hom_iterate(counted, list(range(7)), 5)
    assert first_repeat(road_event_graph([1, 1, 0, 0, 0, 1, 0]), list(range(7)), 5) is None
    assert counted.steps == 5


def _tracking_light(rng):
    """A T1H system whose state follows its control layer through B(u).

    The control layer is the four-phase light with rational phases, whose u
    grows by at most 1 per step. Each state row is min(c + x_r, B(u) u) with
    c >= 4/3, so x catches up with B(u) u, and the pair (u, x) repeats up to
    a shift once it does.
    """
    phi = [rng.choice((0, Fraction(1, 2), Fraction(2, 3), 1)) for _ in range(4)]
    c = _phased_light(2, 2, [], [], phi).c
    n = rng.randint(1, 4)
    a_rows, b_rows = [], []
    for r in range(n):
        a_row, b_row = [None] * n, [None] * 4
        a_row[r] = Fraction(rng.randint(4, 6), 3)
        b_row[rng.randrange(4)] = Fraction(rng.randint(-3, 3), 3)
        if rng.random() < 0.5:
            i, j = rng.sample(range(4), 2)
            exponents = [1 if t == i else -1 if t == j else 0 for t in range(4)]
            b_row[rng.randrange(4)] = uterm(rng.randint(-2, 2), exponents)
        a_rows.append(a_row)
        b_rows.append(b_row)
    u0 = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(4))
    x0 = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 3))) for _ in range(n))
    return T1HSystem(c, uterm_matrix(4, a_rows), uterm_matrix(4, b_rows), u0, x0)


def _drifting_light(rng):
    """A T1H system whose pair (u, x) never repeats, though the sum of
    (u, x) - u_0 is 0 at every step: u gains 1 a step on every place, x_0
    gains 2 and x_1 gains 0. rng is unused; it matches the other system makers."""
    c = _phased_light(2, 2, [], [], (1, 1, 1, 1)).c
    return T1HSystem(c, uterm_matrix(4, [[2, None], [None, 0]]), None, (0,) * 4, (0, 0))


def _unequal_roads_light(rng):
    """The plain four-phase light on two roads that carry different numbers
    of cars on different lengths, so the roads advance at their own rates and
    the pair (u, x) never repeats as a whole; each road and the light repeat
    on their own shift blocks."""
    nv, nh = rng.randint(3, 6), rng.randint(3, 6)
    cv = sorted(rng.sample(range(nv), 1))
    ch = sorted(rng.sample(range(nh), rng.randint(2, nh - 1)))
    return traffic_light_system(nv, nh, cv, ch)


def _partly_fed_light(rng):
    """The four-phase light with rational u0 and x0, and B(u) feeding at most
    two state rows, so a road that B(u) feeds joins u's shift block and the
    other road keeps its own."""
    nv, nh = rng.randint(2, 5), rng.randint(2, 5)
    cv = sorted(rng.sample(range(nv), rng.randint(0, nv)))
    ch = sorted(rng.sample(range(nh), rng.randint(0, nh)))
    light = traffic_light_system(nv, nh, cv, ch)
    rows = [[None] * 4 for _ in range(nv + nh)]
    for r in rng.sample(range(nv + nh), rng.randint(1, 2)):
        rows[r][rng.randrange(4)] = Fraction(rng.randint(0, 9), rng.choice((1, 2)))
    u0 = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(4))
    x0 = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 3))) for _ in range(nv + nh))
    return T1HSystem(light.c, light.a_of_u, uterm_matrix(4, rows), u0, x0)


def _counted(system):
    """A counting copy of system's compiled map, put in the system's place."""
    f, blocks = system._compiled
    counted = counting(f)
    system.__dict__["_compiled"] = (counted, blocks)
    return counted


def test_t1h_simulate_equals_the_step_every_time_oracle():
    rng = random.Random(272)
    repeated = 0
    makers = [_random_input_light, _tracking_light] * 20 + [_unequal_roads_light, _partly_fed_light] * 5 + [_drifting_light]
    for make in makers:
        system = make(rng)
        f, blocks = _t1h_map(system)
        counted = _counted(system)
        start = [*system.u0, *system.x0]
        for k in _ks(rng, f, start, 50, blocks):
            before = counted.steps
            got = t1h_simulate(system, k)
            assert got == t1h_simulate_oracle(system, k)
            assert _all_canonical(got[0], got[1])
            t = first_repeat(f, start, k, blocks)
            steps = counted.steps - before
            assert steps == k if t is None else steps <= t
            repeated += t is not None and t < k
    assert repeated >= 10, repeated


def test_t1h_runs_whose_light_and_roads_drift_apart_stop_early():
    # the pair (u, x) never repeats up to one shift: the roads and the light
    # advance at different rates. Each repeats on its own block within a few steps.
    rng = random.Random(274)
    drifting = 0
    for system in [_drifting_light(rng)] + [_unequal_roads_light(rng) for _ in range(20)]:
        f, blocks = _t1h_map(system)
        udim, start = len(system.u0), [*system.u0, *system.x0]
        assert blocks is not None and blocks[0][:udim] == list(range(udim))
        assert sorted(i for block in blocks for i in block) == list(range(f.dim))
        if first_repeat(f, start, 120) is not None:
            continue  # these two roads happen to keep pace with each other
        drifting += 1
        t = first_repeat(f, start, 120, blocks)
        assert t is not None and t <= 20
        counted = _counted(system)
        for k in (t - 1, t, t + 1, 120, 280):
            if k >= 2:
                before = counted.steps
                assert t1h_simulate(system, k) == t1h_simulate_oracle(system, k)
                assert counted.steps - before <= min(t, k)
    assert drifting >= 8, drifting


def test_t1h_blocks_follow_the_coupling_of_the_state_rows():
    light = traffic_light_system(3, 4, [0], [1, 2])
    assert _t1h_map(light)[1] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9, 10]]
    # every state row of a tracking light is fed by B(u), so it stays in u's block: one block
    rng = random.Random(275)
    for _ in range(5):
        assert _t1h_map(_tracking_light(rng))[1] is None
    # B(u) feeding one row of the horizontal road pulls that whole road into u's block
    b_rows = [[None] * 4 for _ in range(7)]
    b_rows[5][2] = 0
    fed = T1HSystem(light.c, light.a_of_u, uterm_matrix(4, b_rows), light.u0, light.x0)
    assert _t1h_map(fed)[1] == [[0, 1, 2, 3, 7, 8, 9, 10], [4, 5, 6]]
    # a map whose terms mix blocks fails the sum rule, and so runs as one block
    road = road_event_graph([1, 0, 0])
    assert not _shifts_by_block(road, [[0], [1, 2]])
    assert _shifts_by_block(road, [[0, 1, 2]])


def test_t1h_system_compiles_its_map_once():
    system = traffic_light_system(5, 5, [0, 2], [1, 3])
    compiled = system._compiled
    t1h_simulate(system, 40)
    four_phase_product(system, "vertical", 5)
    assert system._compiled is compiled
    assert compiled == _t1h_map(system)


NEVER_REPEATING_CARS = [0, 2, 4, 5, 6, 14, 15, 16, 17, 18]  # a 450-step priority run over 2,063 distinct fractions


def test_a_priority_run_that_never_repeats_builds_each_value_once():
    # every D of this run differs from the one before or after it, as it
    # doubles every second step; a value reached over several D is one object
    f = build_crossing(10, 10, NEVER_REPEATING_CARS, "priority")
    counted = counting(f)
    traj, _ = hom_iterate(counted, [0] * 20, 450)
    assert counted.steps == 450
    values = [v for point in traj for v in point if type(v) is Fraction]
    assert len({id(v) for v in values}) == len(set(values))
    assert len({v.denominator for v in values}) > 100


def _four_phase_oracle(system, idx):
    """A(u^3) A(u^2) A(u^1) A(u^0) on the rows and columns idx, as payload
    rows: u steps by `c.apply`, and the restricted blocks multiply by a plain
    min-plus loop (None is +inf)."""
    u = vector(system.u0, MIN_PLUS)
    prod = None
    for _ in range(4):
        a = system.a_of_u.eval(u.payload).payload
        block = [[a[i][j] for j in idx] for i in idx]
        prod = block if prod is None else [
            [min((x + y for x, y in zip(row, col) if x is not None and y is not None), default=None)
             for col in zip(*prod)]
            for row in block
        ]
        u = system.c.apply(u)
    return tuple(map(tuple, prod))


def test_four_phase_product_matrices_equal_the_oracle():
    rng = random.Random(276)
    systems = [traffic_light_system(5, 5, [0, 2], [1, 3])]
    systems += [_unequal_roads_light(rng) for _ in range(10)] + [_partly_fed_light(rng) for _ in range(10)]
    for system in systems:
        n = len(system.x0)
        for nv in range(1, n):  # every split, the system's own road lengths among them
            for road, idx in (("vertical", range(nv)), ("horizontal", range(nv, n))):
                got = four_phase_product(system, road, nv)
                assert got.tag is MIN_PLUS
                assert got.payload == _four_phase_oracle(system, idx)
                assert _all_canonical([[v for row in got.payload for v in row if v is not None]])


def test_tent_orbit_tiles_its_cycle_like_the_oracle():
    rng = random.Random(273)
    starts = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 3)]
    starts += [Fraction(rng.randint(0, q), q) for q in (7, 8, 12, 101, 96, 999, 1000, 4097)]
    for y0 in starts:
        nums = tent_trajectory_oracle(y0, 5000)[0]
        t = next(t for t in range(len(nums)) if nums[t] in nums[:t])
        for k in sorted({1, rng.randint(1, 300), *(k for k in (t - 1, t, t + 1) if k >= 1)}):
            for bins in (None, 1, 7, 100):
                got = tent_trajectory(y0, k, bins)
                assert got == tent_trajectory_oracle(y0, k, bins)
                assert len(got[0]) == k + 1 and _all_canonical([got[0]])


def test_coordinate_rates_are_exact_canonical_ratios():
    rates = coordinate_rates([[0, 0], [1, 1], [2, 3], [3, 4]])
    assert rates == [1, Fraction(3, 2)]
    assert [type(r) for r in rates] == [int, Fraction]


def _public_results(sp):
    """name -> the result of one public `dynamics` call, every rational input spelled by sp."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    fifty = build_crossing(3, 4, [1, 4], "fifty_fifty")
    light = traffic_light_system(5, 5, [0, 2], [1, 3])
    b_rows = [[sp(Fraction(5, 2)), None, uterm(sp(1), [sp(half), sp(-half), 0, 0]), None]] * 10
    system = T1HSystem(light.c, light.a_of_u, uterm_matrix(4, b_rows), tuple(map(sp, (0, half, 1, third))),
                       tuple(sp(Fraction(i, 3)) for i in range(10)))
    red = eigen_reduce(tent_system())
    road = road_event_graph([1, 0, 0, 1])
    t = term(sp(half), [sp(Fraction(3, 2)), sp(-half)])
    ut = uterm(sp(half), [sp(Fraction(3, 2)), sp(Fraction(-3, 2))])
    u = uterm_matrix(2, [[sp(third), [ut, sp(2)]], [None, uterm(sp(1), [sp(half), sp(-half)])]])
    return {
        "RingWord.density": RingWord.from_string("1100").density,
        "exclusion_step": exclusion_step(RingWord.from_string("1101001001")),
        "exclusion_run": exclusion_run(RingWord.from_string("1101001001"), 4),
        "MinPlusTerm.eval": t.eval([sp(third), sp(2)]),
        "term": t,
        "uterm": ut,
        "uterm_matrix": u,
        "UTermMatrix.eval": u.eval([sp(half), sp(third)]),
        "HomogeneousMap.__call__": road([sp(half), sp(0), sp(third), sp(2)]),
        "linear_matrix": road.linear_matrix(),
        "hom_iterate_road": hom_iterate(road, [sp(half), sp(0), sp(third), sp(2)], 9, sp(7)),
        "hom_iterate_fifty": hom_iterate(fifty, [sp(Fraction(i, 3)) for i in range(7)], 30, sp(10**6)),
        "hom_iterate_priority": hom_iterate(build_crossing(3, 4, [1, 4]), [sp(half)] * 7, 30),
        "coordinate_rates": coordinate_rates([[sp(0), sp(half)], [sp(1), sp(third)], [sp(3), sp(2)]]),
        "eigen_reduce.g": red.g([sp(Fraction(1, 4))]),
        "eigen_reduce.lam": red.lam([sp(Fraction(2, 3))]),
        "tent_trajectory": tent_trajectory(sp(Fraction(1, 5)), 12, bins=4),
        "tent_trajectory_integral": tent_trajectory(sp(1), 3, bins=2),
        "fundamental_diagram_road": fundamental_diagram(
            single_road_builder(10), [sp(0), sp(Fraction(3, 10)), sp(third), sp(1)], steps=20),
        "fundamental_diagram_crossing": fundamental_diagram(
            crossing_builder(4), [sp(Fraction(1, 8)), sp(half)], steps=20),
        "tent_system": tent_system(),
        "build_crossing": fifty,
        "spread_cars": spread_cars(10, 3),
        "single_road_builder": single_road_builder(10)(sp(Fraction(3, 10))),
        "crossing_builder": crossing_builder(4, "priority")(sp(Fraction(1, 4))),
        "traffic_light_system": light,
        "t1h_simulate": t1h_simulate(system, 40),
        "light_gate_marking": light_gate_marking(light, [sp(0), sp(half), sp(1), sp(third)]),
        "four_phase_product": four_phase_product(system, "vertical", 5),
    }


@pytest.mark.parametrize("spelling", ["canonical", "Fraction", "p/q"])
def test_public_dynamics_results_hold_no_float(spelling):
    sp = {"canonical": lambda v: v, "Fraction": Fraction, "p/q": lambda v: str(Fraction(v))}[spelling]
    results = _public_results(sp)
    assert results == _public_results(lambda v: v)
    for name, result in results.items():
        values = numbers(result)
        assert not any(type(v) is float for v in values), name
        assert all(is_canonical(v) for v in values), name


def _light():
    return traffic_light_system(5, 5, [0, 2], [1, 3])


@pytest.mark.parametrize("call, error", [
    (lambda: exclusion_run(RingWord.from_string("10"), -1), ValueError),
    (lambda: road_event_graph([1]), BadConfig),
    (lambda: road_event_graph([1, 0]).step([0], 1), DimensionMismatch),
    (lambda: tent_system().linear_matrix(), ValueError),
    (lambda: hom_iterate(road_event_graph([1, 0]), [0, 0], 1), ValueError),
    (lambda: tent_trajectory(Fraction(3, 2), 4), BadConfig),
    (lambda: tent_trajectory(Fraction(-1, 2), 4), BadConfig),
    (lambda: tent_trajectory(Fraction(1, 5), 0), ValueError),
    (lambda: build_crossing(3, 3, [0, 3], policy="roundabout"), BadConfig),
    (lambda: spread_cars(3, 4), BadConfig),
    (lambda: fundamental_diagram(single_road_builder(4), [Fraction(1, 4)], steps=1), ValueError),
    (lambda: t1h_simulate(_light(), 1), ValueError),
    (lambda: T1HSystem(matrix([[0]]), uterm_matrix(1, [[0]]), None, (0,), (0,)), ValueError),
    (lambda: T1HSystem(matrix([[0]], MIN_PLUS), uterm_matrix(1, [[0]]), None, (0, 0), (0,)), DimensionMismatch),
    (lambda: four_phase_product(_light(), "diagonal", 5), ValueError),
], ids=["exclusion-steps", "road-cells", "step-dimension", "not-linear", "hom-steps", "tent-above",
        "tent-below", "tent-steps", "crossing-policy", "spread-cars", "diagram-steps", "t1h-steps",
        "t1h-control-tag", "t1h-control-shape", "four-phase-road"])
def test_dynamics_input_checks_raise(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
