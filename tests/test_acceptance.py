"""Acceptance criteria, one test per criterion, exact tolerances as stated.

Each test prints a single pass line with its measured core runtime; run

    pytest tests/test_acceptance.py -s

to see them. Every expected value is produced by an oracle independent of
the code path it certifies (explicit enumeration, grid scans, edge-subset
scans, or linear-selection enumeration).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from tropkit.assign import (
    RegularityCertificate,
    assign_matrix,
    distances_potentials,
    normal_form,
    strong_regularity,
)
from tropkit.determ import bideterminant
from tropkit.dynamics import (
    RingWord,
    crossing_builder,
    exclusion_run,
    four_phase_product,
    fundamental_diagram,
    light_gate_marking,
    road_event_graph,
    spread_cars,
    t1h_simulate,
    tent_trajectory,
    traffic_light_system,
)
from tropkit.errors import Infeasible, NoCycle
from tropkit.plucker import flow_tp, grid_edges, grid_net, is_dmtp, is_submodular, is_tp, reconstruct_from_intervals
from tropkit.projector import (
    NotSeparable,
    Semimodule,
    cyclic_spectral_radius,
    project,
    semimodule,
    separate,
)
from tropkit.semiring import MAX_PLUS, MAX_TIMES, MIN_PLUS, scalar
from tropkit.spectral import (
    max_cycle_mean,
    max_cycle_mean_bruteforce,
    spectral_analysis,
)
from tropkit.tropmat import (
    from_columns,
    interval_matrix,
    iv_kleene_star,
    kleene_star,
    matrix,
    vector,
)
from tropkit.twosided import InequalitySystem, check_solution, row_generators

BOT = "-inf"


def report(num, name, elapsed, bound):
    print(f"criterion {num:2d} PASS  {name}  ({elapsed:.3f}s < {bound}s)")


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_bideterminant_exactness():
    a = matrix([[1, 2], [3, 4]], MAX_TIMES)
    b = matrix([[0, 0, 1], [1, 1, 0], [0, 0, 1]], MAX_TIMES)
    t0 = time.perf_counter()
    bd = bideterminant(a)
    bd3 = bideterminant(b)
    elapsed = time.perf_counter() - t0
    assert (bd.plus, bd.minus) == (scalar(4, MAX_TIMES), scalar(6, MAX_TIMES))
    assert bd3.plus == scalar(0, MAX_TIMES) and bd3.minus == scalar(0, MAX_TIMES)
    assert elapsed < 0.001
    report(1, "bideterminant examples exact", elapsed, 0.001)


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_circular_road_law():
    t0 = time.perf_counter()
    for m in range(2, 21):
        for n in range(0, m + 1):
            occ = [0] * m
            for c in spread_cars(m, n):
                occ[c] = 1
            lam = max_cycle_mean(road_event_graph(occ).linear_matrix())
            want_eig = min(Fraction(n, m), Fraction(m - n, m), Fraction(1, 2))
            assert lam == scalar(want_eig, MIN_PLUS)
            _, flows = exclusion_run(RingWord(tuple(occ)), 4 * m + m)
            want_flow = min(Fraction(n, m), Fraction(m - n, m))
            assert all(f == want_flow for f in flows[4 * m :])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    report(2, "event-graph eigenvalue and exclusion flow for all m <= 20", elapsed, 5)


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_exclusion_step():
    w = RingWord.from_string("1101001001")
    t0 = time.perf_counter()
    traj, _ = exclusion_run(w, 1)
    elapsed = time.perf_counter() - t0
    assert str(traj[1]) == "1010100101"
    assert elapsed < 0.001
    report(3, "exclusion step 1101001001 -> 1010100101", elapsed, 0.001)


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_tent_map():
    t0 = time.perf_counter()
    orbit0, _ = tent_trajectory(Fraction(0), 50)
    orbit23, _ = tent_trajectory(Fraction(2, 3), 50)
    assert all(v == 0 for v in orbit0)
    assert all(v == Fraction(2, 3) for v in orbit23)
    rng = random.Random(12345)
    bins = 100
    hist = [0] * bins
    total = 0
    for _ in range(200):
        i = rng.randrange(1, 10**5 + 1)
        _, h = tent_trajectory(Fraction(i - 1, 10**5), 10**4, bins=bins)
        for b in range(bins):
            hist[b] += h[b]
        total += 10**4 + 1
    expected = total / bins
    deviation = max(abs(c - expected) / expected for c in hist)
    elapsed = time.perf_counter() - t0
    assert deviation < 0.10, deviation
    assert elapsed < 30
    report(4, f"tent fixed points exact, histogram deviation {deviation:.3f}", elapsed, 30)


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_spectral_oracle_equivalence():
    rng = random.Random(51)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(4, 8)
        rows = [
            [rng.choice([None, None] + list(range(-9, 10))) for _ in range(n)]
            for _ in range(n)
        ]
        m = matrix(rows)
        try:
            karp = max_cycle_mean(m)
        except NoCycle:
            karp = None
        try:
            brute = max_cycle_mean_bruteforce(m)
        except NoCycle:
            brute = None
        assert karp == brute
        if karp is not None:
            res = spectral_analysis(m)
            for v in res.eigenvectors:
                assert m.apply(v) == v.scale(res.eigenvalue)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(5, "Karp = cycle enumeration on 1000 instances, eigenvectors exact", elapsed, 60)


# -- 6 ----------------------------------------------------------------------


def _raw_matmul(a, b, n):
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        ai, oi = a[i], out[i]
        for k in range(n):
            w = ai[k]
            if w is None:
                continue
            bk = b[k]
            for j in range(n):
                v = bk[j]
                if v is None:
                    continue
                cand = w + v
                if oi[j] is None or cand > oi[j]:
                    oi[j] = cand
    return out


def _raw_max_cycle_mean(a, n):
    best = [None]

    def dfs(start, node, weight, length, seen):
        for nxt in range(start, n):
            w = a[node][nxt]
            if w is None:
                continue
            if nxt == start:
                mean = (weight + w) / length
                if best[0] is None or mean > best[0]:
                    best[0] = mean
            elif nxt not in seen:
                dfs(start, nxt, weight + w, length + 1, seen | {nxt})

    for s in range(n):
        dfs(s, s, Fraction(0), 1, {s})
    return best[0]


def _oracle_cyclic_radius(stages, n):
    """Brute-force maximum Hilbert value over support sets and combinations.

    On each support class the composed projector is the pointwise minimum
    of finitely many max-plus linear selections (one residual row choice
    per generator per stage). Every selection dominates the projector, so
    its cycle mean bounds the class radius from above; the greedy selection
    at an eigenvector attains it. The class radius is therefore the minimum
    selection cycle mean, enumerated exhaustively; generator combinations
    enter through multi-generator critical cycles.
    """
    best = None
    for mask in range(1, 1 << n):
        m_set = frozenset(i for i in range(n) if mask >> i & 1)
        per_stage = []
        valid = True
        for gens in stages:
            cols = [
                g for g in gens if {i for i in range(n) if g[i] is not None} <= m_set
            ]
            if not cols:
                valid = False
                break
            cover = set()
            for g in cols:
                cover |= {i for i in range(n) if g[i] is not None}
            if frozenset(cover) != m_set:
                valid = False
                break
            per_stage.append(cols)
        if not valid:
            continue
        idx = sorted(m_set)
        pos = {v: ii for ii, v in enumerate(idx)}
        nn = len(idx)
        stage_mats = []
        for cols in per_stage:
            mats = []
            row_sets = [[i for i in range(n) if g[i] is not None] for g in cols]
            for combo in itertools.product(*row_sets):
                b = [[None] * nn for _ in range(nn)]
                for j, g in enumerate(cols):
                    r = pos[combo[j]]
                    base = g[combo[j]]
                    for amb in idx:
                        if g[amb] is None:
                            continue
                        w = g[amb] - base
                        ii = pos[amb]
                        if b[ii][r] is None or w > b[ii][r]:
                            b[ii][r] = w
                mats.append(b)
            stage_mats.append(mats)
        class_best = None
        for combo in itertools.product(*stage_mats):
            a = None
            for mat in combo:
                a = mat if a is None else _raw_matmul(mat, a, nn)
            lam = _raw_max_cycle_mean(a, nn)
            if lam is not None and (class_best is None or lam < class_best):
                class_best = lam
        if class_best is not None and (best is None or class_best > best):
            best = class_best
    return best


def test_criterion_06_cyclic_projector_radius_and_separation():
    rng = random.Random(61)
    t0 = time.perf_counter()
    separable_seen = common_seen = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        k = rng.randint(1, 3)
        stages = []
        for _ in range(k):
            g_count = rng.randint(1, 2) if (n == 4 and k == 3) else rng.randint(1, 3)
            stages.append(
                [tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(g_count)]
            )
        vs = [semimodule([list(g) for g in gens]) for gens in stages]
        rep = cyclic_spectral_radius(vs)
        want = _oracle_cyclic_radius(stages, n)
        assert rep.value.is_finite and rep.value.value == want
        result = separate(vs)
        if isinstance(result, NotSeparable):
            common_seen += 1
            w = result.witness
            assert not w.is_zero
            assert all(project(v, w) == w for v in vs)
        else:
            separable_seen += 1
            for v, h in zip(vs, result):
                for g in v.generator_list():
                    assert h.contains(g)
            gens = [g for v in vs for g in v.generator_list()]
            grid = gens + [a + b for a, b in itertools.combinations(gens, 2)]
            for x in grid:
                if not x.is_zero:
                    assert not all(h.contains(x) for h in result)
    elapsed = time.perf_counter() - t0
    assert separable_seen and common_seen
    assert elapsed < 120
    report(
        6,
        f"radius = selection brute force on 200 instances "
        f"({separable_seen} separated, {common_seen} witnesses)",
        elapsed,
        120,
    )


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_twosided_soundness_completeness():
    from tropkit.tropmat import TropVector

    rng = random.Random(71)
    t0 = time.perf_counter()
    cells = [scalar(v) for v in [None] + list(range(-3, 4))]
    grids = {
        n: [
            TropVector(p, MAX_PLUS)
            for p in itertools.product(cells, repeat=n)
            if any(not e.is_zero for e in p)
        ]
        for n in (2, 3, 4)
    }
    feasible = 0
    for _ in range(500):
        n = rng.randint(2, 4)
        vals = [None] + list(range(-3, 4))
        a = vector([rng.choice(vals) for _ in range(n)])
        b = vector([rng.choice(vals) for _ in range(n)])
        s = InequalitySystem(
            from_columns([a]).transpose(), from_columns([b]).transpose()
        )
        try:
            gens = row_generators(a, b)
        except Infeasible:
            for x in grids[n]:
                assert not check_solution(s, x)
            continue
        feasible += 1
        for c in gens.columns():
            assert check_solution(s, c)
        sm = Semimodule(gens.generators)
        for x in grids[n]:
            if check_solution(s, x):
                assert project(sm, x) == x
    elapsed = time.perf_counter() - t0
    assert feasible > 400
    assert elapsed < 60
    report(7, f"row generators sound + complete on [-3,3]^n grids ({feasible} feasible)", elapsed, 60)


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_assignment():
    rng = random.Random(81)
    t0 = time.perf_counter()
    regular_seen = 0
    for _ in range(500):
        n = rng.randint(1, 7)
        rows = [
            [rng.choice(([None] if n > 1 else []) + list(range(-4, 5))) for _ in range(n)]
            for _ in range(n)
        ]
        try:
            b = assign_matrix(rows)
        except ValueError:
            continue
        res = strong_regularity(b)
        # independent uniqueness oracle over all n! bijections
        best, count = None, 0
        for perm in itertools.permutations(range(n)):
            total = Fraction(0)
            ok = True
            for i, j in enumerate(perm):
                e = b.entry(i, j)
                if e is None:
                    ok = False
                    break
                total += e
            if not ok:
                continue
            if best is None or total > best:
                best, count = total, 1
            elif total == best:
                count += 1
        unique = best is not None and count == 1
        assert isinstance(res, RegularityCertificate) == unique
        if isinstance(res, RegularityCertificate):
            regular_seen += 1
            nf = normal_form(b, res)
            for i in range(n):
                assert nf.entry(i, i) == 0
                for j in range(n):
                    if i != j:
                        assert nf.entry(i, j) is None or nf.entry(i, j) < 0
    # normal inputs: b~ <= 0 and phi = phi~ = 0 exactly
    for _ in range(50):
        n = rng.randint(2, 6)
        rows = [
            [0 if i == j else rng.choice([None] + list(range(-5, 0))) for j in range(n)]
            for i in range(n)
        ]
        b = assign_matrix(rows)
        bt, phi, phit = distances_potentials(b, tuple(range(n)))
        for i in range(n):
            assert phi[i] == scalar(0) and phit[i] == scalar(0)
            for j in range(n):
                assert (not bt[i, j].is_finite) or bt[i, j].value <= 0
    elapsed = time.perf_counter() - t0
    assert regular_seen > 100
    assert elapsed < 60
    report(8, f"strong regularity = n! uniqueness on 500 instances ({regular_seen} regular)", elapsed, 60)


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_plucker():
    rng = random.Random(91)
    t0 = time.perf_counter()
    for _ in range(100):
        w = {e: Fraction(rng.randint(-4, 4)) for e in grid_edges(3)}
        f = flow_tp(grid_net(3, w))
        assert is_dmtp(f)
        assert is_tp(f)
        g = reconstruct_from_intervals(3, f.restrict_to_intervals())
        assert g.table == f.table
        assert is_submodular(f) == is_submodular(f, on_intervals_only=True)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(9, "flow functions DMTP, interval round trip, submodularity equivalence", elapsed, 60)


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_interval_star_exactness():
    rng = random.Random(101)
    t0 = time.perf_counter()
    for _ in range(500):
        n = rng.choice([2, 3])
        hi_rows, lo_rows = [], []
        for i in range(n):
            hi_row, lo_row = [], []
            for j in range(n):
                if rng.random() < 0.2:
                    hi_row.append(None)
                    lo_row.append(None)
                else:
                    h = Fraction(rng.randint(-5, 0))
                    hi_row.append(h)
                    lo_row.append(None if rng.random() < 0.3 else h - rng.randint(0, 3))
            hi_rows.append(hi_row)
            lo_rows.append(lo_row)
        iv = interval_matrix(matrix(lo_rows), matrix(hi_rows))
        st = iv_kleene_star(iv)
        assert st.lo == kleene_star(iv.lo)
        assert st.hi == kleene_star(iv.hi)
        for _ in range(100):
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    lo_e, hi_e = iv[i, j].lo, iv[i, j].hi
                    if not hi_e.is_finite:
                        row.append(None)
                    elif not lo_e.is_finite:
                        row.append(None if rng.random() < 0.5 else hi_e.value)
                    else:
                        t = Fraction(rng.randint(0, 4), 4)
                        row.append(lo_e.value + t * (hi_e.value - lo_e.value))
                rows.append(row)
            sample = matrix(rows)
            assert iv.contains(sample)
            sample_star = kleene_star(sample)
            for i in range(n):
                for j in range(n):
                    assert st[i, j].contains(sample_star[i, j])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(10, "interval star endpoints exact, 100 samples/instance contained", elapsed, 60)


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_crossing_phases():
    t0 = time.perf_counter()
    build = crossing_builder(10, "priority")
    tol = Fraction(2, 100)
    free = [Fraction(p, 100) for p in (5, 10, 15, 20)]
    plateau = [Fraction(p, 100) for p in (30, 35, 40, 45)]
    deadlock = [Fraction(p, 100) for p in (55, 60, 70, 80)]
    for rho, q in fundamental_diagram(build, free, steps=4000):
        assert q is not None and abs(q - rho) <= tol, (rho, q)
    for rho, q in fundamental_diagram(build, plateau, steps=4000):
        assert q is not None and abs(q - Fraction(1, 4)) <= tol, (rho, q)
    for rho, q in fundamental_diagram(build, deadlock, steps=4000):
        assert q is not None and abs(q) <= tol, (rho, q)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report(11, "three traffic phases: free = rho, plateau 1/4, deadlock 0", elapsed, 120)


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_t1h_traffic_light():
    t0 = time.perf_counter()
    k = 4000
    sys = traffic_light_system(5, 5, [0, 2], [1, 3])
    u_traj, _, rep, rates = t1h_simulate(sys, k)
    marks = [light_gate_marking(sys, u) for u in u_traj[:4]]
    assert marks == [(1, 0), (0, 0), (0, 1), (0, 0)]
    lam_v = max_cycle_mean(four_phase_product(sys, "vertical", 5)).value
    lam_h = max_cycle_mean(four_phase_product(sys, "horizontal", 5)).value
    assert abs(rates[0] - lam_v / 4) <= Fraction(1, 2 * k)
    assert abs(rates[7] - lam_h / 4) <= Fraction(1, 2 * k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report(12, "light phase table exact, flow = lambda/4 within 1/(2K)", elapsed, 30)
