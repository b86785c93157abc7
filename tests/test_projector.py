import itertools
import random
from fractions import Fraction

import pytest

from tropkit import _cones, projector, spectral
from tropkit.errors import (
    CertificateInvalid,
    DimensionMismatch,
    EmptySupport,
    TagMismatch,
    TooLarge,
    TropkitError,
)
from tropkit.projector import (
    Halfspace,
    NotSeparable,
    Semimodule,
    cyclic_orbit,
    cyclic_spectral_radius,
    hilbert_value,
    project,
    semimodule,
    separate,
)
from tropkit.semiring import MAX_PLUS, MIN_PLUS, scalar, zero
from tropkit.tropmat import identity, matrix, vector

from projector_oracle import common_point_oracle, contains_oracle, cyclic_spectral_radius_oracle, separate_oracle

BOT = "-inf"


def test_project_examples():
    v = semimodule([[0, 0]])
    assert project(v, vector([1, 3])) == vector([1, 1])
    # fixed point on the semimodule
    w = semimodule([[0, 2], [1, 1]])
    for g in w.generators.columns():
        assert project(w, g) == g
    full = Semimodule(identity(2))
    assert project(full, vector([1, 3])) == vector([1, 3])


def test_projector_laws_random():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(2, 4)
        v = semimodule(_random_stages(rng, n, 1, 3, rng.choice([0, 0.2, 0.4]))[0])
        x = vector([rng.randint(-5, 5) for _ in range(n)])
        p = project(v, x)
        assert p <= x
        assert project(v, p) == p
        c = scalar(rng.randint(-3, 3))
        assert project(v, x.scale(c)) == p.scale(c)
        y = vector([x[i].value + rng.randint(0, 3) for i in range(n)])
        assert p <= project(v, y)


def test_hilbert_value_examples():
    assert hilbert_value([vector([0, 0]), vector([0, 0])]) == scalar(0)
    assert hilbert_value([vector([0, 0]), vector([0, 1])]) == scalar(-1)
    assert hilbert_value([vector([0, 1])] * 3) == scalar(0)
    with pytest.raises(EmptySupport):
        hilbert_value([vector([0, 0]), vector([BOT, BOT])])


def test_cyclic_orbit_monotone_windows():
    va, vb = semimodule([[0, 0]]), semimodule([[0, 2]])
    orbit = cyclic_orbit([va, vb], vector([0, 0]), 3)
    assert len(orbit) == 6
    windows = [hilbert_value(orbit[l : l + 2]) for l in range(len(orbit) - 2)]
    assert all(windows[i] <= windows[i + 1] for i in range(len(windows) - 1))
    # identity projector: constant orbit
    full = Semimodule(identity(2))
    x0 = vector([1, 2])
    assert cyclic_orbit([full], x0, 2) == [x0, x0]
    # zero start stays zero
    z = vector([BOT, BOT])
    assert all(p.is_zero for p in cyclic_orbit([va, vb], z, 2))


def test_radius_examples():
    va, vb = semimodule([[0, 0]]), semimodule([[0, 2]])
    rep = cyclic_spectral_radius([va, vb])
    assert rep.value == scalar(-2)
    assert hilbert_value(rep.witness_vectors) == rep.value
    assert cyclic_spectral_radius([va, va]).value == scalar(0)
    assert cyclic_spectral_radius([va]).value == scalar(0)
    # the eigenvector is the greatest multiple of x below the sum of the
    # last stage's generators supported in the attaining class
    rep = cyclic_spectral_radius([semimodule([[-1, BOT]]), semimodule([[-2, BOT], [3, 2]])])
    assert (rep.value, rep.support_set, rep.eigenvector) == (scalar(0), frozenset({0}), vector([-2, BOT]))
    # disjoint axes: no common support class, radius is the zero scalar
    ax1, ax2 = semimodule([[0, BOT]]), semimodule([[BOT, 0]])
    assert cyclic_spectral_radius([ax1, ax2]).value == zero(MAX_PLUS)


def _assert_certified(rep):
    """The witnesses attain the radius; a zero radius has neither witnesses
    nor an eigenvector."""
    if rep.value == zero(MAX_PLUS):
        assert (rep.witness_vectors, rep.eigenvector) == ((), None)
    else:
        assert hilbert_value(rep.witness_vectors) == rep.value


def test_radius_dominates_sampled_tuples():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 4)
        vs = [semimodule(gens) for gens in _random_stages(rng, n, rng.randint(1, 3), 3, rng.choice([0, 0.2, 0.4]))]
        rep = cyclic_spectral_radius(vs)
        _assert_certified(rep)
        for _ in range(15):
            tup = []
            for v in vs:
                gens = v.generators.columns()
                x = gens[rng.randrange(len(gens))]
                if len(gens) > 1 and rng.random() < 0.5:
                    other = gens[rng.randrange(len(gens))]
                    x = x + other.scale(scalar(rng.randint(-3, 3)))
                tup.append(x)
            assert hilbert_value(tup) <= rep.value


def test_radius_eigenvector_certificate():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 4)
        vs = [semimodule(gens) for gens in _random_stages(rng, n, rng.randint(2, 3), 2, rng.choice([0, 0.2, 0.4]))]
        rep = cyclic_spectral_radius(vs)
        _assert_certified(rep)
        if rep.value == zero(MAX_PLUS):
            continue
        y = rep.eigenvector
        z = y
        for v in vs:
            z = project(v, z)
        assert z == y.scale(rep.value)


def test_radius_rejects_orbit_witnesses_that_miss_the_value(monkeypatch):
    # a strategy evaluation that reports a radius off by one: no strategy
    # makes the orbit of x attain it, so the iteration stalls and fails,
    # with asserts stripped too
    real = spectral._cycle_time

    def wrong(a):
        chi, eta = real(a)
        return [None if c is None else c + 1 for c in chi], eta

    monkeypatch.setattr(projector, "_cycle_time", wrong)
    with pytest.raises(CertificateInvalid):
        cyclic_spectral_radius([semimodule([[0], [0]]), semimodule([[0], [2]])])


def test_radius_rejects_witnesses_whose_hilbert_value_misses(monkeypatch):
    # witnesses whose Hilbert value is off the radius fail the check, with
    # asserts stripped too
    real = projector._hilbert
    monkeypatch.setattr(projector, "_hilbert", lambda xs, tag: real(xs, tag) + 1)
    with pytest.raises(CertificateInvalid):
        cyclic_spectral_radius([semimodule([[0], [0]]), semimodule([[0], [2]])])


def _random_stages(rng, n, k, max_gens, bottom_share):
    stages = []
    for _ in range(k):
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            g = [BOT] * n
            while g == [BOT] * n:
                g = [
                    BOT if rng.random() < bottom_share
                    else Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
                    for _ in range(n)
                ]
            gens.append(g)
        stages.append(gens)
    return stages


def _fixed(vs, y, lam):
    z = y
    for v in vs:
        z = project(v, z)
    return z == y.scale(lam)


def test_radius_matches_support_class_oracle_random():
    # strategy iteration against the 2^n support-class loop; where the
    # oracle's orbit search runs out of budget, the eigenvector equation
    # alone is checked
    rng = random.Random(16)
    for trial in range(260):
        n = rng.randint(1, 6) if trial < 240 else rng.randint(7, 8)
        k = rng.randint(1, 4)
        vs = [semimodule(g) for g in _random_stages(rng, n, k, 4, rng.choice([0, 0.2, 0.4, 0.6]))]
        rep = cyclic_spectral_radius(vs)
        if rep.eigenvector is not None:
            assert _fixed(vs, rep.eigenvector, rep.value)
        try:
            want = cyclic_spectral_radius_oracle(vs)
        except TooLarge:
            continue
        assert (rep.value, rep.support_set) == (want.value, want.support_set)


def test_separate_shared_axis_ray_is_not_separable():
    # the orbit on the full support class drifts and never turns periodic,
    # but both semimodules contain multiples of e0: the radius is the unit
    v1 = semimodule([[-2, BOT, BOT], [0, 4, 1], [BOT, 1, -2], [0, -2, BOT]])
    v2 = semimodule([[3, -3, -4], [-3, BOT, BOT]])
    with pytest.raises(TooLarge):
        cyclic_spectral_radius_oracle([v1, v2])
    rep = cyclic_spectral_radius([v1, v2])
    assert (rep.value, rep.support_set) == (scalar(0), frozenset({0}))
    res = separate([v1, v2])
    assert isinstance(res, NotSeparable)
    assert not res.witness.is_zero
    assert all(project(v, res.witness) == res.witness for v in (v1, v2))


def test_radius_above_old_enumeration_cap():
    # four n = 4 blocks on disjoint coordinates: P acts blockwise, so the
    # n = 16 radius is the largest block radius
    rng = random.Random(16)
    k = 3
    blocks = [_random_stages(rng, 4, k, 3, 0.2) for _ in range(4)]
    block_radii = [cyclic_spectral_radius_oracle([semimodule(g) for g in b]).value for b in blocks]
    stages = [
        [[BOT] * (4 * b) + g + [BOT] * (12 - 4 * b) for b, blk in enumerate(blocks) for g in blk[t]]
        for t in range(k)
    ]
    vs = [semimodule(g) for g in stages]
    rep = cyclic_spectral_radius(vs)
    assert rep.value == max(block_radii)
    assert _fixed(vs, rep.eigenvector, rep.value)


def test_separation_examples():
    va, vb = semimodule([[0, 0]]), semimodule([[0, 2]])
    hs = separate([va, vb])
    assert isinstance(hs, list) and len(hs) == 2
    for v, h in zip([va, vb], hs):
        for g in v.generators.columns():
            assert h.contains(g)
    ns = separate([va, va])
    assert isinstance(ns, NotSeparable)
    assert not ns.witness.is_zero
    assert project(va, ns.witness) == ns.witness
    # two disjoint axes separate
    ax1, ax2 = semimodule([[0, BOT]]), semimodule([[BOT, 0]])
    hs2 = separate([ax1, ax2])
    assert isinstance(hs2, list)
    assert not hs2[0].contains(vector([0, 0])) or not hs2[1].contains(vector([0, 0]))


@pytest.mark.parametrize("empty_first", [True, False])
def test_generatorless_semimodule_in_either_position(empty_first):
    # an n x 0 generator matrix spans {0}, so the cyclic product is the zero map
    full, empty = semimodule([[0, 3, 0], [0, 1, 4]]), Semimodule(matrix([[]] * 3))
    vs = [empty, full] if empty_first else [full, empty]
    rep = cyclic_spectral_radius(vs)
    assert (rep.value, rep.witness_vectors, rep.support_set) == (zero(MAX_PLUS), (), frozenset())
    hs = separate(vs)
    assert hs[0 if empty_first else 1] == Halfspace(vector([BOT] * 3), vector([0, 3, 4]))
    gens = full.generators.columns()
    for g in gens:
        assert hs[1 if empty_first else 0].contains(g)
    for x in gens + [gens[0] + gens[1]]:
        assert not all(h.contains(x) for h in hs)


def test_separation_of_generatorless_semimodules_only():
    # with no generator at all, each halfspace is {0}
    hs = separate([Semimodule(matrix([[]] * 3))] * 2)
    assert hs == [Halfspace(vector([BOT] * 3), vector([0, 0, 0]))] * 2
    assert not hs[0].contains(vector([0, BOT, BOT]))


def test_separation_random_finite():
    rng = random.Random(14)
    separable = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        k = rng.randint(2, 3)
        vs = [
            semimodule(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 2))]
            )
            for _ in range(k)
        ]
        res = separate(vs)
        if isinstance(res, NotSeparable):
            w = res.witness
            assert all(project(v, w) == w for v in vs)
        else:
            separable += 1
            gens = [g for v in vs for g in v.generators.columns()]
            pts = gens + [a + b for a, b in itertools.combinations(gens, 2)]
            for x in pts:
                assert not all(h.contains(x) for h in res)
            for v, h in zip(vs, res):
                for g in v.generators.columns():
                    assert h.contains(g)
    assert separable > 5


def test_separate_refuses_halfspaces_that_meet_outside_both_semimodules():
    # the two rays meet only at zero, but the halfspaces built for them both
    # hold x, which lies in neither ray; the generators and their pairwise
    # sums all miss one halfspace or the other
    v1, v2 = semimodule([[4, BOT, -5, BOT, 3]]), semimodule([[2, BOT, -3, -5, 4]])
    hs = projector._halfspaces([v1, v2], cyclic_spectral_radius([v1, v2]))
    x = vector([-6, 12, -8, -6, 7])
    assert all(h.contains(x) for h in hs)
    assert not v1.contains(x) and not v2.contains(x)
    gens = [g for v in (v1, v2) for g in v.generators.columns()]
    assert not any(all(h.contains(g) for h in hs) for g in gens + [gens[0] + gens[1]])
    with pytest.raises(CertificateInvalid, match=r"share the nonzero point \(0, 0, 0, 0, 0\)"):
        separate([v1, v2])
    assert common_point_oracle(hs) == vector([0] * 5)


def test_common_point_matches_the_support_enumeration_random():
    # n 2-7, 2-4 halfspaces with u <= v, 0-60 % bottoms, denominators up to 3
    rng = random.Random(41)
    draw = lambda n, share: vector(
        [None if rng.random() < share else Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    )
    found = {}
    for _ in range(5000):
        n, share = rng.randint(2, 7), rng.choice([0, 0.2, 0.4, 0.6])
        hs = [Halfspace(u, u + draw(n, share)) for u in (draw(n, share) for _ in range(rng.randint(2, 4)))]
        x = _cones._common_point([(h.u.payload, h.v.payload) for h in hs])
        # a returned point is checked directly, so the enumeration runs
        # only to confirm that no point exists
        if x is None:
            assert common_point_oracle(hs) is None, hs
        else:
            x = vector(x)
            assert not x.is_zero and all(h.contains(x) for h in hs), (hs, x)
        found[x is not None, share] = found.get((x is not None, share), 0) + 1
    # a common point and none both occur at every share of bottoms
    assert len(found) == 8 and min(found.values()) >= 100


def _rand_separation_input(rng, rational):
    """ROADMAP item 1's distribution: n 2-5, 2-3 semimodules, 1-3 generators
    in [-5, 5] with 0, 20 or 40 % bottoms; `rational` divides each finite
    entry by 1, 2 or 3."""
    n, share = rng.randint(2, 5), rng.choice([0, 0.2, 0.4])
    vs = []
    for _ in range(rng.randint(2, 3)):
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = [None] * n
            while g == [None] * n:
                g = [
                    None if rng.random() < share
                    else Fraction(rng.randint(-5, 5), rng.randint(1, 3) if rational else 1)
                    for _ in range(n)
                ]
            gens.append(g)
        vs.append(semimodule(gens))
    return vs


def _separation_outcome(sep, vs):
    try:
        res = sep(vs)
    except TropkitError as exc:
        return type(exc), str(exc)
    if isinstance(res, NotSeparable):
        return res, _payload_types(res.witness)
    return res, [(_payload_types(h.u), _payload_types(h.v)) for h in res]


def _payload_types(x):
    return [type(v) for v in x.payload]


def test_separation_checks_match_the_boxed_oracle_random():
    rng = random.Random(7)
    kinds = {}
    for trial in range(1200):
        vs = _rand_separation_input(rng, rational=trial % 3 == 2)
        got = _separation_outcome(separate, vs)
        assert got == _separation_outcome(separate_oracle, vs)
        kind = got[0].__name__ if isinstance(got[0], type) else type(got[0]).__name__
        kinds[kind] = kinds.get(kind, 0) + 1
    # separations, NotSeparable witnesses and refusals of a common point all occur
    assert min(kinds.get(k, 0) for k in ("list", "NotSeparable")) >= 100
    assert kinds.get("CertificateInvalid", 0) >= 50


def test_halfspace_contains_matches_the_boxed_oracle_random():
    rng = random.Random(8)
    draw = lambda n, share: [
        None if rng.random() < share else Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)
    ]
    outcomes = set()
    for _ in range(2000):
        n, share = rng.randint(1, 5), rng.choice([0, 0.2, 0.4, 0.8])
        u, x = vector(draw(n, share)), vector(draw(n, share))
        v = u + vector(draw(n, share))
        h = Halfspace(u, v)
        got = h.contains(x)
        assert got is contains_oracle(h, x)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_halfspace_is_closed_under_sums_and_prime_random():
    # u/(x + y) = min(u/x, u/y), and the same for v, so x, y in H gives
    # x + y in H (closed), and x + y in H gives x in H or y in H (prime)
    rng = random.Random(40)
    seen = set()
    for _ in range(20000):
        n, share = rng.randint(1, 5), rng.choice([0, 0.2, 0.4])
        draw = lambda: vector([None if rng.random() < share else rng.randint(-6, 6) for _ in range(n)])
        u, x, y = draw(), draw(), draw()
        h = Halfspace(u, u + draw())
        in_x, in_y, in_sum = h.contains(x), h.contains(y), h.contains(x + y)
        assert in_sum or not (in_x and in_y), ("not closed", h, x, y)
        assert in_x or in_y or not in_sum, ("not prime", h, x, y)
        seen.add((in_x, in_y, in_sum))
    # the sum is in with both, or with one of them, and out with one or none
    assert seen == {(True, True, True), (True, False, True), (False, True, True),
                    (True, False, False), (False, True, False), (False, False, False)}


def test_halfspace_edge_checks():
    h = Halfspace(vector([0, BOT, 1]), vector([0, 2, 1]))
    with pytest.raises(DimensionMismatch):
        h.contains(vector([0, 0]))
    with pytest.raises(DimensionMismatch):
        h.contains(vector([BOT, BOT]))  # the zero vector of another length too
    with pytest.raises(TagMismatch):
        h.contains(vector([0, 0, 0], MIN_PLUS))
    with pytest.raises(ValueError, match="max-plus"):
        Halfspace(vector([0, 1], MIN_PLUS), vector([0, 1], MIN_PLUS))


def _covered(columns, x):
    """Max-plus span membership by the covering test, on plain values: x is
    in the span of the columns iff every finite x_i is attained by some
    column's greatest multiple below x, lam = min over the column's support
    of x_i - g_i (minus infinity once some such x_i is)."""
    attained = set()
    for g in columns:
        support = [i for i, v in enumerate(g) if v is not None]
        if any(x[i] is None for i in support):
            continue
        lam = min(x[i] - g[i] for i in support)
        attained.update(i for i in support if lam + g[i] == x[i])
    return all(i in attained for i, v in enumerate(x) if v is not None)


def _draw(rng, share):
    return None if rng.random() < share else Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def _random_columns(rng, n, share):
    """One to four generator columns of length n, none of them all zero."""
    columns = [[_draw(rng, share) for _ in range(n)] for _ in range(rng.randint(1, 4))]
    for g in columns:
        g[rng.randrange(n)] = _draw(rng, 0)
    return columns


@pytest.mark.parametrize("tag", [MAX_PLUS, MIN_PLUS])
def test_semimodule_contains_its_combinations_random(tag):
    rng = random.Random(29)
    for _ in range(300):
        v = semimodule(_random_columns(rng, rng.randint(1, 5), rng.choice([0, 0.3, 0.6])), tag)
        lam = vector([_draw(rng, 0.3) for _ in range(v.generators.cols)], tag)
        assert v.contains(v.generators.apply(lam))


def test_semimodule_contains_agrees_with_the_covering_test_random():
    rng = random.Random(30)
    outcomes = set()
    for _ in range(600):
        n, share = rng.randint(1, 5), rng.choice([0, 0.3, 0.6])
        columns = _random_columns(rng, n, share)
        x = [_draw(rng, share) for _ in range(n)]
        got = semimodule(columns).contains(vector(x))
        assert got is _covered(columns, x), (columns, x)
        outcomes.add(got)
    assert outcomes == {True, False}


@pytest.mark.parametrize("call, error", [
    (lambda: project(semimodule([[0, 0]]), vector([0, 0], MIN_PLUS)), TagMismatch),
    (lambda: cyclic_orbit([semimodule([[0, 0]])], vector([0, 0]), 0), ValueError),
    (lambda: cyclic_orbit([semimodule([[0, 0]])], vector([0, 0, 0]), 1), DimensionMismatch),
    (lambda: hilbert_value([]), ValueError),
    (lambda: cyclic_spectral_radius([]), ValueError),
    (lambda: cyclic_spectral_radius([semimodule([[0, 0]]), semimodule([[0, 0, 0]])]), DimensionMismatch),
    (lambda: cyclic_spectral_radius([semimodule([[0, 0]], MIN_PLUS)] * 2), ValueError),
], ids=["project-tag", "orbit-sweeps", "orbit-dimension", "hilbert-empty", "radius-empty",
        "radius-dimension", "radius-tag"])
def test_projector_input_checks_raise(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


def test_separate_rejects_halfspaces_that_miss_their_semimodule(monkeypatch):
    # a fault in the halfspace construction: u has a bottom where the
    # generator (0, 0) is finite, so u/x = -inf < v/x and (0, 0) lies outside
    wrong = lambda vs, rep: [Halfspace(vector([BOT, 0]), vector([0, 0])) for _ in vs]
    monkeypatch.setattr(projector, "_halfspaces", wrong)
    with pytest.raises(CertificateInvalid, match="fails to contain its semimodule"):
        separate([semimodule([[0, 0]]), semimodule([[0, 2]])])
