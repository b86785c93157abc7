import itertools
import random
from fractions import Fraction

import pytest

from tropkit import projector, spectral
from tropkit.errors import CertificateInvalid, EmptySupport, TooLarge
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
from tropkit.semiring import MAX_PLUS, scalar, sr_mul, zero
from tropkit.tropmat import identity, vector

from projector_oracle import cyclic_spectral_radius_oracle

BOT = "-inf"


def test_project_examples():
    v = semimodule([[0, 0]])
    assert project(v, vector([1, 3])) == vector([1, 1])
    # fixed point on the semimodule
    w = semimodule([[0, 2], [1, 1]])
    for g in w.generator_list():
        assert project(w, g) == g
    full = Semimodule(identity(2))
    assert project(full, vector([1, 3])) == vector([1, 3])


def test_projector_laws_random():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(2, 4)
        cols = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        v = semimodule(cols)
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


def test_radius_dominates_sampled_tuples():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 4)
        k = rng.randint(1, 3)
        vs = [
            semimodule(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            )
            for _ in range(k)
        ]
        rep = cyclic_spectral_radius(vs)
        assert hilbert_value(rep.witness_vectors) == rep.value
        for _ in range(15):
            tup = []
            for v in vs:
                gens = v.generator_list()
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
        k = rng.randint(2, 3)
        vs = [
            semimodule(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 2))]
            )
            for _ in range(k)
        ]
        rep = cyclic_spectral_radius(vs)
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
    real = hilbert_value
    monkeypatch.setattr(projector, "hilbert_value", lambda xs: sr_mul(real(xs), scalar(1)))
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
        for g in v.generator_list():
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
            gens = [g for v in vs for g in v.generator_list()]
            pts = gens + [a + b for a, b in itertools.combinations(gens, 2)]
            for x in pts:
                assert not all(h.contains(x) for h in res)
            for v, h in zip(vs, res):
                for g in v.generator_list():
                    assert h.contains(g)
    assert separable > 5
