import random
from fractions import Fraction

import pytest

from tropkit.assign import (
    AssignMatrix,
    NotStronglyRegular,
    RegularityCertificate,
    apply_b,
    assign_matrix,
    distances_potentials,
    normal_form,
    optimal_bijections,
    strong_regularity,
    subdifferential,
)
from tropkit.determ import _optimal_bijections
from tropkit.errors import CertificateInvalid, ImprovingCycle
from tropkit.semiring import MAX_PLUS, MIN_PLUS, scalar
from tropkit.tropmat import matrix, vector

from assign_oracle import normal_form_oracle, strong_regularity_oracle


def rand_assign(rng, n):
    while True:
        rows = [
            [rng.choice(([None] if n > 1 else []) + list(range(-4, 5))) for _ in range(n)]
            for _ in range(n)
        ]
        try:
            return assign_matrix(rows)
        except ValueError:
            continue


def test_apply_b_examples():
    b = assign_matrix([[0, -1], [-1, 0]])
    assert apply_b(b, [0, 0]) == [0, 0]
    b2 = assign_matrix([[3, 1], [0, 2]])
    base = apply_b(b2, [1, -2])
    assert apply_b(b2, [6, 3]) == [x - 5 for x in base]
    assert apply_b(assign_matrix([[0, 0], [0, 0]]), [1, 0]) == [0, 0]


def test_subdifferential_examples():
    r = subdifferential(assign_matrix([[0, -1], [-1, 0]]), [0, 0])
    assert r.mapping == {0: frozenset({0}), 1: frozenset({1})}
    assert r.is_covering and r.is_minimal_covering
    r2 = subdifferential(assign_matrix([[0, 0], [0, 0]]), [0, 0])
    assert r2.mapping == {0: frozenset({0, 1}), 1: frozenset({0, 1})}
    assert r2.is_covering and not r2.is_minimal_covering
    r3 = subdifferential(assign_matrix([[7]]), [0])
    assert r3.mapping == {0: frozenset({0})} and r3.is_minimal_covering


def test_strong_regularity_examples():
    cert = strong_regularity(assign_matrix([[0, -1], [-1, 0]]))
    assert isinstance(cert, RegularityCertificate) and cert.bijection == (0, 1)
    res = strong_regularity(assign_matrix([[0, 0], [0, 0]]))
    assert isinstance(res, NotStronglyRegular)
    assert res.second_bijection is not None
    cert5 = strong_regularity(assign_matrix([[5, 1], [1, 5]]))
    assert isinstance(cert5, RegularityCertificate) and cert5.bijection == (0, 1)


def test_assign_matrix_rejects_an_empty_matrix():
    # a 0 x 0 matrix has no bijection to certify, and no n to divide the slack by
    with pytest.raises(ValueError, match="nonempty"):
        assign_matrix([])


def test_normal_form_examples():
    b5 = assign_matrix([[5, 1], [1, 5]])
    hand = RegularityCertificate((0, 1), (Fraction(0), Fraction(0)), (Fraction(5), Fraction(5)))
    nf = normal_form(b5, hand)
    assert [[nf.entry(i, j) for j in range(2)] for i in range(2)] == [[0, -4], [-4, 0]]
    # already strongly normal input maps to itself under the trivial certificate
    bn = assign_matrix([[0, -2], [-1, 0]])
    trivial = RegularityCertificate((0, 1), (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    nfn = normal_form(bn, trivial)
    assert all(nfn.entry(i, j) == bn.entry(i, j) for i in range(2) for j in range(2))
    # a tied certificate is rejected
    with pytest.raises(CertificateInvalid):
        normal_form(
            assign_matrix([[0, 0], [0, 0]]),
            RegularityCertificate((0, 1), (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
        )


def test_distances_potentials_examples():
    b5 = assign_matrix([[5, 1], [1, 5]])
    bt, phi, phit = distances_potentials(b5, (0, 1))
    assert bt[0, 1] == scalar(-4) and bt[1, 0] == scalar(-4)
    assert phi == vector([0, 0]) and phit == vector([0, 0])
    bn = assign_matrix([[0, -2], [-1, 0]])
    btn, phn, phnt = distances_potentials(bn, (0, 1))
    assert all(
        (not btn[i, j].is_finite) or btn[i, j].value <= 0 for i in range(2) for j in range(2)
    )
    assert phn == vector([0, 0]) and phnt == vector([0, 0])
    with pytest.raises(ImprovingCycle):
        distances_potentials(assign_matrix([[0, 3], [3, 0]]), (0, 1))


def test_agreement_with_exhaustive_uniqueness():
    rng = random.Random(27)
    for _ in range(120):
        n = rng.randint(1, 5)
        b = rand_assign(rng, n)
        res = strong_regularity(b)
        best, wits = optimal_bijections(b, keep=3)
        unique = best is not None and len(wits) == 1
        assert isinstance(res, RegularityCertificate) == unique


def _assert_certificate(b, res):
    assert isinstance(res, RegularityCertificate)
    n = b.n
    f, g, perm = list(res.f), list(res.g), res.bijection
    # the Galois pair closes at the certificate
    assert apply_b(b, g, transpose=True) == f
    assert apply_b(b, f) == g
    # Prop 2.4 singleton equivalences
    dtg = subdifferential(b, g)
    df = subdifferential(AssignMatrix(b.data.transpose()), f).mapping
    for i in range(n):
        assert dtg.mapping[i] == frozenset({perm[i]})
        assert df[perm[i]] == frozenset({i})
    assert dtg.is_covering and dtg.is_minimal_covering
    # normal form is strongly normal and similar to b; it validates res first
    nf = normal_form(b, res)
    for i in range(n):
        assert nf.entry(i, i) == 0
        for j in range(n):
            if i != j:
                assert nf.entry(i, j) is None or nf.entry(i, j) < 0


def test_certificate_structure_random():
    rng = random.Random(28)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 5)
        b = rand_assign(rng, n)
        res = strong_regularity(b)
        if not isinstance(res, RegularityCertificate):
            continue
        checked += 1
        _assert_certificate(b, res)


def test_strict_dual_from_tight_hungarian_duals():
    # the Hungarian duals u = (3, 2, 1), v = 0 are tight on the off-bijection
    # edges 0 -> 1 and 1 -> 2, so v alone is no strict certificate; the
    # slack-1 edge 2 -> 0 back up the chain needs t = 1/3, below 1/2
    b = assign_matrix([[3, 3, 0], [None, 2, 2], [0, None, 1]])
    _, _, (u, v) = _optimal_bijections(b.data.payload, MAX_PLUS, 1)
    assert (u, v) == ([3, 2, 1], [0, 0, 0])
    with pytest.raises(CertificateInvalid):
        normal_form(b, RegularityCertificate((0, 1, 2), tuple(map(Fraction, v)), tuple(map(Fraction, u))))
    res = strong_regularity(b)
    assert res.f == (0, Fraction(1, 3), Fraction(2, 3))
    _assert_certificate(b, res)
    # every off-bijection edge tight: no slack edge fixes t, which is then 1/n
    b2 = assign_matrix([[0, 0], [None, 0]])
    res2 = strong_regularity(b2)
    assert res2.f == (0, Fraction(1, 2)) and [type(x) for x in res2.f] == [int, Fraction]
    _assert_certificate(b2, res2)


def test_potentials_properties_random():
    rng = random.Random(29)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 5)
        b = rand_assign(rng, n)
        res = strong_regularity(b)
        if not isinstance(res, RegularityCertificate):
            continue
        checked += 1
        perm = res.bijection
        bt, phi, phit = distances_potentials(b, perm)
        for i in range(n):
            assert bt[i, i].value >= 0
            assert phi[i].value >= 0 and phit[i].value >= 0
        # the potential solves the closure fixed point f_i = max_j (bt_ij + f_j)
        for i in range(n):
            assert phi[i].value == max(
                bt[i, j].value + phi[j].value for j in range(n) if bt[i, j].is_finite
            )
        # phi and -phi~ solve f_i = max_j (b_iF(j) - b_jF(j) + f_j)
        for fvec in ([e.value for e in phi.entries], [-e.value for e in phit.entries]):
            for i in range(n):
                cands = [
                    b.entry(i, perm[j]) - b.entry(j, perm[j]) + fvec[j]
                    for j in range(n)
                    if b.entry(i, perm[j]) is not None
                ]
                assert fvec[i] == max(cands)


def test_galois_generalized_inverse():
    rng = random.Random(30)
    for _ in range(80):
        n = rng.randint(1, 5)
        b = rand_assign(rng, n)
        f = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        g = apply_b(b, f)
        ftil = apply_b(b, g, transpose=True)
        assert apply_b(b, ftil) == g


def _rand_rational_assign(rng, n, bottom_share):
    """A matrix meeting condition C: ints or Fractions over denominators 1-3."""
    while True:
        rows = [
            [None if rng.random() < bottom_share else Fraction(rng.randint(-9, 9), rng.randint(1, 3))
             for _ in range(n)]
            for _ in range(n)
        ]
        try:
            return assign_matrix(rows)
        except ValueError:
            continue


def _normal_form_outcome(normal, b, cert):
    try:
        nf = normal(b, cert)
    except CertificateInvalid as exc:
        return type(exc), str(exc)
    return nf.data.payload, [[type(x) for x in row] for row in nf.data.payload]


def _types(values):
    return [type(x) for x in values]


def test_certificates_and_normal_forms_match_the_fraction_oracle_random():
    rng = random.Random(24)
    texts = {}
    regular = 0
    for trial in range(900):
        n = rng.randint(1, 6)
        b = _rand_rational_assign(rng, n, rng.choice([0, 0.2, 0.4]))
        res, want = strong_regularity(b), strong_regularity_oracle(b)
        assert res == want
        if isinstance(res, RegularityCertificate):
            regular += 1
            assert (_types(res.f), _types(res.g)) == (_types(want.f), _types(want.g))
            certs = [res]
            f, g, perm = list(res.f), list(res.g), list(res.bijection)
            delta = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
            k = rng.randrange(n)
            certs.append(RegularityCertificate(res.bijection, tuple(f[:k] + [f[k] + delta] + f[k + 1:]), res.g))
            certs.append(RegularityCertificate(res.bijection, res.f, tuple(g[:k] + [g[k] + delta] + g[k + 1:])))
            if n > 1:
                i, j = rng.sample(range(n), 2)
                perm[i], perm[j] = perm[j], perm[i]
                certs.append(RegularityCertificate(tuple(perm), res.f, res.g))
        else:
            perm = list(range(n))
            rng.shuffle(perm)
            draw = lambda: tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n))
            certs = [RegularityCertificate(tuple(perm), draw(), draw())]
        for cert in certs:
            got = _normal_form_outcome(normal_form, b, cert)
            assert got == _normal_form_outcome(normal_form_oracle, b, cert)
            if got[0] is CertificateInvalid:
                texts[got[1]] = texts.get(got[1], 0) + 1
    assert regular >= 200
    assert set(texts) == {
        "bijection uses a bottom entry",
        "row-dual inequality fails strictly",
        "column-dual inequality fails strictly",
    }
    assert min(texts.values()) >= 20


@pytest.mark.parametrize(
    "cert",
    [
        RegularityCertificate((0,), (0,), (0,)),
        RegularityCertificate((0, 0), (0, 0), (5, 5)),
        RegularityCertificate((0, 2), (0, 0), (5, 5)),
        RegularityCertificate((1.0, 0), (0, 0), (5, 5)),
        RegularityCertificate((0, 1), (0,), (5, 5)),
        RegularityCertificate((0, 1), (0, 0), (5, 5, 5)),
    ],
)
def test_normal_form_rejects_malformed_certificates(cert):
    with pytest.raises(CertificateInvalid):
        normal_form(assign_matrix([[5, 1], [1, 5]]), cert)


def test_normal_form_reads_certificate_values_as_exact_rationals():
    b5 = assign_matrix([[5, 1], [1, 5]])
    nf = normal_form(b5, RegularityCertificate((0, 1), ("1/2", 0), ("5", 5)))
    assert nf.data.payload == ((0, Fraction(-7, 2)), (Fraction(-9, 2), 0))
    for bad in (0.5, True, None):
        with pytest.raises(TypeError):
            normal_form(b5, RegularityCertificate((0, 1), (bad, 0), (5, 5)))


@pytest.mark.parametrize("call, error", [
    (lambda: AssignMatrix(matrix([[0]], MIN_PLUS)), ValueError),
    (lambda: distances_potentials(assign_matrix([[0, 1], [2, 0]]), (0, 0)), ValueError),
    (lambda: distances_potentials(assign_matrix([[None, 1], [2, 0]]), (0, 1)), ValueError),
], ids=["tag", "not-a-bijection", "bottom-on-bijection"])
def test_assign_input_checks_raise(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
