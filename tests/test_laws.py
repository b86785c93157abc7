"""Metamorphic laws: each relates a call on one matrix to a call on a
transformed matrix, over the seeded matrices of `inputs.square_matrices`
(max-plus unless a law names another tag).

- min-plus(A) = -max-plus(-A) for the permanent, the rook coefficients,
  both sums of the bideterminant, tropical singularity and the Kleene star,
  its Divergent verdict included;
- permanent(A + c) = permanent(A) + n c;
- max_cycle_mean(A + c) = max_cycle_mean(A) + c, NoCycle included;
- P A P^T has the eigenvalue of A, by `max_cycle_mean` and by
  `spectral_analysis`, whose critical nodes are those of A renumbered;
- max_cycle_mean(c A) = c max_cycle_mean(A) for c = p/q > 0, and
  `spectral_analysis(c A)` has the critical graph and classes of A with
  every generator times c;
- a boolean matrix has the permanent, the rook coefficients, both sums of
  the bideterminant and the tropical singularity of its max-plus 0/bottom
  pattern, true where the pattern's answer is 0 (both bideterminants run
  the one DP, so that law checks the boolean encoding and decoding alone;
  the parity oracle of `test_determ.py` is the independent check);
- in all four tags, A^T has the bideterminant and the permanent of A;
- in max-plus, min-plus and max-times, D A with D = diag(d_i), every d_i
  invertible, has both bideterminant sums and the permanent of A times
  prod d_i: each of the n factors of a product carries one d_i, which
  checks the max-times sums unscaled by L^n over mixed denominators;
- for the span V of A's columns (A with no all-bottom column) and a vector
  x: P_V(P_V x) = P_V x, P_V x <= x and P_V(x + c) = P_V x + c;
- f(x + c 1) = f(x) + c 1 for roads, both crossings (the priority patch
  included), the tent system and random maps that `HomogeneousMap`
  accepts, and, for T1H systems, f(x + sum_b sigma_b 1_b) = f(x) +
  sum_b sigma_b 1_b with one shift sigma_b per block of `_t1h_map`: the
  law `_orbit`'s early stop relies on.

A + c adds c to every finite entry, and c A multiplies it by c. Dividing by
q makes the cycle means fractional, so the dilation law drives Howard's
scale to grow on matrices that no oracle test samples. The laws compare the
payloads of boxed results across tags, and every payload must be canonical,
so they also check the scalars the kernels box.
"""

import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from inputs import payload, rational, square_matrices
from result_leaves import is_canonical, numbers

from tropkit.dynamics import (HomogeneousMap, MinPlusTerm, T1HSystem, _t1h_map, build_crossing,
                              road_event_graph, tent_system, traffic_light_system, uterm_matrix)
from tropkit.determ import Bideterminant, bideterminant, is_trop_singular, permanent, rook_coefficients
from tropkit.errors import Divergent, NoCycle
from tropkit.projector import Semimodule, project
from tropkit.semiring import BOOLEAN, MAX_PLUS, MAX_TIMES, MIN_PLUS, TropScalar
from tropkit.spectral import max_cycle_mean, spectral_analysis
from tropkit.tropmat import TropMatrix, kleene_star, matrix, vector

_CASES = square_matrices(18, 600)


def _payloads(result):
    """The payload tree of a result: scalars, matrices and bideterminants
    become their payloads, lists become tuples, and a bool stays."""
    if isinstance(result, TropScalar):
        return result.value
    if isinstance(result, TropMatrix):
        return result.payload
    if isinstance(result, Bideterminant):
        return result.plus.value, result.minus.value
    if isinstance(result, (list, tuple)):
        return tuple(map(_payloads, result))
    return result


def _negated(tree):
    if type(tree) is bool:
        return tree
    if isinstance(tree, (list, tuple)):
        return tuple(map(_negated, tree))
    return None if tree is None else -tree


def _shifted(rows, c):
    return [[None if v is None else v + c for v in row] for row in rows]


def _dilated(payloads, c):
    return tuple(None if v is None else v * c for v in payloads)


def _as_boolean(tree):
    """A payload tree of the max-plus 0/bottom pattern as booleans: 0 is
    true, the bottom false, and a bool stays; any other value fails."""
    if type(tree) is bool:
        return tree
    if isinstance(tree, tuple):
        return tuple(map(_as_boolean, tree))
    return {0: True, None: False}[tree]


def _outcome(fn, a):
    """("returns", the payload tree of fn(a)) or ("raises", the verdict's type)."""
    try:
        result = _payloads(fn(a))
    except (Divergent, NoCycle) as exc:
        return "raises", type(exc)
    assert all(map(is_canonical, numbers(result)))
    return "returns", result


@pytest.mark.parametrize("fn", [permanent, rook_coefficients, bideterminant, is_trop_singular, kleene_star],
                         ids=lambda fn: fn.__name__)
def test_min_plus_is_negated_max_plus(fn):
    for rows in _CASES:
        kind, result = _outcome(fn, matrix(rows, MAX_PLUS))
        expected = (kind, _negated(result) if kind == "returns" else result)
        assert _outcome(fn, matrix(_negated(rows), MIN_PLUS)) == expected, rows


@pytest.mark.parametrize("tag", [MAX_PLUS, MIN_PLUS], ids=lambda tag: tag.value)
def test_permanent_and_cycle_mean_shift_with_the_entries(tag):
    rng = random.Random(f"shift-{tag.value}")
    for rows in _CASES:
        c = rational(rng)
        a, b = matrix(rows, tag), matrix(_shifted(rows, c), tag)
        perm = permanent(a).value
        assert _outcome(permanent, b) == ("returns", None if perm is None else perm + len(rows) * c), (rows, c)
        kind, lam = _outcome(max_cycle_mean, a)
        assert _outcome(max_cycle_mean, b) == (kind, lam + c if kind == "returns" else lam), (rows, c)


@pytest.mark.parametrize("tag", [MAX_PLUS, MIN_PLUS], ids=lambda tag: tag.value)
def test_permuted_matrix_has_the_same_eigenvalue(tag):
    rng = random.Random(f"permute-{tag.value}")
    for rows in _CASES:
        p = rng.sample(range(len(rows)), len(rows))  # node i of P A P^T is node p[i] of A
        a, b = matrix(rows, tag), matrix([[rows[i][j] for j in p] for i in p], tag)
        kind, lam = _outcome(max_cycle_mean, a)
        assert _outcome(max_cycle_mean, b) == (kind, lam), (rows, p)
        if kind == "returns":
            ra, rb = spectral_analysis(a), spectral_analysis(b)
            assert rb.eigenvalue == ra.eigenvalue == TropScalar(lam, tag), (rows, p)
            assert {p[i] for i in rb.critical_nodes} == ra.critical_nodes, (rows, p)


@pytest.mark.parametrize("tag", [MAX_PLUS, MIN_PLUS], ids=lambda tag: tag.value)
def test_dilation_scales_the_eigenvalue_and_the_generators(tag):
    rng = random.Random(f"dilate-{tag.value}")
    for rows in _CASES:
        c = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        a, b = matrix(rows, tag), matrix([_dilated(row, c) for row in rows], tag)
        kind, lam = _outcome(max_cycle_mean, a)
        assert _outcome(max_cycle_mean, b) == (kind, lam * c if kind == "returns" else lam), (rows, c)
        if kind == "returns":
            ra, rb = spectral_analysis(a), spectral_analysis(b)
            assert rb.eigenvalue == TropScalar(lam * c, tag), (rows, c)
            assert (rb.critical_edges, rb.critical_classes) == (ra.critical_edges, ra.critical_classes), (rows, c)
            assert [v.payload for v in rb.eigenvectors] == [_dilated(v.payload, c) for v in ra.eigenvectors], (rows, c)


@pytest.mark.parametrize("fn", [permanent, rook_coefficients, bideterminant, is_trop_singular],
                         ids=lambda fn: fn.__name__)
def test_boolean_is_the_max_plus_zero_pattern(fn):
    for rows in _CASES:
        b = matrix([[v is not None for v in row] for row in rows], BOOLEAN)
        pattern = matrix([[None if v is None else 0 for v in row] for row in rows], MAX_PLUS)
        assert _payloads(fn(b)) == _as_boolean(_payloads(fn(pattern))), rows


_TAG_CASES = {tag: square_matrices(18, 600, tag) for tag in (MIN_PLUS, MAX_TIMES, BOOLEAN)}
_TAG_CASES[MAX_PLUS] = _CASES


@pytest.mark.parametrize("tag", [MAX_PLUS, MIN_PLUS, MAX_TIMES, BOOLEAN], ids=lambda tag: tag.value)
def test_transpose_keeps_the_bideterminant_and_the_permanent(tag):
    for rows in _TAG_CASES[tag]:
        a, b = matrix(rows, tag), matrix([list(col) for col in zip(*rows)], tag)
        for fn in (bideterminant, permanent):
            assert _outcome(fn, b) == _outcome(fn, a), (rows, fn.__name__)


@pytest.mark.parametrize("tag", [MAX_PLUS, MIN_PLUS, MAX_TIMES], ids=lambda tag: tag.value)
def test_row_scaling_multiplies_the_bideterminant_and_the_permanent(tag):
    rng, mul = random.Random(f"diag-{tag.value}"), tag.ops.mul
    for rows in _TAG_CASES[tag]:
        d = [payload(rng, tag) for _ in rows]
        d = [tag.ops.unit if di == tag.ops.zero else di for di in d]  # max-times draws its zero 0
        a, b = matrix(rows, tag), matrix([[mul(di, v) for v in row] for di, row in zip(d, rows)], tag)
        factor = reduce(mul, d, tag.ops.unit)
        for fn in (bideterminant, permanent):
            kind, result = _outcome(fn, a)
            expected = tuple(mul(factor, v) for v in result) if fn is bideterminant else mul(factor, result)
            assert _outcome(fn, b) == (kind, expected), (rows, d, fn.__name__)


def test_projection_is_idempotent_below_x_and_shifts_with_x():
    rng = random.Random("project")
    spans = [rows for rows in _CASES if all(any(v is not None for v in col) for col in zip(*rows))]
    for rows in spans:
        v, c = Semimodule(matrix(rows, MAX_PLUS)), rational(rng)
        x = [None if rng.random() < 0.2 else rational(rng) for _ in rows]
        px = project(v, vector(x, MAX_PLUS)).payload
        assert project(v, vector(px, MAX_PLUS)).payload == px, (rows, x)
        assert all(p is None or xi is not None and p <= xi for p, xi in zip(px, x)), (rows, x)
        assert project(v, vector(_shifted([x], c)[0], MAX_PLUS)).payload == tuple(_shifted([px], c)[0]), (rows, x, c)


def _degree_one_map(rng):
    """A random map that `HomogeneousMap` accepts: 1 to 5 coordinates, each a
    min of 1 to 3 terms with rational constants and 1 to 3 rational
    exponents that sum to one, negative ones included."""
    n = rng.randint(1, 5)
    coords = []
    for _ in range(n):
        terms = []
        for _ in range(rng.randint(1, 3)):
            exps = [(rng.randrange(n), rational(rng)) for _ in range(rng.randint(0, 2))]
            exps.append((rng.randrange(n), 1 - sum(e for _, e in exps)))
            merged = {}
            for i, e in exps:
                merged[i] = merged.get(i, 0) + e
            terms.append(MinPlusTerm(rational(rng), merged.items()))
        coords.append(tuple(terms))
    return HomogeneousMap(n, tuple(coords))


def _traffic_maps(rng):
    """Seeded roads, crossings of both policies, and the tent system."""
    maps = [tent_system()]
    for _ in range(40):
        m = rng.randint(2, 9)
        maps.append(road_event_graph([rng.randint(0, 1) for _ in range(m)]))
    for _ in range(40):
        n1, n2 = rng.randint(2, 6), rng.randint(2, 6)
        cars = rng.sample(range(n1 + n2), rng.randint(0, n1 + n2))
        maps += [build_crossing(n1, n2, cars, policy) for policy in ("priority", "fifty_fifty")]
    return maps


def test_homogeneous_maps_commute_with_a_shift():
    rng = random.Random("shift-map")
    maps = _traffic_maps(rng) + [_degree_one_map(rng) for _ in range(300)]
    for f in maps:
        for _ in range(3):
            x, c = [rational(rng) for _ in range(f.dim)], rational(rng)
            assert f([v + c for v in x]) == [v + c for v in f(x)], (f, x, c)


def _zero_sum_term(rng, udim):
    """A control-matrix term: a rational constant and rational exponents in u that sum to zero."""
    if udim == 1 or rng.random() < 0.4:
        return MinPlusTerm(rational(rng), ())
    i, j = rng.sample(range(udim), 2)
    e = rational(rng)
    return MinPlusTerm(rational(rng), ((i, e), (j, -e)))


def _t1h_system(rng):
    """A random T1H system whose every coordinate has an input: a min-plus
    control matrix C, and A(u) and, half the time, B(u) with 0-homogeneous
    terms and a share of missing entries."""
    udim, xdim = rng.randint(1, 4), rng.randint(1, 5)
    c = [[rational(rng) if rng.random() < 0.5 else None for _ in range(udim)] for _ in range(udim)]
    for i, row in enumerate(c):
        row[i] = rational(rng) if all(v is None for v in row) else row[i]
    a = [[None if rng.random() < 0.6 else _zero_sum_term(rng, udim) for _ in range(xdim)] for _ in range(xdim)]
    b = [[None if rng.random() < 0.7 else _zero_sum_term(rng, udim) for _ in range(udim)] for _ in range(xdim)]
    b_of_u = uterm_matrix(udim, b) if rng.random() < 0.5 else None
    for r in range(xdim):
        if not any(a[r]) and not (b_of_u and any(b[r])):
            a[r][rng.randrange(xdim)] = _zero_sum_term(rng, udim)
    u0, x0 = [rational(rng) for _ in range(udim)], [rational(rng) for _ in range(xdim)]
    return T1HSystem(matrix(c, MIN_PLUS), uterm_matrix(udim, a), b_of_u, tuple(u0), tuple(x0))


def test_t1h_maps_commute_with_a_shift_on_each_block():
    rng = random.Random("shift-t1h")
    systems = [_t1h_system(rng) for _ in range(150)]
    for _ in range(30):
        nv, nh = rng.randint(2, 5), rng.randint(2, 5)
        systems.append(traffic_light_system(nv, nh, rng.sample(range(nv), rng.randint(0, nv)),
                                            rng.sample(range(nh), rng.randint(0, nh))))
    split = 0
    for system in systems:
        f, blocks = _t1h_map(system)
        split += blocks is not None
        for _ in range(3):
            x = [rational(rng) for _ in range(f.dim)]
            shift = [0] * f.dim
            for block in blocks or [range(f.dim)]:
                sigma = rational(rng)
                for i in block:
                    shift[i] = sigma
            assert f(list(map(add, x, shift))) == list(map(add, f(x), shift)), (system, x, shift)
    assert split >= 30, split
