"""Metamorphic laws: each relates a call on one matrix to a call on a
transformed matrix, over the seeded matrices of `inputs.square_matrices`.

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
  pattern, true where the pattern's answer is 0 (the boolean bideterminant
  runs the generic-tag DP, the max-plus one `_plus_bideterminant`);
- for the span V of A's columns (A with no all-bottom column) and a vector
  x: P_V(P_V x) = P_V x, P_V x <= x and P_V(x + c) = P_V x + c.

A + c adds c to every finite entry, and c A multiplies it by c. Dividing by
q makes the cycle means fractional, so the dilation law drives Howard's
scale to grow on matrices that no oracle test samples. The laws compare the
payloads of boxed results across tags, and every payload must be canonical,
so they also check the scalars the kernels box.
"""

import random
from fractions import Fraction

import pytest
from inputs import rational, square_matrices
from result_leaves import is_canonical, numbers

from tropkit.determ import Bideterminant, bideterminant, is_trop_singular, permanent, rook_coefficients
from tropkit.errors import Divergent, NoCycle
from tropkit.projector import Semimodule, project
from tropkit.semiring import BOOLEAN, MAX_PLUS, MIN_PLUS, TropScalar
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
