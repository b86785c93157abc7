"""Fraction-based strong regularity: the test oracle for `tropkit.assign`.

The strict duals lifted along the tight digraph, the strict dual
inequalities of a regularity certificate and the strongly normal form, all
by exact rational arithmetic on the matrix's payloads, the normal form
re-coerced through `assign_matrix`. Production code runs them on integers
scaled once by `semiring._scaled`; the tests require equal results,
payload types and exception texts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple, Union

from tropkit.assign import AssignMatrix, NotStronglyRegular, RegularityCertificate, assign_matrix
from tropkit.determ import _optimal_bijections
from tropkit.errors import CertificateInvalid
from tropkit.semiring import MAX_PLUS, _canonical


def _strict_dual_oracle(b: AssignMatrix, perm: Tuple[int, ...], u, v) -> tuple:
    n = b.n
    succ: List[List[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    least = None
    for i, row in enumerate(b.data.payload):
        for k, e in enumerate(row):
            if k == perm[i] or e is None:
                continue
            slack = u[i] + v[k] - e
            if slack == 0:
                succ[perm[i]].append(k)
                indegree[k] += 1
            elif least is None or slack < least:
                least = slack
    depth = [0] * n
    order = [k for k in range(n) if not indegree[k]]
    for j in order:
        for k in succ[j]:
            depth[k] = max(depth[k], depth[j] + 1)
            indegree[k] -= 1
            if not indegree[k]:
                order.append(k)
    t = Fraction(1 if least is None else least, n)
    return tuple(_canonical(v[k] + t * depth[k]) for k in range(n))


def strong_regularity_oracle(b: AssignMatrix) -> Union[RegularityCertificate, NotStronglyRegular]:
    value, witnesses, duals = _optimal_bijections(b.data.payload, MAX_PLUS, 2)
    if value is None:
        return NotStronglyRegular(None, None, "no bijection with finite weight")
    if len(witnesses) > 1:
        return NotStronglyRegular(witnesses[0], witnesses[1], "optimal bijection is not unique")
    perm = witnesses[0]
    f = _strict_dual_oracle(b, perm, *duals)
    g = tuple(_canonical(b.entry(i, perm[i]) - f[perm[i]]) for i in range(b.n))
    cert = RegularityCertificate(perm, f, g)
    validate_certificate_oracle(b, cert)
    return cert


def validate_certificate_oracle(b: AssignMatrix, cert: RegularityCertificate) -> None:
    n = b.n
    perm, f, g = cert.bijection, cert.f, cert.g
    for i in range(n):
        base = b.entry(i, perm[i])
        if base is None:
            raise CertificateInvalid("bijection uses a bottom entry")
        for k in range(n):
            if k != perm[i]:
                e = b.entry(i, k)
                if e is not None and not base - f[perm[i]] > e - f[k]:
                    raise CertificateInvalid("row-dual inequality fails strictly")
        for k in range(n):
            if k != i:
                e = b.entry(k, perm[i])
                if e is not None and not base - g[i] > e - g[k]:
                    raise CertificateInvalid("column-dual inequality fails strictly")


def normal_form_oracle(b: AssignMatrix, cert: RegularityCertificate) -> AssignMatrix:
    """Similar strongly normal matrix: c_ij = b_{iF(j)} - f_{F(j)} - g_i."""
    validate_certificate_oracle(b, cert)
    n = b.n
    perm, f = cert.bijection, cert.f
    rows = []
    for i in range(n):
        base = b.entry(i, perm[i]) - f[perm[i]]
        row = []
        for j in range(n):
            e = b.entry(i, perm[j])
            row.append(None if e is None else e - f[perm[j]] - base)
        rows.append(row)
    return assign_matrix(rows)
