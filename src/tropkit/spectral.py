"""Max-plus spectral theory: eigenvalue, critical graph, eigenvectors, Collatz-Wielandt.

The eigenvalue is the extremal cycle mean of the digraph of finite entries,
the best entry of the cycle-time vector chi that Howard's policy iteration
computes, and the rest is read from the same run. On the nodes where chi is
the eigenvalue, Howard's final bias eta makes every reduced weight
a_ij - lambda + eta_j - eta_i nonpositive, so the cycles that attain the
eigenvalue are the cycles of tight edges (reduced weight zero). The critical
graph is the tight edges inside the strongly connected components of the
tight graph, the components with such an edge are the critical classes, and
the generator of a class (the normalized star's column at its smallest node)
comes from one Dijkstra search toward that node on the reduced weights.
The Collatz-Wielandt witness is read from the same run's chi and eta.
Howard runs on integer weights, scaled by `semiring._scaled` and then only
as far as the means of the policy cycles it meets need.
Min-plus matrices are handled by duality through the canonical order.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import itemgetter
from typing import FrozenSet, List, Tuple

from .errors import CertificateInvalid, DimensionMismatch, NoCycle, Unbounded
from .semiring import MAX_PLUS, MIN_PLUS, TropScalar, _record, _scaled, _unscaled
from .tropmat import TropMatrix, TropVector


def _check_spectral_tag(a: TropMatrix) -> None:
    if not a.is_square:
        raise DimensionMismatch("spectral theory needs a square matrix")
    if a.tag not in (MAX_PLUS, MIN_PLUS):
        raise ValueError("spectral theory is provided for max-plus and min-plus tags")


def max_cycle_mean(a: TropMatrix) -> TropScalar:
    """Extremal cycle mean (the eigenvalue): the best entry of the cycle-time
    vector that Howard's policy iteration computes.

    Max-plus: the maximum over cycles of weight/length. Min-plus: the
    minimum, via negation. Raises NoCycle when the digraph of finite
    entries is acyclic.
    """
    _check_spectral_tag(a)
    sign, chi, _, scale, _ = _howard(a)
    return TropScalar._trusted(sign * _unscaled(_best(chi), scale), a.tag)


def _best(chi: list) -> int:
    finite = [c for c in chi if c is not None]
    if not finite:
        raise NoCycle("digraph of finite entries is acyclic")
    return max(finite)


@_record
class SpectralResult:
    eigenvalue: TropScalar
    critical_nodes: FrozenSet[int]
    critical_edges: FrozenSet[Tuple[int, int]]
    critical_classes: Tuple[FrozenSet[int], ...]
    eigenvectors: Tuple[TropVector, ...]


def spectral_analysis(a: TropMatrix) -> SpectralResult:
    """Eigenvalue, critical graph, critical classes, and one generator each,
    from one run of Howard's policy iteration.

    On T = {chi = lambda} every reduced weight a_ij - lambda + eta_j - eta_i
    is nonpositive, and a cycle attains lambda iff all its edges are tight
    (reduced weight zero). An edge is critical iff it is tight and its ends
    share a strongly connected component of the tight graph; the critical
    classes are the components with a tight edge, ordered by their smallest
    node r. Only nodes of T reach r, so the generator, the normalized star's
    column r, is star_ir = dist_i + eta_i - eta_r for the best reduced weight
    dist_i of a path i -> r, found by one Dijkstra search toward r. Each
    generator satisfies A v = lambda v exactly and carries the unit at r.
    """
    _check_spectral_tag(a)
    sign, chi, eta, scale, succ = _howard(a)
    lam = _best(chi)
    on = [c == lam for c in chi]
    into: List[list] = [[] for _ in chi]  # (i, reduced weight of i -> j) for each j
    tight: List[list] = [[] for _ in chi]
    for i, row in enumerate(succ):
        if on[i]:
            top = lam + eta[i]
            for j, v in row:
                if on[j]:
                    reduced = v + eta[j] - top
                    into[j].append((i, reduced))
                    if reduced == 0:
                        tight[i].append(j)
    components = _components([i for i, t in enumerate(on) if t], tight)
    component = {i: k for k, c in enumerate(components) for i in c}
    edges = frozenset((i, j) for i, t in enumerate(tight) for j in t if component[i] == component[j])
    critical = {component[i] for i, _ in edges}
    classes = tuple(sorted((frozenset(c) for k, c in enumerate(components) if k in critical), key=min))
    gens = []
    for c in classes:
        r = min(c)
        dist = _dijkstra_toward(r, into)
        payload = (None if d is None else sign * _unscaled(d + eta[i] - eta[r], scale) for i, d in enumerate(dist))
        gens.append(TropVector._trusted(tuple(payload), a.tag))
    lam_value = TropScalar._trusted(sign * _unscaled(lam, scale), a.tag)
    return SpectralResult(lam_value, frozenset().union(*classes), edges, classes, tuple(gens))


def _components(nodes: List[int], succ: List[list]) -> List[List[int]]:
    """Strongly connected components of the digraph `succ` on `nodes`, by
    Tarjan's search with an explicit stack of frames, so a deep graph cannot
    exceed the interpreter's recursion limit."""
    index: dict = {}
    low: dict = {}  # for the nodes still on `stack`
    stack: List[int] = []
    out: List[List[int]] = []
    work: list = []  # frames (node, its unvisited successors, its position on `stack`)

    def visit(v: int) -> None:
        index[v] = low[v] = len(index)
        work.append((v, iter(succ[v]), len(stack)))
        stack.append(v)

    for s in nodes:
        if s not in index:
            visit(s)
        while work:
            v, later, at = work[-1]
            for j in later:
                if j not in index:
                    visit(j)
                    break
                if j in low:
                    low[v] = min(low[v], index[j])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:  # v roots a component: everything above it
                    out.append(stack[at:])
                    del stack[at:]
                    for j in out[-1]:
                        del low[j]
    return out


def _dijkstra_toward(r: int, into: List[list]) -> list:
    """Best weight of a path i -> r for every node i, None where r is out of
    reach, on the nonpositive edge weights `into[j]` = [(i, w_ij), ...]."""
    dist: list = [None] * len(into)
    frontier = {r: 0}
    while frontier:
        j = max(frontier, key=frontier.__getitem__)
        d = dist[j] = frontier.pop(j)
        for i, w in into[j]:
            if dist[i] is None:
                c = d + w
                f = frontier.get(i)
                if f is None or c > f:
                    frontier[i] = c
    return dist


def _cycle_time(a: TropMatrix) -> Tuple[list, list]:
    """Cycle-time vector chi and bias eta of A's max-plus weights (min-plus
    negated), by Howard's multichain policy iteration (see `_howard`)."""
    _, chi, eta, scale, _ = _howard(a)
    return [_unscaled(c, scale) for c in chi], [_unscaled(e, scale) for e in eta]


def _howard(a: TropMatrix) -> Tuple[int, list, list, int, List[list]]:
    """(sign, chi, eta, scale, succ): Howard's multichain policy iteration
    (Cochet-Terrasson, Cohen, Gaubert, Mc Gettrick & Quadrat, 1998) on A's
    max-plus weights, min-plus negated (sign -1), all scaled by one integer.

    `scale` is the least integer that makes every weight and the mean of
    every policy cycle met integral: it starts at the lcm of the weights'
    denominators, and a policy cycle of length k and weight sum s with s / k
    not an integer multiplies it, and every scaled value so far, by k /
    gcd(s, k). Comparisons do not depend on the scale, so the policies and
    the rationals chi / scale and eta / scale do not either. succ[i] lists
    (j, scale * sign * a_ij) for the edges i -> j that Howard keeps, and chi
    and eta are scaled integers. chi_l is the best mean of a cycle that l
    reaches, None if it reaches none, and eta_l = max{a_li + eta_i : chi_i =
    chi_l} - chi_l, None where chi_l is. Each policy cycle's smallest node
    keeps its bias from the round before, so the bias never decreases and
    the iteration terminates.

    The nodes that reach no cycle are dropped first, by one out-degree sweep
    that reads each dropped node's column once.
    """
    sign = -1 if a.tag is MIN_PLUS else 1
    w = a.payload
    n = a.rows
    heads = [[j for j, v in enumerate(r) if v is not None] for r in w]
    degree = list(map(len, heads))  # edges into nodes not yet dropped
    dead = [i for i, d in enumerate(degree) if not d]
    for j in dead:  # grows as it runs: i goes when its last edge into kept nodes does
        for i, r in enumerate(w):
            if r[j] is not None:
                degree[i] -= 1
                if not degree[i]:
                    dead.append(i)
    if dead:
        heads = [[j for j in js if degree[j]] for js in heads]
    live = [i for i, d in enumerate(degree) if d]
    flat = [r[j] for r, js in zip(w, heads) for j in js]
    ints, scale = _scaled(flat if sign > 0 else [-v for v in flat])
    ints = iter(ints)
    succ: List[list] = []
    pi = {}  # i -> (successor, weight)
    weight = itemgetter(1)
    for i, js in enumerate(heads):
        row = list(zip(js, ints))  # zip stops at the end of js before drawing from ints
        succ.append(row)
        if row:
            pi[i] = max(row, key=weight)
    chi: List = [None] * n
    eta: List = [0 if s else None for s in succ]  # no node off live has an edge into it
    while True:
        seen = [False] * n
        for s in live:
            path, j = [], s
            while not seen[j]:
                seen[j] = True
                path.append(j)
                j = pi[j][0]
            if j in path:  # a new policy cycle; its smallest node is the root
                cycle = path[path.index(j):]
                del path[-len(cycle):]
                k = cycle.index(min(cycle))
                total, length = sum(pi[i][1] for i in cycle), len(cycle)
                if total % length:  # the least factor that makes this mean integral
                    f = length // math.gcd(total, length)
                    scale, total = scale * f, total * f
                    succ = [[(j, v * f) for j, v in row] for row in succ]
                    pi = {i: (j, v * f) for i, (j, v) in pi.items()}
                    chi = [None if c is None else c * f for c in chi]
                    eta = [None if e is None else e * f for e in eta]
                chi[cycle[k]] = total // length
                path += cycle[k + 1:] + cycle[:k]
            for i in reversed(path):
                j, v = pi[i]
                chi[i] = chi[j]
                eta[i] = v - chi[j] + eta[j]
        switched = False
        for i in live:
            j, v = pi[i]
            bc, bv = chi[j], v + eta[j]
            for j, v in succ[i]:
                if chi[j] > bc or (chi[j] == bc and v + eta[j] > bv):
                    bc, bv, pi[i], switched = chi[j], v + eta[j], (j, v), True
        if not switched:
            return sign, chi, eta, scale, succ


def collatz_wielandt_certificate(a: TropMatrix) -> Tuple[TropScalar, TropVector]:
    """The Collatz-Wielandt value with a finite super-eigenvector witness.

    The value is inf over finite u of the extremal coordinate of (A u) / u;
    for a linear map it equals the cycle-mean eigenvalue. With no all-zero row
    Howard's final chi and eta are finite, and the witness is u = eta + N chi:
    on an edge i -> j with chi_j = chi_i the policy's termination gives
    a_ij + u_j <= lambda + u_i, N >= 0 is the least integer that gives it on
    the edges with chi_j < chi_i, and a policy edge where chi = lambda attains
    lambda. The attainment is checked, and a witness that misses it raises
    CertificateInvalid.
    """
    _check_spectral_tag(a)
    for i, row in enumerate(a.payload):
        if all(v is None for v in row):
            raise Unbounded(f"row {i} is all zero; the infimum is unbounded below")
    sign, chi, eta, scale, succ = _howard(a)
    lam = _best(chi)
    n = -min([0] + [(lam + eta[i] - v - eta[j]) // (chi[i] - chi[j])
                    for i, row in enumerate(succ) for j, v in row if chi[j] < chi[i]])
    u = TropVector._trusted(tuple(sign * _unscaled(e + n * c, scale) for e, c in zip(eta, chi)), a.tag)
    lam_value = TropScalar._trusted(sign * _unscaled(lam, scale), a.tag)
    ops = a.tag.ops
    residuals = map(ops.residual, a.apply(u).payload, u.payload)
    witnessed = TropScalar._trusted(reduce(ops.add, residuals), a.tag)
    if witnessed != lam_value:
        raise CertificateInvalid(f"witness attains {witnessed!r}, not the eigenvalue {lam_value!r}")
    return lam_value, u
