"""Tropical Plucker (TP) and DMTP subset functions.

TP-functions satisfy the tropicalized 3-term Plucker relation as an exact
equality of maxima; DMTP-functions satisfy the weaker "maximum attained at
least twice" form of the 3- and 4-term relations. Normal flows on the
planar grid digraph produce DMTP-functions; they are built subset by subset
with one longest augmenting path each. TP-functions are determined by their
values on the interval family, and submodularity of a TP-function can be
read off the intervals alone. Building a subset function, the checkers, the
flow construction and the reconstruction are all capped at n <= CHECK_CAP,
because each one reads or writes a table over all 2^n subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import Inconsistent, NoFlow, TooLarge

CHECK_CAP = 8


def subset_mask(elements: Iterable[int], n: int) -> int:
    """Bitmask of a subset of {1..n}: element i occupies bit i-1."""
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def mask_elements(mask: int) -> Tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def interval_masks(n: int) -> List[int]:
    """Masks of the empty set and all intervals {i, ..., j}."""
    out = [0]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            out.append(subset_mask(range(i, j + 1), n))
    return out


@dataclass(frozen=True)
class SubsetFunction:
    """Total function 2^{1..n} -> Q (None marking minus infinity)."""

    n: int
    table: Tuple[Optional[Fraction], ...]

    def __post_init__(self):
        if len(self.table) != 1 << self.n:
            raise ValueError("table must cover every subset")

    def value(self, subset: Union[int, Iterable[int]]) -> Optional[Fraction]:
        mask = subset if isinstance(subset, int) else subset_mask(subset, self.n)
        return self.table[mask]

    __call__ = value

    def is_finite(self) -> bool:
        return all(v is not None for v in self.table)

    def restrict_to_intervals(self) -> Dict[int, Fraction]:
        """The mapping on the empty set and the intervals; input of reconstruction."""
        return {m: self.table[m] for m in interval_masks(self.n)}


def subset_function(n: int, values: Mapping) -> SubsetFunction:
    """Build from any mapping of subsets (masks or iterables) to rationals."""
    if n > CHECK_CAP:
        raise TooLarge(f"subset functions capped at n <= {CHECK_CAP}")
    table: List[Optional[Fraction]] = [None] * (1 << n)
    assigned = [False] * (1 << n)
    for key, val in values.items():
        mask = key if isinstance(key, int) else subset_mask(key, n)
        table[mask] = None if val is None else Fraction(val)
        assigned[mask] = True
    if not all(assigned):
        raise ValueError("subset function must be total on the power set")
    return SubsetFunction(n, tuple(table))


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def _relation_sums(f: SubsetFunction, size: int):
    """(witness, (s1, s2, s3)) for the 3-term (size 3) or 4-term (size 4)
    relation at every (A, i < j < k [< l]) with A disjoint from the indices.

    s1 = f(A+ik) + f(A+jl), s2 = f(A+ij) + f(A+kl), s3 = f(A+jk) + f(A+il),
    where the 3-term relation reads l as absent. Relations touching a
    minus-infinity (None) value are skipped; witnesses are (A, i, j, k[, l]).
    """
    n, t = f.n, f.table
    for idx in itertools.combinations(range(1, n + 1), size):
        bi, bj, bk, bl = [1 << (e - 1) for e in idx] + [0] * (4 - size)
        rest = [e for e in range(1, n + 1) if e not in idx]
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                a = subset_mask(combo, n)
                vals = (
                    t[a | bi | bk], t[a | bj | bl],
                    t[a | bi | bj], t[a | bk | bl],
                    t[a | bj | bk], t[a | bi | bl],
                )
                if any(v is None for v in vals):
                    continue
                yield (a,) + idx, (vals[0] + vals[1], vals[2] + vals[3], vals[4] + vals[5])


def is_tp(f: SubsetFunction) -> CheckResult:
    """Exact 3-term tropical Plucker relation on every (A, i < j < k).

    f(A+ik) + f(A+j) = max(f(A+ij) + f(A+k), f(A+jk) + f(A+i)).
    Subsets where f records no flow (minus infinity) are excluded.
    """
    if f.n > CHECK_CAP:
        raise TooLarge(f"TP check capped at n <= {CHECK_CAP}")
    for witness, (lhs, s2, s3) in _relation_sums(f, 3):
        if lhs != max(s2, s3):
            return CheckResult(False, witness)
    return CheckResult(True)


def _max_twice(values: Sequence[Fraction]) -> bool:
    m = max(values)
    return sum(1 for v in values if v == m) >= 2


def is_dmtp(f: SubsetFunction) -> CheckResult:
    """Maximum attained at least twice in every 3-term and 4-term triple."""
    if f.n > CHECK_CAP:
        raise TooLarge(f"DMTP check capped at n <= {CHECK_CAP}")
    for size, family in ((3, "3-term"), (4, "4-term")):
        for witness, sums in _relation_sums(f, size):
            if not _max_twice(sums):
                return CheckResult(False, (family,) + witness)
    return CheckResult(True)


Edge = Tuple[Tuple[int, int], Tuple[int, int]]


@dataclass(frozen=True)
class GridFlowNet:
    """The n x n planar grid: edges (i,j)->(i-1,j) and (i,j)->(i,j+1).

    Sources are the column-1 vertices read bottom-up (element s of the
    ground set sits at (n+1-s, 1)); sinks are the row-1 vertices left to
    right. This boundary labeling is a fixed convention of the artifact.
    """

    n: int
    edge_weights: Tuple[Tuple[Edge, Fraction], ...]

    @property
    def weights(self) -> Dict[Edge, Fraction]:
        return dict(self.edge_weights)

    def source(self, element: int) -> Tuple[int, int]:
        return (self.n + 1 - element, 1)

    def sink(self, index: int) -> Tuple[int, int]:
        return (1, index)


def grid_edges(n: int) -> List[Edge]:
    out: List[Edge] = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i > 1:
                out.append(((i, j), (i - 1, j)))
            if j < n:
                out.append(((i, j), (i, j + 1)))
    return out


def grid_net(n: int, weights: Mapping[Edge, object]) -> GridFlowNet:
    """Grid net with the given edge weights (missing edges weigh zero)."""
    table = []
    wmap = dict(weights)
    for e in grid_edges(n):
        table.append((e, Fraction(wmap.pop(e, 0))))
    if wmap:
        raise ValueError(f"weights given for non-grid edges: {sorted(wmap)}")
    return GridFlowNet(n, tuple(table))


def _augment(
    edges: Sequence[Tuple[Edge, Fraction]], flow: frozenset, frm, to
) -> Tuple[Fraction, frozenset]:
    """Gain of a longest frm -> to path in the residual grid of `flow`, and
    the flow it leaves. An unused edge a->b is the arc a->b with gain w, a
    used one the arc b->a with gain -w. Exact Bellman-Ford with early exit;
    `flow` is optimal, so its residual grid has no positive cycle."""
    arcs = [(e[1], e[0], -g, e) if e in flow else (e[0], e[1], g, e) for e, g in edges]
    dist = {frm: Fraction(0)}
    pred = {}
    for _ in range(len(arcs)):  # the grid has at least |vertices| - 1 arcs
        changed = False
        for u, v, g, e in arcs:
            du = dist.get(u)
            if du is not None and (v not in dist or du + g > dist[v]):
                dist[v] = du + g
                pred[v] = (u, e)
                changed = True
        if not changed:
            break
    if to not in dist:
        raise NoFlow(f"no residual path from {frm} to {to}")
    used = set(flow)
    v = to
    while v != frm:
        v, e = pred[v]
        used ^= {e}
    return dist[to], frozenset(used)


def flow_tp(net: GridFlowNet) -> SubsetFunction:
    """f(S') = max weight of a normal flow from S', for every S' in 2^S.

    A normal flow has divergence +1 on S', -1 on the first |S'| sinks and 0
    elsewhere; on the acyclic grid these are exactly the edge-disjoint path
    systems from the chosen sources onto the leading sinks, i.e. integral
    unit-capacity flows. The result is a DMTP-function.

    Successive longest augmenting paths (Ahuja, Magnanti & Orlin, *Network
    Flows*, 1993): the best flow for S' is the best flow for S' minus its
    largest element e, plus one longest path in that flow's residual grid
    from the source of e to sink |S'|. Raises NoFlow if that path does not
    exist (the complete grid always routes).
    """
    n = net.n
    if n > CHECK_CAP:
        raise TooLarge(f"normal-flow construction capped at n <= {CHECK_CAP}")
    # tails bottom row first, left to right: a topological order of the
    # grid, so a path without backward arcs settles in one pass
    edges = sorted(net.edge_weights, key=lambda ew: (-ew[0][0][0], ew[0][0][1]))
    table: List[Fraction] = [Fraction(0)]
    flows = [frozenset()]
    for mask in range(1, 1 << n):
        top = mask.bit_length()
        rest = mask & ~(1 << (top - 1))
        gain, flow = _augment(edges, flows[rest], net.source(top), net.sink(bin(mask).count("1")))
        table.append(table[rest] + gain)
        flows.append(flow)
    return SubsetFunction(n, tuple(table))


def reconstruct_from_intervals(n: int, interval_values: Mapping) -> SubsetFunction:
    """Extend values on the empty set and the intervals to a TP-function.

    Every non-interval set S has a gap witness (i, j, k): i, k in S, j not,
    i < j < k; the 3-term relation then determines f(S) from five sets that
    are strictly closer to the interval family. Propagation scans sets in
    ascending mask order with the lexicographically smallest usable witness,
    repeating until stable, and the result is verified to be TP.
    """
    if n > CHECK_CAP:
        raise TooLarge(f"reconstruction capped at n <= {CHECK_CAP}")
    needed = interval_masks(n)
    table: List[Optional[Fraction]] = [None] * (1 << n)
    known = [False] * (1 << n)
    given = {k if isinstance(k, int) else subset_mask(k, n): v for k, v in interval_values.items()}
    for m in needed:
        if m not in given:
            raise ValueError("interval data must cover the empty set and every interval")
        if given[m] is None:
            raise ValueError("interval values must be finite")
        table[m] = Fraction(given[m])
        known[m] = True
    extra = set(given) - set(needed)
    if extra:
        raise ValueError("interval data mentions non-interval subsets")

    def witnesses(mask: int):
        elems = mask_elements(mask)
        inside = set(elems)
        for i, k in itertools.combinations(elems, 2):
            for j in range(i + 1, k):
                if j not in inside:
                    yield i, j, k

    progress = True
    while progress:
        progress = False
        for mask in range(1 << n):
            if known[mask]:
                continue
            for i, j, k in sorted(witnesses(mask)):
                bi, bj, bk = 1 << (i - 1), 1 << (j - 1), 1 << (k - 1)
                a = mask & ~bi & ~bk
                others = (a | bj, a | bi | bj, a | bk, a | bj | bk, a | bi)
                if all(known[m] for m in others):
                    rhs = max(
                        table[a | bi | bj] + table[a | bk],
                        table[a | bj | bk] + table[a | bi],
                    )
                    table[mask] = rhs - table[a | bj]
                    known[mask] = True
                    progress = True
                    break
    if not all(known):
        raise Inconsistent("reconstruction could not determine every subset")
    f = SubsetFunction(n, tuple(table))
    check = is_tp(f)
    if not check:
        raise Inconsistent(f"reconstructed function violates the 3-term relation at {check.witness}")
    return f


def is_submodular(f: SubsetFunction, on_intervals_only: bool = False) -> bool:
    """f(A) + f(B) >= f(A | B) + f(A & B) over all pairs, or interval pairs."""
    n = f.n
    if n > CHECK_CAP:
        raise TooLarge(f"submodularity check capped at n <= {CHECK_CAP}")
    masks = interval_masks(n) if on_intervals_only else list(range(1 << n))
    for a in masks:
        fa = f.table[a]
        if fa is None:
            continue
        for b in masks:
            fb, fu, fi = f.table[b], f.table[a | b], f.table[a & b]
            if None in (fb, fu, fi):
                continue
            if fa + fb < fu + fi:
                return False
    return True
