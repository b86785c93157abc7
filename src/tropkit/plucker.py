"""Tropical Plucker (TP) and DMTP subset functions.

TP-functions satisfy the tropicalized 3-term Plucker relation as an exact
equality of maxima; DMTP-functions satisfy the weaker "maximum attained at
least twice" form of the 3- and 4-term relations. Normal flows on the
planar grid digraph produce DMTP-functions; they are built subset by subset
with one longest augmenting path each, on weights scaled by
`semiring._scaled`. Tables hold canonical payloads. A TP-function is
determined by its values on the interval family, rebuilt from them in one
pass in order of span, and its submodularity is read off the intervals
alone. Every table over the 2^n subsets of {1..n}, and the grid a flow
net lives on, is capped at n <= CHECK_CAP by one check, `_check_cap`: the
`SubsetFunction` and `GridFlowNet` constructors, `subset_function`,
`grid_net` and `reconstruct_from_intervals` make it before they build
anything over n, so the checkers and the flow construction, whose arguments
exist only within the cap, make none.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import Inconsistent, NoFlow, SchemaError, TooLarge
from .semiring import Payload, _canonical, _rational, _record, _scaled, _unscaled

CHECK_CAP = 8


def _check_cap(n: int) -> None:
    """TooLarge unless n <= CHECK_CAP; called before a table over 2^{1..n}
    or the n x n grid is built, so a huge n builds neither."""
    if n > CHECK_CAP:
        raise TooLarge(f"subset functions and grid nets capped at n <= {CHECK_CAP}")


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


@_record
class SubsetFunction:
    """Total function 2^{1..n} -> Q as canonical payloads (None marking minus
    infinity). The constructor keeps a table of ints and None as it is, after
    one C-level pass over its exact types, and reads any other table value by
    value through `semiring._rational`."""

    n: int
    table: Tuple[Payload, ...]

    def __post_init__(self):
        _check_cap(self.n)
        if len(self.table) != 1 << self.n:
            raise ValueError("table must cover every subset")
        table = tuple(self.table)
        if not set(map(type, table)) <= {int, type(None)}:
            table = tuple([None if v is None else _rational(v) for v in table])
        object.__setattr__(self, "table", table)

    def value(self, subset: Union[int, Iterable[int]]) -> Payload:
        mask = subset if isinstance(subset, int) else subset_mask(subset, self.n)
        return self.table[mask]

    __call__ = value

    def is_finite(self) -> bool:
        return all(v is not None for v in self.table)

    def restrict_to_intervals(self) -> Dict[int, Payload]:
        """The mapping on the empty set and the intervals; input of reconstruction."""
        return {m: self.table[m] for m in interval_masks(self.n)}


def subset_function(n: int, values: Mapping) -> SubsetFunction:
    """Build from any mapping of subsets (masks or iterables) to rationals;
    SchemaError for an int mask outside [0, 2^n), and unless it covers
    every subset."""
    _check_cap(n)
    table: List[Payload] = [None] * (1 << n)
    assigned = [False] * (1 << n)
    for key, val in values.items():
        mask = key if isinstance(key, int) else subset_mask(key, n)
        if not 0 <= mask < len(table):
            raise SchemaError(f"subset mask {mask} outside [0, 2^{n})")
        table[mask] = val
        assigned[mask] = True
    if not all(assigned):
        raise SchemaError("subset function must be total on the power set")
    return SubsetFunction(n, tuple(table))


@_record
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
    for witness, (lhs, s2, s3) in _relation_sums(f, 3):
        if lhs != max(s2, s3):
            return CheckResult(False, witness)
    return CheckResult(True)


def _max_twice(values: Sequence[Payload]) -> bool:
    m = max(values)
    return sum(1 for v in values if v == m) >= 2


def is_dmtp(f: SubsetFunction) -> CheckResult:
    """Maximum attained at least twice in every 3-term and 4-term triple."""
    for size, family in ((3, "3-term"), (4, "4-term")):
        for witness, sums in _relation_sums(f, size):
            if not _max_twice(sums):
                return CheckResult(False, (family,) + witness)
    return CheckResult(True)


Edge = Tuple[Tuple[int, int], Tuple[int, int]]


@_record
class GridFlowNet:
    """The n x n planar grid: edges (i,j)->(i-1,j) and (i,j)->(i,j+1).

    Sources are the column-1 vertices read bottom-up (element s of the
    ground set sits at (n+1-s, 1)); sinks are the row-1 vertices left to
    right. This boundary labeling is a fixed convention of the artifact.
    The constructor reads each weight once through `semiring._rational`.
    """

    n: int
    edge_weights: Tuple[Tuple[Edge, Payload], ...]

    def __post_init__(self):
        _check_cap(self.n)
        object.__setattr__(self, "edge_weights", tuple((e, _rational(w)) for e, w in self.edge_weights))

    @property
    def weights(self) -> Dict[Edge, Payload]:
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
    """Grid net with the given edge weights (missing edges weigh zero);
    SchemaError for a weight on an edge off the grid."""
    _check_cap(n)
    table = []
    wmap = dict(weights)
    for e in grid_edges(n):
        table.append((e, wmap.pop(e, 0)))
    if wmap:
        raise SchemaError(f"weights given for non-grid edges: {sorted(wmap)}")
    return GridFlowNet(n, tuple(table))


def _augment(
    edges: Sequence[Tuple[Edge, int]], flow: frozenset, frm, to
) -> Tuple[int, frozenset]:
    """Gain of a longest frm -> to path in the residual grid of `flow`, and
    the flow it leaves, on integer edge weights. An unused edge a->b is the
    arc a->b with gain w, a used one the arc b->a with gain -w. Exact
    Bellman-Ford with early exit; `flow` is optimal, so its residual grid
    has no positive cycle."""
    arcs = [(e[1], e[0], -g, e) if e in flow else (e[0], e[1], g, e) for e, g in edges]
    dist = {frm: 0}
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
    exist (the complete grid always routes). The paths run on the weights
    scaled to integers by `semiring._scaled`.
    """
    n = net.n
    weights, scale = _scaled([g for _, g in net.edge_weights])
    # tails bottom row first, left to right: a topological order of the
    # grid, so a path without backward arcs settles in one pass
    edges = sorted(
        zip((e for e, _ in net.edge_weights), weights),
        key=lambda ew: (-ew[0][0][0], ew[0][0][1]),
    )
    scaled = [0]
    flows = [frozenset()]
    for mask in range(1, 1 << n):
        top = mask.bit_length()
        rest = mask & ~(1 << (top - 1))
        gain, flow = _augment(edges, flows[rest], net.source(top), net.sink(bin(mask).count("1")))
        scaled.append(scaled[rest] + gain)
        flows.append(flow)
    return SubsetFunction(n, tuple(_unscaled(v, scale) for v in scaled))


def reconstruct_from_intervals(n: int, interval_values: Mapping) -> SubsetFunction:
    """Extend values on the empty set and the intervals to a TP-function.

    The extension exists and is unique (Danilov, Karzanov & Koshevoy,
    "Tropical Plucker functions and their bases", 2009). One pass fills the
    table in order of span (max S - min S): a non-interval S with i = min S,
    k = max S, j the least element of (i, k) outside S and A = S - {i, k} gets
    f(S) = max(f(A+ij) + f(A+k), f(A+jk) + f(A+i)) - f(A+j), from five sets
    of smaller span. The result is verified to be TP.
    """
    _check_cap(n)
    needed = interval_masks(n)
    table: List[Payload] = [None] * (1 << n)
    given = {k if isinstance(k, int) else subset_mask(k, n): v for k, v in interval_values.items()}
    for m in needed:
        if m not in given:
            raise SchemaError("interval data must cover the empty set and every interval")
        if given[m] is None:
            raise SchemaError("interval values must be finite")
        table[m] = _rational(given[m])
    extra = set(given) - set(needed)
    if extra:
        raise SchemaError("interval data mentions non-interval subsets")
    for span in range(2, n):
        for lo in range(n - span):
            bi, bk = 1 << lo, 1 << (lo + span)
            inner = bk - (bi << 1)
            a = 0
            while a != inner:  # every proper submask of inner, ascending
                gap = inner & ~a
                bj = gap & -gap
                rhs = max(table[a | bi | bj] + table[a | bk], table[a | bj | bk] + table[a | bi])
                table[a | bi | bk] = _canonical(rhs - table[a | bj])
                a = (a - inner) & inner
    f = SubsetFunction(n, tuple(table))
    check = is_tp(f)
    if not check:
        raise Inconsistent(f"reconstructed function violates the 3-term relation at {check.witness}")
    return f


def is_submodular(f: SubsetFunction, on_intervals_only: bool = False) -> bool:
    """f(A) + f(B) >= f(A | B) + f(A & B) over all pairs, or interval pairs."""
    n = f.n
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
