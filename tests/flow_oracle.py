"""Path-system and edge-subset enumeration: the test oracles for normal flows,
and the repeat-until-stable propagation: the oracle for reconstruction.

Exponential in the grid size, so they live with the tests; production code
builds every flow value by one longest augmenting path in
`tropkit.plucker.flow_tp`, and reconstructs a TP-function in one pass in
order of span in `tropkit.plucker.reconstruct_from_intervals`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from tropkit.errors import Inconsistent, TooLarge
from tropkit.plucker import (
    CHECK_CAP,
    GridFlowNet,
    SubsetFunction,
    grid_edges,
    interval_masks,
    is_tp,
    mask_elements,
    subset_mask,
)
from tropkit.semiring import Payload, _canonical, _rational


def _all_paths(n: int, frm: Tuple[int, int], to: Tuple[int, int], used: frozenset):
    """Monotone grid paths frm -> to avoiding used edges, as edge tuples."""
    if frm == to:
        yield ()
        return
    i, j = frm
    ti, tj = to
    if i < ti or j > tj:
        return
    if i > 1:
        e = ((i, j), (i - 1, j))
        if e not in used:
            for rest in _all_paths(n, (i - 1, j), to, used | {e}):
                yield (e,) + rest
    if j < n:
        e = ((i, j), (i, j + 1))
        if e not in used:
            for rest in _all_paths(n, (i, j + 1), to, used | {e}):
                yield (e,) + rest


def _best_flow(net: GridFlowNet, sources: List[Tuple[int, int]], sinks: List[Tuple[int, int]]):
    """Max weight of an edge-disjoint path system routing sources to sinks."""
    w = net.weights
    best: List[Optional[Fraction]] = [None]

    def route(idx: int, remaining: Tuple[Tuple[int, int], ...], used: frozenset, acc: Fraction):
        if idx == len(sources):
            if best[0] is None or acc > best[0]:
                best[0] = acc
            return
        src = sources[idx]
        for pos, snk in enumerate(remaining):
            rest = remaining[:pos] + remaining[pos + 1:]
            for path in _all_paths(net.n, src, snk, used):
                route(idx + 1, rest, used | set(path), acc + sum((w[e] for e in path), Fraction(0)))

    route(0, tuple(sinks), frozenset(), Fraction(0))
    return best[0]


def flow_table_enumerated(net: GridFlowNet) -> List[Optional[Fraction]]:
    """The `flow_tp` table by path-system enumeration, subset by subset."""
    table: List[Optional[Fraction]] = [Fraction(0)]
    for mask in range(1, 1 << net.n):
        elems = mask_elements(mask)
        sources = [net.source(e) for e in elems]
        sinks = [net.sink(r) for r in range(1, len(elems) + 1)]
        table.append(_best_flow(net, sources, sinks))
    return table


def flow_value_bruteforce(net: GridFlowNet, subset: Iterable[int]) -> Optional[Fraction]:
    """Independent oracle: scan all 2^|E| edge subsets for the divergence
    constraints of a normal flow and maximize the weight. Tiny n only."""
    n = net.n
    edges = grid_edges(n)
    if len(edges) > 14:
        raise TooLarge("edge-subset scan is exponential; use n <= 2")
    w = net.weights
    elems = sorted(set(subset))
    sources = {net.source(e) for e in elems}
    sinks = {net.sink(r) for r in range(1, len(elems) + 1)}
    best: Optional[Fraction] = None
    for chosen in itertools.product((False, True), repeat=len(edges)):
        div: Dict[Tuple[int, int], int] = {}
        weight = Fraction(0)
        for flag, e in zip(chosen, edges):
            if not flag:
                continue
            a, b = e
            div[a] = div.get(a, 0) + 1
            div[b] = div.get(b, 0) - 1
            weight += w[e]
        ok = True
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                v = (i, j)
                want = (1 if v in sources else 0) - (1 if v in sinks else 0)
                if div.get(v, 0) != want:
                    ok = False
                    break
            if not ok:
                break
        if ok and (best is None or weight > best):
            best = weight
    return best


def reconstruct_fixpoint_oracle(n: int, interval_values: Mapping) -> SubsetFunction:
    """Extend values on the empty set and the intervals to a TP-function:
    the oracle of `tropkit.plucker.reconstruct_from_intervals`.

    Every non-interval set S has a gap witness (i, j, k): i, k in S, j not,
    i < j < k; the 3-term relation then determines f(S) from five sets that
    are strictly closer to the interval family. Propagation scans sets in
    ascending mask order with the lexicographically smallest usable witness,
    repeating until stable, and the result is verified to be TP.
    """
    if n > CHECK_CAP:
        raise TooLarge(f"reconstruction capped at n <= {CHECK_CAP}")
    needed = interval_masks(n)
    table: List[Payload] = [None] * (1 << n)
    known = [False] * (1 << n)
    given = {k if isinstance(k, int) else subset_mask(k, n): v for k, v in interval_values.items()}
    for m in needed:
        if m not in given:
            raise ValueError("interval data must cover the empty set and every interval")
        if given[m] is None:
            raise ValueError("interval values must be finite")
        table[m] = _rational(given[m])
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
                    table[mask] = _canonical(rhs - table[a | bj])
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
