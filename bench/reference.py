"""Plain-list reference answers for the benchmark's correctness checks.

Nothing here imports tropkit. Max-plus scalars are ints or Fractions and
None stands for the bottom (-inf); vectors are lists and matrices are lists
of rows. Every function either computes a reference answer or checks one
the library gave, returning an error message (a string) when it does not
hold and None when it does.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Optional, Sequence

Mat = List[list]


# -- scalars and products ----------------------------------------------------


def mul(a, b):
    return None if a is None or b is None else a + b


def add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


def leq(a, b) -> bool:
    return a is None or (b is not None and a <= b)


def vmax(values):
    best = None
    for v in values:
        best = add(best, v)
    return best


def mat_vec(a: Mat, x: Sequence) -> list:
    return [vmax(mul(aij, xj) for aij, xj in zip(row, x)) for row in a]


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = list(zip(*b))
    return [[vmax(mul(x, y) for x, y in zip(row, col)) for col in cols] for row in a]


def residual_left(v: Mat, x: Sequence) -> list:
    """V \\ x: per column, min over its finite entries of x_i - V_ij."""
    out = []
    for j in range(len(v[0])):
        best, seen = None, False
        for i, row in enumerate(v):
            if row[j] is None:
                continue
            cand = None if x[i] is None else x[i] - row[j]
            if not seen:
                best, seen = cand, True
            elif cand is None or (best is not None and cand < best):
                best = cand
        if not seen:
            raise ValueError(f"generator column {j} is all bottom")
        out.append(best)
    return out


def project(v: Mat, x: Sequence) -> list:
    return mat_vec(v, residual_left(v, x))


def in_span(v: Mat, x: Sequence) -> bool:
    return all(e is None for e in x) or project(v, x) == list(x)


def columns(m: Mat) -> List[list]:
    return [list(c) for c in zip(*m)] if m else []


# -- cycle means and the Kleene star ------------------------------------------


def karp(a: Mat) -> Optional[Fraction]:
    """Maximum cycle mean by Karp's recurrence; None when there is no cycle."""
    n = len(a)
    d = [[0] * n]
    for _ in range(n):
        prev = d[-1]
        d.append([vmax(mul(prev[j], a[j][i]) for j in range(n)) for i in range(n)])
    best = None
    for i in range(n):
        if d[n][i] is None:
            continue
        worst = min(
            (Fraction(d[n][i] - d[k][i], n - k) for k in range(n) if d[k][i] is not None),
            default=None,
        )
        if worst is not None and (best is None or worst > best):
            best = worst
    return best


def fw_star(a: Mat) -> Optional[Mat]:
    """A* by one Floyd-Warshall pass; None when a positive cycle makes it diverge."""
    n = len(a)
    d = [list(row) for row in a]
    for i in range(n):
        d[i][i] = add(d[i][i], 0)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            di = d[i]
            for j in range(n):
                if dk[j] is not None:
                    c = dik + dk[j]
                    if di[j] is None or c > di[j]:
                        di[j] = c
    if any(d[i][i] > 0 for i in range(n)):
        return None
    return d


def shifted(a: Mat, c) -> Mat:
    return [[None if e is None else e - c for e in row] for row in a]


# -- permutation sums and assignment -------------------------------------------


def _parity(perm) -> int:
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return inversions & 1


def _perm_weight(a: Mat, perm):
    total = 0
    for i, j in enumerate(perm):
        if a[i][j] is None:
            return None
        total += a[i][j]
    return total


def bideterminant(a: Mat):
    """(|A|+, |A|-) by the permutation sum split on parity."""
    sums = [None, None]
    for perm in itertools.permutations(range(len(a))):
        p = _parity(perm)
        sums[p] = add(sums[p], _perm_weight(a, perm))
    return sums[0], sums[1]


def permanent_and_count(a: Mat):
    """Permanent and the number of permutations attaining it."""
    weights = [_perm_weight(a, perm) for perm in itertools.permutations(range(len(a)))]
    best = vmax(weights)
    return best, sum(1 for w in weights if w == best)


def optimal_bijections(a: Mat):
    """Best finite assignment value and every bijection attaining it (n! scan)."""
    best, perms = None, []
    for perm in itertools.permutations(range(len(a))):
        w = _perm_weight(a, perm)
        if w is None:
            continue
        if best is None or w > best:
            best, perms = w, [perm]
        elif w == best:
            perms.append(perm)
    return best, perms


def rook_coefficients(a: Mat) -> list:
    m, n = len(a), len(a[0])
    out = [0]
    for j in range(1, min(m, n) + 1):
        acc = None
        for rows in itertools.combinations(range(m), j):
            for cols in itertools.combinations(range(n), j):
                sub = [[a[r][c] for c in cols] for r in rows]
                acc = add(acc, permanent_and_count(sub)[0])
        out.append(acc)
    return out


def pattern_singular(a: Mat) -> str:
    if any(all(row[j] is None for row in a) for j in range(len(a[0]))):
        return "right"
    if any(all(e is None for e in row) for row in a):
        return "left"
    return "none"


def check_regularity(b: Mat, perm, f, g) -> Optional[str]:
    """Unique optimum and both strict dual inequality families."""
    n = len(b)
    _, opt = optimal_bijections(b)
    if list(opt) != [tuple(perm)]:
        return f"bijection {perm} is not the unique optimum {opt}"
    for i in range(n):
        base = b[i][perm[i]]
        for k in range(n):
            if k != perm[i] and b[i][k] is not None and not base - f[perm[i]] > b[i][k] - f[k]:
                return f"row-dual inequality fails at ({i}, {k})"
            if k != i and b[k][perm[i]] is not None and not base - g[i] > b[k][perm[i]] - g[k]:
                return f"column-dual inequality fails at ({i}, {k})"
    return None


def normal_form(b: Mat, perm, f, g) -> Mat:
    n = len(b)
    return [
        [None if b[i][perm[j]] is None else b[i][perm[j]] - f[perm[j]] - g[i] for j in range(n)]
        for i in range(n)
    ]


def distances_potentials(b: Mat, perm):
    """Plus-closure of the reduced costs and its row and column maxima."""
    n = len(b)
    d = [
        [None if b[i][perm[j]] is None else b[i][perm[j]] - b[j][perm[j]] for j in range(n)]
        for i in range(n)
    ]
    star = fw_star(d)
    if star is None:
        return None
    closure = mat_mul(d, star)
    phi = [vmax(closure[i]) for i in range(n)]
    phi_t = [vmax(closure[j][i] for j in range(n)) for i in range(n)]
    return closure, phi, phi_t


# -- two-sided systems and separation -------------------------------------------


def check_generators(a: Mat, b: Mat, gens: List[list], must_span: Sequence[list]) -> Optional[str]:
    """Every generator is a nonzero solution of A x <= B x, and each vector
    of must_span (known solutions) lies in the span of the generators."""
    if not gens:
        return "no generators returned"
    for x in gens:
        if all(e is None for e in x):
            return "zero generator"
        if not all(leq(l, r) for l, r in zip(mat_vec(a, x), mat_vec(b, x))):
            return f"generator {x} violates A x <= B x"
    g = [list(r) for r in zip(*gens)]
    for x in must_span:
        if not in_span(g, x):
            return f"known solution {x} is outside the generated span"
    return None


def unit(n: int, j: int) -> list:
    return [0 if i == j else None for i in range(n)]


def vec_residual(x: Sequence, y: Sequence):
    """x / y = min over the support of y of x_i - y_i."""
    return min(
        (None if x[i] is None else x[i] - y[i] for i in range(len(y)) if y[i] is not None),
        key=lambda v: (v is not None, v if v is not None else 0),
    )


def halfspace_contains(u: Sequence, v: Sequence, x: Sequence) -> bool:
    if all(e is None for e in x):
        return True
    return leq(vec_residual(v, x), vec_residual(u, x))


def check_separation(modules: List[Mat], result) -> Optional[str]:
    """Halfspaces contain their semimodule and no grid point lies in all of
    them; a NotSeparable witness is a nonzero point of every semimodule."""
    if result[0] == "NotSeparable":
        w = result[1]
        if all(e is None for e in w):
            return "zero witness"
        if not all(in_span(m, w) for m in modules):
            return "witness is outside some semimodule"
        return None
    halfspaces = result[1]
    if len(halfspaces) != len(modules):
        return "one halfspace per semimodule expected"
    for m, (u, v) in zip(modules, halfspaces):
        if not all(leq(a, b) for a, b in zip(u, v)):
            return "halfspace needs u <= v"
        if not all(halfspace_contains(u, v, g) for g in columns(m)):
            return "halfspace misses a generator of its semimodule"
    gens = [g for m in modules for g in columns(m)]
    grid = gens + [[add(p, q) for p, q in zip(a, b)] for a, b in itertools.combinations(gens, 2)]
    for x in grid:
        if any(e is not None for e in x) and all(halfspace_contains(u, v, x) for u, v in halfspaces):
            return f"grid point {x} lies in every halfspace"
    return None


# -- Plucker functions on the grid -----------------------------------------------


def grid_edges(n: int):
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i > 1:
                out.append(((i, j), (i - 1, j)))
            if j < n:
                out.append(((i, j), (i, j + 1)))
    return out


def flow_table(n: int, weights: dict) -> list:
    """Max weight of a normal flow for every source subset, by a scan over
    all edge subsets (sources at (n+1-s, 1), sinks at (1, r))."""
    edges = grid_edges(n)
    vertices = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    index = {v: k for k, v in enumerate(vertices)}
    best = {}
    for chosen in itertools.product((False, True), repeat=len(edges)):
        div = [0] * len(vertices)
        w = 0
        for flag, (a, b) in zip(chosen, edges):
            if flag:
                div[index[a]] += 1
                div[index[b]] -= 1
                w += weights[(a, b)]
        key = tuple(div)
        if key not in best or w > best[key]:
            best[key] = w
    table = []
    for mask in range(1 << n):
        elems = [e for e in range(1, n + 1) if mask >> (e - 1) & 1]
        want = [0] * len(vertices)
        for e in elems:
            want[index[(n + 1 - e, 1)]] += 1
        for r in range(1, len(elems) + 1):
            want[index[(1, r)]] -= 1
        table.append(best.get(tuple(want)))
    return table


def _triples(n: int):
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        rest = [e for e in range(1, n + 1) if e not in (i, j, k)]
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                yield sum(1 << (e - 1) for e in combo), 1 << (i - 1), 1 << (j - 1), 1 << (k - 1)


def _three_terms(t: list, a, bi, bj, bk):
    vals = (t[a | bi | bk], t[a | bj], t[a | bi | bj], t[a | bk], t[a | bj | bk], t[a | bi])
    if any(v is None for v in vals):
        return None
    return vals[0] + vals[1], vals[2] + vals[3], vals[4] + vals[5]


def is_tp(t: list, n: int) -> bool:
    for a, bi, bj, bk in _triples(n):
        terms = _three_terms(t, a, bi, bj, bk)
        if terms is not None and terms[0] != max(terms[1], terms[2]):
            return False
    return True


def is_dmtp(t: list, n: int) -> bool:
    def twice(terms):
        return terms.count(max(terms)) >= 2

    for a, bi, bj, bk in _triples(n):
        terms = _three_terms(t, a, bi, bj, bk)
        if terms is not None and not twice(terms):
            return False
    for quad in itertools.combinations(range(1, n + 1), 4):
        bi, bj, bk, bl = (1 << (e - 1) for e in quad)
        rest = [e for e in range(1, n + 1) if e not in quad]
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                a = sum(1 << (e - 1) for e in combo)
                vals = (t[a | bi | bk], t[a | bj | bl], t[a | bi | bj], t[a | bk | bl], t[a | bj | bk], t[a | bi | bl])
                if any(v is None for v in vals):
                    continue
                if not twice((vals[0] + vals[1], vals[2] + vals[3], vals[4] + vals[5])):
                    return False
    return True


def is_submodular(t: list, n: int, masks=None) -> bool:
    masks = range(1 << n) if masks is None else masks
    for a in masks:
        for b in masks:
            vals = (t[a], t[b], t[a | b], t[a & b])
            if None not in vals and vals[0] + vals[1] < vals[2] + vals[3]:
                return False
    return True


def interval_masks(n: int) -> list:
    out = [0]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            out.append(sum(1 << (e - 1) for e in range(i, j + 1)))
    return out


def reconstruct3(intervals: dict) -> list:
    """The 3-element TP-function with the given interval values: the only
    non-interval set {1, 3} follows from the 3-term relation."""
    t = [intervals.get(m) for m in range(8)]
    t[0b101] = max(t[0b011] + t[0b100], t[0b110] + t[0b001]) - t[0b010]
    return t


# -- dynamics: exact re-simulation --------------------------------------------------


def rates(traj: List[list]) -> List[Fraction]:
    """Per-coordinate growth rates over the second half of a trajectory."""
    k = len(traj) - 1
    half = k // 2
    return [Fraction(traj[k][i] - traj[half][i], k - half) for i in range(len(traj[0]))]


def throughput(traj: List[list]) -> Fraction:
    r = rates(traj)
    return sum(r, Fraction(0)) / len(r)


def iterate(step, x0: list, k: int, spread_bound) -> Optional[List[list]]:
    """Trajectory of k steps, or None once the coordinate spread exceeds the bound."""
    traj = [list(x0)]
    x = list(x0)
    for _ in range(k):
        x = step(x)
        if max(x) - min(x) > spread_bound:
            return None
        traj.append(x)
    return traj


def road_step(occ: list):
    m = len(occ)

    def step(x):
        return [
            min(occ[i - 1] + x[i - 1], 1 - occ[i] + x[(i + 1) % m]) for i in range(m)
        ]

    return step


def crossing_step(n1: int, n2: int, occ: list, priority: bool):
    """Two circular roads through one crossing at their last cells.

    Ordinary cells follow the road rule; the exits (first cells) take half
    of each entry's counter; an entry waits on the free space behind both
    exits. With priority, road 2's entry sees road 1's entry of the same
    step; fifty-fifty averages the exits and omits the division.
    """
    exit1, exit2, entry1, entry2 = 0, n1, n1 - 1, n1 + n2 - 1
    half = Fraction(1, 2)

    def step(x):
        out = list(x)
        for lo, hi in ((1, n1 - 1), (n1 + 1, n1 + n2 - 1)):
            for i in range(lo, hi):
                out[i] = min(occ[i - 1] + x[i - 1], 1 - occ[i] + x[i + 1])
        cross = half * (x[entry1] + x[entry2])
        out[exit1] = min(occ[entry1] + cross, 1 - occ[exit1] + x[1 % n1])
        out[exit2] = min(occ[entry2] + cross, 1 - occ[exit2] + x[n1 + 1 % n2])
        if priority:
            out[entry1] = min(1 - occ[entry1] + x[exit1] + x[exit2] - x[entry2], occ[entry1 - 1] + x[entry1 - 1])
            out[entry2] = min(1 - occ[entry2] + x[exit1] + x[exit2] - out[entry1], occ[entry2 - 1] + x[entry2 - 1])
        else:
            exits = half * (x[exit1] + x[exit2])
            out[entry1] = min(half * (1 - occ[entry1]) + exits, occ[entry1 - 1] + x[entry1 - 1])
            out[entry2] = min(half * (1 - occ[entry2]) + exits, occ[entry2 - 1] + x[entry2 - 1])
        return [Fraction(v) for v in out]

    return step


def tent_orbit(p: int, q: int, k: int, bins: int):
    """Orbit of y -> min(2y, 2 - 2y) on integer numerators over q, and its histogram."""
    orbit = [p]
    for _ in range(k):
        p = min(2 * p, 2 * q - 2 * p)
        orbit.append(p)
    hist = [0] * bins
    for v in orbit:
        hist[min(v * bins // q, bins - 1)] += 1
    return [Fraction(v, q) for v in orbit], hist


def t1h_light(occ_v: list, occ_h: list, k: int):
    """Four-phase light with one token (u' = C u) gating two circular roads.

    The junction cell of each road (its last cell) may also wait on its
    own counter plus the gate marking: 1 + u1 - u2 vertically, u3 - u4
    horizontally. Returns the u and x trajectories.
    """
    nv, nh = len(occ_v), len(occ_h)
    u = [Fraction(0)] * 4
    x = [Fraction(0)] * (nv + nh)
    us, xs = [list(u)], [list(x)]
    for _ in range(k):
        gates = (1 + u[0] - u[1], u[2] - u[3])
        new = []
        for off, occ, gate in ((0, occ_v, gates[0]), (nv, occ_h, gates[1])):
            c = len(occ)
            for loc in range(c):
                prev, nxt = off + (loc - 1) % c, off + (loc + 1) % c
                best = min(occ[(loc - 1) % c] + x[prev], 1 - occ[loc] + x[nxt])
                if loc == c - 1:
                    best = min(best, gate + x[off + loc])
                new.append(best)
        u = [u[3], 1 + u[0], u[1], u[2]]
        x = new
        us.append(list(u))
        xs.append(list(x))
    return us, xs
