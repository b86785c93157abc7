"""The four benchmark workloads.

Each workload is a closed loop with one client. A task is one whole user
task on one seeded instance. Instances come from a few discrete size
classes and are laid out in a fixed round-robin cycle, so percentiles fall
inside a class and every run sees the same mix; the seed changes only the
contents of each instance.

A workload provides:

    cycle                  task kinds, in the order the loop visits them
    cycles_per_s           whole cycles per second of --seconds, about the
                           rate at the seed commit: tasks(seconds) is fixed work
    generate(seed)         plain instances (lists, ints, Fractions), in cycle order
    build(lib, plain)      library objects for one instance (part of set-up)
    run(lib, obj, call)    the timed task; every call into tropkit goes
                           through call(span_name, fn, *args)
    check(plain, out)      None, or why the output is wrong (never timed)

`lib` is a namespace of freshly imported tropkit modules.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import reference as ref

# -- helpers --------------------------------------------------------------------


def direct(name, fn, *args):
    """The untraced `call`: no span, just the call."""
    return fn(*args)


def _vec(v) -> list:
    return [e.value for e in v.entries]


def _mat(m) -> list:
    return [[e.value for e in row] for row in m.entries]


def _rand_matrix(rng, rows, cols, lo, hi, p_bottom):
    return [[None if rng.random() < p_bottom else rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _mismatch(what, got, want):
    return f"{what}: got {got!r}, reference {want!r}"


class Workload:
    name = ""
    cycle: tuple = ()
    cycles_per_s = 1.0
    copies = 1  # instances per cycle position in the pool

    def tasks(self, seconds: float) -> int:
        """Whole cycles sized from `seconds` of reference-scaled task time at
        the seed commit. The count depends on `seconds` only, never on how
        fast the program runs."""
        return len(self.cycle) * max(1, round(seconds * self.cycles_per_s))

    def generate(self, seed: int) -> list:
        rng = random.Random(f"{self.name}-{seed}")
        return [self.instance(rng, kind) for _ in range(self.copies) for kind in self.cycle]


# -- dense ------------------------------------------------------------------------


def dense_matrix(rng, n):
    """Random max-plus matrix, 30 % bottoms, with cycle mean exactly 9.

    Weights are at most 9 and node 0 has a self-loop of weight 9, so every
    instance has an integer eigenvalue. The cost of a task then does not
    depend on whether the seed happened to give a fractional eigenvalue,
    which would move the normalization onto Fraction arithmetic.
    """
    a = _rand_matrix(rng, n, n, -9, 9, 0.3)
    for i in range(n):  # a Hamiltonian cycle
        if a[i][(i + 1) % n] is None:
            a[i][(i + 1) % n] = rng.randint(-9, 9)
    a[0][0] = 9
    return a


class Dense(Workload):
    """Spectral analysis, star, interval star and projection on one matrix."""

    name = "dense"
    # n=24 holds the median and the tail percentile for any run of 2 to 10
    # cycles; n=40 is the ROADMAP target size. The seed commit runs 0.35
    # cycles per second; 15 s runs 7 cycles, not 5, to steady the tail.
    cycle = (12, 24, 24, 24, 24, 24, 24, 24, 40)
    cycles_per_s = 0.47
    copies = 10

    def instance(self, rng, n):
        a = dense_matrix(rng, n)
        hi = ref.shifted(a, 9)  # the normalized matrix, whose star converges
        lo = [[None if e is None else e - rng.randint(0, 3) for e in row] for row in hi]
        v = _rand_matrix(rng, n, 16, -9, 9, 0.3)
        for j in range(16):
            if all(row[j] is None for row in v):
                v[rng.randrange(n)][j] = rng.randint(-9, 9)
        x = [rng.randint(-20, 20) for _ in range(n)]
        return {"kind": f"n{n}", "a": a, "lo": lo, "hi": hi, "v": v, "x": x}

    def build(self, lib, p):
        tm = lib.tropmat
        return (
            tm.matrix(p["a"]),
            tm.interval_matrix(tm.matrix(p["lo"]), tm.matrix(p["hi"])),
            lib.projector.Semimodule(tm.matrix(p["v"])),
            tm.vector(p["x"]),
        )

    def run(self, lib, obj, call):
        a, im, v, x = obj
        spec = call("spectral.spectral_analysis", lib.spectral.spectral_analysis, a)
        try:
            star = call("tropmat.kleene_star", lib.tropmat.kleene_star, a)
        except lib.errors.Divergent:
            star = "Divergent"
        iv = call("tropmat.iv_kleene_star", lib.tropmat.iv_kleene_star, im)
        proj = call("projector.project", lib.projector.project, v, x)
        return spec, star, iv, proj

    def check(self, p, out):
        spec, star, iv, proj = out
        a = p["a"]
        lam = ref.karp(a)
        if spec.eigenvalue.value != lam:
            return _mismatch("eigenvalue", spec.eigenvalue.value, lam)
        if not spec.eigenvectors:
            return "no eigenvector"
        for ev in spec.eigenvectors:
            v = _vec(ev)
            if all(e is None for e in v) or ref.mat_vec(a, v) != [ref.mul(lam, e) for e in v]:
                return f"A v != lambda v for {v}"
        want = ref.fw_star(a)
        if (star == "Divergent") != (want is None):
            return "star divergence verdict differs from Floyd-Warshall"
        if want is not None and _mat(star) != want:
            return "star differs from Floyd-Warshall"
        lo = [[e.lo.value for e in row] for row in iv.entries]
        hi = [[e.hi.value for e in row] for row in iv.entries]
        if lo != ref.fw_star(p["lo"]) or hi != ref.fw_star(p["hi"]):
            return "interval star endpoint differs from Floyd-Warshall"
        got, want = _vec(proj), ref.project(p["v"], p["x"])
        if got != want or not all(ref.leq(g, e) for g, e in zip(got, p["x"])):
            return _mismatch("projection", got, want)
        return None


# -- certify ----------------------------------------------------------------------


def feasible_block(rng, rows, cols):
    """A x <= B x with column 0 solving every row, so e_0 is a known solution."""
    a = _rand_matrix(rng, rows, cols, -5, 5, 0.2)
    b = _rand_matrix(rng, rows, cols, -5, 5, 0.2)
    for i in range(rows):
        a[i][0] = rng.randint(-5, 0)
        b[i][0] = rng.randint(0, 5)
    return a, b


def separation_modules(rng, most=2):
    """Three semimodules of dimension 4 with one to `most` finite generators each."""
    modules = []
    for _ in range(3):
        g = rng.randint(1, most)
        modules.append([[rng.randint(-3, 3) for _ in range(g)] for _ in range(4)])
    return modules


def grid_weights(rng, n):
    return {e: rng.randint(-5, 5) for e in ref.grid_edges(n)}


class Certify(Workload):
    """Small exact certificates: invariants, regularity, two-sided systems,
    separation and Plucker functions on one instance of size 5, 6 or 7."""

    name = "certify"
    # n=6 holds the median and n=7 the tail percentile for any run of 11 or
    # more cycles (15 s is 22); with three 3x4 blocks per task, twosided and
    # determ+assign each take just under half of the task time
    cycle = (5, 5, 6, 6, 6, 7)
    cycles_per_s = 1.5
    copies = 32
    blocks = 3

    def instance(self, rng, n):
        a = _rand_matrix(rng, n, n, -9, 9, 0.2)
        for i in range(n):  # condition C of assignment matrices
            if a[i][i] is None:
                a[i][i] = rng.randint(-9, 9)
        return {
            "kind": f"n{n}",
            "a": a,
            "row": ([rng.randint(-5, 5) for _ in range(n)], [rng.randint(-5, 5) for _ in range(n)]),
            "blocks": [feasible_block(rng, 3, 4) for _ in range(self.blocks)],
            "modules": separation_modules(rng, most=3),
            "net": grid_weights(rng, 3),
        }

    def build(self, lib, p):
        tm, pj = lib.tropmat, lib.projector
        a = tm.matrix(p["a"])
        return (
            a,
            lib.assign.AssignMatrix(a),
            (tm.vector(p["row"][0]), tm.vector(p["row"][1])),
            [lib.twosided.InequalitySystem(tm.matrix(x), tm.matrix(y)) for x, y in p["blocks"]],
            [pj.Semimodule(tm.matrix(m)) for m in p["modules"]],
            lib.plucker.grid_net(3, p["net"]),
        )

    def run(self, lib, obj, call):
        a, am, (ra, rb), systems, modules, net = obj
        dt, asg, ts, pl = lib.determ, lib.assign, lib.twosided, lib.plucker
        infeasible = lib.errors.Infeasible
        out = {
            "bideterminant": call("determ.bideterminant", dt.bideterminant, a),
            "permanent": call("determ.permanent", dt.permanent, a),
            "singular": call("determ.is_trop_singular", dt.is_trop_singular, a),
        }
        reg = call("assign.strong_regularity", asg.strong_regularity, am)
        out["regularity"] = reg
        if isinstance(reg, asg.RegularityCertificate):
            out["normal_form"] = call("assign.normal_form", asg.normal_form, am, reg)
            out["distances"] = call("assign.distances_potentials", asg.distances_potentials, am, reg.bijection)
        try:
            out["row"] = call("twosided.row_generators", ts.row_generators, ra, rb)
        except infeasible:
            out["row"] = "Infeasible"
        out["blocks"] = [call("twosided.solve_system", ts.solve_system, s) for s in systems]
        out["separate"] = call("projector.separate", lib.projector.separate, modules)
        f = call("plucker.flow_tp", pl.flow_tp, net)
        out["flow"] = f
        out["is_tp"] = call("plucker.is_tp", pl.is_tp, f).ok
        out["is_dmtp"] = call("plucker.is_dmtp", pl.is_dmtp, f).ok
        out["reconstructed"] = call(
            "plucker.reconstruct_from_intervals", pl.reconstruct_from_intervals, 3, f.restrict_to_intervals()
        )
        return out

    def check(self, p, out):
        a = p["a"]
        bd = out["bideterminant"]
        want = ref.bideterminant(a)
        if (bd.plus.value, bd.minus.value) != want:
            return _mismatch("bideterminant", (bd.plus.value, bd.minus.value), want)
        per, count = ref.permanent_and_count(a)
        if out["permanent"].value != per:
            return _mismatch("permanent", out["permanent"].value, per)
        if out["singular"] != (count >= 2):
            return _mismatch("tropical singularity", out["singular"], count >= 2)
        err = check_assignment(a, _regularity_plain(out))
        if err:
            return err
        ra, rb = p["row"]
        if out["row"] == "Infeasible":
            if any(ref.leq(x, y) for x, y in zip(ra, rb)):
                return "row_generators reported Infeasible for a feasible row"
        else:
            known = [ref.unit(len(ra), j) for j in range(len(ra)) if ref.leq(ra[j], rb[j])]
            err = ref.check_generators([ra], [rb], ref.columns(_mat(out["row"].generators)), known)
            if err:
                return f"row_generators: {err}"
        for (ba, bb), gs in zip(p["blocks"], out["blocks"]):
            err = ref.check_generators(ba, bb, ref.columns(_mat(gs.generators)), [ref.unit(4, 0)])
            if err:
                return f"solve_system: {err}"
        err = ref.check_separation(p["modules"], _separation_plain(out["separate"]))
        if err:
            return f"separate: {err}"
        table = ref.flow_table(3, p["net"])
        got = list(out["flow"].table)
        if got != table:
            return _mismatch("flow_tp", got, table)
        if out["is_tp"] != ref.is_tp(table, 3) or out["is_dmtp"] != ref.is_dmtp(table, 3):
            return "TP / DMTP verdict differs from the reference"
        intervals = {m: table[m] for m in ref.interval_masks(3)}
        if list(out["reconstructed"].table) != ref.reconstruct3(intervals):
            return "reconstruction differs from the 3-term relation"
        return None


def _regularity_plain(out):
    reg = out["regularity"]
    if not hasattr(reg, "bijection"):
        return {"strongly_regular": False}
    closure, phi, phi_t = out["distances"]
    return {
        "strongly_regular": True,
        "bijection": list(reg.bijection),
        "f": list(reg.f),
        "g": list(reg.g),
        "normal_form": _mat(out["normal_form"].data),
        "distances": (_mat(closure), _vec(phi), _vec(phi_t)),
    }


def check_assignment(b, res):
    """Strong-regularity verdict against the n! scan, and its certificate."""
    _, opt = ref.optimal_bijections(b)
    if not res["strongly_regular"]:
        return None if len(opt) != 1 else "unique optimum reported as not strongly regular"
    perm, f, g = res["bijection"], res["f"], res["g"]
    err = ref.check_regularity(b, perm, f, g)
    if err:
        return err
    if res["normal_form"] != ref.normal_form(b, perm, f, g):
        return "normal form differs from the reference"
    if res["distances"] != ref.distances_potentials(b, perm):
        return "optimal distances or potentials differ from the reference"
    return None


def _separation_plain(result):
    if hasattr(result, "witness"):
        return ("NotSeparable", _vec(result.witness))
    return ("halfspaces", [(_vec(h.u), _vec(h.v)) for h in result])


# -- traffic ----------------------------------------------------------------------

ROAD_CELLS = 100
CROSSING_CELLS = 10
T1H_CELLS = 5
TENT_STEPS = 10_000
TENT_BINS = 100
# Step counts chosen so each kind costs about the same as the 10^4-step
# tent orbit at the seed commit.
STEPS = {"road": 24, "priority": 450, "fifty": 240, "tent": TENT_STEPS, "t1h": 280}
SPREAD_BOUND = 10**6


class Traffic(Workload):
    """One fundamental-diagram point per task, of five model kinds."""

    name = "traffic"
    cycle = ("road", "priority", "fifty", "tent", "t1h")
    cycles_per_s = 2.4
    copies = 6

    def instance(self, rng, kind):
        p = {"kind": kind}
        if kind == "road":
            cars = set(rng.sample(range(ROAD_CELLS), rng.randint(10, 90)))
            p["occ"] = [int(i in cars) for i in range(ROAD_CELLS)]
        elif kind in ("priority", "fifty"):
            n = CROSSING_CELLS
            cells = list(range(n - 1)) + list(range(n, 2 * n - 1))  # crossing places start empty
            p["cars"] = sorted(rng.sample(cells, rng.randint(2, 14)))
        elif kind == "tent":
            q = rng.randrange(1001, 10_000, 2)
            p["y0"] = (rng.randint(1, q - 1), q)
        else:
            p["cars"] = [sorted(rng.sample(range(T1H_CELLS), rng.randint(1, 3))) for _ in range(2)]
        return p

    def build(self, lib, p):
        dy, kind = lib.dynamics, p["kind"]
        if kind == "road":
            return kind, (dy.road_event_graph(p["occ"]), [Fraction(0)] * ROAD_CELLS)
        if kind in ("priority", "fifty"):
            policy = "priority" if kind == "priority" else "fifty_fifty"
            n = CROSSING_CELLS
            return kind, (dy.build_crossing(n, n, p["cars"], policy), [Fraction(0)] * (2 * n))
        if kind == "tent":
            return kind, Fraction(*p["y0"])
        return kind, dy.traffic_light_system(T1H_CELLS, T1H_CELLS, p["cars"][0], p["cars"][1])

    def run(self, lib, obj, call):
        kind, model = obj
        dy = lib.dynamics
        if kind == "tent":
            return call("dynamics.tent_trajectory", dy.tent_trajectory, model, TENT_STEPS, TENT_BINS)
        if kind == "t1h":
            return call("dynamics.t1h_simulate", dy.t1h_simulate, model, STEPS["t1h"])
        try:
            return call("dynamics.hom_iterate", dy.hom_iterate, model[0], model[1], STEPS[kind])
        except lib.errors.Diverged:
            return "Diverged"

    def check(self, p, out):
        kind = p["kind"]
        steps = STEPS[kind]
        if kind == "tent":
            orbit, hist = ref.tent_orbit(p["y0"][0], p["y0"][1], steps, TENT_BINS)
            if list(out[0]) != orbit or list(out[1]) != hist:
                return "tent orbit or histogram differs from the integer-numerator orbit"
            return None
        if kind == "t1h":
            us, xs = ref.t1h_light(*[[int(i in c) for i in range(T1H_CELLS)] for c in p["cars"]], steps)
            if out[0] != us or out[1] != xs:
                return "T1H trajectory differs from the re-simulation"
            if list(out[3]) != ref.rates(xs):
                return "T1H flow rates differ"
            return None
        if kind == "road":
            step, x0 = ref.road_step(p["occ"]), [0] * ROAD_CELLS
        else:
            n = CROSSING_CELLS
            occ = [int(i in p["cars"]) for i in range(2 * n)]
            step, x0 = ref.crossing_step(n, n, occ, kind == "priority"), [0] * (2 * n)
        traj = ref.iterate(step, x0, steps, SPREAD_BOUND)
        if traj is None:
            return None if out == "Diverged" else "reference diverged, library did not"
        if out == "Diverged":
            return "library diverged, reference did not"
        if out[0] != traj:
            return f"{kind} trajectory differs from the re-simulation"
        if out[1] != ref.throughput(traj):
            return _mismatch(f"{kind} throughput", out[1], ref.throughput(traj))
        return None


# -- cli ----------------------------------------------------------------------------

ENTRY = "import sys; from tropkit.cli import main; sys.exit(main())"


def child_env(root: Path) -> dict:
    """Pinned environment: program defaults (no TROPKIT_THREADS), fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if k != "TROPKIT_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_request(argv, env, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, *argv], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def _jv(x):
    """Plain scalar to file form."""
    if x is None:
        return "-inf"
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return int(x)


def _pv(v):
    """File form to plain scalar."""
    if v in ("-inf", "+inf", None):
        return None
    if isinstance(v, str):
        f = Fraction(v)
        return int(f) if f.denominator == 1 else f
    return v


def _mjson(m, semiring="max-plus"):
    return {"semiring": semiring, "rows": len(m), "cols": len(m[0]), "data": [[_jv(e) for e in r] for r in m]}


def _mplain(obj):
    return [[_pv(e) for e in row] for row in obj["data"]]


def _spread(cells, cars):
    return [i for i in range(cells) if (i + 1) * cars // cells - i * cars // cells]


# Malformed requests that the CLI contract says must exit 2 without a
# traceback. They are probed in traced runs and counted as contract
# violations; at the seed commit all five leak a traceback with exit 1.
CONTRACT_PROBES = {
    "star_max_times": ("star", "mt"),
    "eig_max_times": ("eig", "mt"),
    "tent_y0_abc": ("tent", "abc"),
    "tent_bins_0": ("tent", "bins0"),
    "diagram_config_list": ("diagram", "list"),
}


class Cli(Workload):
    """One `tropkit` subcommand per request, as a subprocess on a fixture file."""

    name = "cli"
    cycle = (
        "star", "interval", "eig", "project", "separate", "twosided", "invariants",
        "plucker_check", "plucker_build", "plucker_reconstruct", "assign",
        "traffic_diagram", "traffic_tent", "schema_float", "schema_semiring",
    )
    cycles_per_s = 0.4
    copies = 5
    expect_exit = {"schema_float": (2,), "schema_semiring": (2,), "separate": (0, 1)}

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self._count = 0

    def _write(self, obj) -> str:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._count += 1
        path = self.workdir / f"f{self._count}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def instance(self, rng, kind):
        p = {"kind": kind}
        w = self._write
        if kind in ("star", "schema_float", "schema_semiring"):
            a = _rand_matrix(rng, 6, 6, -9, 0, 0.3)
            p["a"] = a
            obj = _mjson(a)
            if kind == "schema_float":
                obj["data"][rng.randrange(6)][rng.randrange(6)] = 1.5
            if kind == "schema_semiring":
                obj["semiring"] = "max-min"
            p["argv"] = ["star", "--matrix", w(obj)]
        elif kind == "interval":
            hi = _rand_matrix(rng, 5, 5, -9, 0, 0.3)
            lo = [[None if e is None else e - rng.randint(0, 3) for e in r] for r in hi]
            p["lo"], p["hi"] = lo, hi
            obj = {"semiring": "max-plus", "rows": 5, "cols": 5,
                   "lo": _mjson(lo)["data"], "hi": _mjson(hi)["data"]}
            p["argv"] = ["interval", "--matrix", w(obj)]
        elif kind == "eig":
            a = _rand_matrix(rng, 6, 6, -9, 9, 0.3)
            for i in range(6):
                a[i][(i + 1) % 6] = rng.randint(-9, 9)
            p["a"] = a
            p["argv"] = ["eig", "--matrix", w(_mjson(a))]
        elif kind == "project":
            v = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(5)]
            x = [rng.randint(-20, 20) for _ in range(5)]
            p["v"], p["x"] = v, x
            p["argv"] = ["project", "--module", w(_mjson(v)), "--vector",
                         w({"semiring": "max-plus", "data": x})]
        elif kind == "separate":
            mods = separation_modules(rng)
            p["modules"] = mods
            p["argv"] = ["separate", "--modules", *[w(_mjson(m)) for m in mods]]
        elif kind == "twosided":
            a, b = feasible_block(rng, 3, 4)
            p["a"], p["b"] = a, b
            p["argv"] = ["twosided", "--A", w(_mjson(a)), "--B", w(_mjson(b))]
        elif kind == "invariants":
            a = _rand_matrix(rng, 4, 4, -9, 9, 0.2)
            p["a"] = a
            p["argv"] = ["invariants", "--matrix", w(_mjson(a))]
        elif kind == "plucker_check":
            t = [rng.randint(-5, 5) for _ in range(8)]
            p["t"] = t
            p["argv"] = ["plucker", "check", "--function",
                         w({"n": 3, "values": {bin(m): t[m] for m in range(8)}})]
        elif kind == "plucker_build":
            wts = grid_weights(rng, 3)
            p["net"] = wts
            obj = {"n": 3, "weights": {f"{a[0]},{a[1]}->{b[0]},{b[1]}": v for (a, b), v in wts.items()}}
            p["argv"] = ["plucker", "build", "--net", w(obj)]
        elif kind == "plucker_reconstruct":
            iv = {m: rng.randint(-5, 5) for m in ref.interval_masks(3)}
            p["intervals"] = iv
            p["argv"] = ["plucker", "reconstruct", "--function",
                         w({"n": 3, "values": {bin(m): v for m, v in iv.items()}})]
        elif kind == "assign":
            a = _rand_matrix(rng, 4, 4, -9, 9, 0.2)
            for i in range(4):
                a[i][i] = rng.randint(-9, 9)
            p["a"] = a
            p["argv"] = ["assign", "--matrix", w(_mjson(a))]
        elif kind == "traffic_diagram":
            k = rng.randint(1, 6)
            p["densities"] = [Fraction(k + d, 10) for d in range(3)]
            p["argv"] = ["traffic", "diagram", "--config", w({"kind": "single_road", "m": 10}),
                         "--densities", f"{k}/10:{k + 2}/10:1/10", "--steps", "200", "--format", "json"]
        elif kind == "traffic_tent":
            q = rng.randrange(101, 1000, 2)
            p["y0"] = (rng.randint(1, q - 1), q)
            p["argv"] = ["traffic", "tent", "--y0", f"{p['y0'][0]}/{q}", "--steps", "2000",
                         "--bins", "20", "--format", "json"]
        return p

    def probe_argv(self, probe: str) -> list:
        cmd, variant = CONTRACT_PROBES[probe]
        if cmd in ("star", "eig"):
            return [cmd, "--matrix", self._write({"semiring": "max-times", "rows": 2, "cols": 2,
                                                  "data": [[1, 2], [3, 4]]})]
        if cmd == "tent":
            return ["traffic", "tent", "--y0", "abc"] if variant == "abc" else [
                "traffic", "tent", "--y0", "1/5", "--bins", "0"]
        return ["traffic", "diagram", "--config", self._write([{"kind": "single_road", "m": 10}]),
                "--densities", "0:1:1/2"]

    def build(self, lib, p):
        return p["kind"], p["argv"]

    def run(self, lib, obj, call):
        kind, argv = obj
        return call(f"cli.{kind}", run_request, argv, self.env, str(self.workdir))

    def check(self, p, out):
        code, stdout, stderr = out
        kind = p["kind"]
        if "Traceback" in stderr:
            return f"{kind}: traceback on stderr"
        if code not in self.expect_exit.get(kind, (0,)):
            return f"{kind}: exit code {code}"
        if kind.startswith("schema_"):
            return None
        body = json.loads(stdout)
        return getattr(self, f"_check_{kind}")(p, body)

    def _check_star(self, p, body):
        want = ref.fw_star(p["a"])
        return None if _mplain(body) == want else "star differs from Floyd-Warshall"

    def _check_interval(self, p, body):
        if [[_pv(e) for e in r] for r in body["lo"]] != ref.fw_star(p["lo"]):
            return "interval lo star differs"
        if [[_pv(e) for e in r] for r in body["hi"]] != ref.fw_star(p["hi"]):
            return "interval hi star differs"
        return None

    def _check_eig(self, p, body):
        lam = ref.karp(p["a"])
        if _pv(body["eigenvalue"]) != lam:
            return _mismatch("eigenvalue", body["eigenvalue"], lam)
        for ev in body["eigenvectors"]:
            v = [_pv(e) for e in ev]
            if ref.mat_vec(p["a"], v) != [ref.mul(lam, e) for e in v]:
                return f"A v != lambda v for {v}"
        return None if body["eigenvectors"] else "no eigenvector"

    def _check_project(self, p, body):
        got = [_pv(e) for e in body["data"]]
        want = ref.project(p["v"], p["x"])
        return None if got == want else _mismatch("projection", got, want)

    def _check_separate(self, p, body):
        if "error" in body:
            result = ("NotSeparable", [_pv(e) for e in body["error"]["witness"]])
        else:
            result = ("halfspaces", [([_pv(e) for e in h["u"]], [_pv(e) for e in h["v"]])
                                     for h in body["halfspaces"]])
        err = ref.check_separation(p["modules"], result)
        return err and f"separate: {err}"

    def _check_twosided(self, p, body):
        err = ref.check_generators(p["a"], p["b"], ref.columns(_mplain(body)), [ref.unit(4, 0)])
        return err and f"twosided: {err}"

    def _check_invariants(self, p, body):
        a = p["a"]
        per, count = ref.permanent_and_count(a)
        got = (
            (_pv(body["bideterminant"]["plus"]), _pv(body["bideterminant"]["minus"])),
            _pv(body["permanent"]),
            [_pv(e) for e in body["rook_coefficients"]],
            body["tropically_singular"],
            body["pattern_singular"],
        )
        want = (ref.bideterminant(a), per, ref.rook_coefficients(a), count >= 2, ref.pattern_singular(a))
        return None if got == want else _mismatch("invariants", got, want)

    def _check_plucker_check(self, p, body):
        t = p["t"]
        got = (body["is_tp"], body["is_dmtp"], body["submodular"], body["submodular_on_intervals"])
        want = (ref.is_tp(t, 3), ref.is_dmtp(t, 3), ref.is_submodular(t, 3),
                ref.is_submodular(t, 3, ref.interval_masks(3)))
        return None if got == want else _mismatch("plucker check", got, want)

    def _check_plucker_build(self, p, body):
        got = [_pv(body["values"][bin(m)]) for m in range(8)]
        want = ref.flow_table(3, p["net"])
        return None if got == want else _mismatch("flow table", got, want)

    def _check_plucker_reconstruct(self, p, body):
        got = [_pv(body["values"][bin(m)]) for m in range(8)]
        want = ref.reconstruct3(p["intervals"])
        return None if got == want else _mismatch("reconstruction", got, want)

    def _check_assign(self, p, body):
        if body["strongly_regular"]:
            body = {
                "strongly_regular": True,
                "bijection": body["bijection"],
                "f": [Fraction(_pv(v)) for v in body["f"]],
                "g": [Fraction(_pv(v)) for v in body["g"]],
                "normal_form": _mplain(body["normal_form"]),
                "distances": (
                    _mplain(body["optimal_distances"]),
                    [_pv(e) for e in body["potential"]],
                    [_pv(e) for e in body["inverse_potential"]],
                ),
            }
        return check_assignment(p["a"], body)

    def _check_traffic_diagram(self, p, body):
        for rho, point in zip(p["densities"], body):
            occ = [0] * 10
            for c in _spread(10, int(rho * 10)):
                occ[c] = 1
            want = ref.throughput(ref.iterate(ref.road_step(occ), [0] * 10, 200, SPREAD_BOUND))
            if _pv(point["rho"]) != rho or _pv(point["q"]) != want:
                return _mismatch(f"diagram point at {rho}", point, want)
        return None if len(body) == len(p["densities"]) else "wrong number of diagram points"

    def _check_traffic_tent(self, p, body):
        _, hist = ref.tent_orbit(p["y0"][0], p["y0"][1], 2000, 20)
        return None if body["counts"] == hist else "tent histogram differs"


def make(name: str, workdir: Path, env: dict) -> Workload:
    if name == "cli":
        return Cli(workdir, env)
    return {"dense": Dense, "certify": Certify, "traffic": Traffic}[name]()
