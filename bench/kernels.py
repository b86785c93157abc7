"""Per-layer kernel rows: medians of fixed-size calls into one layer each.

Every traced run measures all rows, whatever its workload, so each layer
is seen on its own and a change that moves one layer shows up here even
when a workload dilutes it. Inputs come from the run's seed; sizes are
fixed.
"""

from __future__ import annotations

import random
import statistics
import sys

import reference as ref
import speed
import workloads as wl

SPAN_FUNCTIONS = {
    "tropmat": ("kleene_star", "iv_kleene_star"),
    "spectral": ("spectral_analysis",),
    "projector": ("project", "separate"),
    "twosided": ("row_generators", "solve_system"),
    "determ": ("bideterminant", "permanent", "is_trop_singular"),
    "assign": ("strong_regularity", "distances_potentials"),
    "plucker": ("flow_tp", "reconstruct_from_intervals"),
    "dynamics": ("hom_iterate", "tent_trajectory", "t1h_simulate"),
}

CLI_COMMANDS = (
    "star", "interval", "eig", "project", "separate", "twosided", "invariants",
    "plucker_check", "plucker_build", "plucker_reconstruct", "assign",
    "traffic_diagram", "traffic_tent",
)


def _median_s(fn, reps: int) -> float:
    """Median reference-scaled seconds of `reps` calls."""
    return statistics.median(speed.timed(fn)[0] for _ in range(reps))


def _ms(fn, reps=5):
    return _median_s(fn, reps) * 1e3


def _raises(fn, exc):
    def go():
        try:
            fn()
        except exc:
            return
        raise AssertionError("expected a domain outcome")

    return go


def _random_matrix(lib, rng, n, normalized):
    a = wl.dense_matrix(rng, n)
    if normalized:  # cycle mean 0, so the star converges
        a = ref.shifted(a, 9)
    return lib.tropmat.matrix(a)


def measure(lib, seed: int, cli_workload):
    """Every kernel row, keyed by metric name, as (value, unit), and the
    names of the malformed CLI requests that break the exit-code contract."""
    rng = random.Random(f"kernels-{seed}")
    sr, tm, sp, pj, ts = lib.semiring, lib.tropmat, lib.spectral, lib.projector, lib.twosided
    out = {}

    x, y = sr.scalar(rng.randint(-9, 9)), sr.scalar(rng.randint(-9, 9))
    calls = 20_000
    for name, op in (("sr_add", sr.sr_add), ("sr_mul", sr.sr_mul), ("sr_residual", sr.sr_residual)):
        def loop(op=op):
            for _ in range(calls):
                op(x, y)
        out[f"semiring.{name}_ns"] = (_median_s(loop, 5) / calls * 1e9, "ns")

    m20, m40 = _random_matrix(lib, rng, 20, False), _random_matrix(lib, rng, 40, False)
    s20, s40 = _random_matrix(lib, rng, 20, True), _random_matrix(lib, rng, 40, True)
    x40 = tm.vector([rng.randint(-20, 20) for _ in range(40)])
    out["tropmat.mat_mul_n20_ms"] = (_ms(lambda: tm.mat_mul(m20, m20)), "ms")
    out["tropmat.mat_mul_n40_ms"] = (_ms(lambda: tm.mat_mul(m40, m40), 3), "ms")
    out["tropmat.kleene_star_n20_ms"] = (_ms(lambda: tm.kleene_star(s20), 3), "ms")
    out["tropmat.kleene_star_n40_ms"] = (_ms(lambda: tm.kleene_star(s40), 3), "ms")
    out["tropmat.kleene_star_divergent_n40_ms"] = (
        _ms(_raises(lambda: tm.kleene_star(m40), lib.errors.Divergent)), "ms")
    out["tropmat.mat_residual_left_n40_ms"] = (_ms(lambda: tm.mat_residual_left(m40, x40)), "ms")
    out["spectral.max_cycle_mean_n20_ms"] = (_ms(lambda: sp.max_cycle_mean(m20)), "ms")
    out["spectral.max_cycle_mean_n40_ms"] = (_ms(lambda: sp.max_cycle_mean(m40)), "ms")
    out["spectral.spectral_analysis_n40_ms"] = (_ms(lambda: sp.spectral_analysis(m40), 3), "ms")

    dense = wl.Dense().instance(rng, 40)
    v40 = pj.Semimodule(tm.matrix(dense["v"]))
    out["projector.project_n40_ms"] = (_ms(lambda: pj.project(v40, x40)), "ms")
    mods = [pj.Semimodule(tm.matrix(m)) for m in wl.separation_modules(rng)]
    out["projector.cyclic_spectral_radius_n4k3_ms"] = (_ms(lambda: pj.cyclic_spectral_radius(mods)), "ms")

    ra = tm.vector([rng.randint(-5, 5) for _ in range(6)])
    rb = tm.vector([x + rng.randint(-2, 5) for x in (e.value for e in ra.entries)])
    a, b = wl.feasible_block(rng, 4, 4)
    system = ts.InequalitySystem(tm.matrix(a), tm.matrix(b))
    out["twosided.row_generators_n6_ms"] = (_ms(lambda: ts.row_generators(ra, rb)), "ms")
    out["twosided.solve_system_4x4_ms"] = (_ms(lambda: ts.solve_system(system), 3), "ms")

    c7 = wl.Certify().instance(rng, 7)
    a7 = tm.matrix(c7["a"])
    a6 = tm.matrix(wl.Certify().instance(rng, 6)["a"])
    out["determ.bideterminant_n7_ms"] = (_ms(lambda: lib.determ.bideterminant(a7), 3), "ms")
    out["determ.rook_coefficients_n6_ms"] = (_ms(lambda: lib.determ.rook_coefficients(a6), 3), "ms")
    am7 = lib.assign.AssignMatrix(a7)
    out["assign.strong_regularity_n7_ms"] = (_ms(lambda: lib.assign.strong_regularity(am7), 3), "ms")
    net = lib.plucker.grid_net(3, c7["net"])
    out["plucker.flow_tp_n3_ms"] = (_ms(lambda: lib.plucker.flow_tp(net)), "ms")

    traffic = wl.Traffic()
    for kind, metric in (("road", "road_m100"), ("priority", "crossing_priority_n10"),
                         ("fifty", "crossing_fifty_n10"), ("tent", "tent"), ("t1h", "t1h")):
        obj = traffic.build(lib, traffic.instance(rng, kind))
        seconds = _median_s(lambda: traffic.run(lib, obj, wl.direct), 3)
        out[f"dynamics.{metric}_steps_s"] = (wl.STEPS[kind] / seconds, "1/s")

    obj40 = lib.io.matrix_to_json(m40)
    out["io.matrix_from_json_n40_ms"] = (_ms(lambda: lib.io.matrix_from_json(obj40)), "ms")
    out["io.matrix_to_json_n40_ms"] = (_ms(lambda: lib.io.matrix_to_json(m40)), "ms")

    cli_rows, violations = measure_cli(cli_workload, seed)
    out.update(cli_rows)
    return out, violations


def startup(env, cwd) -> None:
    """A fresh interpreter running `import tropkit.cli`."""
    wl.subprocess.run([sys.executable, "-c", "import tropkit.cli"], env=env, cwd=cwd, check=True)


def measure_cli(cli, seed: int, reps: int = 3):
    """Subcommand latencies on one fixture per command, and the exit-code probes."""
    out = {}
    cwd = str(cli.workdir)
    out["cli.startup_ms"] = (_ms(lambda: startup(cli.env, cwd), reps), "ms")
    rng = random.Random(f"cli-kernels-{seed}")
    for kind in CLI_COMMANDS + ("schema_semiring",):
        argv = cli.instance(rng, kind)["argv"]
        name = "schema_error" if kind == "schema_semiring" else kind
        out[f"cli.{name}_ms"] = (_ms(lambda: wl.run_request(argv, cli.env, cwd), reps), "ms")
    violations = contract_violations(cli)
    out["cli.contract_violations"] = (len(violations), "count")
    return out, violations


def contract_violations(cli) -> list:
    """Names of the malformed requests that break the exit-code contract."""
    bad = []
    for probe in wl.CONTRACT_PROBES:
        code, _, stderr = wl.run_request(cli.probe_argv(probe), cli.env, str(cli.workdir))
        if code != 2 or "Traceback" in stderr:
            bad.append(probe)
    return bad
