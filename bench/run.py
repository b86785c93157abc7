#!/usr/bin/env python3
"""tropkit benchmark harness (standard library only).

Run one workload from the repository root:

    python3 bench/run.py --workload dense --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones (spans, module shares, kernel rows, tracing overhead). The line before
it holds the run's metadata: environment, tail percentile, failures.
`--out FILE` also appends the whole record to FILE as one JSON line, and

    python3 bench/run.py --compare BASE.jsonl NEW.jsonl

compares two such files metric by metric. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import kernels  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("dense", "certify", "traffic", "cli")
MODULES = ("errors", "semiring", "tropmat", "spectral", "projector", "twosided",
           "determ", "assign", "plucker", "dynamics", "io")
SETUP_REPS = 5
TAIL_BEYOND = 10  # samples that must lie above the reported tail latency
CAP_FACTOR = 6  # a loop stops early, at a whole cycle, after this many times its planned seconds


def import_tropkit() -> SimpleNamespace:
    """Import tropkit afresh from the checkout's src/, dropping earlier imports."""
    for name in [m for m in sys.modules if m == "tropkit" or m.startswith("tropkit.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"tropkit.{m}") for m in MODULES})
    if ROOT / "src" not in Path(lib.semiring.__file__).resolve().parents:
        raise SystemExit(f"tropkit was imported from {lib.semiring.__file__}, not from the checkout")
    return lib


def setup(workload, plain, env, workdir):
    """Median set-up time over SETUP_REPS repetitions, scaled and wall, with
    the last repetition's objects.

    In-process workloads import tropkit and build library objects from the
    plain instances; `cli` starts a fresh interpreter running `import tropkit.cli`.
    """
    built = {}

    def once():
        if workload.name == "cli":
            kernels.startup(env, str(workdir))
            return
        built["lib"] = lib = import_tropkit()
        built["objs"] = [workload.build(lib, p) for p in plain]

    times = []
    for _ in range(SETUP_REPS):
        gc.collect()  # garbage from the previous repetition is not this one's cost
        times.append(speed.timed(once))
    if workload.name == "cli":
        built["objs"] = [workload.build(None, p) for p in plain]
    scaled, wall = (statistics.median(t) for t in zip(*times))
    return scaled, wall, built.get("lib"), built["objs"]


class Tracer:
    """Spans kept in memory: name, start, end, parent span id, task id, failed."""

    def __init__(self):
        self.spans = []
        self._task = None

    def begin(self, task_id: int, name: str) -> None:
        self._task = (len(self.spans), task_id)
        self.spans.append({"name": f"task.{name}", "start": time.perf_counter(), "end": None,
                           "parent": None, "task": task_id, "failed": False})

    def end(self, failed: bool) -> None:
        span = self.spans[self._task[0]]
        span["end"], span["failed"] = time.perf_counter(), failed
        self._task = None

    def call(self, name, fn, *args):
        parent, task = self._task or (None, None)
        start = time.perf_counter()
        failed = True
        try:
            result = fn(*args)
            failed = False
            return result
        finally:
            self.spans.append({"name": name, "start": start, "end": time.perf_counter(),
                               "parent": parent, "task": task, "failed": failed})


def measure(workload, lib, plain, objs, call, tasks, cap_s=None, tracer=None):
    """Closed loop with one client; checks run between tasks, outside the timing.

    Runs exactly `tasks` tasks, however fast the program is, so every run
    has the same mix and its percentiles the same ranks. Only as a safety
    cap, the loop stops at the end of a whole cycle once `cap_s` seconds of
    wall task time have passed. Returns per-task latencies, scaled to the
    reference speed and as wall times, and the failures.

    The calibration after one task is also the one before the next: only
    that task's untimed check lies between them.
    """
    latencies, walls, failures = [], [], []
    i, cycle = 0, len(workload.cycle)
    before = speed.calibrate()
    while i < tasks and (cap_s is None or i % cycle or sum(walls) < cap_s):
        k = i % len(objs)
        kind = plain[k]["kind"]
        if tracer:
            tracer.begin(i, kind)
        t0 = time.perf_counter()
        try:
            out, err = workload.run(lib, objs[k], call), None
        except Exception as exc:  # any unexpected exception fails the task
            out, err = None, f"unexpected {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end(err is not None)
        after = speed.calibrate()
        latencies.append(dt * speed.scale(before, after))
        walls.append(dt)
        before = after
        if err is None:
            try:
                err = workload.check(plain[k], out)
            except Exception as exc:  # a malformed answer can break the check itself
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append(f"task {i} ({kind}): {err}")
        i += 1
    return latencies, walls, failures


def latency_metrics(latencies) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    tail = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {
        "throughput_ops_s": (n / sum(ordered), "1/s"),
        "latency_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "latency_tail_ms": (ordered[tail] * 1e3, "ms"),
    }


def tail_info(n: int) -> dict:
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return {"tail_percentile": round(100 * (n - beyond) / n, 2), "tail_samples_beyond": beyond, "samples": n}


def span_metrics(tracer: Tracer, traced_wall: float) -> dict:
    calls = [s for s in tracer.spans if s["parent"] is not None]
    out = {}
    for module, functions in kernels.SPAN_FUNCTIONS.items():
        for fn in functions:
            mine = [s for s in calls if s["name"] == f"{module}.{fn}"]
            out[f"{module}.{fn}.calls"] = (len(mine), "count")
            out[f"{module}.{fn}.busy_s"] = (sum(s["end"] - s["start"] for s in mine), "s")
            out[f"{module}.{fn}.failed"] = (sum(s["failed"] for s in mine), "count")
        busy = sum(s["end"] - s["start"] for s in calls if s["name"].startswith(module + "."))
        out[f"{module}.share"] = (busy / traced_wall, "ratio")
    return out


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    load1 = os.getloadavg()[0]
    return {"python": platform.python_version(), "nproc": nproc, "cpu": cpu,
            "load1": load1, "load_flag": load1 > nproc}


def run(args) -> dict:
    env_info = environment()
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    env = wl.child_env(ROOT)
    try:
        workload = wl.make(args.workload, workdir, env)
        plain = workload.generate(args.seed)
        setup_s, setup_wall, lib, objs = setup(workload, plain, env, workdir)
        gc.collect()  # discarded set-up repetitions are not collected inside a timed task
        meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "seconds": args.seconds, **env_info}
        seconds = args.seconds / 2 if args.trace else args.seconds
        planned = workload.tasks(seconds)
        lat, walls, failures = measure(workload, lib, plain, objs, wl.direct, planned,
                                       cap_s=CAP_FACTOR * seconds)
        meta.update(tasks_planned=planned, capped=len(lat) < planned)
        if not args.trace:
            usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            metrics = latency_metrics(lat)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (resource.getrusage(usage).ru_maxrss / 1024, "MB")
            wall = {k: v for k, (v, _) in latency_metrics(walls).items()}
            meta.update(tail_info(len(lat)), wall={**wall, "setup_s": setup_wall})
            attempted = len(lat)
        else:
            tracer = Tracer()
            lat_t, walls_t, fail_t = measure(workload, lib, plain, objs, tracer.call, len(lat),
                                             tracer=tracer)
            failures += fail_t
            attempted = len(lat) + len(lat_t)
            metrics = span_metrics(tracer, sum(walls_t))
            metrics["trace_overhead_ratio"] = (sum(lat_t) / sum(lat), "ratio")
            cli = workload if args.workload == "cli" else wl.Cli(workdir, env)
            rows, violations = kernels.measure(lib or import_tropkit(), args.seed, cli)
            metrics.update(rows)
            meta["contract_violations"] = violations
            meta["spans"] = write_spans(tracer, args)
        meta["failures"] = failures[:20]
        result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        return {"meta": meta, "result": result}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass


def write_spans(tracer: Tracer, args) -> str:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, span in enumerate(tracer.spans):
            fh.write(json.dumps({"id": span_id, **span}) + "\n")
    return str(path.relative_to(ROOT))


# -- compare mode -------------------------------------------------------------------


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base_path: str, new_path: str) -> None:
    """Per workload and metric: medians, quartiles, ratio new/base and a verdict.

    An end-to-end metric has regressed when its new median is worse than the
    base median by more than its bound, improved when better by more than
    the bound, and is flat otherwise. It is unresolved when either side's
    quartile spread, as a share of its median, is wider than the bound,
    unless every new run is better than every base run. Per-layer metrics
    have no bound, so they get the figures and no verdict.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    sides = []
    for path in (base_path, new_path):
        table = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    for name, m in rec["result"]["metrics"].items():
                        table.setdefault((rec["meta"]["workload"], name), []).append(m["value"])
        sides.append(table)
    base, new = sides
    for workload in WORKLOADS:
        keys = sorted(k for k in base if k[0] == workload and k in new)
        if not keys:
            continue
        print(f"\n== {workload}")
        print(f"{'metric':44s} {'base median':>12s} {'[q1, q3]':>22s} {'new median':>12s} {'[q1, q3]':>22s}"
              f" {'new/base':>9s}  verdict")
        for key in keys:
            name = key[1]
            b, n = base[key], new[key]
            (b1, bm, b3), (n1, nm, n3) = _quartiles(b), _quartiles(n)
            ratio = nm / bm if bm else float("nan")
            verdict = "-"
            if name in rules:
                better, bound = rules[name]
                worse = (ratio - 1) if better == "lower" else (1 - ratio)
                spread = max((b3 - b1) / bm if bm else 0, (n3 - n1) / nm if nm else 0)
                all_better = min(n) > max(b) if better == "higher" else max(n) < min(b)
                if spread > bound and not all_better:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "regressed"
                elif worse < -bound:
                    verdict = "improved"
                else:
                    verdict = "flat"
            print(f"{name:44s} {bm:12.4g} {f'[{b1:.4g}, {b3:.4g}]':>22s} {nm:12.4g} {f'[{n1:.4g}, {n3:.4g}]':>22s}"
                  f" {ratio:9.3f}  {verdict}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the run's record to this JSON-lines file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two record files")
    args = p.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds is None or args.seconds <= 0:
        p.error("--seconds is required and must be positive")
    if not (ROOT / "src" / "tropkit" / "__init__.py").is_file():
        print(f"bench: no tropkit sources under {ROOT / 'src'}; run from a tropkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    record = run(args)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(record["meta"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
