"""Self-test of the benchmark at small sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric named in BENCHMARK.json is emitted, that a
corrupted answer is counted as failed, that a run does a fixed number of
tasks, that the seed changes the inputs but not the metric names, and that
the harness refuses to run without the tropkit sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(res, spec_metrics):
    assert set(res["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        assert res["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    res = result("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == wl.make(workload, ROOT, {}).tasks(0.5)  # fixed work, whatever the speed
    assert_metrics(res, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_per_layer_metrics_emitted():
    res = result("--workload", "certify", "--seed", "3", "--seconds", "0.5", "--trace", "1")
    assert res["correct"] and res["failed"] == 0
    assert_metrics(res, SPEC["per_layer"])


def test_corrupted_star_counts_as_failed():
    lib = run.import_tropkit()
    dense = wl.Dense()
    plain = dense.generate(3)[:5]
    objs = [dense.build(lib, p) for p in plain]
    real = lib.tropmat.kleene_star

    def perturbed(a):
        rows = [list(r) for r in real(a).entries]
        e = rows[0][-1].value
        rows[0][-1] = lib.semiring.scalar(0 if e is None else e + 1)
        return lib.tropmat.TropMatrix(tuple(map(tuple, rows)), a.tag)

    lib.tropmat.kleene_star = perturbed  # iv_kleene_star calls it through the module
    try:
        latencies, _, failures = run.measure(dense, lib, plain, objs, wl.direct, tasks=5)
    finally:
        lib.tropmat.kleene_star = real
    assert len(latencies) == 5
    assert len(failures) == 5 and all("interval star" in f for f in failures)
    _, _, failures = run.measure(dense, lib, plain, objs, wl.direct, tasks=5)
    assert failures == []


def _inputs(name, seed, tmp_path):
    plain = wl.make(name, tmp_path / f"{name}-{seed}", {}).generate(seed)
    return [{k: v for k, v in p.items() if k != "argv"} for p in plain]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_changes_inputs_not_names(workload, tmp_path):
    assert _inputs(workload, 1, tmp_path) == _inputs(workload, 1, tmp_path)
    assert _inputs(workload, 1, tmp_path) != _inputs(workload, 2, tmp_path)
    if workload == "traffic":
        one = result("--workload", workload, "--seed", "1", "--seconds", "0.5")
        two = result("--workload", workload, "--seed", "2", "--seconds", "0.5")
        assert set(one["metrics"]) == set(two["metrics"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "dense", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
