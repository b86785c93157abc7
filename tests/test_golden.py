"""Golden outputs: every CLI subcommand and every demo, byte for byte.

Each case runs as a subprocess on the small fixed inputs in `tests/golden/`
and its exit code, stdout and stderr are compared with the text recorded in
`tests/golden/expected/<case>.txt`. The recorded text is the output of the
code before the payload-backed matrix representation, so these tests pin
the CLI bytes and the demo prints across internal rewrites.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

CLI_CASES = {
    "star_max_plus": ["star", "--matrix", "a_maxplus.json"],
    "star_min_plus": ["star", "--matrix", "a_minplus.json"],
    "star_max_times": ["star", "--matrix", "a_maxtimes.json"],
    "star_float": ["star", "--matrix", "a_float.json"],
    "interval": ["interval", "--matrix", "interval.json"],
    "interval_out_of_order": ["interval", "--matrix", "interval_bad.json"],
    "eig_max_plus": ["eig", "--matrix", "eig.json"],
    "eig_min_plus": ["eig", "--matrix", "a_minplus.json"],
    "project": ["project", "--module", "module.json", "--vector", "vector.json"],
    "separate": ["separate", "--modules", "sep1.json", "sep2.json"],
    "separate_shared_point": ["separate", "--modules", "sep1.json", "sep1.json"],
    "twosided": ["twosided", "--A", "ts_a.json", "--B", "ts_b.json"],
    "twosided_infeasible": ["twosided", "--A", "ts_infeasible_a.json", "--B", "ts_infeasible_b.json"],
    "invariants_max_plus": ["invariants", "--matrix", "a_maxplus.json"],
    "invariants_min_plus": ["invariants", "--matrix", "a_minplus.json"],
    "invariants_max_times": ["invariants", "--matrix", "a_maxtimes.json"],
    "invariants_boolean": ["invariants", "--matrix", "a_boolean.json"],
    "plucker_check": ["plucker", "check", "--function", "tp.json"],
    "plucker_build": ["plucker", "build", "--net", "net.json"],
    "plucker_reconstruct": ["plucker", "reconstruct", "--function", "intervals.json"],
    "assign": ["assign", "--matrix", "assign.json"],
    "assign_not_unique": ["assign", "--matrix", "assign_tie.json"],
    "traffic_diagram": [
        "traffic", "diagram", "--config", "road.json", "--densities", "1/10:1/2:1/5", "--steps", "60",
    ],
    "traffic_diagram_crossing": [
        "traffic", "diagram", "--config", "crossing.json", "--densities", "1/5:2/5:1/5",
        "--steps", "60", "--format", "json",
    ],
    "traffic_diagram_priority": [
        "traffic", "diagram", "--config", "crossing_priority.json", "--densities", "1/10:4/5:1/10",
        "--steps", "80",
    ],
    "traffic_tent": ["traffic", "tent", "--y0", "3/101", "--steps", "300", "--bins", "8"],
}

DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _run(argv, cwd) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    return f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"


def _expected(name: str) -> str:
    return (GOLDEN / "expected" / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden(name):
    assert _run(["-m", "tropkit.cli", *CLI_CASES[name]], GOLDEN) == _expected(name)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_golden(demo):
    assert _run([str(ROOT / "demos" / demo)], ROOT) == _expected(f"demo_{Path(demo).stem}")


def test_every_subcommand_covered():
    from tropkit.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    covered = {argv[0] for argv in CLI_CASES.values()}
    assert covered == set(sub.choices)
    actions = {tuple(argv[:2]) for argv in CLI_CASES.values() if argv[0] in ("plucker", "traffic")}
    assert actions == {
        ("plucker", "check"), ("plucker", "build"), ("plucker", "reconstruct"),
        ("traffic", "diagram"), ("traffic", "tent"),
    }
