import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest

import tropkit
from tropkit import io as tio
from tropkit.cli import main
from tropkit.plucker import flow_tp, grid_edges, grid_net, is_tp
from tropkit.semiring import BOOLEAN, MAX_PLUS, MAX_TIMES, MIN_PLUS
from tropkit.tropmat import interval_matrix, matrix, vector

BOT = "-inf"


def run_cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_matrix_round_trip():
    rng = random.Random(34)
    for tag in (MAX_PLUS, MIN_PLUS, MAX_TIMES):
        bot = {"max-plus": BOT, "min-plus": "+inf"}.get(tag.value)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = []
            for _ in range(n):
                row = []
                for _ in range(n):
                    if tag is MAX_TIMES:
                        row.append(Fraction(rng.randint(0, 9), rng.randint(1, 4)))
                    elif rng.random() < 0.2:
                        row.append(bot)
                    else:
                        row.append(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                rows.append(row)
            m = matrix(rows, tag)
            assert tio.matrix_from_json(tio.matrix_to_json(m)) == m
            assert tio.matrix_from_csv(tio.matrix_to_csv(m), tag) == m


def test_vector_and_interval_round_trip():
    v = vector([1, BOT, Fraction(3, 2)])
    assert tio.vector_from_json(tio.vector_to_json(v)) == v
    im = interval_matrix(matrix([[BOT, -2], [0, BOT]]), matrix([[0, -1], [1, 0]]))
    assert tio.interval_matrix_from_json(tio.interval_matrix_to_json(im)) == im


def test_subset_function_round_trip():
    rng = random.Random(35)
    w = {e: Fraction(rng.randint(-3, 3), 2) for e in grid_edges(3)}
    f = flow_tp(grid_net(3, w))
    obj = tio.subset_function_to_json(f)
    assert tio.subset_function_from_json(obj) == f
    net = grid_net(3, w)
    assert tio.grid_net_from_json(tio.grid_net_to_json(net)) == net


def test_schema_errors():
    with pytest.raises(tio.SchemaError):
        tio.matrix_from_json({"semiring": "max-plus", "rows": 2, "cols": 2, "data": [[0]]})
    with pytest.raises(tio.SchemaError):
        tio.matrix_from_json({"semiring": "nope", "rows": 1, "cols": 1, "data": [[0]]})
    with pytest.raises(tio.SchemaError):
        tio.fraction_from_json(0.5)
    with pytest.raises(tio.SchemaError):
        tio.scalar_from_json("+inf", MAX_PLUS)


def test_cli_star_and_errors(tmp_path):
    mp = write(tmp_path, "a.json", {"semiring": "max-plus", "rows": 2, "cols": 2, "data": [[-1, -3], [-2, -1]]})
    code, out, err = run_cli(["star", "--matrix", mp])
    assert code == 0 and json.loads(out)["data"] == [[0, -3], [-2, 0]]
    dp = write(tmp_path, "d.json", {"semiring": "max-plus", "rows": 1, "cols": 1, "data": [[1]]})
    code, out, err = run_cli(["star", "--matrix", dp])
    assert code == 1 and json.loads(out)["error"]["type"] == "Divergent"
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out, err = run_cli(["star", "--matrix", str(bad)])
    assert code == 2 and "tropkit:" in err
    code, out, err = run_cli(["star", "--matrix", str(tmp_path / "missing.json")])
    assert code == 2


def test_cli_eig_road_and_determinism(tmp_path):
    road = {
        "semiring": "min-plus",
        "rows": 4,
        "cols": 4,
        "data": [
            ["+inf", 0, "+inf", 0],
            [1, "+inf", 1, "+inf"],
            ["+inf", 0, "+inf", 1],
            [1, "+inf", 0, "+inf"],
        ],
    }
    rp = write(tmp_path, "road.json", road)
    code, out, err = run_cli(["eig", "--matrix", rp])
    assert code == 0 and json.loads(out)["eigenvalue"] == "1/4"
    code2, out2, _ = run_cli(["eig", "--matrix", rp])
    assert out2 == out


def test_cli_separate_and_witness(tmp_path):
    v1 = write(tmp_path, "v1.json", {"semiring": "max-plus", "rows": 2, "cols": 1, "data": [[0], [0]]})
    v2 = write(tmp_path, "v2.json", {"semiring": "max-plus", "rows": 2, "cols": 1, "data": [[0], [2]]})
    code, out, _ = run_cli(["separate", "--modules", v1, v2])
    assert code == 0
    body = json.loads(out)
    assert body["separable"] and body["radius"] == -2 and len(body["halfspaces"]) == 2
    code, out, _ = run_cli(["separate", "--modules", v1, v1])
    assert code == 1 and json.loads(out)["error"]["type"] == "NotSeparable"


def test_cli_separate_shared_axis_ray(tmp_path):
    # both semimodules contain multiples of e0, although the orbit on the
    # full support class never turns periodic: a domain outcome, exit 1
    v1 = _max_plus([[-2, 0, BOT, 0], [BOT, 4, 1, -2], [BOT, 1, -2, BOT]])
    v2 = _max_plus([[3, -3], [-3, BOT], [-4, BOT]])
    proc = subprocess.run(
        [sys.executable, "-m", "tropkit.cli", "separate", "--modules",
         write(tmp_path, "v1.json", v1), write(tmp_path, "v2.json", v2)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "NotSeparable" and error["witness"][1:] == [BOT, BOT]


def test_cli_twosided_infeasible(tmp_path):
    a = write(tmp_path, "A.json", {"semiring": "max-plus", "rows": 1, "cols": 2, "data": [[5, 5]]})
    b = write(tmp_path, "B.json", {"semiring": "max-plus", "rows": 1, "cols": 2, "data": [[1, 1]]})
    code, out, _ = run_cli(["twosided", "--A", a, "--B", b])
    assert code == 1 and json.loads(out)["error"]["type"] == "Infeasible"


def test_cli_traffic_and_out_file(tmp_path):
    cfg = write(tmp_path, "cfg.json", {"kind": "single_road", "m": 10})
    target = tmp_path / "diagram.csv"
    code, out, _ = run_cli(
        ["traffic", "diagram", "--config", cfg, "--densities", "0:1:1/5",
         "--steps", "200", "--out", str(target)]
    )
    assert code == 0 and out == ""
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "rho,q"
    assert lines[1] == "0,0" and lines[3] == "2/5,2/5" and lines[6] == "1,0"


def test_cli_tent_histogram():
    code, out, _ = run_cli(["traffic", "tent", "--y0", "1/5", "--steps", "60", "--bins", "10"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bin,count"
    assert sum(int(l.split(",")[1]) for l in lines[1:]) == 61


def test_cli_plucker_round_trip(tmp_path):
    net = write(tmp_path, "net.json", {"n": 3, "weights": {"2,1->1,1": 1, "3,1->2,1": "1/2"}})
    code, out, _ = run_cli(["plucker", "build", "--net", net])
    assert code == 0
    fjson = json.loads(out)
    fp = write(tmp_path, "f.json", fjson)
    code, out, _ = run_cli(["plucker", "check", "--function", fp])
    body = json.loads(out)
    assert body["is_dmtp"] and body["is_tp"]
    from tropkit.plucker import interval_masks

    part = {"n": 3, "values": {bin(m): fjson["values"][bin(m)] for m in interval_masks(3)}}
    pp = write(tmp_path, "part.json", part)
    code, out, _ = run_cli(["plucker", "reconstruct", "--function", pp])
    assert code == 0 and json.loads(out)["values"] == fjson["values"]


def test_cli_assign_and_invariants(tmp_path):
    bm = write(tmp_path, "b.json", {"semiring": "max-plus", "rows": 2, "cols": 2, "data": [[5, 1], [1, 5]]})
    code, out, _ = run_cli(["assign", "--matrix", bm])
    body = json.loads(out)
    assert body["strongly_regular"] and body["normal_form"]["data"] == [[0, -4], [-4, 0]]
    flat = write(tmp_path, "flat.json", {"semiring": "max-plus", "rows": 2, "cols": 2, "data": [[0, 0], [0, 0]]})
    code, out, _ = run_cli(["assign", "--matrix", flat])
    assert code == 0 and json.loads(out)["strongly_regular"] is False
    g = write(tmp_path, "g.json", {"semiring": "max-times", "rows": 2, "cols": 2, "data": [[1, 2], [3, 4]]})
    code, out, _ = run_cli(["invariants", "--matrix", g])
    body = json.loads(out)
    assert body["bideterminant"] == {"plus": 4, "minus": 6}
    assert body["pattern_singular"] == "none"


def test_cli_interval(tmp_path):
    ip = write(
        tmp_path,
        "im.json",
        {
            "semiring": "max-plus",
            "rows": 2,
            "cols": 2,
            "lo": [[BOT, BOT], [BOT, BOT]],
            "hi": [[-1, -3], [-2, -1]],
        },
    )
    code, out, _ = run_cli(["interval", "--matrix", ip])
    body = json.loads(out)
    assert body["lo"] == [[0, BOT], [BOT, 0]] and body["hi"] == [[0, -3], [-2, 0]]


# (lo, hi) entries with lo <= hi; star-like commands take hi as their matrix
_UNSUPPORTED_ENTRIES = {
    "max-times": ([[1, 2], [3, 4]], [[1, 3], [3, 5]]),
    "boolean": ([[False, True], [True, False]], [[True, True], [True, True]]),
}


@pytest.mark.parametrize("command", ["star", "eig", "interval"])
@pytest.mark.parametrize("semiring", sorted(_UNSUPPORTED_ENTRIES))
def test_cli_path_algebra_commands_reject_other_semirings(tmp_path, command, semiring):
    lo, hi = _UNSUPPORTED_ENTRIES[semiring]
    obj = {"semiring": semiring, "rows": 2, "cols": 2}
    obj.update({"lo": lo, "hi": hi} if command == "interval" else {"data": hi})
    code, out, err = run_cli([command, "--matrix", write(tmp_path, "m.json", obj)])
    assert (code, out) == (2, "")
    assert err.startswith("tropkit: ") and err.count("\n") == 1 and semiring in err


# the directory holding the imported package, for the subprocess
_SRC = os.path.dirname(os.path.dirname(tropkit.__file__))
_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
_ROAD = {"kind": "single_road", "m": 10}
_BAD_TRAFFIC_REQUESTS = {
    "tent_y0_abc": ["tent", "--y0", "abc"],
    "tent_y0_zero_denominator": ["tent", "--y0", "1/0"],
    "tent_bins_0": ["tent", "--y0", "1/5", "--bins", "0"],
    "tent_bins_negative": ["tent", "--y0", "1/5", "--bins", "-2"],
    "tent_steps_0": ["tent", "--y0", "1/5", "--steps", "0"],
    "diagram_steps_1": ["diagram", "--config", _ROAD, "--densities", "0:1:1/2", "--steps", "1"],
    "diagram_config_list": ["diagram", "--config", [_ROAD], "--densities", "0:1:1/2"],
}


def _max_plus(data):
    return {"semiring": "max-plus", "rows": len(data), "cols": len(data[0]), "data": data}


_MIN_PLUS_2 = {"semiring": "min-plus", "rows": 2, "cols": 2, "data": [[0, 1], [1, 0]]}
_BAD_MATRIX_REQUESTS = {
    "assign_min_plus": ["assign", "--matrix", _MIN_PLUS_2],
    "assign_condition_c": ["assign", "--matrix", _max_plus([[BOT, BOT], [1, 0]])],
    "project_bottom_column": [
        "project", "--module", _max_plus([[0, BOT], [1, BOT]]),
        "--vector", {"semiring": "max-plus", "data": [0, 0]},
    ],
    "separate_bottom_column": [
        "separate", "--modules", _max_plus([[0], [0]]), _max_plus([[0, BOT], [2, BOT]]),
    ],
    "separate_min_plus": ["separate", "--modules", _MIN_PLUS_2, _MIN_PLUS_2],
    "project_boolean": [
        "project", "--module", os.path.join(_GOLDEN, "a_boolean.json"),
        "--vector", {"semiring": "boolean", "data": [True, False, True]},
    ],
}


def _cli_subprocess(tmp_path, argv):
    """Run the CLI as a subprocess, JSON arguments written to files first."""
    argv = [
        write(tmp_path, f"arg{k}.json", a) if isinstance(a, (dict, list)) else a
        for k, a in enumerate(argv)
    ]
    return subprocess.run(
        [sys.executable, "-m", "tropkit.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=_SRC),
    )


def _assert_schema_exit(tmp_path, argv):
    """The CLI must exit 2 with one `tropkit:` line on stderr and no traceback."""
    proc = _cli_subprocess(tmp_path, argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("tropkit: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_cli_invariants_above_old_enumeration_cap(tmp_path):
    # n = 9 was past the n! enumeration caps of the bideterminant and rooks
    data = [[(3 * i + 5 * j) % 7 - 3 for j in range(9)] for i in range(9)]
    proc = subprocess.run(
        [sys.executable, "-m", "tropkit.cli", "invariants", "--matrix",
         write(tmp_path, "m.json", _max_plus(data))],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    body = json.loads(proc.stdout)
    assert len(body["rook_coefficients"]) == 10
    assert body["permanent"] == body["rook_coefficients"][9]


def test_cli_plucker_build_above_old_flow_cap(tmp_path):
    # n = 6 was past the n <= 4 cap of the path-system enumeration
    weights = {}
    for i in range(1, 7):
        for j in range(1, 7):
            if i > 1:
                weights[f"{i},{j}->{i - 1},{j}"] = f"{(i * j) % 5 - 2}/{1 + j % 3}"
            if j < 6:
                weights[f"{i},{j}->{i},{j + 1}"] = (2 * i - j) % 7 - 3
    proc = subprocess.run(
        [sys.executable, "-m", "tropkit.cli", "plucker", "build", "--net",
         write(tmp_path, "net.json", {"n": 6, "weights": weights})],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    f = tio.subset_function_from_json(json.loads(proc.stdout))
    assert f.n == 6 and f.is_finite() and is_tp(f)


@pytest.mark.parametrize("name", sorted(_BAD_TRAFFIC_REQUESTS))
def test_cli_traffic_bad_requests_exit_2(tmp_path, name):
    _assert_schema_exit(tmp_path, ["traffic"] + _BAD_TRAFFIC_REQUESTS[name])


_BAD_PLUCKER_REQUESTS = {
    "reconstruct_interval_missing": [
        "reconstruct", "--function", {"n": 2, "values": {"0b0": 0, "0b1": 1, "0b10": 2}},
    ],
    "reconstruct_non_interval": [
        "reconstruct", "--function",
        {"n": 3, "values": {"0b0": 0, "0b1": 1, "0b10": 2, "0b100": 0, "0b11": 3,
                            "0b110": 2, "0b111": 4, "0b101": 1}},
    ],
    "reconstruct_bottom_interval": [
        "reconstruct", "--function", {"n": 2, "values": {"0b0": 0, "0b1": BOT, "0b10": 2, "0b11": 1}},
    ],
    "reconstruct_values_list": ["reconstruct", "--function", {"n": 2, "values": [0, 1, 2, 3]}],
    "check_values_list": ["check", "--function", {"n": 2, "values": [0, 1, 2, 3]}],
    "build_weights_list": ["build", "--net", {"n": 2, "weights": [1, 2]}],
}


@pytest.mark.parametrize("name", sorted(_BAD_PLUCKER_REQUESTS))
def test_cli_plucker_bad_requests_exit_2(tmp_path, name):
    _assert_schema_exit(tmp_path, ["plucker"] + _BAD_PLUCKER_REQUESTS[name])


_TOO_LARGE_PLUCKER_REQUESTS = {
    "check_n64": ["check", "--function", {"n": 64, "values": {"0b0": 0}}],
    "reconstruct_n64": ["reconstruct", "--function", {"n": 64, "values": {"0b0": 0}}],
    "build_n64": ["build", "--net", {"n": 64, "weights": {}}],
}


@pytest.mark.parametrize("name", sorted(_TOO_LARGE_PLUCKER_REQUESTS))
def test_cli_plucker_above_check_cap_exits_1(tmp_path, name):
    # the cap is checked before any 2^n or n^2 table is built
    proc = _cli_subprocess(tmp_path, ["plucker"] + _TOO_LARGE_PLUCKER_REQUESTS[name])
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout)["error"]["type"] == "TooLarge"


@pytest.mark.parametrize("name", sorted(_BAD_MATRIX_REQUESTS))
def test_cli_bad_matrix_requests_exit_2(tmp_path, name):
    _assert_schema_exit(tmp_path, _BAD_MATRIX_REQUESTS[name])
