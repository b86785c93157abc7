import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from csv_oracle import matrix_from_csv_oracle
from orbit_oracle import tent_trajectory_oracle

import tropkit
from tropkit import dynamics, plucker
from tropkit import io as tio
from tropkit.cli import main
from tropkit.errors import TooLarge
from tropkit.plucker import flow_tp, grid_edges, grid_net, is_tp
from tropkit.semiring import BOOLEAN, MAX_PLUS, MAX_TIMES, MIN_PLUS
from tropkit.tropmat import interval_matrix, matrix, vector

BOT = "-inf"


def run_cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_exit_2_in_process(argv):
    """`main` must return 2 with one `tropkit:` line on stderr and nothing on stdout."""
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("tropkit: ") and err.count("\n") == 1 and "Traceback" not in err


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_matrix_round_trip():
    rng = random.Random(34)
    for tag in (MAX_PLUS, MIN_PLUS, MAX_TIMES, BOOLEAN):
        bot = {"max-plus": BOT, "min-plus": "+inf"}.get(tag.value)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = []
            for _ in range(n):
                row = []
                for _ in range(n):
                    if tag is BOOLEAN:
                        row.append(rng.random() < 0.5)
                    elif tag is MAX_TIMES:
                        row.append(Fraction(rng.randint(0, 9), rng.randint(1, 4)))
                    elif rng.random() < 0.2:
                        row.append(bot)
                    else:
                        row.append(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                rows.append(row)
            m = matrix(rows, tag)
            assert tio.matrix_from_json(tio.matrix_to_json(m)) == m
            assert tio.matrix_from_csv(tio.matrix_to_csv(m), tag) == m


@pytest.mark.parametrize("cell, tag", [
    ("1.5", MAX_PLUS), ("abc", MAX_PLUS), ("True", MAX_PLUS), ("[1]", MIN_PLUS),
    ("-1", MAX_TIMES), ("1", BOOLEAN),
])
def test_matrix_from_csv_rejects_malformed_cells(cell, tag):
    with pytest.raises(tio.SchemaError):
        tio.matrix_from_csv(f"{cell}\n", tag)


# cells in and around JSON's integer grammar, which the CSV reader reads by `int`,
# and the other spellings a cell may hold; the digit strings pass int's digit limit
_CSV_CELLS = [
    "+5", "007", "-0", "0", "-7", "12", "- 1", "1_0", "\u0663", "\u0663\u0663", "1e3", "1.5", "1/2", "-3/4",
    "True", "False", "true", "null", "[1]", "abc", "", "-inf", "+inf", "9" * 5000, "-" + "9" * 5000,
]


def _csv_outcome(text, tag, reader):
    try:
        m = reader(text, tag)
    except Exception as exc:  # the exception type and text are the outcome compared
        return "raises", type(exc), str(exc)
    return "returns", m.payload, [list(map(type, row)) for row in m.payload]


@pytest.mark.parametrize("seed", range(4))
def test_matrix_from_csv_equals_the_json_cell_oracle(seed):
    rng = random.Random(seed)
    for _ in range(250):
        tag = rng.choice([MAX_PLUS, MIN_PLUS, MAX_TIMES, BOOLEAN])
        cells = _CSV_CELLS + [str(rng.randint(-99, 99)) for _ in range(20)]
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        text = "\n".join(
            ",".join(" " * rng.randint(0, 1) + rng.choice(cells) + " " * rng.randint(0, 1) for _ in range(cols))
            for _ in range(rows)
        )
        assert _csv_outcome(text, tag, tio.matrix_from_csv) == _csv_outcome(text, tag, matrix_from_csv_oracle)


@pytest.mark.parametrize("cell, tag", [
    (" 3 ", MAX_PLUS), ("3 ", MIN_PLUS), ("-oo", MAX_PLUS), ("+oo", MIN_PLUS), ("inf", MIN_PLUS),
    (" -inf", MAX_PLUS), ("+inf", MAX_PLUS), ("-inf", MAX_TIMES), (None, MAX_PLUS), (None, MAX_TIMES),
    (1.0, MAX_PLUS), (1.0, BOOLEAN), (0, BOOLEAN), (1, BOOLEAN), (None, BOOLEAN), ("true", BOOLEAN),
])
def test_json_cells_take_only_the_documented_spellings(cell, tag):
    with pytest.raises(tio.SchemaError):
        tio.matrix_from_json({"semiring": tag.value, "rows": 1, "cols": 1, "data": [[cell]]})
    with pytest.raises(tio.SchemaError):
        tio.vector_from_json({"semiring": tag.value, "data": [cell]})


# one bad cell in a row of 40 ints, as JSON values (max-plus, min-plus): each
# is a schema error wherever it sits, and its message is the bad cell's own
_BAD_FILE_CELLS = {
    "null": (None, None, "{tag} entry required, got null"),
    "bool": (True, True, "exact rational required, got {bad!r}"),
    "float": (1.5, 1.5, "exact rational required, got {bad!r}"),
    "other_infinity": ("+inf", "-inf", "{bad} is not an element of {tag}"),
    "space": (" 3", " 3", "bad rational {bad!r}"),
}


@pytest.mark.parametrize("name", sorted(_BAD_FILE_CELLS))
@pytest.mark.parametrize("tag", [MAX_PLUS, MIN_PLUS])
def test_readers_reject_one_bad_cell_at_every_position(name, tag):
    bad = _BAD_FILE_CELLS[name][tag is MIN_PLUS]
    message = re.escape(_BAD_FILE_CELLS[name][2].format(bad=bad, tag=tag.value))
    own = BOT if tag is MAX_PLUS else "+inf"
    ints = [(-1) ** j * j if j % 7 else own for j in range(40)]
    assert tio.vector_from_json({"semiring": tag.value, "data": ints}).payload[7] is None
    for at in range(40):
        row = ints[:at] + [bad] + ints[at + 1:]
        data = [ints] * at + [row] + [ints] * (39 - at)
        with pytest.raises(tio.SchemaError, match=message):
            tio.matrix_from_json({"semiring": tag.value, "rows": 40, "cols": 40, "data": data})
        with pytest.raises(tio.SchemaError, match=message):
            tio.vector_from_json({"semiring": tag.value, "data": row})
        csv = "\n".join(",".join(map(json.dumps, r)) for r in data)
        with pytest.raises(tio.SchemaError, match=message):
            tio.matrix_from_csv(csv, tag)


@pytest.mark.parametrize("name", sorted(_BAD_FILE_CELLS))
def test_cli_exits_2_on_one_bad_cell_at_every_position(tmp_path, name):
    bad = _BAD_FILE_CELLS[name][0]
    ints = [j % 9 - 4 if j % 5 else BOT for j in range(40)]
    module = write(tmp_path, "v.json", _max_plus([[0]] * 40))
    for at in range(40):
        row = ints[:at] + [bad] + ints[at + 1:]
        m = write(tmp_path, "m.json", _max_plus([ints] * at + [row] + [ints] * (39 - at)))
        v = write(tmp_path, "x.json", {"semiring": "max-plus", "data": row})
        for argv in (["star", "--matrix", m], ["project", "--module", module, "--vector", v]):
            _assert_exit_2_in_process(argv)  # an uncaught exception fails the test
    _assert_schema_exit(tmp_path, ["star", "--matrix", m])


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
    assert tio.subset_values_from_json(obj) == (3, dict(enumerate(f.table)))
    assert tio.subset_values_from_json({"n": 1, "values": {"1": "1/2", "0": 0}}) == (1, {1: Fraction(1, 2), 0: 0})
    net = grid_net(3, w)
    assert tio.grid_net_from_json(tio.grid_net_to_json(net)) == net
    assert tio.grid_net_from_json({"n": 1}) == grid_net(1, {})


def test_schema_errors():
    with pytest.raises(tio.SchemaError):
        tio.matrix_from_json({"semiring": "max-plus", "rows": 2, "cols": 2, "data": [[0]]})
    with pytest.raises(tio.SchemaError):
        tio.matrix_from_json({"semiring": "nope", "rows": 1, "cols": 1, "data": [[0]]})
    for bad in (0.5, True, [1], "1.5"):
        with pytest.raises(tio.SchemaError):
            tio.fraction_from_json(bad)
    assert [type(tio.fraction_from_json(v)) for v in (3, "6/2", "1/2")] == [int, int, Fraction]
    with pytest.raises(tio.SchemaError):
        tio.vector_from_json({"semiring": "max-plus", "data": ["+inf"]})


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


def test_cli_separate_refuses_halfspaces_that_share_a_point(tmp_path):
    # the halfspaces built for these two rays meet outside zero: no
    # separation is printed, and the refusal is a domain outcome, exit 1
    v1 = write(tmp_path, "v1.json", _max_plus([[4], [BOT], [-5], [BOT], [3]]))
    v2 = write(tmp_path, "v2.json", _max_plus([[2], [BOT], [-3], [-5], [4]]))
    code, out, err = run_cli(["separate", "--modules", v1, v2])
    assert (code, err) == (1, "")
    error = json.loads(out)["error"]
    assert error["type"] == "CertificateInvalid" and "share the nonzero point" in error["message"]


def test_cli_twosided_infeasible(tmp_path):
    a = write(tmp_path, "A.json", {"semiring": "max-plus", "rows": 1, "cols": 2, "data": [[5, 5]]})
    b = write(tmp_path, "B.json", {"semiring": "max-plus", "rows": 1, "cols": 2, "data": [[1, 1]]})
    code, out, _ = run_cli(["twosided", "--A", a, "--B", b])
    assert code == 1 and json.loads(out)["error"]["type"] == "Infeasible"


def test_cli_twosided_above_the_cap_exits_1(tmp_path):
    a = _max_plus([[i - j for j in range(7)] for i in range(7)])
    proc = _cli_subprocess(tmp_path, ["twosided", "--A", a, "--B", a])
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout)["error"]["type"] == "TooLarge"


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_tent_histogram_equals_the_step_every_time_oracle(fmt):
    _, hist = tent_trajectory_oracle(Fraction(3, 101), 200_000, bins=8)
    want = tio.dumps({"bins": 8, "counts": hist}) if fmt == "json" else (
        "bin,count\n" + "".join(f"{i},{c}\n" for i, c in enumerate(hist)))
    argv = ["traffic", "tent", "--y0", "3/101", "--steps", "200000", "--bins", "8", "--format", fmt]
    code, out, _ = run_cli(argv)
    assert code == 0 and out == want


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
    "tent_y0_exponent": ["tent", "--y0", "1e-3"],
    "diagram_densities_exponent": ["diagram", "--config", _ROAD, "--densities", "0:1:1e-1"],
}


def _max_plus(data):
    return {"semiring": "max-plus", "rows": len(data), "cols": len(data[0]), "data": data}


_MIN_PLUS_2 = {"semiring": "min-plus", "rows": 2, "cols": 2, "data": [[0, 1], [1, 0]]}
_BAD_MATRIX_REQUESTS = {
    # a rational cell spells p or p/q in ASCII digits: no exponent, no decimal point
    "star_cell_exponent": ["star", "--matrix", _max_plus([["1e3"]])],
    "star_cell_decimal": ["star", "--matrix", _max_plus([["1.5"]])],
    "assign_min_plus": ["assign", "--matrix", _MIN_PLUS_2],
    "assign_condition_c": ["assign", "--matrix", _max_plus([[BOT, BOT], [1, 0]])],
    "assign_empty": ["assign", "--matrix", {"semiring": "max-plus", "rows": 0, "cols": 0, "data": []}],
    "project_bottom_column": [
        "project", "--module", _max_plus([[0, BOT], [1, BOT]]),
        "--vector", {"semiring": "max-plus", "data": [0, 0]},
    ],
    "separate_bottom_column": [
        "separate", "--modules", _max_plus([[0], [0]]), _max_plus([[0, BOT], [2, BOT]]),
    ],
    "separate_min_plus": ["separate", "--modules", _MIN_PLUS_2, _MIN_PLUS_2],
    "invariants_max_times_negative": [
        "invariants", "--matrix", {"semiring": "max-times", "rows": 1, "cols": 1, "data": [[-1]]},
    ],
    "project_boolean": [
        "project", "--module", os.path.join(_GOLDEN, "a_boolean.json"),
        "--vector", {"semiring": "boolean", "data": [True, False, True]},
    ],
    # "rows" and "cols" are JSON integers >= 0, also when there are no rows
    "star_rows_float_cols_true": ["star", "--matrix", {"semiring": "max-plus", "rows": 1.0, "cols": True,
                                                       "data": [[0]]}],
    "star_no_rows_cols_string": ["star", "--matrix", {"semiring": "max-plus", "rows": 0, "cols": "x", "data": []}],
    "interval_cols_true": ["interval", "--matrix", {"semiring": "max-plus", "rows": 1, "cols": True,
                                                    "lo": [[0]], "hi": [[1]]}],
}
# a "semiring" that is no name, of every JSON type; a list or an object used to
# raise TypeError (unhashable) out of the name lookup
for _kind, _name in {"list": [], "object": {}, "int": 1, "null": None}.items():
    _BAD_MATRIX_REQUESTS[f"star_semiring_{_kind}"] = [
        "star", "--matrix", {"semiring": _name, "rows": 1, "cols": 1, "data": [[0]]},
    ]
    _BAD_MATRIX_REQUESTS[f"project_vector_semiring_{_kind}"] = [
        "project", "--module", _max_plus([[0]]), "--vector", {"semiring": _name, "data": [0]},
    ]


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
    # keys in ASCII digits only: int() would read these as 1,1->1,2, 0b10 and 3
    "build_non_ascii_edge_key": ["build", "--net", {"n": 2, "weights": {"\u0661,1->\u0661,2": 1}}],
    "check_underscore_mask_key": [
        "check", "--function", {"n": 2, "values": {"0b0": 0, "0b1": 1, "0b1_0": 2, "0b11": 3}},
    ],
    "check_spaced_mask_key": [
        "check", "--function", {"n": 2, "values": {"0b0": 0, "0b1": 1, "0b10": 2, " 3 ": 3}},
    ],
    # a count is a JSON integer: true and 1.0 used to be read as 1
    "reconstruct_n_true": ["reconstruct", "--function", {"n": True, "values": {"0b0": 0, "0b1": 1}}],
    "check_n_float": ["check", "--function", {"n": 1.0, "values": {"0b0": 0, "0b1": 1}}],
    "build_n_true": ["build", "--net", {"n": True, "weights": {}}],
    # two keys that name one subset or one edge: the later value used to win
    "check_subset_given_twice": ["check", "--function", {"n": 1, "values": {"0b0": 0, "0": 5, "0b1": 1}}],
    "reconstruct_subset_given_twice": [
        "reconstruct", "--function", {"n": 2, "values": {"0b0": 0, "0b1": 1, "0b10": 2, "0b11": 3, "0x3": 4}},
    ],
    "build_edge_given_twice": ["build", "--net", {"n": 2, "weights": {"1,1->1,2": 1, "01,1->1,2": 2}}],
    # keys past the 4,300-digit int/str limit used to escape as a plain ValueError
    "check_mask_key_5000_digits": ["check", "--function", {"n": 2, "values": {"1" * 5000: 0}}],
    "build_edge_key_5000_digits": ["build", "--net", {"n": 2, "weights": {"1" * 5000 + ",1->1,2": 0}}],
}


@pytest.mark.parametrize("name", sorted(_BAD_PLUCKER_REQUESTS))
def test_cli_plucker_bad_requests_exit_2(tmp_path, name):
    _assert_schema_exit(tmp_path, ["plucker"] + _BAD_PLUCKER_REQUESTS[name])


_TOO_LARGE_PLUCKER_REQUESTS = {
    "check_n9": ["check", "--function", {"n": 9, "values": {"0b0": 0}}],
    "reconstruct_n9": ["reconstruct", "--function", {"n": 9, "values": {"0b0": 0}}],
    "build_n9": ["build", "--net", {"n": 9, "weights": {"1,1->1,2": 1}}],
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


def _refuse_to_build(*args):
    raise AssertionError("built a table or grid over a ground set above the cap")


@pytest.mark.parametrize("argv", [
    ["check", "--function", {"n": 10**9, "values": {str(m): m for m in range(32)}}],
    ["reconstruct", "--function", {"n": 10**9, "values": {str(m): m for m in range(32)}}],
    ["build", "--net", {"n": 10**6, "weights": {"1,1->1,2": 1}}],
], ids=["check_n1e9", "reconstruct_n1e9", "build_n1e6"])
def test_cli_plucker_far_above_check_cap_exits_1_at_once(tmp_path, monkeypatch, argv):
    # io reads the keys without a 2^n int (70 ms each at n = 10^9), and
    # plucker refuses n before it builds the intervals, a table or the grid
    monkeypatch.setattr(plucker, "interval_masks", _refuse_to_build)
    monkeypatch.setattr(plucker, "grid_edges", _refuse_to_build)
    argv = ["plucker", argv[0], argv[1], write(tmp_path, "arg.json", argv[2])]
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 1
    assert (code, err, json.loads(out)["error"]["type"]) == (1, "", "TooLarge")


@pytest.mark.parametrize("name", sorted(_BAD_MATRIX_REQUESTS))
def test_cli_bad_matrix_requests_exit_2(tmp_path, name):
    _assert_schema_exit(tmp_path, _BAD_MATRIX_REQUESTS[name])


def test_cli_huge_exponent_cell_exits_2_at_once(tmp_path):
    # Fraction("1e1000000000000") would build a 10^12-digit integer; the
    # strict parser rejects the cell before any arithmetic
    argv = ["star", "--matrix", write(tmp_path, "m.json", _max_plus([["1e1000000000000"]]))]
    proc = subprocess.run(
        [sys.executable, "-m", "tropkit.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=_SRC), timeout=1,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("tropkit: ") and "Traceback" not in proc.stderr


def test_cli_int_cell_past_the_digit_limit_exits_2(tmp_path):
    # json.loads raises a plain ValueError past CPython's 4,300-digit int/str limit
    path = tmp_path / "m.json"
    path.write_text('{"semiring": "max-plus", "rows": 1, "cols": 1, "data": [[' + "7" * 5000 + "]]}")
    _assert_exit_2_in_process(["star", "--matrix", str(path)])


def test_cli_non_utf8_file_exits_2(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b"\xff\xfe{")
    _assert_exit_2_in_process(["star", "--matrix", str(path)])


def test_cli_file_nested_1000_deep_exits_2(tmp_path):
    # json.loads of Python 3.11 raises RecursionError at 1,000 levels in a
    # fresh interpreter; where it does not, the reader rejects the array
    path = tmp_path / "m.json"
    path.write_text("[" * 1000 + "]" * 1000)
    proc = subprocess.run(
        [sys.executable, "-m", "tropkit.cli", "star", "--matrix", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("tropkit: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("text", [
    b"\xff\xfe{",
    b"[[" + b"7" * 5000 + b"]]",
    b'{"semiring": ',
    b"[" * 100000 + b"]" * 100000,  # past the JSON decoder's recursion limit
    b'{"semiring": "max-plus", "data": [0], "semiring": "min-plus"}',  # json.loads keeps the last value
], ids=["not_utf8", "5000_digits", "malformed", "100000_deep", "repeated_name"])
def test_cli_load_errors_name_the_file(tmp_path, text):
    # of the two files a request reads, the message names the one that failed
    bad = tmp_path / "vector.json"
    bad.write_bytes(text)
    argv = ["project", "--module", os.path.join(_GOLDEN, "module.json"), "--vector", str(bad)]
    _assert_exit_2_in_process(argv)
    assert run_cli(argv)[2].startswith(f"tropkit: {bad}: ")


@pytest.mark.parametrize("argv, out", [
    (["star", "--matrix", "a_maxplus.json"], "missing/out.json"),
    (["star", "--matrix", "a_maxplus.json"], "."),
    # a NotSeparable body, exit 1 when written, has nowhere to go either
    (["separate", "--modules", "sep1.json", "sep1.json"], "missing/out.json"),
])
def test_cli_out_that_cannot_be_opened_exits_2(tmp_path, argv, out):
    argv = [os.path.join(_GOLDEN, a) if a.endswith(".json") else a for a in argv]
    _assert_exit_2_in_process(argv + ["--out", str(tmp_path / out)])
    assert [p.name for p in tmp_path.iterdir()] == []


def test_cli_q_past_the_digit_limit_exits_2(monkeypatch):
    # the real request, --steps 32000 on the priority crossing at rho = 1/2,
    # reaches such a q only after about 6 s
    q = Fraction(10**4399 + 1, 3)
    monkeypatch.setattr(dynamics, "fundamental_diagram", lambda build, densities, steps: [(densities[0], q)])
    _assert_exit_2_in_process(["traffic", "diagram", "--config", os.path.join(_GOLDEN, "road.json"),
                               "--densities", "1/2:1/2:1/10"])


def test_cli_json_answer_past_the_digit_limit_exits_2(tmp_path):
    # the max-times permanent of two 4,000-digit entries has 8,000 digits
    big = "9" * 4000
    path = tmp_path / "m.json"
    path.write_text(f'{{"semiring": "max-times", "rows": 2, "cols": 2, "data": [[{big}, 1], [1, {big}]]}}')
    _assert_exit_2_in_process(["invariants", "--matrix", str(path)])


def test_cli_internal_value_error_propagates(monkeypatch):
    # a plain ValueError from a library call is an internal fault, not bad
    # input: main lets it through instead of exiting 2
    def planted(build, densities, steps):
        raise ValueError("planted")

    monkeypatch.setattr(dynamics, "fundamental_diagram", planted)
    with pytest.raises(ValueError, match="planted"):
        run_cli(["traffic", "diagram", "--config", os.path.join(_GOLDEN, "road.json"), "--densities", "1/2:1/2:1/10"])


_TOO_LARGE_TRAFFIC_REQUESTS = {
    "tent_bins_1e12": ["tent", "--y0", "1/5", "--bins", str(10**12)],
    "tent_steps_1e12": ["tent", "--y0", "1/5", "--steps", str(10**12)],
    "diagram_steps_1e9": ["diagram", "--config", _ROAD, "--densities", "0:1:1/2", "--steps", str(10**9)],
    "diagram_density_step_1e-9": ["diagram", "--config", _ROAD, "--densities", f"0:1:1/{10**9}"],
    "diagram_road_m_1e9": ["diagram", "--config", {"kind": "single_road", "m": 10**9}, "--densities", "0:1:1/2"],
}


@pytest.mark.parametrize("name", sorted(_TOO_LARGE_TRAFFIC_REQUESTS))
def test_cli_traffic_above_work_cap_exits_1(tmp_path, name):
    # the cap is checked before any density list or histogram is built
    proc = _cli_subprocess(tmp_path, ["traffic"] + _TOO_LARGE_TRAFFIC_REQUESTS[name])
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout)["error"]["type"] == "TooLarge"


@pytest.mark.parametrize("empty_first", [True, False])
def test_cli_separate_with_a_generatorless_semimodule(tmp_path, empty_first):
    # the n x 0 module gets the halfspace {0} wherever it stands
    empty = {"semiring": "max-plus", "rows": 3, "cols": 0, "data": [[], [], []]}
    full = os.path.join(_GOLDEN, "sep1.json")
    proc = _cli_subprocess(tmp_path, ["separate", "--modules", *([empty, full] if empty_first else [full, empty])])
    assert (proc.returncode, proc.stderr) == (0, "")
    body = json.loads(proc.stdout)
    assert (body["radius"], body["support_set"]) == (BOT, [])
    assert body["halfspaces"][0 if empty_first else 1] == {"u": [BOT] * 3, "v": [0, 3, 4]}


# Each subcommand's tropkit modules: the CLI imports a subcommand's modules
# in its handler, so a request pays only for what it uses.
_CORE = ["tropkit", "tropkit.cli", "tropkit.errors", "tropkit.io", "tropkit.semiring", "tropkit.tropmat"]
_IMPORTS = {
    "star": (["star", "--matrix", "a_maxplus.json"], []),
    "interval": (["interval", "--matrix", "interval.json"], []),
    "schema_float": (["star", "--matrix", "a_float.json"], []),
    "schema_missing_file": (["star", "--matrix", "missing.json"], []),
    "eig": (["eig", "--matrix", "eig.json"], ["tropkit.spectral"]),
    "project": (
        ["project", "--module", "module.json", "--vector", "vector.json"],
        ["tropkit._cones", "tropkit.projector", "tropkit.spectral"],
    ),
    "separate": (
        ["separate", "--modules", "sep1.json", "sep2.json"],
        ["tropkit._cones", "tropkit.projector", "tropkit.spectral"],
    ),
    "twosided": (["twosided", "--A", "ts_a.json", "--B", "ts_b.json"], ["tropkit._cones", "tropkit.twosided"]),
    "invariants": (["invariants", "--matrix", "a_maxplus.json"], ["tropkit.determ"]),
    "plucker_check": (["plucker", "check", "--function", "tp.json"], ["tropkit.plucker"]),
    "plucker_build": (["plucker", "build", "--net", "net.json"], ["tropkit.plucker"]),
    "plucker_reconstruct": (["plucker", "reconstruct", "--function", "intervals.json"], ["tropkit.plucker"]),
    "assign": (["assign", "--matrix", "assign.json"], ["tropkit.assign", "tropkit.determ"]),
    "traffic_diagram": (
        ["traffic", "diagram", "--config", "road.json", "--densities", "1/10:1/2:1/5", "--steps", "20"],
        ["tropkit.dynamics"],
    ),
    "traffic_tent": (["traffic", "tent", "--y0", "3/101", "--steps", "20", "--bins", "4"], ["tropkit.dynamics"]),
}
# Each leaf action: its name words, its required options with golden
# inputs, and an option that only other actions take. Argparse owns the
# options, so a missing required option or another action's option exits 2.
_LEAVES = {
    "star": (["star"], [["--matrix", "a_maxplus.json"]], ["--function", "tp.json"]),
    "interval": (["interval"], [["--matrix", "interval.json"]], ["--module", "module.json"]),
    "eig": (["eig"], [["--matrix", "eig.json"]], ["--steps", "20"]),
    "project": (
        ["project"], [["--module", "module.json"], ["--vector", "vector.json"]], ["--matrix", "eig.json"],
    ),
    "separate": (["separate"], [["--modules", "sep1.json", "sep2.json"]], ["--A", "ts_a.json"]),
    "twosided": (["twosided"], [["--A", "ts_a.json"], ["--B", "ts_b.json"]], ["--modules", "sep1.json"]),
    "invariants": (["invariants"], [["--matrix", "a_maxplus.json"]], ["--y0", "1/5"]),
    "assign": (["assign"], [["--matrix", "assign.json"]], ["--format", "json"]),
    "plucker_check": (["plucker", "check"], [["--function", "tp.json"]], ["--net", "net.json"]),
    "plucker_build": (["plucker", "build"], [["--net", "net.json"]], ["--function", "tp.json"]),
    "plucker_reconstruct": (
        ["plucker", "reconstruct"], [["--function", "intervals.json"]], ["--net", "net.json"],
    ),
    "traffic_diagram": (
        ["traffic", "diagram"], [["--config", "road.json"], ["--densities", "1/10:1/2:1/5"]], ["--y0", "abc"],
    ),
    "traffic_tent": (["traffic", "tent"], [["--y0", "3/101"]], ["--config", "road.json"]),
}
# A request that argparse ends (help, a missing action or option, another
# action's option) exits before any handler runs: it loads no handler module.
for _name in ("plucker_check", "plucker_build", "plucker_reconstruct", "traffic_diagram", "traffic_tent"):
    _words, _, _other = _LEAVES[_name]
    _IMPORTS[f"{_name}_help"] = (_words + ["--help"], [])
    _IMPORTS[f"{_name}_missing_option"] = (_words, [])
    _IMPORTS[f"{_name}_other_option"] = (_IMPORTS[_name][0] + _other, [])
_IMPORTS["plucker_no_action"] = (["plucker"], [])
_IMPORTS["traffic_no_action"] = (["traffic"], [])
# exit status 0 except where named
_STATUS = {"schema_float": 2, "schema_missing_file": 2}
_STATUS.update(
    {name: 2 for name in _IMPORTS if name.endswith(("_missing_option", "_other_option", "_no_action"))}
)
_LOADED = (
    "import contextlib, io, sys\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    try:\n"
    "        {}\n"
    "        status = 0\n"
    "    except SystemExit as exc:\n"
    "        status = exc.code\n"
    "print(status, *sorted(m for m in sys.modules if m.startswith('tropkit') or m in ('dataclasses', 'inspect')))"
)


def _loaded_modules(statement, argv=()):
    """(exit status, tropkit modules loaded) of a statement run in a fresh
    interpreter; `dataclasses` and `inspect` are listed too when loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED.format(statement), *argv], cwd=_GOLDEN,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    status, *modules = proc.stdout.split()
    return int(status), modules


@pytest.mark.parametrize("name", sorted(_IMPORTS))
def test_cli_subcommand_loads_only_its_modules(name):
    argv, extra = _IMPORTS[name]
    got = _loaded_modules("from tropkit.cli import main; sys.exit(main(sys.argv[1:]))", argv)
    assert got == (_STATUS.get(name, 0), sorted(_CORE + extra))


def test_io_does_not_load_plucker():
    assert _loaded_modules("import tropkit.io") == (0, sorted(m for m in _CORE if m != "tropkit.cli"))


@pytest.mark.parametrize("module", sorted(
    f"tropkit.{f[:-3]}" for f in os.listdir(os.path.join(_SRC, "tropkit")) if f.endswith(".py") and f != "__init__.py"
))
def test_each_module_imports_on_its_own(module):
    # an import cycle fails on one side of it, in a fresh interpreter
    assert _loaded_modules(f"import {module}")[0] == 0


def _empty(semiring, rows, cols=0):
    return {"semiring": semiring, "rows": rows, "cols": cols, "data": [[]] * rows}


# 0 x 0 matrices, n x 0 generator matrices and zero-length vectors
_Z00, _Z30 = _empty("max-plus", 0), _empty("max-plus", 3)
_V0 = {"semiring": "max-plus", "data": []}
_SEP1 = os.path.join(_GOLDEN, "sep1.json")
_EMPTY_SHAPE_REQUESTS = {
    "star_0x0": ["star", "--matrix", _Z00],
    "star_3x0": ["star", "--matrix", _Z30],
    "interval_0x0": ["interval", "--matrix", {**_Z00, "lo": [], "hi": []}],
    "eig_0x0": ["eig", "--matrix", _Z00],
    "eig_3x0": ["eig", "--matrix", _Z30],
    "project_0x0": ["project", "--module", _Z00, "--vector", _V0],
    "project_3x0": ["project", "--module", _Z30, "--vector", {"semiring": "max-plus", "data": [0, 1, 2]}],
    "project_zero_length_vector": ["project", "--module", _SEP1, "--vector", _V0],
    "separate_0x0": ["separate", "--modules", _Z00],
    "separate_3x0": ["separate", "--modules", _Z30, _Z30],
    "separate_3x0_first": ["separate", "--modules", _Z30, _SEP1],
    "separate_3x0_last": ["separate", "--modules", _SEP1, _Z30],
    "twosided_0x0": ["twosided", "--A", _Z00, "--B", _Z00],
    "twosided_3x0": ["twosided", "--A", _Z30, "--B", _Z30],
    "assign_0x0": ["assign", "--matrix", _Z00],
    "assign_3x0": ["assign", "--matrix", _Z30],
    "invariants_3x0": ["invariants", "--matrix", _Z30],
    **{
        f"invariants_0x0_{s}": ["invariants", "--matrix", _empty(s, 0)]
        for s in ("max-plus", "min-plus", "max-times", "boolean")
    },
}


@pytest.mark.parametrize("name", sorted(_EMPTY_SHAPE_REQUESTS))
def test_cli_empty_shapes_never_leak_a_traceback(tmp_path, name):
    proc = _cli_subprocess(tmp_path, _EMPTY_SHAPE_REQUESTS[name])
    assert proc.returncode in (0, 1, 2)
    assert "Traceback" not in proc.stderr


def _argparse_exit(argv):
    """Run the CLI in the golden directory; argparse must end it with exit 2."""
    proc = subprocess.run(
        [sys.executable, "-m", "tropkit.cli", *argv], cwd=_GOLDEN,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", sorted(_LEAVES))
def test_cli_option_of_another_action_exits_2(name):
    # without the other option, each request is valid and exits 0
    words, required, other = _LEAVES[name]
    _argparse_exit(words + [a for option in required for a in option] + other)


@pytest.mark.parametrize("name, missing", [
    (name, k) for name, (_, required, _) in sorted(_LEAVES.items()) for k in range(len(required))
])
def test_cli_missing_required_option_exits_2(name, missing):
    words, required, _ = _LEAVES[name]
    _argparse_exit(words + [a for k, option in enumerate(required) if k != missing for a in option])


@pytest.mark.parametrize("name", sorted(_LEAVES))
def test_cli_unique_option_prefix_exits_2(tmp_path, name):
    # argparse's default takes a unique prefix for a whole option name;
    # the first option name longer than "--xy" loses its last letter
    words, required, _ = _LEAVES[name]
    argv = [a for option in required for a in option] + ["--out", str(tmp_path / "out")]
    k = next(k for k, a in enumerate(argv) if a.startswith("--") and len(a) > 4)
    argv[k] = argv[k][:-1]
    _argparse_exit(words + argv)


@pytest.mark.parametrize("argv", [
    [], ["plucker"], ["traffic"],
    # --out and every other option belong to the leaf: a group parser takes none
    ["plucker", "--out", "x.json", "check", "--function", "tp.json"],
    ["traffic", "--steps", "20", "tent", "--y0", "3/101"],
])
def test_cli_groups_need_an_action_and_take_no_options(argv):
    _argparse_exit(argv)


@pytest.mark.parametrize("call, error", [
    (lambda: tio.subset_function_from_json({"n": 2, "values": {"4": 0}}), tio.SchemaError),
    (lambda: tio.subset_function_from_json({"n": 9, "values": {}}), TooLarge),
    (lambda: tio.grid_net_from_json({"n": 9}), TooLarge),
    # plucker's own table rules: an edge off the grid, a subset left out
    (lambda: tio.grid_net_from_json({"n": 2, "weights": {"5,5->5,6": 1}}), tio.SchemaError),
    (lambda: tio.subset_function_from_json({"n": 1, "values": {"0b1": 1}}), tio.SchemaError),
    (lambda: tio.subset_values_from_json({"n": 1, "values": {"0b0": 0, "0": 5}}), tio.SchemaError),
    (lambda: tio.grid_net_from_json({"n": 2, "weights": {"1,1->1,2": 1, "01,1->1,2": 2}}), tio.SchemaError),
    (lambda: tio.loads('{"n": 1, "n": 2}'), tio.SchemaError),
    (lambda: tio.loads('[{"a": {"b": 1, "b": 1}}]'), tio.SchemaError),
    # a count is a JSON integer: neither a bool nor an integral float
    (lambda: tio.subset_function_from_json({"n": True, "values": {"0b0": 0, "0b1": 1}}), tio.SchemaError),
    (lambda: tio.subset_function_from_json({"n": 1.0, "values": {"0b0": 0}}), tio.SchemaError),
    (lambda: tio.subset_function_from_json({"n": 0, "values": {"0": 0}}), tio.SchemaError),
    (lambda: tio.grid_net_from_json({"n": True, "weights": {}}), tio.SchemaError),
    (lambda: tio.grid_net_from_json({"n": 2.0, "weights": {}}), tio.SchemaError),
    (lambda: tio.grid_net_from_json({"n": 0, "weights": {}}), tio.SchemaError),
    (lambda: tio.matrix_from_json({"semiring": "max-plus", "rows": 1.0, "cols": True, "data": [[0]]}),
     tio.SchemaError),
    (lambda: tio.matrix_from_json({"semiring": "max-plus", "rows": 1, "cols": True, "data": [[0]]}),
     tio.SchemaError),
    (lambda: tio.matrix_from_json({"semiring": "max-plus", "rows": 0, "cols": "x", "data": []}), tio.SchemaError),
    (lambda: tio.matrix_from_json({"semiring": "max-plus", "rows": 0, "cols": -1, "data": []}), tio.SchemaError),
], ids=["subset-key-range", "subset-cap", "net-cap", "net-off-grid-edge", "subset-not-total",
        "subset-given-twice", "edge-given-twice", "repeated-name", "nested-repeated-name",
        "subset-n-true", "subset-n-float", "subset-n-zero", "net-n-true", "net-n-float", "net-n-zero",
        "matrix-rows-float-cols-true", "matrix-cols-true", "matrix-cols-string", "matrix-cols-negative"])
def test_io_input_checks_raise(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
