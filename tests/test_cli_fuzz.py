"""The CLI exit-code contract under mutated input files and options, in-process.

Each `test_golden.py` CLI case is replayed with 1-3 JSON nodes of its
fixture files replaced (by values that include arrays nested thousands
deep), deleted or duplicated (one file in 16 is then saved
as UTF-16, whose bytes are not UTF-8), and each `traffic` case with
1-3 of its option values replaced, options deleted or options of either
`traffic` action added, at fixed seeds, through `cli.main` with stdout and
stderr captured. For every request the contract must hold: the exit code is
0, 1 or 2 and no other exception escapes `main`; an exit-1 body is JSON;
exit-2 stderr starts with "tropkit: ". argparse rejects a bad option before
any handler runs, by its own exit 2 with a "usage: " diagnostic; that is the
one `SystemExit` `_run` accepts, and only the option fuzzer accepts its
"usage: " stderr. Every fourth request is sent twice and must give
the same bytes both times. A SIGALRM guard turns a request that runs past
its budget into a failure instead of a hang.
"""

import copy
import json
import random
import signal
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from test_golden import CLI_CASES, GOLDEN

from tropkit import cli
from tropkit.cli import main

REQUESTS_PER_CASE = 32  # 25 cases: 800 requests, 200 of them sent twice
OPTION_REQUESTS_PER_CASE = 75  # 4 traffic cases: 300 requests, 76 of them sent twice
REQUEST_SECONDS = 10
# ints of 4,000-5,000 digits, around CPython's 4,300-digit int/str limit:
# json.dumps cannot write one past it, so each is inserted as its placeholder
# string and spelled out in the file text
HUGE_INTS = {"<4000 digits>": "9" * 4000, "<-4400 digits>": "-" + "1" * 4400, "<5000 digits>": "5" * 5000}
# values nested 5,000 and 100,000 arrays deep, past the JSON decoder's
# recursion limit at any stack depth (a fresh Python 3.11 fails from 1,000
# levels); json.dumps cannot write them either, so they are spelled out the
# same way
DEEP = {f"<{k} levels>": "[" * k + "0" + "]" * k for k in (5000, 100000)}
# inserted values: containers, null, floats, bools, huge ints, strings that are
# almost numbers (an exponent, non-ASCII digits) and the spellings the readers accept
VALUES = [
    [], {}, None, 0.5, 1e3, True, False, 0, -1, 2, 7, 10**20, -(10**20), *HUGE_INTS, *DEEP, "1e3", "٣", "７",
    "1/2", "-3/4", "1/0", "-inf", "+inf", "inf", "", "abc", "max-plus", "min-plus", "boolean",
    [[0]], [[0, 1], [2]], [None], {"a": 1}, [1, 2, 3],
]
# option values: accepted spellings, bad ones, values at and beside the lower
# bounds and the work cap, and almost-numbers
OPTION_VALUES = {
    "--densities": [
        "1/10:1/2:1/5", "0:1:1/4", "1/2:1/10:1/10", "0:0:1", "1:1:1", "0:1:0", "0:1:-1/2",
        "-1:2:1/2", "0:1:1/1000000", "1/10:1/2", "::", "a:b:c", "1/0:1:1", "0.1:0.5:0.1", "٣:٤:١", "",
    ],
    "--steps": ["0", "1", "2", "-1", "60", "300", "1000", "10000000", str(10**20), "1e3", "2.5", "abc", "", "٣"],
    "--bins": ["0", "1", "8", "-3", "1000", "10000000", str(10**20), "abc", "", "1.5"],
    "--y0": ["3/101", "0", "1", "1/2", "2", "-1/3", "1/0", "abc", "", "0.5", "1e3", "1/1000003", "+inf", "-inf"],
    "--format": ["csv", "json", "xml", "", "JSON"],
}
# --steps values in 10^4-10^5 for the cases whose runs repeat early, so stay
# cheap; the crossings are left out, as some of their runs never repeat
LONG_STEPS = ["10000", "31623", "100000"]
LONG_STEPS_CASES = ("traffic_diagram", "traffic_tent")


def _paths(node, path=()):
    """Every path into a JSON tree, the root included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _mutate(rng, doc):
    """doc with one node replaced, deleted or duplicated."""
    path = rng.choice(list(_paths(doc)))
    if not path:
        return copy.deepcopy(rng.choice(VALUES))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, op = path[-1], rng.choice(("replace", "replace", "delete", "duplicate"))
    if op == "replace":
        parent[key] = copy.deepcopy(rng.choice(VALUES))
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[f"{key}_copy"] = copy.deepcopy(parent[key])
    return doc


def _request(rng, argv, tmp_path, n):
    """argv with its fixture files replaced by mutated copies under tmp_path."""
    files = [i for i, arg in enumerate(argv) if arg.endswith(".json")]
    docs = {i: json.loads((GOLDEN / argv[i]).read_text(encoding="utf-8")) for i in files}
    for _ in range(rng.randint(1, 3)):
        i = rng.choice(files)
        docs[i] = _mutate(rng, docs[i])
    out = list(argv)
    for i, doc in docs.items():
        text = json.dumps(doc)
        for placeholder, spelled in {**HUGE_INTS, **DEEP}.items():
            text = text.replace(json.dumps(placeholder), spelled)
        path = tmp_path / f"{n}_{argv[i]}"
        path.write_bytes(text.encode("utf-16" if rng.randrange(16) == 0 else "utf-8"))
        out[i] = str(path)
    return out


def _timeout(signum, frame):
    # pytest.fail raises a BaseException: main, which maps ValueError and
    # OSError (TimeoutError among them) to exit 2, cannot turn it into an exit code
    pytest.fail(f"a request ran past {REQUEST_SECONDS} s")


def _run(argv):
    out, err = StringIO(), StringIO()
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, REQUEST_SECONDS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # only argparse's own rejection of a bad option
        if exc.code != 2 or not err.getvalue().startswith("usage: "):
            pytest.fail(f"{argv}: SystemExit({exc.code!r}) escaped main")
        code = exc.code
    except BaseException as exc:  # the contract: nothing else escapes main
        pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM for the hang guard")
def test_hang_guard_fails_a_request_that_runs_past_its_budget(monkeypatch, tmp_path):
    # a slow request must fail the fuzzer, not exit 2 through main's mapping
    monkeypatch.setitem(globals(), "REQUEST_SECONDS", 0.2)
    monkeypatch.setattr(cli, "_read", lambda path: time.sleep(5))
    with pytest.raises(pytest.fail.Exception, match="ran past 0.2 s"):
        _run(["star", "--matrix", str(tmp_path / "m.json")])


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM for the hang guard")
@pytest.mark.parametrize("name", sorted(name for name, argv in CLI_CASES.items() if any(
    arg.endswith(".json") for arg in argv)))
def test_cli_contract_holds_for_mutated_fixtures(name, tmp_path):
    rng = random.Random(f"cli-fuzz-{name}")
    codes = set()
    for n in range(REQUESTS_PER_CASE):
        argv = _request(rng, CLI_CASES[name], tmp_path, n)
        code, out, err = _run(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            json.loads(out)
        if code == 2:
            assert err.startswith("tropkit: "), (argv, err)
        if n % 4 == 0:
            assert _run(argv) == (code, out, err), argv
        codes.add(code)
    assert codes - {0}, name  # the mutations reach the error paths


def _option_request(rng, argv, values):
    """A traffic argv with 1-3 option values replaced, options deleted or
    options of either traffic action added, the values drawn from `values`;
    its config file is the fixture."""
    pairs = [argv[i:i + 2] for i in range(2, len(argv), 2)]
    pairs = [[option, str(GOLDEN / value) if option == "--config" else value] for option, value in pairs]
    for _ in range(rng.randint(1, 3)):
        mutable = [pair for pair in pairs if pair[0] in values]
        op = rng.choice(("replace", "replace", "replace", "delete", "add"))
        if op == "replace" and mutable:
            pair = rng.choice(mutable)
            pair[1] = rng.choice(values[pair[0]])
        elif op == "delete" and pairs:
            pairs.pop(rng.randrange(len(pairs)))
        else:
            option = rng.choice(sorted(values))
            pairs.insert(rng.randint(0, len(pairs)), [option, rng.choice(values[option])])
    return argv[:2] + [word for pair in pairs for word in pair]


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM for the hang guard")
@pytest.mark.parametrize("name", sorted(name for name in CLI_CASES if CLI_CASES[name][0] == "traffic"))
def test_cli_contract_holds_for_mutated_traffic_options(name):
    rng = random.Random(f"cli-option-fuzz-{name}")
    values = OPTION_VALUES
    if name in LONG_STEPS_CASES:
        values = {**OPTION_VALUES, "--steps": OPTION_VALUES["--steps"] + LONG_STEPS}
    codes = set()
    for n in range(OPTION_REQUESTS_PER_CASE):
        argv = _option_request(rng, CLI_CASES[name], values)
        code, out, err = _run(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            json.loads(out)
        if code == 2:
            assert err.startswith(("tropkit: ", "usage: ")), (argv, err)
        if n % 4 == 0:
            assert _run(argv) == (code, out, err), argv
        codes.add(code)
    assert codes >= {0, 2}, (name, codes)  # the mutations reach both the runs and the rejections
