"""The CLI exit-code contract under mutated input files, in-process.

Each `test_golden.py` CLI case is replayed with 1-3 JSON nodes of its
fixture files replaced, deleted or duplicated, at fixed seeds, through
`cli.main` with stdout and stderr captured. For every request the contract
must hold: the exit code is 0, 1 or 2 and no exception escapes `main`; an
exit-1 body is JSON; exit-2 stderr starts with "tropkit: ". Every fourth
request is sent twice and must give the same bytes both times. A SIGALRM
guard turns a request that runs past its budget into a failure instead of
a hang.
"""

import copy
import json
import random
import signal
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from test_golden import CLI_CASES, GOLDEN

from tropkit.cli import main

REQUESTS_PER_CASE = 32  # 25 cases: 800 requests, 200 of them sent twice
REQUEST_SECONDS = 10
# inserted values: containers, null, floats, bools, huge ints, strings that are
# almost numbers (an exponent, non-ASCII digits) and the spellings the readers accept
VALUES = [
    [], {}, None, 0.5, 1e3, True, False, 0, -1, 2, 7, 10**20, -(10**20), "1e3", "٣", "７",
    "1/2", "-3/4", "1/0", "-inf", "+inf", "inf", "", "abc", "max-plus", "min-plus", "boolean",
    [[0]], [[0, 1], [2]], [None], {"a": 1}, [1, 2, 3],
]


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
        path = tmp_path / f"{n}_{argv[i]}"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out[i] = str(path)
    return out


def _timeout(signum, frame):
    raise TimeoutError(f"a request ran past {REQUEST_SECONDS} s")


def _run(argv):
    out, err = StringIO(), StringIO()
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(REQUEST_SECONDS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except BaseException as exc:  # the contract: nothing escapes main
        pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


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
