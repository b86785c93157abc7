"""Rules on the source text, one test each.

Each rule walks the syntax trees of the `.py` files under its directories,
and every file is parsed once for all of them. A failing rule lists one
`path:line` entry per violation, with paths relative to the repository root.
"""

import argparse
import ast
import functools
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from tropkit.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]


def _files(*dirs):
    """The `.py` files under dirs, relative to the root."""
    return [p.relative_to(ROOT) for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


@functools.cache
def _tree(path):
    return ast.parse((ROOT / path).read_text(encoding="utf-8"))


def _found(dirs, rejects):
    """`path:line` of every node under dirs that rejects(node) is true for."""
    return [f"{p}:{node.lineno}" for p in _files(*dirs) for node in ast.walk(_tree(p)) if rejects(node)]


def test_no_assert_statements_in_src():
    found = _found(("src",), lambda node: isinstance(node, ast.Assert))
    assert not found, "\n".join(found)


def test_no_float_literals_or_float_calls_in_src_and_demos():
    found = _found(("src", "demos"), lambda node: (
        isinstance(node, ast.Constant) and type(node.value) in (float, complex)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"))
    assert not found, "\n".join(found)


def test_only_integer_valued_math_functions_in_src():
    # math.sqrt, math.inf and the like are floats; these six return ints
    allowed = {"gcd", "lcm", "isqrt", "comb", "perm", "factorial"}
    found = []
    for p in _files("src"):
        aliases = {a.asname or a.name for n in ast.walk(_tree(p)) if isinstance(n, ast.Import)
                   for a in n.names if a.name == "math"}
        for node in ast.walk(_tree(p)):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                names = [node.attr]
            else:
                continue
            found += [f"{p}:{node.lineno}: math.{name}" for name in names if name not in allowed]
    assert not found, "\n".join(found)


def _imports_dataclasses(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "dataclasses" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "dataclasses"
    return isinstance(node, ast.Call) and any(
        isinstance(a, ast.Constant) and a.value == "dataclasses" for a in node.args)


def test_no_dataclasses_import_in_src():
    # records are built by semiring._record: importing dataclasses (and the
    # inspect it loads) would cost every CLI request several milliseconds
    found = _found(("src",), _imports_dataclasses)
    assert not found, "\n".join(found)


def _is_object_new(node):
    return (isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "object")


def test_trusted_records_built_only_by_semiring_record():
    # `_record` writes the one trusted constructor of every record class;
    # `object.__new__` anywhere else is a hand-written second one
    record = next(node for node in _tree(Path("src/tropkit/semiring.py")).body
                  if isinstance(node, ast.FunctionDef) and node.name == "_record")
    allowed = {id(node) for node in ast.walk(record)}
    found = _found(("src",), lambda node: _is_object_new(node) and id(node) not in allowed)
    assert not found, "\n".join(found)


def _names_check_cap(node):
    return (isinstance(node, ast.Name) and node.id == "CHECK_CAP"
            or isinstance(node, ast.Attribute) and node.attr == "CHECK_CAP"
            or isinstance(node, ast.alias) and node.name == "CHECK_CAP")


def test_only_plucker_check_cap_compares_with_check_cap():
    # plucker owns the 2^n table rule: one helper compares n with the cap,
    # and io and the CLI leave it to plucker's constructors
    plucker = Path("src/tropkit/plucker.py")
    helper = next(node for node in _tree(plucker).body
                  if isinstance(node, ast.FunctionDef) and node.name == "_check_cap")
    allowed = {id(node) for node in ast.walk(helper)}
    found = [f"{p}:{node.lineno}" for p in _files("src") if p != plucker
             for node in ast.walk(_tree(p)) if _names_check_cap(node)]
    found += [f"{plucker}:{node.lineno}" for node in ast.walk(_tree(plucker)) if isinstance(node, ast.Compare)
              and id(node) not in allowed and any(map(_names_check_cap, ast.walk(node)))]
    assert not found, "\n".join(found)


def test_no_true_division_in_src():
    # `/` on two ints is a float; exact quotients are built as Fractions
    found = _found(("src",), lambda node: isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
    assert not found, "\n".join(found)


def _is_fold(node):
    if not isinstance(node, ast.Call) or len(node.args) < 2:
        return False
    f, it = node.func, node.args[1]
    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    return name == "reduce" and isinstance(it, ast.Call) and getattr(it.func, "id", None) == "map"


def test_sums_of_products_only_through_payload_ops_dot():
    # a kernel sums products with its tag's `dot` law; the fold
    # reduce(add, map(mul, ...)) may be written only in semiring.py
    found = [f"{p}:{node.lineno}" for p in _files("src") if p.name != "semiring.py"
             for node in ast.walk(_tree(p)) if _is_fold(node)]
    assert not found, "\n".join(found)


def test_no_unused_top_level_imports_in_src_tests_and_demos():
    found = []
    for p in _files("src", "tests", "demos"):
        tree = _tree(p)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = {e.value for n in tree.body if isinstance(n, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)
                    for e in ast.walk(n.value) if isinstance(e, ast.Constant)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and name not in exported:
                        found.append(f"{p}:{node.lineno}: {name} is imported and never used")
    assert not found, "\n".join(found)


def test_every_benchmark_record_names_its_side():
    found = []
    for p in sorted(ROOT.glob("BENCH_*.jsonl")):
        for n, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
            try:
                record = json.loads(line)
            except ValueError as exc:
                found.append(f"{p.name}:{n}: not JSON ({exc})")
                continue
            if not isinstance(record, dict) or record.get("side") not in ("parent", "change"):
                found.append(f"{p.name}:{n}: \"side\" is not \"parent\" or \"change\"")
    assert not found, "\n".join(found)


def _walk_parsers(parser, words):
    yield parser, words
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _walk_parsers(child, words + [name])


def test_every_command_and_action_answers_help_and_takes_whole_option_names_only():
    found = []
    for parser, words in _walk_parsers(build_parser(), []):
        if parser.allow_abbrev:
            found.append(f"tropkit {' '.join(words)}: allow_abbrev is on")
        argv = [*words, "--help"]
        out, err = StringIO(), StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                main(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
        if code != 0 or not out.getvalue().startswith("usage:"):
            found.append(f"tropkit {' '.join(argv)}: exit {code}\n{err.getvalue()}")
    assert not found, "\n".join(found)
