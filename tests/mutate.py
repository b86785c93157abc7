"""Mutation check: does the test suite notice a small fault in one function?

    python tests/mutate.py tropmat._least_residual [more ...]

Each target is `module.function` (or `module.Class.method`) in
`src/tropkit`. The script makes every mutant of four kinds inside that
function, on its syntax tree:

- flip a comparison: `<` and `>`, `<=` and `>=`, `==` and `!=`, `is` and
  `is not`, `in` and `not in` trade places;
- swap `min` and `max`;
- drop a None test: `x is None` (or `== None`, `None in x`) becomes False
  and its negation True, as if the value were never None;
- shift an integer constant by one, up and down.

Each mutant is written into a temporary copy of `src/`, and the tests mapped
to the module (see `tests_for`) run on it with `pytest -x`. A mutant is
killed when they fail or run past TIMEOUT seconds, and survives when they
pass.
The unmutated copy must pass them first. Uses only the standard library;
the module name keeps pytest from collecting it, and it is not part of
tier-1.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "tropkit"
TIMEOUT = 300  # seconds per test run; a mutant that hangs the tests counts as killed

_FLIPS = {
    ast.Lt: ast.Gt, ast.Gt: ast.Lt, ast.LtE: ast.GtE, ast.GtE: ast.LtE,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_SWAPS = {"min": "max", "max": "min"}


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _none_test(node):
    """True or False for what dropping a None test puts in place of node, or None."""
    if not isinstance(node, ast.Compare) or len(node.ops) != 1:
        return None
    op, right = node.ops[0], node.comparators[0]
    if isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) and (_is_none(node.left) or _is_none(right)):
        return isinstance(op, (ast.IsNot, ast.NotEq))
    if isinstance(op, (ast.In, ast.NotIn)) and _is_none(node.left):
        return isinstance(op, ast.NotIn)
    return None


def _sites(function):
    """(node, kind, detail) of every mutation in a function, in source order."""
    out = []
    for node in ast.walk(function):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in _FLIPS:
                    out.append((node, "flip", k))
            if _none_test(node) is not None:
                out.append((node, "drop-none", None))
        elif isinstance(node, ast.Name) and node.id in _SWAPS:
            out.append((node, "swap", None))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((node, "shift", 1))
            out.append((node, "shift", -1))
    return sorted(out, key=lambda site: (site[0].lineno, site[0].col_offset))


def _function(tree, path):
    """The definition at a dotted path (function or Class.method) in a module tree."""
    body = tree.body
    for name in path:
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name), None)
        if node is None:
            raise SystemExit(f"no definition {'.'.join(path)}")
        body = node.body
    return node


class _Apply(ast.NodeTransformer):
    """Apply the mutation at one site, found by identity in the tree."""

    def __init__(self, site):
        self.target, self.kind, self.detail = site
        self.described = ""

    def visit(self, node):
        node = self.generic_visit(node)
        if node is not self.target:
            return node
        before = ast.unparse(node)
        if self.kind == "flip":
            node.ops[self.detail] = _FLIPS[type(node.ops[self.detail])]()
        elif self.kind == "drop-none":
            node = ast.copy_location(ast.Constant(_none_test(node)), node)
        elif self.kind == "swap":
            node.id = _SWAPS[node.id]
        else:
            node.value += self.detail
        self.described = f"{self.target.lineno}:{self.target.col_offset}: {before} -> {ast.unparse(node)}"
        return node


def mutants(module, path):
    """(description, source) of every mutant of one function of a module."""
    source = (ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    count = len(_sites(_function(ast.parse(source), path)))
    for k in range(count):
        tree = ast.parse(source)  # a fresh tree per mutant
        site = _sites(_function(tree, path))[k]
        apply = _Apply(site)
        tree = ast.fix_missing_locations(apply.visit(tree))
        yield f"{site[1]} {apply.described}", ast.unparse(tree) + "\n"


def tests_for(module):
    """The test files mapped to a module: its own, `test_<module>*.py` (so
    `test_io_cli.py` for `io`), then the laws and the record contract."""
    names = [p.name for p in sorted((ROOT / "tests").glob(f"test_{module}*.py"))] + ["test_laws.py", "test_records.py"]
    return [str(Path("tests") / n) for n in dict.fromkeys(names) if (ROOT / "tests" / n).exists()]


def _run(copy, tests):
    """True when the tests pass on the package copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", help="module.function, e.g. tropmat._closure")
    args = parser.parse_args(argv)
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="tropkit-mutate-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        for target in args.targets:
            module, *path = target.split(".")
            tests = tests_for(module)
            original = (ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
            found = list(mutants(module, path))
            print(f"{target}: {len(found)} mutants; tests {' '.join(tests)}", flush=True)
            if not _run(copy, tests):
                raise SystemExit(f"{target}: the tests fail on the unmutated copy")
            try:
                for description, source in found:
                    (copy / PACKAGE / f"{module}.py").write_text(source, encoding="utf-8")
                    killed = not _run(copy, tests)
                    survivors += not killed
                    print(f"  {'killed  ' if killed else 'SURVIVED'} {description}", flush=True)
            finally:
                (copy / PACKAGE / f"{module}.py").write_text(original, encoding="utf-8")
    print(f"{survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
