"""Count the lines of Python source that hold code.

    python tests/code_lines.py [paths ...]

A line holds code when a token other than a comment, a line break or an
indent sits on it, and that token is not part of a docstring (the string
that opens a module, a class or a function body). Blank lines, comment
lines and docstring lines do not count; a line holding code and a trailing
comment counts once. Each path is a `.py` file or a directory searched for
them, `src/tropkit` when none is given; the script prints one count per file
and the total. Uses only the standard library; the module name keeps pytest
from collecting it, and it is not part of tier-1.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers covered by every docstring of a module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """The number of lines of the Python text source that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv):
    paths = [Path(a) for a in argv] or [ROOT / "src" / "tropkit"]
    files = [f for p in paths for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]
    total = 0
    for f in files:
        n = count(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {f.relative_to(ROOT) if f.is_relative_to(ROOT) else f}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
