"""The CSV matrix reader that parses every cell as JSON: the test oracle for
`tropkit.io.matrix_from_csv`, which reads a cell in JSON's integer grammar
with `int` instead. The tests require equal payloads, or the same exception
type and text."""

from __future__ import annotations

import json

from tropkit.io import SchemaError, _row_from_json
from tropkit.semiring import SemiringTag
from tropkit.tropmat import TropMatrix


def cell_from_csv_oracle(c: str):
    """The JSON value a CSV cell stands for (bools as Python writes them), else the string."""
    try:
        return json.loads(c.lower() if c in ("True", "False") else c)
    except ValueError:
        return c


def matrix_from_csv_oracle(text: str, tag: SemiringTag) -> TropMatrix:
    rows = [
        _row_from_json([cell_from_csv_oracle(c.strip()) for c in line.split(",")], tag)
        for line in text.strip().splitlines()
    ]
    if not rows or len({len(r) for r in rows}) != 1:
        raise SchemaError("CSV matrix must be rectangular and nonempty")
    return TropMatrix._trusted(tuple(rows), tag)
