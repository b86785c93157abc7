"""Exact JSON/CSV serialization for every object kind the CLI touches.

Rationals cross the file boundary as "p/q" strings (plain integers stay
numbers), the bottoms of max-plus and min-plus as "-inf" / "+inf", subset
functions as binary-literal masks, and flow-net edges as "i,j->k,l" keys.
Every matrix, vector and CSV cell and every subset-function value is read
on its own by `payload_of`, whose errors become SchemaError, so the first
bad cell raises its own SchemaError. A boolean file takes only true and
false, and a CSV cell, stripped of spaces, is the JSON value it spells or
else a string. Parsing is strict:
malformed payloads, JSON null, floats, strings other than "p" or "p/q" in
ASCII digits and the file's own bottom, a "semiring" value that is not a
known name (whatever its JSON type), counts ("rows", "cols", "n") that are
not JSON integers (true and 1.0 included), mask keys other than a binary,
octal, hex or decimal literal in ASCII digits (no "_", sign or spaces), and
edge keys other than four ASCII-digit coordinates, two keys that name one
subset or one edge, and a JSON object that repeats a name raise
SchemaError, which the CLI maps to exit code 2. Subset functions and flow
nets are only parsed here: `plucker` checks its own table rules, refusing
a ground set above its cap with TooLarge (exit code 1) before any table
over it is built, and a subset function that misses a subset or a weight
on an edge off the grid with SchemaError. The subset-function and flow-net
decoders import `plucker` when they run, so the matrix codecs never load
it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Dict, List, Tuple, Union

from .errors import SchemaError
from .semiring import (
    BOOLEAN,
    MAX_PLUS,
    Payload,
    SemiringTag,
    TropScalar,
    _rational,
    payload_of,
)
from .tropmat import IntervalMatrix, TropMatrix, TropVector, interval_matrix


_TAGS = {t.value: t for t in SemiringTag}


def tag_from_name(name) -> SemiringTag:
    """The tag of a semiring name; any other value, of any type, raises SchemaError."""
    tag = _TAGS.get(name) if isinstance(name, str) else None
    if tag is None:
        raise SchemaError(f"unknown semiring {name!r}")
    return tag


def fraction_to_json(x: Union[int, Fraction]) -> Union[int, str]:
    if x.denominator == 1:
        return int(x)
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:  # past the int/str digit limit
        raise SchemaError(str(exc)) from exc


def fraction_from_json(v) -> Payload:
    """The canonical payload of a JSON rational: an int or a "p/q" string."""
    try:
        return _rational(v)
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc


def _payload_to_json(v: Payload, tag: SemiringTag) -> Union[int, str, bool]:
    if tag is BOOLEAN:
        return bool(v)
    if v is None:
        return "-inf" if tag is MAX_PLUS else "+inf"
    return fraction_to_json(v)


def _payload_from_json(v, tag: SemiringTag) -> Payload:
    if v is None or tag is BOOLEAN and type(v) is not bool:
        raise SchemaError(f"{tag.value} entry required, got {json.dumps(v)}")
    try:
        return payload_of(v, tag)
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc


def _row_from_json(row: list, tag: SemiringTag) -> Tuple[Payload, ...]:
    """A file row's payloads, cell by cell, so the first bad cell raises its own SchemaError."""
    return tuple([_payload_from_json(v, tag) for v in row])


def scalar_to_json(s: TropScalar) -> Union[int, str, bool]:
    return _payload_to_json(s.value, s.tag)


def _rows_to_json(m: TropMatrix) -> List[list]:
    return [[_payload_to_json(v, m.tag) for v in row] for row in m.payload]


def matrix_to_json(m: TropMatrix) -> Dict:
    return {"semiring": m.tag.value, "rows": m.rows, "cols": m.cols, "data": _rows_to_json(m)}


def matrix_from_json(obj) -> TropMatrix:
    if not isinstance(obj, dict):
        raise SchemaError("matrix payload must be an object")
    try:
        tag = tag_from_name(obj["semiring"])
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise SchemaError(f"matrix payload missing key {exc}") from exc
    if not all(type(k) is int and k >= 0 for k in (rows, cols)):
        raise SchemaError("matrix rows and cols must be integers >= 0")
    if not isinstance(data, list) or len(data) != rows:
        raise SchemaError("matrix data does not match the declared row count")
    for row in data:
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError("matrix data does not match the declared column count")
    return TropMatrix._trusted(tuple([_row_from_json(row, tag) for row in data]), tag)


def vector_to_json(x: TropVector) -> Dict:
    return {"semiring": x.tag.value, "data": [_payload_to_json(v, x.tag) for v in x.payload]}


def vector_from_json(obj) -> TropVector:
    if not isinstance(obj, dict) or "data" not in obj or "semiring" not in obj:
        raise SchemaError("vector payload needs 'semiring' and 'data'")
    tag = tag_from_name(obj["semiring"])
    if not isinstance(obj["data"], list) or not obj["data"]:
        raise SchemaError("vector data must be a nonempty list")
    return TropVector._trusted(_row_from_json(obj["data"], tag), tag)


def interval_matrix_to_json(m: IntervalMatrix) -> Dict:
    return {
        "semiring": m.tag.value,
        "rows": m.rows,
        "cols": m.cols,
        "lo": _rows_to_json(m.lo),
        "hi": _rows_to_json(m.hi),
    }


def interval_matrix_from_json(obj) -> IntervalMatrix:
    if not isinstance(obj, dict):
        raise SchemaError("interval matrix payload must be an object")
    for key in ("semiring", "rows", "cols", "lo", "hi"):
        if key not in obj:
            raise SchemaError(f"interval matrix payload missing {key!r}")
    lo = matrix_from_json({**obj, "data": obj["lo"]})
    hi = matrix_from_json({**obj, "data": obj["hi"]})
    try:
        return interval_matrix(lo, hi)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def matrix_to_csv(m: TropMatrix) -> str:
    return "\n".join(",".join(map(str, row)) for row in _rows_to_json(m)) + "\n"


# JSON's integer grammar; `int` alone would also take "+5", "007", "1_0" and non-ASCII digits
_JSON_INT = re.compile(r"-?(?:0|[1-9][0-9]*)")


def _cell_from_csv(c: str):
    """The JSON value a CSV cell stands for (bools as Python writes them), else
    the string. A cell in JSON's integer grammar is read by `int` without a
    JSON parse; an int past the interpreter's digit limit stays the string,
    as `json.loads` leaves it."""
    try:
        if _JSON_INT.fullmatch(c):
            return int(c)
        return json.loads(c.lower() if c in ("True", "False") else c)
    except ValueError:
        return c


def matrix_from_csv(text: str, tag: SemiringTag) -> TropMatrix:
    rows = [
        _row_from_json([_cell_from_csv(c.strip()) for c in line.split(",")], tag)
        for line in text.strip().splitlines()
    ]
    widths = {len(r) for r in rows}
    if not rows or len(widths) != 1:
        raise SchemaError("CSV matrix must be rectangular and nonempty")
    return TropMatrix._trusted(tuple(rows), tag)


def subset_function_to_json(f: "SubsetFunction") -> Dict:
    values = {}
    for mask, v in enumerate(f.table):
        values[bin(mask)] = "-inf" if v is None else fraction_to_json(v)
    return {"n": f.n, "values": values}


# int(key, 0)'s forms in ASCII digits, without "_" separators or spaces
_MASK_KEY = re.compile(r"0[bB][01]+|0[oO][0-7]+|0[xX][0-9a-fA-F]+|0|[1-9][0-9]*")
_EDGE_KEY = re.compile(r"([0-9]+),([0-9]+)->([0-9]+),([0-9]+)")


def _key_int(text: str, base: int) -> int:
    """int(text, base) of a key's digits, which its pattern has checked."""
    try:
        return int(text, base)
    except ValueError as exc:  # past the int/str digit limit
        raise SchemaError(f"bad key: {exc}") from exc


def _mask_from_key(key: str, n: int) -> int:
    if not isinstance(key, str) or _MASK_KEY.fullmatch(key) is None:
        raise SchemaError(f"bad subset key {key!r}")
    mask = _key_int(key, 0)
    if mask >> n:  # a shift, so a huge n builds no 2^n
        raise SchemaError(f"subset key {key!r} outside the power set of n={n}")
    return mask


def subset_values_from_json(obj) -> Tuple[int, Dict[int, Payload]]:
    """(n, {mask: value}) of a subset-function file, as given: whether the
    values cover every subset, or the intervals, is for `plucker` to check."""
    if not isinstance(obj, dict) or "n" not in obj or "values" not in obj:
        raise SchemaError("subset function payload needs 'n' and 'values'")
    n = obj["n"]
    if type(n) is not int or n < 1:  # a bool is no count
        raise SchemaError("ground-set size must be a positive integer")
    if not isinstance(obj["values"], dict):
        raise SchemaError("subset function values must be an object")
    mapping: Dict[int, Payload] = {}
    for key, v in obj["values"].items():
        mask = _mask_from_key(key, n)
        if mask in mapping:
            raise SchemaError(f"subset key {key!r} names a subset given before")
        mapping[mask] = _payload_from_json(v, MAX_PLUS)
    return n, mapping


def subset_function_from_json(obj) -> "SubsetFunction":
    """The subset function of a file, built by `plucker.subset_function`."""
    from .plucker import subset_function

    return subset_function(*subset_values_from_json(obj))


def grid_net_to_json(net: "GridFlowNet") -> Dict:
    weights = {}
    for (a, b), w in net.edge_weights:
        weights[f"{a[0]},{a[1]}->{b[0]},{b[1]}"] = fraction_to_json(w)
    return {"n": net.n, "weights": weights}


def grid_net_from_json(obj) -> "GridFlowNet":
    from .plucker import grid_net

    if not isinstance(obj, dict) or "n" not in obj:
        raise SchemaError("flow net payload needs 'n'")
    n = obj["n"]
    if type(n) is not int or n < 1:  # a bool is no count
        raise SchemaError("grid size must be a positive integer")
    given = obj.get("weights", {})
    if not isinstance(given, dict):
        raise SchemaError("flow net weights must be an object")
    weights = {}
    for key, v in given.items():
        m = _EDGE_KEY.fullmatch(key)
        if m is None:
            raise SchemaError(f"bad edge key {key!r}")
        i, j, k, l = [_key_int(c, 10) for c in m.groups()]
        edge = (i, j), (k, l)
        if edge in weights:
            raise SchemaError(f"edge key {key!r} names an edge given before")
        weights[edge] = fraction_from_json(v)
    return grid_net(n, weights)


def dumps(obj) -> str:
    """Canonical deterministic JSON rendering; an int past the int/str digit
    limit raises SchemaError."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _object(pairs: List[tuple]) -> Dict:
    """The dict of a JSON object's (name, value) pairs; a repeated name
    raises SchemaError, where `json.loads` alone keeps its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise SchemaError("a JSON object repeats a name")
    return obj


def loads(text: str):
    try:
        return json.loads(text, object_pairs_hook=_object)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc
