"""Exact JSON/CSV serialization for every object kind the CLI touches.

Rationals cross the file boundary as "p/q" strings (plain integers stay
numbers), the bottoms of max-plus and min-plus as "-inf" / "+inf", subset
functions as binary-literal masks. Parsing is strict: malformed payloads
raise SchemaError, which the CLI maps to exit code 2. Subset functions and
flow nets above the plucker CHECK_CAP raise TooLarge (exit code 1) before
any table over their ground set is built.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Union

from .errors import TooLarge
from .plucker import CHECK_CAP, GridFlowNet, SubsetFunction, grid_edges, grid_net, subset_function
from .semiring import BOOLEAN, MAX_PLUS, Payload, SemiringTag, TropScalar, payload_of
from .tropmat import IntervalMatrix, TropMatrix, TropVector, interval_matrix


class SchemaError(ValueError):
    """Input does not match the documented file schema."""


_TAGS = {t.value: t for t in SemiringTag}


def tag_from_name(name: str) -> SemiringTag:
    if name not in _TAGS:
        raise SchemaError(f"unknown semiring {name!r}")
    return _TAGS[name]


def fraction_to_json(x: Fraction) -> Union[int, str]:
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fraction_from_json(v) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise SchemaError(f"exact rational required, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational {v!r}") from exc
    raise SchemaError(f"bad rational {v!r}")


def _payload_to_json(v: Payload, tag: SemiringTag) -> Union[int, str, bool]:
    if tag is BOOLEAN:
        return bool(v)
    if v is None:
        return "-inf" if tag is MAX_PLUS else "+inf"
    return fraction_to_json(v)


def _payload_from_json(v, tag: SemiringTag) -> Payload:
    if tag is BOOLEAN:
        if isinstance(v, bool):
            return v
        raise SchemaError(f"boolean entry required, got {v!r}")
    if v in ("-inf", "+inf"):
        try:
            return payload_of(v, tag)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    return payload_of(fraction_from_json(v), tag)


def scalar_to_json(s: TropScalar) -> Union[int, str, bool]:
    return _payload_to_json(s.value, s.tag)


def scalar_from_json(v, tag: SemiringTag) -> TropScalar:
    return TropScalar._fast(_payload_from_json(v, tag), tag)


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
    if not isinstance(data, list) or len(data) != rows:
        raise SchemaError("matrix data does not match the declared row count")
    for row in data:
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError("matrix data does not match the declared column count")
    return TropMatrix._trusted(
        tuple(tuple(_payload_from_json(v, tag) for v in row) for row in data), tag
    )


def vector_to_json(x: TropVector) -> Dict:
    return {"semiring": x.tag.value, "data": [_payload_to_json(v, x.tag) for v in x.payload]}


def vector_from_json(obj) -> TropVector:
    if not isinstance(obj, dict) or "data" not in obj or "semiring" not in obj:
        raise SchemaError("vector payload needs 'semiring' and 'data'")
    tag = tag_from_name(obj["semiring"])
    if not isinstance(obj["data"], list) or not obj["data"]:
        raise SchemaError("vector data must be a nonempty list")
    return TropVector._trusted(tuple(_payload_from_json(v, tag) for v in obj["data"]), tag)


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


def matrix_from_csv(text: str, tag: SemiringTag) -> TropMatrix:
    rows = []
    for line in text.strip().splitlines():
        cells = [c.strip() for c in line.split(",")]
        row = []
        for c in cells:
            if c in ("-inf", "+inf"):
                row.append(_payload_from_json(c, tag))
            else:
                row.append(_payload_from_json(c if "/" in c else int(c), tag))
        rows.append(tuple(row))
    widths = {len(r) for r in rows}
    if not rows or len(widths) != 1:
        raise SchemaError("CSV matrix must be rectangular and nonempty")
    return TropMatrix._trusted(tuple(rows), tag)


def subset_function_to_json(f: SubsetFunction) -> Dict:
    values = {}
    for mask, v in enumerate(f.table):
        values[bin(mask)] = "-inf" if v is None else fraction_to_json(v)
    return {"n": f.n, "values": values}


def _mask_from_key(key: str, n: int) -> int:
    try:
        mask = int(key, 0) if isinstance(key, str) else int(key)
    except ValueError as exc:
        raise SchemaError(f"bad subset key {key!r}") from exc
    if not 0 <= mask < (1 << n):
        raise SchemaError(f"subset key {key!r} outside the power set of n={n}")
    return mask


def subset_function_from_json(obj, partial: bool = False) -> Union[SubsetFunction, Dict[int, Fraction]]:
    """Full subset function, or the raw mask mapping when partial=True."""
    if not isinstance(obj, dict) or "n" not in obj or "values" not in obj:
        raise SchemaError("subset function payload needs 'n' and 'values'")
    n = obj["n"]
    if not isinstance(n, int) or n < 1:
        raise SchemaError("ground-set size must be a positive integer")
    if not isinstance(obj["values"], dict):
        raise SchemaError("subset function values must be an object")
    if n > CHECK_CAP:
        raise TooLarge(f"subset functions capped at n <= {CHECK_CAP}")
    mapping: Dict[int, Optional[Fraction]] = {}
    for key, v in obj["values"].items():
        mask = _mask_from_key(key, n)
        mapping[mask] = None if v == "-inf" else fraction_from_json(v)
    if partial:
        return mapping
    try:
        return subset_function(n, mapping)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def grid_net_to_json(net: GridFlowNet) -> Dict:
    weights = {}
    for (a, b), w in net.edge_weights:
        weights[f"{a[0]},{a[1]}->{b[0]},{b[1]}"] = fraction_to_json(w)
    return {"n": net.n, "weights": weights}


def grid_net_from_json(obj) -> GridFlowNet:
    if not isinstance(obj, dict) or "n" not in obj:
        raise SchemaError("flow net payload needs 'n'")
    n = obj["n"]
    if not isinstance(n, int) or n < 1:
        raise SchemaError("grid size must be a positive integer")
    given = obj.get("weights", {})
    if not isinstance(given, dict):
        raise SchemaError("flow net weights must be an object")
    if n > CHECK_CAP:
        raise TooLarge(f"flow nets capped at n <= {CHECK_CAP}")
    weights = {}
    for key, v in given.items():
        try:
            src, dst = key.split("->")
            a = tuple(int(t) for t in src.split(","))
            b = tuple(int(t) for t in dst.split(","))
        except ValueError as exc:
            raise SchemaError(f"bad edge key {key!r}") from exc
        weights[(a, b)] = fraction_from_json(v)
    try:
        return grid_net(n, weights)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def dumps(obj) -> str:
    """Canonical deterministic JSON rendering."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc
