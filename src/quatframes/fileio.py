"""JSON file formats and the deterministic writer used by the CLI.

A quaternion is always the 4-array [r0, r1, r2, r3].  Vectors are
{"dim": n, "data": [4-array, ...]} and matrices are {"rows": m,
"cols": n, "data": [[4-array, ...], ...]} in row-major order.  A frame
file is a tagged union on its "kind" field:

  {"kind": "vector_frame",   "dim": n, "members": [vector, ...]}
  {"kind": "operator_frame", "dim": n, "members": [matrix, ...]}
  {"kind": "fusion",  "dim": n, "weights": [...], "subspaces": [[vector, ...], ...]}
  {"kind": "pseudo",  "dim": n, "analyzers": [...], "synthesizers": [...], "subspace": [...]}
  {"kind": "quasi",   "dim": n, "projectors": [matrix, ...]}

Structural problems (wrong JSON, wrong types, missing fields) raise
ParseError; declared dimensions that disagree with the payload raise
ValidationError.  Both carry a field path so the offending entry can be
located in large files.

All numbers are written back with 12 significant digits in a fixed key
order so that identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np

from .errors import ParseError, ValidationError
from .generalizations import FusionFrame, PseudoFramePair, QuasiProjectorSystem
from .linalg import QMatrix, QVector
from .operator_frames import OperatorFrame
from .quaternion import Quaternion
from .vector_frames import VectorFrame

FRAME_KINDS = ("vector_frame", "operator_frame", "fusion", "pseudo", "quasi")

_REAL = (int, float)


# ====== parsing ======

def _require(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in obj:
        raise ParseError(f"{where}: missing field '{key}'")
    return obj[key]


def _is_real_type(t: type) -> bool:
    # bool is an int subclass; reject it explicitly
    return issubclass(t, _REAL) and not issubclass(t, bool)


def _as_real(value: Any, where: str) -> float:
    if not _is_real_type(type(value)):
        raise ParseError(f"{where}: expected a number")
    try:
        real = float(value)
    except OverflowError:
        raise ParseError(f"{where}: expected a finite number, got an "
                         "integer too large for a float") from None
    # json.loads accepts NaN and Infinity, which no frame can hold
    if not math.isfinite(real):
        raise ParseError(f"{where}: expected a finite number, got {value}")
    return real


def _as_count(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer")
    if value < 1:
        raise ValidationError(f"{where}: must be >= 1")
    return value


def parse_quaternion(obj: Any, where: str) -> Quaternion:
    if not isinstance(obj, list) or len(obj) != 4:
        raise ParseError(f"{where}: a quaternion is a 4-array [r0, r1, r2, r3]")
    return Quaternion(*(_as_real(c, f"{where}[{k}]") for k, c in enumerate(obj)))


def _finite_array(data: list, shape: tuple[int, ...]) -> np.ndarray | None:
    """`data` as a float64 array when it has `shape` and only finite
    values, else None.  numpy also reads True, None and "1.5" as floats,
    so the caller still checks the type of every leaf."""
    try:
        arr = np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.shape != shape or not np.isfinite(arr).all():
        return None
    return arr


def _all_real(types: set[type]) -> bool:
    return all(map(_is_real_type, types))


def parse_vector(obj: Any, where: str) -> QVector:
    dim = _as_count(_require(obj, "dim", where), f"{where}.dim")
    data = _require(obj, "data", where)
    if not isinstance(data, list):
        raise ParseError(f"{where}.data: expected an array")
    if len(data) != dim:
        raise ValidationError(
            f"{where}: declared dim {dim} but data has {len(data)} entries")
    arr = _finite_array(data, (dim, 4))
    if arr is None or not _all_real({type(c) for q in data for c in q}):
        # the walk raises on the first entry the array checks refused
        for k, c in enumerate(data):
            parse_quaternion(c, f"{where}.data[{k}]")
    return QVector(arr)


def parse_matrix(obj: Any, where: str) -> QMatrix:
    rows = _as_count(_require(obj, "rows", where), f"{where}.rows")
    cols = _as_count(_require(obj, "cols", where), f"{where}.cols")
    data = _require(obj, "data", where)
    if not isinstance(data, list):
        raise ParseError(f"{where}.data: expected an array")
    if len(data) != rows:
        raise ValidationError(
            f"{where}: declared rows {rows} but data has {len(data)} rows")
    arr = _finite_array(data, (rows, cols, 4))
    if arr is None or not _all_real(
            {type(c) for row in data for q in row for c in q}):
        # the walk raises on the first row or entry the array checks refused
        for r, row in enumerate(data):
            if not isinstance(row, list):
                raise ParseError(f"{where}.data[{r}]: expected an array")
            if len(row) != cols:
                raise ValidationError(
                    f"{where}.data[{r}]: declared cols {cols} but row has {len(row)}")
            for k, c in enumerate(row):
                parse_quaternion(c, f"{where}.data[{r}][{k}]")
    return QMatrix(arr)


def _vector_list(obj: Any, dim: int, where: str) -> list[QVector]:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected an array")
    out = []
    for k, entry in enumerate(obj):
        v = parse_vector(entry, f"{where}[{k}]")
        if v.dim != dim:
            raise ValidationError(
                f"{where}[{k}]: dimension {v.dim} does not match frame dim {dim}")
        out.append(v)
    return out


def parse_frame(obj: Any):
    """Dispatch a parsed frame file on its kind.

    Returns (kind, frame) where frame is the matching library object.
    """
    kind = _require(obj, "kind", "frame")
    if kind not in FRAME_KINDS:
        raise ParseError(
            f"frame.kind: unknown kind {kind!r}; expected one of {', '.join(FRAME_KINDS)}")
    dim = _as_count(_require(obj, "dim", "frame"), "frame.dim")

    if kind == "vector_frame":
        members = _vector_list(_require(obj, "members", "frame"), dim,
                               "frame.members")
        return kind, VectorFrame(dim, members)

    if kind == "operator_frame":
        raw = _require(obj, "members", "frame")
        if not isinstance(raw, list):
            raise ParseError("frame.members: expected an array")
        members = []
        for k, entry in enumerate(raw):
            m = parse_matrix(entry, f"frame.members[{k}]")
            if m.cols != dim:
                raise ValidationError(
                    f"frame.members[{k}]: domain dimension {m.cols} "
                    f"does not match frame dim {dim}")
            members.append(m)
        return kind, OperatorFrame(dim, members)

    if kind == "fusion":
        weights_raw = _require(obj, "weights", "frame")
        if not isinstance(weights_raw, list):
            raise ParseError("frame.weights: expected an array")
        weights = [_as_real(w, f"frame.weights[{k}]")
                   for k, w in enumerate(weights_raw)]
        subs_raw = _require(obj, "subspaces", "frame")
        if not isinstance(subs_raw, list):
            raise ParseError("frame.subspaces: expected an array")
        if len(weights) != len(subs_raw):
            raise ValidationError(
                f"frame: {len(weights)} weights for {len(subs_raw)} subspaces")
        subspaces = [_vector_list(s, dim, f"frame.subspaces[{k}]")
                     for k, s in enumerate(subs_raw)]
        return kind, FusionFrame(dim, subspaces, weights)

    if kind == "pseudo":
        analyzers = _vector_list(_require(obj, "analyzers", "frame"), dim,
                                 "frame.analyzers")
        synthesizers = _vector_list(_require(obj, "synthesizers", "frame"), dim,
                                    "frame.synthesizers")
        if len(analyzers) != len(synthesizers):
            raise ValidationError(
                f"frame: {len(analyzers)} analyzers for "
                f"{len(synthesizers)} synthesizers")
        subspace = _vector_list(_require(obj, "subspace", "frame"), dim,
                                "frame.subspace")
        return kind, PseudoFramePair(dim, analyzers, synthesizers, subspace)

    raw = _require(obj, "projectors", "frame")
    if not isinstance(raw, list):
        raise ParseError("frame.projectors: expected an array")
    projectors = []
    for k, entry in enumerate(raw):
        m = parse_matrix(entry, f"frame.projectors[{k}]")
        if m.rows != dim or m.cols != dim:
            raise ValidationError(
                f"frame.projectors[{k}]: shape {m.rows}x{m.cols} "
                f"is not {dim}x{dim}")
        projectors.append(m)
    return kind, QuasiProjectorSystem(dim, projectors)


def _load_json(path: str) -> Any:
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, arrays nested deeper than the decoder's
        # recursion limit, or an integer literal beyond Python's digit limit
        raise ParseError(f"{path}: {exc}") from exc


def load_frame(path: str):
    """Read and parse a frame file; returns (kind, frame)."""
    return parse_frame(_load_json(path))


def load_vector(path: str) -> QVector:
    return parse_vector(_load_json(path), "vector")


# ====== serialization ======

def vector_obj(v: QVector) -> dict:
    return {"dim": v.dim, "data": v.data}


def matrix_obj(m: QMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "data": m.data,
    }


def vector_frame_obj(f: VectorFrame) -> dict:
    return {
        "kind": "vector_frame",
        "dim": f.space_dim,
        "members": [vector_obj(v) for v in f.members],
    }


def operator_frame_obj(f: OperatorFrame) -> dict:
    return {
        "kind": "operator_frame",
        "dim": f.space_dim,
        "members": [matrix_obj(m) for m in f.members],
    }


# ====== deterministic 12-digit JSON ======

def _scalar(value: Any) -> str | None:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # adding 0.0 turns -0.0 into 0.0, so zero is always spelled "0";
        # _array_text spells payload numbers the same way
        return "%.12g" % (value + 0.0)
    if isinstance(value, str):
        return json.dumps(value)
    return None


def _array_text(a: np.ndarray, pad: str) -> str:
    """A rank-1 or rank-2 float array laid out as the list walk lays out
    its .tolist(), from one "%.12g" template: a row inline, rows one per
    line."""
    text = "[" + ", ".join(["%.12g"] * a.shape[-1]) + "]"
    if a.ndim == 2:
        if not len(a):
            return "[]"
        text = "[\n" + ",\n".join([pad + "  " + text] * len(a)) + "\n" + pad + "]"
    return text % tuple((a + 0.0).ravel().tolist())


def _emit(value: Any, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    scalar = _scalar(value)
    if scalar is not None:
        out.append(scalar)
        return
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, entry) in enumerate(value.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _emit(entry, indent + 1, out)
            out.append(",\n" if k + 1 < len(value) else "\n")
        out.append(pad + "}")
        return
    if isinstance(value, np.ndarray) and value.ndim in (1, 2):
        out.append(_array_text(value, pad))
        return
    if isinstance(value, (list, tuple, np.ndarray)):
        if not len(value):
            out.append("[]")
            return
        parts = [_scalar(entry) for entry in value]
        if all(p is not None for p in parts):
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[\n")
        for k, entry in enumerate(value):
            out.append(pad + "  ")
            _emit(entry, indent + 1, out)
            out.append(",\n" if k + 1 < len(value) else "\n")
        out.append(pad + "]")
        return
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps12(obj: Any) -> str:
    """Fixed-layout JSON: insertion-order keys, 12 significant digits,
    scalar-only arrays inline, everything else one entry per line."""
    out: list[str] = []
    _emit(obj, 0, out)
    return "".join(out)


def write_document(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps12(obj) + "\n")


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()
