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


def _as_real(value: Any, where: str) -> float:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, _REAL):
        raise ParseError(f"{where}: expected a number")
    # json.loads accepts NaN and Infinity, which no frame can hold
    if not math.isfinite(value):
        raise ParseError(f"{where}: expected a finite number, got {value}")
    return float(value)


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


def parse_vector(obj: Any, where: str) -> QVector:
    dim = _as_count(_require(obj, "dim", where), f"{where}.dim")
    data = _require(obj, "data", where)
    if not isinstance(data, list):
        raise ParseError(f"{where}.data: expected an array")
    if len(data) != dim:
        raise ValidationError(
            f"{where}: declared dim {dim} but data has {len(data)} entries")
    entries = [parse_quaternion(c, f"{where}.data[{k}]")
               for k, c in enumerate(data)]
    return QVector.from_quaternions(entries)


def parse_matrix(obj: Any, where: str) -> QMatrix:
    rows = _as_count(_require(obj, "rows", where), f"{where}.rows")
    cols = _as_count(_require(obj, "cols", where), f"{where}.cols")
    data = _require(obj, "data", where)
    if not isinstance(data, list):
        raise ParseError(f"{where}.data: expected an array")
    if len(data) != rows:
        raise ValidationError(
            f"{where}: declared rows {rows} but data has {len(data)} rows")
    grid = []
    for r, row in enumerate(data):
        if not isinstance(row, list):
            raise ParseError(f"{where}.data[{r}]: expected an array")
        if len(row) != cols:
            raise ValidationError(
                f"{where}.data[{r}]: declared cols {cols} but row has {len(row)}")
        grid.append([parse_quaternion(c, f"{where}.data[{r}][{k}]")
                     for k, c in enumerate(row)])
    return QMatrix.from_quaternions(grid)


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


def _loads(text: str, where: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{where}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_frame(path: str):
    """Read and parse a frame file; returns (kind, frame)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_frame(_loads(text, path))


def load_vector(path: str) -> QVector:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_vector(_loads(text, path), "vector")


# ====== serialization ======

def quaternion_obj(q: Quaternion) -> list[float]:
    return [q.r0, q.r1, q.r2, q.r3]


def vector_obj(v: QVector) -> dict:
    return {"dim": v.dim, "data": [list(map(float, row)) for row in v.data]}


def matrix_obj(m: QMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "data": [[list(map(float, entry)) for entry in row] for row in m.data],
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

def _format_real(x: float) -> str:
    if x == 0.0:
        return "0"  # avoid the "-0" spelling
    return f"{x:.12g}"


def _scalar(value: Any) -> str | None:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_real(value)
    if isinstance(value, str):
        return json.dumps(value)
    return None


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
    if isinstance(value, (list, tuple)):
        if not value:
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
