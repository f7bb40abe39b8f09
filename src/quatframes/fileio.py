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

A file whose arrays and objects nest deeper than MAX_DEPTH is refused
before either decoder runs, with one ParseError whatever the caller's
stack: orjson 3.8 builds nested values by C recursion without a limit,
and json refuses at the interpreter's recursion limit less the stack
already in use.  orjson decodes a file unless it holds an integer literal
of 19 digits or more (orjson 3.8 reads one from 2^64 on, or below -2^63,
as a float); on other text it returns what json.loads returns or refuses
it, as it refuses a lone surrogate escape.  json.loads decodes the rest
and every text orjson refuses (NaN, Infinity, 1e400, a BOM, bytes that
are not UTF-8, malformed JSON), so the values read are json's and every
refusal of the text keeps json's wording, line and column.

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
import re
from array import array
from itertools import chain, takewhile
from operator import itemgetter
from typing import Any, NoReturn

import numpy as np
import orjson

from .errors import ParseError, ValidationError
from .generalizations import FusionFrame, PseudoFramePair, QuasiProjectorSystem
from .linalg import QMatrix, QVector, _conj4
from .operator_frames import OperatorFrame
from .quaternion import Quaternion
from .reporting import split_rows
from .vector_frames import VectorFrame

FRAME_KINDS = ("vector_frame", "operator_frame", "fusion", "pseudo", "quasi")

# the largest frame dim a file may declare and the largest `reconstruct
# --random` count: chi(S) of an n x n S takes 64 n^2 bytes, 1 GiB at 4096
MAX_DIM = 4096
# the deepest a file's arrays and objects may nest; frame files nest 6 deep
MAX_DEPTH = 64

_REAL = (int, float)

# digits (bytes 48-57) as "0", the decimal point (46) kept and any other
# byte a space: an integer literal of 19 digits or more, never a
# fraction's digits, is then a space and 19 zeros
_DIGIT_RUNS = (b" " * 46 + b". " + b"0" * 10).ljust(256)
_LONG_INTEGER = b" " + b"0" * 19
# a backslash and the byte it escapes
_ESCAPE = re.compile(rb"\\.", re.DOTALL)
# translating with these keeps only brackets, all as [ and ], and quotes
_ONE_BRACKET = bytes.maketrans(b"{}", b"[]")
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"')))


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


def _walk(data: Any, axes: tuple[str, ...], shape: tuple[int, ...], where: str) -> None:
    """Raise at the first entry of `data`, depth first, that is not an
    array of the declared length along `axes` or a quaternion."""
    if not axes:
        parse_quaternion(data, where)
        return
    if not isinstance(data, list):
        raise ParseError(f"{where}: expected an array")
    if len(data) != shape[0]:
        raise ValidationError(
            f"{where}: declared {axes[0]} {shape[0]} but has {len(data)} entries")
    for k, entry in enumerate(data):
        _walk(entry, axes[1:], shape[1:], f"{where}[{k}]")


def _refuse(entries: list, axes: tuple[str, ...], mismatch, at) -> NoReturn:
    """Raise the first error of the entries: fields, payload, dimensions."""
    for k, entry in enumerate(entries):
        where = at(k)
        shape = tuple([_as_count(_require(entry, axis, where), f"{where}.{axis}")
                       for axis in axes])
        _walk(_require(entry, "data", where), axes, shape, f"{where}.data")
        if mismatch and mismatch(shape):
            raise ValidationError(f"{where}: {mismatch(shape)}")
    raise ValidationError(f"{at(0)}: entries of different dimensions")


def _stack(entries: list, axes: tuple[str, ...], mismatch, at) -> tuple[np.ndarray, list[int]]:
    """All rows of a list of vectors (axes ("dim",)) or matrices (axes
    ("rows", "cols")) as one float64 array, and each entry's first count.
    `mismatch(shape)` is the message for a shape the frame refuses, else
    false.  Counts, payloads, rows, quaternions and leaves are each one
    pass of itemgetter or chain, with lengths checked as sets.  array("d")
    reads a leaf as float() does and refuses any non-number but a bool,
    which it reads as 0 or 1; so the leaves read as 0 or 1, or all when
    they are more than half, have their types checked.  Anything refused
    is walked by _refuse, entry k at `at(k)`."""
    try:
        counts = [list(map(itemgetter(axis), entries)) for axis in axes]
        data = list(map(itemgetter("data"), entries))
        rows = data if len(axes) == 1 else list(chain.from_iterable(data))
        quats = list(chain.from_iterable(rows))
        leaves = list(chain.from_iterable(quats))
        arr = np.frombuffer(array("d", leaves))
        hits = np.flatnonzero((arr == 0) | (arr == 1))
        suspects = (leaves if 2 * len(hits) > len(leaves)
                    else map(leaves.__getitem__, hits.tolist()))
        ok = (set(map(type, chain(*counts))) <= {int} and min(chain(*counts), default=1) >= 1
              and not (mismatch and any(map(mismatch, set(zip(*counts)))))
              and list(map(len, data)) == counts[0]
              and len(set(counts[-1])) <= 1 and set(map(len, rows)) <= set(counts[-1])
              and set(map(len, quats)) <= {4} and np.isfinite(arr).all()
              and all(map(_is_real_type, set(map(type, suspects)))))
    except (TypeError, KeyError, OverflowError):
        ok = False
    if not ok:
        _refuse(entries, axes, mismatch, at)
    return (arr.reshape(len(rows), -1, 4) if rows else arr), counts[0]


def parse_vector(obj: Any, where: str) -> QVector:
    return QVector(_stack([obj], ("dim",), None, lambda k: where)[0][0])


def parse_matrix(obj: Any, where: str) -> QMatrix:
    return QMatrix(_stack([obj], ("rows", "cols"), None, lambda k: where)[0])


def _list(obj: Any, axes: tuple[str, ...], mismatch, where: str,
          at=None) -> tuple[np.ndarray, list[int]]:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected an array")
    return _stack(obj, axes, mismatch, at or (lambda k: f"{where}[{k}]"))


def _vector_rows(obj: Any, dim: int, where: str, at=None) -> np.ndarray:
    """The m x n x 4 array whose rows are the listed vectors of H^n."""
    rows = _list(obj, ("dim",), lambda s: s != (dim,) and
                 f"dimension {s[0]} does not match frame dim {dim}", where, at)[0]
    # the reader gives an empty list shape (0,), which this makes 0 x n
    return rows.reshape(-1, dim, 4)


def _vectors(obj: Any, key: str, dim: int) -> QMatrix:
    """The n x m matrix whose columns are the vectors of H^n listed at key."""
    rows = _vector_rows(_require(obj, key, "frame"), dim, f"frame.{key}")
    return QMatrix(np.swapaxes(rows, 0, 1))


def _vector_sets(sets: list, dim: int, where: str) -> list[QMatrix]:
    """The n x m_i matrix of each listed set of vectors of H^n, all read as
    one list.  A refusal names the first bad entry, or set that is not a
    list, in reading order."""
    lists = list(takewhile(lambda s: isinstance(s, list), sets))
    widths = list(map(len, lists))
    starts = np.cumsum([0] + widths)

    def at(k: int) -> str:
        i = np.searchsorted(starts, k, side="right") - 1
        return f"{where}[{i}][{k - starts[i]}]"

    rows = _vector_rows(list(chain.from_iterable(lists)), dim, where, at)
    if len(lists) < len(sets):
        raise ParseError(f"{where}[{len(lists)}]: expected an array")
    stops = np.cumsum(widths, dtype=int)
    return [QMatrix(np.swapaxes(rows[stop - m:stop], 0, 1)) for m, stop in zip(widths, stops)]


def _held(count: int, dim: int) -> None:
    if not count:
        raise ValidationError(
            f"frame.dim: the file holds no vector or matrix to fix dim {dim}")


def parse_frame(obj: Any):
    """Dispatch a parsed frame file on its kind.

    Returns (kind, frame) where frame is the matching library object.
    A file that declares a dim above MAX_DIM is refused before any payload
    is read, and one that holds no vector or matrix before its frame is
    built: nothing in it fixes the declared dim.
    """
    kind = _require(obj, "kind", "frame")
    if kind not in FRAME_KINDS:
        raise ParseError(
            f"frame.kind: unknown kind {kind!r}; expected one of {', '.join(FRAME_KINDS)}")
    dim = _as_count(_require(obj, "dim", "frame"), "frame.dim")
    if dim > MAX_DIM:
        raise ValidationError(f"frame.dim: must be <= {MAX_DIM}")

    if kind == "vector_frame":
        rows = _vector_rows(_require(obj, "members", "frame"), dim, "frame.members")
        _held(len(rows), dim)
        # A's rows are the <u_i|, the members conjugated
        frame = VectorFrame.from_analysis(QMatrix(_conj4(rows)), [1] * len(rows))

    elif kind == "operator_frame":
        data, dims = _list(_require(obj, "members", "frame"), ("rows", "cols"),
                           lambda s: s[1] != dim and f"domain dimension {s[1]} "
                           f"does not match frame dim {dim}", "frame.members")
        _held(len(dims), dim)
        frame = OperatorFrame.from_analysis(QMatrix(data), dims)

    elif kind == "fusion":
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
        spans = _vector_sets(subs_raw, dim, "frame.subspaces")
        _held(sum(s.cols for s in spans), dim)
        frame = FusionFrame(dim, spans, weights)

    elif kind == "pseudo":
        analyzers = _vectors(obj, "analyzers", dim)
        synthesizers = _vectors(obj, "synthesizers", dim)
        if analyzers.cols != synthesizers.cols:
            raise ValidationError(
                f"frame: {analyzers.cols} analyzers for "
                f"{synthesizers.cols} synthesizers")
        subspace = _vectors(obj, "subspace", dim)
        _held(analyzers.cols + subspace.cols, dim)
        frame = PseudoFramePair(dim, analyzers, synthesizers, subspace)

    else:
        data, dims = _list(_require(obj, "projectors", "frame"), ("rows", "cols"),
                           lambda s: s != (dim, dim) and
                           f"shape {s[0]}x{s[1]} is not {dim}x{dim}", "frame.projectors")
        _held(len(dims), dim)
        frame = QuasiProjectorSystem(dim, map(QMatrix, split_rows(data, dims)))

    return kind, frame


def _depth(raw: bytes) -> int:
    """How deep the arrays and objects of raw nest, read off its brackets
    outside strings: with each escape pair dropped, every other quote
    opens a string."""
    if b"\\" in raw:
        raw = _ESCAPE.sub(b"", raw)
    brackets = raw.translate(_ONE_BRACKET, _NOT_STRUCTURE)
    outside = np.frombuffer(b"".join(brackets.split(b'"')[::2]), dtype=np.uint8)
    # [ is byte 91 and ] is 93
    return int(np.cumsum(92 - outside.astype(np.int64)).max(initial=0))


def _orjson_reads(raw: bytes) -> bool:
    """Whether orjson may decode raw, nested at most MAX_DEPTH deep, as the
    module docstring says."""
    return _LONG_INTEGER not in (b" " + raw).translate(_DIGIT_RUNS)


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _decode(raw: bytes, path: str) -> Any:
    """The JSON value of raw, the bytes of the file at path."""
    if _depth(raw) > MAX_DEPTH:
        raise ParseError(f"{path}: arrays and objects nest deeper than {MAX_DEPTH} levels")
    if _orjson_reads(raw):
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    try:
        return json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        # bytes that are not UTF-8 or an integer literal beyond Python's
        # digit limit
        raise ParseError(f"{path}: {exc}") from exc


def _load_json(path: str) -> Any:
    return _decode(_read(path), path)


def load_frame(path: str):
    """Read and parse a frame file, opening it once; returns (kind, frame,
    digest), digest being the sha256 hex digest of the bytes decoded."""
    raw = _read(path)
    kind, frame = parse_frame(_decode(raw, path))
    return kind, frame, hashlib.sha256(raw).hexdigest()


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
        "members": [{"dim": f.space_dim, "data": row}
                    for row in _conj4(f.analysis_matrix().data)],
    }


def operator_frame_obj(f: OperatorFrame) -> dict:
    dims = f.codomain_dims
    return {
        "kind": "operator_frame",
        "dim": f.space_dim,
        "members": [{"rows": d, "cols": f.space_dim, "data": block}
                    for d, block in zip(dims, split_rows(f.analysis_matrix().data, dims))],
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


def write_document(path: str, obj: Any) -> str:
    """Write obj as dumps12 text and a newline; returns the sha256 hex
    digest of the bytes written, which file_digest would read back."""
    raw = (dumps12(obj) + "\n").encode()
    with open(path, "wb") as handle:
        handle.write(raw)
    return hashlib.sha256(raw).hexdigest()


def file_digest(path: str) -> str:
    return hashlib.sha256(_read(path)).hexdigest()
