"""Shared fixture constructions for the test suite.

The recurring families here are small enough to check by hand: the
doubled-first-vector variant of an orthonormal basis (frame operator
diag(2, 1, ..., 1), bounds 1 and 2), the coordinate functionals (Parseval),
and the coordinate projectors (a resolution of the identity).
"""

import json
import re

import numpy as np
from hypothesis import strategies as st

from quatframes.linalg import QMatrix, QVector
from quatframes.operator_frames import OperatorFrame
from quatframes.vector_frames import VectorFrame

ACCEPT_SEED = 20260814

# one line per acceptance criterion, echoed after the run because
# pytest's capture also swallows writes to the underlying descriptor
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# text to splice into a frame file where a number stands: integer literals
# that orjson 3.8 reads as floats (from 2^64 on, or below -2^63) and those
# next to that range, and text that json reads and orjson refuses
LONG_INTEGERS = st.one_of(
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1,
                     10**18, 10**30, -10**30]),
    st.integers(2**63, 10**30), st.integers(-10**30, -2**63))
DEEP = "[" * 1100 + "0" + "]" * 1100
# a string holding every kind of escape, and an escaped quote ahead of an
# array nested 65 deep, which read as the end of the string would hide
# the depth
ESCAPES = '"\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9\\ud83d\\ude00"'
ESCAPED_DEEP = '["\\"", ' + "[" * 64 + "0" + "]" * 65
SPLICES = st.one_of(LONG_INTEGERS.map(str), st.sampled_from(
    ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", '"\\ud800"', DEEP, ESCAPES,
     ESCAPED_DEEP]))
# bytes that are not UTF-8: a stray byte, an overlong NUL, an encoded
# surrogate, a lone continuation byte
NOT_UTF8 = [b"\xff", b"\xc0\x80", b"\xed\xa0\x80", b"\x80"]
# bytes to flip or insert: any, and those of JSON's own syntax
BYTES = st.one_of(st.integers(0, 255), st.sampled_from(b'0123456789-.e[]{}",: '))
NUMBER = re.compile(rb"-?\d+(\.\d+)?([eE][-+]?\d+)?")
MUTATIONS = ["none", "flip", "insert", "truncate", "splice", "duplicate first",
             "duplicate last", "bom", "not utf-8"]


def mutated(raw, mutation, index, byte, splice):
    """The text of a frame file damaged at one place: the byte at `index`
    (modulo the length) flipped to `byte` or `byte` inserted there, the
    text cut there, the index-th number (a count or a leaf) replaced by
    `splice`, a second "dim" key from 0 to 3 before or after the first, a
    BOM, or bytes that are not UTF-8 inserted."""
    at = index % len(raw)
    if mutation == "flip":
        return raw[:at] + bytes([byte]) + raw[at + 1:]
    if mutation == "insert":
        return raw[:at] + bytes([byte]) + raw[at:]
    if mutation == "truncate":
        return raw[:at]
    if mutation == "splice":
        numbers = list(NUMBER.finditer(raw))
        number = numbers[index % len(numbers)]
        return raw[:number.start()] + splice.encode() + raw[number.end():]
    dim = str(index % 4).encode()
    if mutation == "duplicate first":
        return b'{"dim": ' + dim + b", " + raw[1:]
    if mutation == "duplicate last":
        return raw[:-1] + b', "dim": ' + dim + b"}"
    if mutation == "bom":
        return b"\xef\xbb\xbf" + raw
    if mutation == "not utf-8":
        return raw[:at] + NOT_UTF8[index % len(NOT_UTF8)] + raw[at:]
    return raw


def json_doc(obj):
    """A written document as json.loads reads it back: the writer's
    float64 payload arrays become nested lists of floats."""
    return json.loads(json.dumps(obj, default=np.ndarray.tolist))


def standard_basis(dim):
    return [QVector.basis(dim, k) for k in range(dim)]


def shifted_basis_vectors(dim):
    """z1, z1, z2, ..., z_dim: an orthonormal basis of H^dim with the
    first vector repeated, giving dim + 1 members with bounds (1, 2)."""
    basis = standard_basis(dim)
    return [basis[0]] + basis


def shifted_basis_vector_frame(dim):
    return VectorFrame(dim, shifted_basis_vectors(dim))


def analysis_row(v):
    """The 1 x n operator u -> <v|u>, i.e. the row of conjugated entries."""
    data = v.data.copy()[None, :, :]
    data[..., 1:] = -data[..., 1:]
    return QMatrix(data)


def row_functional_frame(space_dim, vectors):
    """Operator frame whose members are the rank-one analysis maps
    u -> <v|u>, one per vector."""
    return OperatorFrame(space_dim, [analysis_row(v) for v in vectors])


def coordinate_functional_frame(dim):
    """Members u -> <z_i|u> for the standard basis; Parseval."""
    return row_functional_frame(dim, standard_basis(dim))


def shifted_basis_operator_frame(dim):
    """Members u -> <u_i|u> for the shifted basis; bounds (1, 2)."""
    return row_functional_frame(dim, shifted_basis_vectors(dim))


def random_qvector(gen, dim, scale=1.0):
    return QVector(gen.standard_normal((dim, 4)) * scale)


def random_unit_qvector(gen, dim):
    data = gen.standard_normal((dim, 4))
    return QVector(data / np.linalg.norm(data))


def random_qmatrix(gen, rows, cols, scale=1.0):
    return QMatrix(gen.standard_normal((rows, cols, 4)) * scale)


def random_operator_frame(gen, dim, codomain_dims, scale=1.0):
    return OperatorFrame(dim, [random_qmatrix(gen, d, dim, scale)
                               for d in codomain_dims])
