"""File formats: parsing with field diagnostics, the deterministic
12-digit writer, and round trips through both."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import json_doc, shifted_basis_vector_frame, standard_basis
from quatframes.errors import ParseError, ValidationError
from quatframes.fileio import (
    dumps12,
    file_digest,
    load_frame,
    matrix_obj,
    operator_frame_obj,
    parse_frame,
    parse_matrix,
    parse_quaternion,
    parse_vector,
    vector_frame_obj,
    vector_obj,
    write_document,
)
from quatframes.generalizations import FusionFrame, PseudoFramePair, QuasiProjectorSystem
from quatframes.linalg import QMatrix, outer
from quatframes.operator_frames import OperatorFrame
from quatframes.quaternion import Quaternion
from quatframes.vector_frames import VectorFrame


def vec_obj(v):
    return {"dim": v.dim, "data": v.data.tolist()}


# ====== parsing ======

def test_quaternion_round_trip():
    q = parse_quaternion([1, -2.5, 0, 4], "q")
    assert q == Quaternion(1.0, -2.5, 0.0, 4.0)


@pytest.mark.parametrize("bad", [[1, 2, 3], [1, 2, 3, 4, 5], "1+2i", {"r0": 1},
                                 [1, 2, 3, True], [1, None, 3, 4]])
def test_quaternion_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_quaternion(bad, "q")


def test_vector_parses_and_checks_dim():
    v = parse_vector({"dim": 2, "data": [[1, 0, 0, 0], [0, 1, 0, 0]]}, "v")
    assert v.dim == 2 and v[1] == Quaternion(0, 1, 0, 0)
    with pytest.raises(ValidationError, match="declared dim 3"):
        parse_vector({"dim": 3, "data": [[1, 0, 0, 0]]}, "v")
    with pytest.raises(ParseError, match="missing field 'data'"):
        parse_vector({"dim": 1}, "v")
    with pytest.raises(ValidationError):
        parse_vector({"dim": 0, "data": []}, "v")


def test_matrix_parses_and_checks_shape():
    m = parse_matrix({"rows": 1, "cols": 2,
                      "data": [[[0, 0, 1, 0], [0, 0, 0, 1]]]}, "m")
    assert m.shape == (1, 2)
    assert m[0, 1] == Quaternion(0, 0, 0, 1)
    with pytest.raises(ValidationError, match="declared rows"):
        parse_matrix({"rows": 2, "cols": 1, "data": [[[1, 0, 0, 0]]]}, "m")
    with pytest.raises(ValidationError, match=r"data\[0\]"):
        parse_matrix({"rows": 1, "cols": 2, "data": [[[1, 0, 0, 0]]]}, "m")


def test_error_messages_carry_field_paths():
    obj = {"kind": "vector_frame", "dim": 2,
           "members": [vec_obj(standard_basis(2)[0]), {"dim": 2, "data": [[1, 0, 0, 0], [0, "x", 0, 0]]}]}
    with pytest.raises(ParseError, match=r"members\[1\].data\[1\]\[1\]"):
        parse_frame(obj)


def test_unknown_kind_rejected():
    with pytest.raises(ParseError, match="unknown kind"):
        parse_frame({"kind": "banach_frame", "dim": 2, "members": []})
    with pytest.raises(ParseError, match="missing field 'kind'"):
        parse_frame({"dim": 2})


def test_member_dimension_must_match_frame_dim():
    obj = {"kind": "vector_frame", "dim": 3,
           "members": [vec_obj(standard_basis(2)[0])]}
    with pytest.raises(ValidationError, match="does not match frame dim"):
        parse_frame(obj)


def test_operator_frame_domain_check():
    obj = {"kind": "operator_frame", "dim": 3,
           "members": [{"rows": 1, "cols": 2,
                        "data": [[[1, 0, 0, 0], [0, 0, 0, 0]]]}]}
    with pytest.raises(ValidationError, match="domain dimension 2"):
        parse_frame(obj)


def test_fusion_weight_count_check():
    z1 = vec_obj(standard_basis(2)[0])
    obj = {"kind": "fusion", "dim": 2, "weights": [1.0],
           "subspaces": [[z1], [z1]]}
    with pytest.raises(ValidationError, match="1 weights for 2 subspaces"):
        parse_frame(obj)


def test_pseudo_count_check():
    z = vec_obj(standard_basis(2)[0])
    obj = {"kind": "pseudo", "dim": 2, "analyzers": [z, z],
           "synthesizers": [z], "subspace": [z]}
    with pytest.raises(ValidationError, match="2 analyzers"):
        parse_frame(obj)


def test_quasi_square_check():
    obj = {"kind": "quasi", "dim": 2,
           "projectors": [{"rows": 1, "cols": 2,
                           "data": [[[1, 0, 0, 0], [0, 0, 0, 0]]]}]}
    with pytest.raises(ValidationError, match="is not 2x2"):
        parse_frame(obj)


def test_all_kinds_dispatch():
    basis = standard_basis(2)
    z = vec_obj(basis[0])
    p = json_doc(matrix_obj(outer(basis[0], basis[0])))
    eye = json_doc(matrix_obj(QMatrix.identity(2)))
    cases = [
        ({"kind": "vector_frame", "dim": 2, "members": [z]}, VectorFrame),
        ({"kind": "operator_frame", "dim": 2, "members": [eye]}, OperatorFrame),
        ({"kind": "fusion", "dim": 2, "weights": [1], "subspaces": [[z]]},
         FusionFrame),
        ({"kind": "pseudo", "dim": 2, "analyzers": [z], "synthesizers": [z],
          "subspace": [z]}, PseudoFramePair),
        ({"kind": "quasi", "dim": 2, "projectors": [p]}, QuasiProjectorSystem),
    ]
    for obj, cls in cases:
        kind, frame = parse_frame(obj)
        assert kind == obj["kind"]
        assert isinstance(frame, cls)


def test_syntax_error_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "vector_frame",\n  "dim": oops}')
    with pytest.raises(ParseError, match="line 2"):
        load_frame(str(path))


# ====== writer ======

def test_float_formatting():
    assert dumps12(0.0) == "0"
    assert dumps12(-0.0) == "0"
    assert dumps12(2.0) == "2"
    assert dumps12(1 / 3) == "0.333333333333"
    assert dumps12(1.5e-300) == "1.5e-300"
    assert dumps12(True) == "true"
    assert dumps12(7) == "7"
    assert dumps12("a\"b") == '"a\\"b"'


def test_layout_is_stable_and_parseable():
    doc = {"b": [1.0, 2.0], "a": {"nested": [[1, 0, 0, 0]]}, "empty": [], "n": None}
    text = dumps12(doc)
    # insertion order, scalar arrays inline
    assert text.index('"b"') < text.index('"a"')
    assert "[1, 2]" in text
    assert json.loads(text) == {"b": [1, 2], "a": {"nested": [[1, 0, 0, 0]]},
                                "empty": [], "n": None}
    assert dumps12(doc) == text


def test_write_round_trip_preserves_frames(tmp_path):
    f = shifted_basis_vector_frame(3)
    path = tmp_path / "frame.json"
    write_document(str(path), vector_frame_obj(f))
    kind, back = load_frame(str(path))
    assert kind == "vector_frame"
    assert back.space_dim == 3 and len(back.members) == 4
    for a, b in zip(f.members, back.members):
        assert (a - b).norm() == 0.0
    # rewriting parsed content is byte-stable
    path2 = tmp_path / "frame2.json"
    write_document(str(path2), vector_frame_obj(back))
    assert path.read_bytes() == path2.read_bytes()
    assert file_digest(str(path)) == file_digest(str(path2))


def test_operator_frame_round_trip(tmp_path):
    basis = standard_basis(2)
    f = OperatorFrame(2, [outer(b, b) for b in basis])
    path = tmp_path / "op.json"
    write_document(str(path), operator_frame_obj(f))
    kind, back = load_frame(str(path))
    assert kind == "operator_frame"
    for a, b in zip(f.members, back.members):
        assert (a - b).frobenius() == 0.0


def test_vector_obj_matches_format():
    v = standard_basis(2)[1]
    obj = vector_obj(v)
    assert list(obj) == ["dim", "data"] and obj["dim"] == 2
    assert obj["data"].tolist() == [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]


GOLDEN_OPERATOR_FRAME = """{
  "kind": "operator_frame",
  "dim": 2,
  "members": [
    {
      "rows": 1,
      "cols": 2,
      "data": [
        [
          [1, 0, 0.5, 1.5e-300],
          [0, 0, 0, 0]
        ]
      ]
    },
    {
      "rows": 2,
      "cols": 2,
      "data": [
        [
          [0, 0.333333333333, 0, 0],
          [-2, 0, 0, 0]
        ],
        [
          [0, 0, 0, 0],
          [0, 0, 1e+20, -1.25]
        ]
      ]
    }
  ]
}"""


def test_operator_frame_layout_is_pinned():
    frame = OperatorFrame(2, [
        QMatrix(np.array([[[1.0, -0.0, 0.5, 1.5e-300], [0.0, 0.0, 0.0, 0.0]]])),
        QMatrix(np.array([[[0.0, 1 / 3, 0.0, 0.0], [-2.0, 0.0, 0.0, 0.0]],
                          [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1e20, -1.25]]])),
    ])
    obj = operator_frame_obj(frame)
    # the array payloads and the same numbers as nested lists
    assert dumps12(obj) == GOLDEN_OPERATOR_FRAME
    assert dumps12(json_doc(obj)) == GOLDEN_OPERATOR_FRAME


# any finite float, with -0.0, the smallest subnormal and the largest
# float drawn often
EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                               -1.7976931348623157e308])
PAYLOAD_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           EDGE_FLOATS)
PAYLOAD_SHAPES = st.one_of(
    st.just((4,)),
    st.tuples(st.integers(0, 5), st.just(4)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.just(4)))


@settings(max_examples=150, deadline=None)
@given(st.lists(arrays(np.float64, PAYLOAD_SHAPES, elements=PAYLOAD_FLOATS),
                max_size=3))
def test_array_payloads_write_as_their_lists(payloads):
    doc = {"dim": 4, "members": [{"dim": 4, "data": p} for p in payloads],
           "last": payloads[-1] if payloads else []}
    listed = {"dim": 4, "members": [{"dim": 4, "data": p.tolist()} for p in payloads],
              "last": payloads[-1].tolist() if payloads else []}
    assert dumps12(doc) == dumps12(listed)


# ====== the array path against the per-entry walk ======

EXAMPLES = settings(max_examples=80, deadline=None)

# numbers a frame file may hold: any finite float, and integers beyond
# int64 that a float still holds
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2**70, 2**70))

# what may stand where a number belongs; numpy reads the first three
# as floats, and float() cannot hold 10**400
BAD_LEAVES = [True, "1.5", None, float("nan"), float("inf"), 10**400, [1]]


@st.composite
def documents(draw):
    """A vector_frame or operator_frame document as json.loads returns it."""
    n = draw(st.integers(1, 5))
    entries = st.lists(st.lists(NUMBERS, min_size=4, max_size=4),
                       min_size=n, max_size=n)
    count = draw(st.integers(1, 4))
    if draw(st.booleans()):
        members = [{"dim": n, "data": draw(entries)} for _ in range(count)]
        return {"kind": "vector_frame", "dim": n, "members": members}
    members = []
    for _ in range(count):
        rows = draw(st.lists(entries, min_size=1, max_size=3))
        members.append({"rows": len(rows), "cols": n, "data": rows})
    return {"kind": "operator_frame", "dim": n, "members": members}


def quaternion_slots(doc):
    """(list, index, field path) of every quaternion in the members."""
    slots = []
    for i, member in enumerate(doc["members"]):
        where = f"frame.members[{i}].data"
        rows = ([(where, member["data"])] if "dim" in member else
                [(f"{where}[{r}]", row) for r, row in enumerate(member["data"])])
        for prefix, row in rows:
            slots += [(row, k, f"{prefix}[{k}]") for k in range(len(row))]
    return slots


def as_floats(data):
    """The payload with every number through float(), as the walk reads it."""
    if isinstance(data, list):
        return [as_floats(x) for x in data]
    return float(data)


@EXAMPLES
@given(documents(), st.data())
def test_bad_leaf_is_refused_at_its_path(doc, data):
    row, k, where = data.draw(st.sampled_from(quaternion_slots(doc)))
    bad = data.draw(st.sampled_from(BAD_LEAVES + ["5-array"]))
    if bad == "5-array":
        row[k] = row[k] + [0]
    else:
        c = data.draw(st.integers(0, 3))
        row[k][c] = bad
        where = f"{where}[{c}]"
    with pytest.raises(ParseError) as info:
        parse_frame(doc)
    assert str(info.value).startswith(f"{where}: ")


@EXAMPLES
@given(documents())
def test_clean_document_parses_to_its_numbers(doc):
    _, frame = parse_frame(doc)
    for member, parsed in zip(doc["members"], frame.members):
        expected = np.asarray(as_floats(member["data"]))
        assert parsed.data.shape == expected.shape
        assert parsed.data.tobytes() == expected.tobytes()


# half a unit in the 12th significant digit, relative, plus the rounding
# of the decimal back to binary
DIGITS12_RTOL = 5e-12 + 1e-15


@EXAMPLES
@given(documents())
def test_clean_document_round_trips_at_12_digits(doc):
    kind, frame = parse_frame(doc)
    to_obj = vector_frame_obj if kind == "vector_frame" else operator_frame_obj
    text = dumps12(to_obj(frame))
    kind_back, back = parse_frame(json.loads(text))
    assert kind_back == kind
    for a, b in zip(frame.members, back.members):
        np.testing.assert_allclose(b.data, a.data, rtol=DIGITS12_RTOL, atol=0)
    assert dumps12(to_obj(back)) == text
