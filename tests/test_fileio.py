"""File formats: parsing with field diagnostics, the deterministic
12-digit writer, and round trips through both."""

import hashlib
import json
import sys

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    BYTES,
    DEEP,
    ESCAPED_DEEP,
    ESCAPES,
    MUTATIONS,
    SPLICES,
    json_doc,
    mutated,
    shifted_basis_vector_frame,
    standard_basis,
)
from quatframes import fileio
from quatframes.errors import ParseError, QuatFramesError, ValidationError
from quatframes.fileio import (
    dumps12,
    file_digest,
    load_frame,
    load_vector,
    matrix_obj,
    operator_frame_obj,
    parse_frame,
    parse_matrix,
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
    v = parse_vector({"dim": 1, "data": [[1, -2.5, 0, 4]]}, "v")
    assert v[0] == Quaternion(1.0, -2.5, 0.0, 4.0)


@pytest.mark.parametrize("bad", [[1, 2, 3], [1, 2, 3, 4, 5], "1+2i", {"r0": 1},
                                 [1, 2, 3, True], [1, None, 3, 4]])
def test_quaternion_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_vector({"dim": 1, "data": [bad]}, "v")


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


def test_fusion_subspaces_are_refused_in_reading_order():
    z, long = vec_obj(standard_basis(2)[0]), vec_obj(standard_basis(3)[0])

    def refusal(subspaces):
        with pytest.raises((ParseError, ValidationError)) as info:
            parse_frame({"kind": "fusion", "dim": 2, "weights": [1] * len(subspaces),
                         "subspaces": subspaces})
        return str(info.value)

    # an entry of an earlier subspace is read before a later one that is
    # not a list, and entries count within their own subspace
    assert refusal([[z, long], "x"]).startswith("frame.subspaces[0][1]: ")
    assert refusal([[], [z], [z, z, long]]).startswith("frame.subspaces[2][2]: ")
    assert refusal([[z], "x", [long]]) == "frame.subspaces[1]: expected an array"


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


def test_a_file_needs_one_vector_or_matrix():
    with pytest.raises(ValidationError, match=r"^frame\.dim: "):
        parse_frame({"kind": "vector_frame", "dim": 3, "members": []})
    # the library still builds an empty family
    assert len(VectorFrame(3, [])) == 0
    # one vector anywhere in the file fixes the dim
    z = vec_obj(standard_basis(2)[0])
    for obj in ({"kind": "fusion", "dim": 2, "weights": [1, 1], "subspaces": [[], [z]]},
                {"kind": "pseudo", "dim": 2, "analyzers": [], "synthesizers": [],
                 "subspace": [z]}):
        assert parse_frame(obj)[0] == obj["kind"]


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
    kind, back, _ = load_frame(str(path))
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
    kind, back, _ = load_frame(str(path))
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

# what may stand where a number belongs; numpy reads True, False, "1.5",
# "0" and None as floats, and float() cannot hold 10**400
BAD_LEAVES = [True, False, "1.5", "0", None, float("nan"), float("inf"), 10**400, [1]]


# numbers of the vectors that a frame orthonormalizes on construction
# (fusion subspaces, the pseudo subspace), small enough that Gram-Schmidt
# cannot overflow
SPAN_NUMBERS = st.floats(-1e6, 1e6)

PLAIN_KINDS = ("vector_frame", "operator_frame")
ALL_KINDS = PLAIN_KINDS + ("fusion", "pseudo", "quasi")


@st.composite
def documents(draw, kinds=ALL_KINDS):
    """A frame document of one of `kinds` as json.loads returns it, with
    one vector or matrix at least."""
    n = draw(st.integers(1, 5))

    def row(numbers=NUMBERS):
        return st.lists(st.lists(numbers, min_size=4, max_size=4), min_size=n, max_size=n)

    def vectors(low, numbers=NUMBERS):
        return [{"dim": n, "data": draw(row(numbers))} for _ in range(draw(st.integers(low, 4)))]

    def matrices(square):
        out = []
        for _ in range(draw(st.integers(1, 4))):
            rows = draw(st.lists(row(), min_size=n if square else 1,
                                 max_size=n if square else 3))
            out.append({"rows": len(rows), "cols": n, "data": rows})
        return out

    kind = draw(st.sampled_from(kinds))
    if kind == "vector_frame":
        return {"kind": kind, "dim": n, "members": vectors(1)}
    if kind == "operator_frame":
        return {"kind": kind, "dim": n, "members": matrices(False)}
    if kind == "quasi":
        return {"kind": kind, "dim": n, "projectors": matrices(True)}
    if kind == "fusion":
        subspaces = [vectors(1, SPAN_NUMBERS)]
        subspaces += [vectors(0, SPAN_NUMBERS) for _ in range(draw(st.integers(0, 2)))]
        weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(subspaces),
                                max_size=len(subspaces)))
        return {"kind": kind, "dim": n, "weights": weights, "subspaces": subspaces}
    analyzers = vectors(0)
    return {"kind": kind, "dim": n, "analyzers": analyzers,
            "synthesizers": [{"dim": n, "data": draw(row())} for _ in analyzers],
            "subspace": vectors(1, SPAN_NUMBERS)}


def entries(doc):
    """(vector or matrix entry, field path) of every entry of every list
    the reader serves, in reading order."""
    if doc["kind"] == "fusion":
        lists = [(s, f"frame.subspaces[{k}]") for k, s in enumerate(doc["subspaces"])]
    else:
        lists = [(doc[key], f"frame.{key}") for key in
                 ("members", "analyzers", "synthesizers", "subspace", "projectors")
                 if key in doc]
    return [(entry, f"{where}[{i}]") for entries_, where in lists
            for i, entry in enumerate(entries_)]


def quaternion_slots(doc):
    """(list, index, field path) of every quaternion in the entries."""
    slots = []
    for entry, where in entries(doc):
        where = f"{where}.data"
        rows = ([(where, entry["data"])] if "dim" in entry else
                [(f"{where}[{r}]", row) for r, row in enumerate(entry["data"])])
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


def payload_arrays(doc):
    """(list, field path) of the data array of every entry and of every
    row of a matrix entry."""
    arrays = []
    for entry, where in entries(doc):
        where = f"{where}.data"
        arrays.append((entry["data"], where))
        if "rows" in entry:
            arrays += [(row, f"{where}[{r}]") for r, row in enumerate(entry["data"])]
    return arrays


def mutate_count(entry, where, field, change):
    """Apply `change` to the count `field` of the entry at `where`; return
    the path of the error that the reader must raise first."""
    if change == "removed":
        del entry[field]
        return where
    if change in (0, True):
        entry[field] = change
        return f"{where}.{field}"
    entry[field] += 1
    if change == "off by one":
        # the payload no longer has the declared length
        return f"{where}.data[0]" if field == "cols" else f"{where}.data"
    # "off by one with its payload": the payload grows with the count, so
    # only the check against the frame dim refuses it
    if field == "rows":
        entry["data"].append(entry["data"][0])
    else:
        for row in [entry["data"]] if field == "dim" else entry["data"]:
            row.append(row[0])
    return where


# what may stand where a quaternion belongs
BAD_QUATERNIONS = [[1, 2, 3], [1, 2, 3, 4, 5], {"r0": 1}, 1.5, None, "1,2,3,4"]


@EXAMPLES
@given(documents(), st.data())
def test_bad_entry_or_array_is_refused_at_its_path(doc, data):
    # the same contract as test_bad_leaf_is_refused_at_its_path, one level
    # up: a bad quaternion, a dict leaf, or an array of the wrong length
    target = data.draw(st.sampled_from(["quaternion", "leaf", "shorter", "longer",
                                        "count"]))
    if target == "count":
        # a structural error in the fields: a count that is missing, not an
        # integer >= 1, or one more than the frame dim
        entry, where = data.draw(st.sampled_from(entries(doc)))
        field = data.draw(st.sampled_from(["dim"] if "dim" in entry else ["rows", "cols"]))
        changes = ["removed", 0, True, "off by one"]
        # an operator member's rows are free, so only the payload can refuse them
        if not (field == "rows" and doc["kind"] == "operator_frame"):
            changes.append("off by one with its payload")
        where = mutate_count(entry, where, field, data.draw(st.sampled_from(changes)))
    elif target in ("quaternion", "leaf"):
        row, k, where = data.draw(st.sampled_from(quaternion_slots(doc)))
        if target == "quaternion":
            row[k] = data.draw(st.sampled_from(BAD_QUATERNIONS))
        else:
            c = data.draw(st.integers(0, 3))
            row[k][c] = {"value": 1.0}
            where = f"{where}[{c}]"
    else:
        array, where = data.draw(st.sampled_from(payload_arrays(doc)))
        if target == "shorter":
            array.pop()
        else:
            array.append(array[0])
    with pytest.raises((ParseError, ValidationError)) as info:
        parse_frame(doc)
    assert str(info.value).startswith(f"{where}: ")


# the list of each kind whose entries are its members
MEMBER_LISTS = {"vector_frame": "members", "operator_frame": "members",
                "fusion": "subspaces", "pseudo": "analyzers", "quasi": "projectors"}


def kept_lists(doc, frame):
    """(entries, parsed objects) of each list the frame keeps as read;
    fusion subspaces and the pseudo subspace are orthonormalized instead."""
    kind = doc["kind"]
    if kind in PLAIN_KINDS:
        return [(doc["members"], frame.members)]
    if kind == "pseudo":
        return [(doc["analyzers"], frame.analyzers),
                (doc["synthesizers"],
                 [frame.synthesis.column(k) for k in range(frame.synthesis.cols)])]
    if kind == "quasi":
        return [(doc["projectors"], frame.projectors)]
    return []


@EXAMPLES
@given(documents())
def test_clean_document_parses_to_its_numbers(doc):
    _, frame = parse_frame(doc)
    for listed, parsed in kept_lists(doc, frame):
        assert len(parsed) == len(listed)
        for member, got in zip(listed, parsed):
            expected = np.asarray(as_floats(member["data"]))
            assert got.data.shape == expected.shape
            assert got.data.tobytes() == expected.tobytes()
    assert len(frame) == len(doc[MEMBER_LISTS[doc["kind"]]])


def real_valued(doc):
    """doc with every imaginary part of every quaternion an exact 0, so
    that three leaves in four read as 0."""
    for row, k, _ in quaternion_slots(doc):
        row[k] = [row[k][0], 0, 0, 0]
    return doc


REAL_VECTOR_FRAME = {"kind": "vector_frame", "dim": 2, "members": [
    {"dim": 2, "data": [[0.5, 0, 0, 0], [1, 0, 0, 0]]},
    {"dim": 2, "data": [[0, 0, 0, 0], [-2.5, 0, 0, 0]]}]}


@EXAMPLES
@example(doc=REAL_VECTOR_FRAME, index=1, c=0, bad=True)
@example(doc=REAL_VECTOR_FRAME, index=2, c=3, bad=False)
@given(documents(), st.integers(0, 2**16), st.integers(0, 3), st.sampled_from([True, False]))
def test_bool_in_real_valued_document_is_refused_at_its_path(doc, index, c, bad):
    # a bool reads as 0 or 1, as most leaves of a real-valued document do
    doc = real_valued(json.loads(json.dumps(doc)))
    slots = quaternion_slots(doc)
    row, k, where = slots[index % len(slots)]
    row[k][c] = bad
    with pytest.raises(ParseError) as info:
        parse_frame(doc)
    assert str(info.value).startswith(f"{where}[{c}]: expected a number")


# integers beyond int64 beside floats, and beside an int64 one
BEYOND_INT64 = {"kind": "vector_frame", "dim": 2, "members": [
    {"dim": 2, "data": [[2**63, 0.5, -2**63 - 1, 2**70], [1.5, 2**64 + 1, 0, -0.0]]},
    {"dim": 2, "data": [[-2**70 - 1, 3, 2**63 - 1, 1], [0, 0, 2**53 + 1, -1]]}]}


@EXAMPLES
@example(doc=BEYOND_INT64, real=False)
@given(documents(PLAIN_KINDS + ("pseudo", "quasi")), st.booleans())
def test_document_reads_as_numpy_reads_its_rows(doc, real):
    # every list the frame keeps holds, bit for bit, numpy's float64
    # reading of its vectors or of its matrices' rows
    if real:
        doc = real_valued(doc)
    _, frame = parse_frame(doc)
    for listed, parsed in kept_lists(doc, frame):
        if not listed:
            continue
        rows = [row for entry in listed
                for row in ([entry["data"]] if "dim" in entry else entry["data"])]
        expected = np.array(rows, dtype=np.float64)
        got = np.concatenate([p.data.reshape(-1, *expected.shape[1:]) for p in parsed])
        assert got.tobytes() == expected.tobytes()


# half a unit in the 12th significant digit, relative, plus the rounding
# of the decimal back to binary
DIGITS12_RTOL = 5e-12 + 1e-15


@EXAMPLES
@given(documents(PLAIN_KINDS))
def test_clean_document_round_trips_at_12_digits(doc):
    kind, frame = parse_frame(doc)
    to_obj = vector_frame_obj if kind == "vector_frame" else operator_frame_obj
    text = dumps12(to_obj(frame))
    kind_back, back = parse_frame(json.loads(text))
    assert kind_back == kind
    for a, b in zip(frame.members, back.members):
        np.testing.assert_allclose(b.data, a.data, rtol=DIGITS12_RTOL, atol=0)
    assert dumps12(to_obj(back)) == text


# ====== the orjson reader against json ======

def nesting_depth(raw):
    """How deep the arrays and objects of raw nest outside strings, read
    byte by byte: a backslash escapes the next byte, and a quote opens or
    closes a string."""
    depth = deepest = 0
    in_string = escaped = False
    for byte in raw:
        if escaped:
            escaped = False
        elif byte == ord("\\"):
            escaped = True
        elif byte == ord('"'):
            in_string = not in_string
        elif not in_string and byte in b"[{":
            depth += 1
            deepest = max(deepest, depth)
        elif not in_string and byte in b"]}":
            depth -= 1
    return deepest


def json_reader(path):
    """The file read by json.loads alone, with the refusals worded as the
    reader words them: a file nested deeper than 64 is refused first."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if nesting_depth(raw) > 64:
        raise ParseError(f"{path}: arrays and objects nest deeper than 64 levels")
    try:
        return json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


CLEAN_VECTOR_FRAME = {"kind": "vector_frame", "dim": 1,
                      "members": [{"dim": 1, "data": [[1.0, 0.0, -0.0, 2]]}]}


@pytest.fixture(scope="module")
def reader_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


def frame_read(read, path):
    """What a reader makes of the frame file at path: (kind, frame class,
    the bytes of A, codomain dims, digest), or (error class, message)."""
    try:
        kind, frame, digest = read(path)
    except QuatFramesError as exc:
        return type(exc), str(exc)
    return (kind, type(frame), frame.analysis_matrix().data.tobytes(),
            frame.codomain_dims, digest)


def json_load_frame(path):
    """load_frame with the file read by json_reader."""
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    return (*parse_frame(json_reader(path)), digest)


# integer literals that orjson reads as floats (2^64, -2^63 - 1, 10^30),
# refuses past the largest float (10^400), or reads as the largest float
# it rounds to (one past its integer value)
BIG_INTEGERS = [str(2**64), str(-2**63 - 1), str(10**30), str(10**400),
                str(int(sys.float_info.max) + 1)]
# a kind and an unknown key that hold a number, and the number of each
# place a splice reaches: a count, a leaf, a fusion weight, the kind and
# the unknown key
NUMBER_KIND = {**CLEAN_VECTOR_FRAME, "kind": 0}
UNKNOWN_KEY = {**CLEAN_VECTOR_FRAME, "note": 0}
CLEAN_FUSION = {"kind": "fusion", "dim": 1, "weights": [0.5],
                "subspaces": [[{"dim": 1, "data": [[1.0, 0.0, 0.0, 0.0]]}]]}
BIG_INTEGER_PLACES = [(CLEAN_VECTOR_FRAME, 0), (CLEAN_VECTOR_FRAME, 3), (CLEAN_FUSION, 1),
                      (NUMBER_KIND, 0), (UNKNOWN_KEY, 6)]


def big_integer_examples(test):
    for doc, index in BIG_INTEGER_PLACES:
        for splice in BIG_INTEGERS:
            test = example(doc=doc, mutation="splice", index=index, byte=0,
                           splice=splice)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(doc=documents(), mutation=st.sampled_from(MUTATIONS), index=st.integers(0, 2**16),
       byte=BYTES, splice=SPLICES)
@example(doc=CLEAN_VECTOR_FRAME, mutation="splice", index=0, byte=0, splice=str(2**64))
@example(doc=CLEAN_VECTOR_FRAME, mutation="splice", index=1, byte=0, splice=str(-2**63 - 1))
@example(doc=CLEAN_VECTOR_FRAME, mutation="splice", index=2, byte=0, splice=str(10**30))
@example(doc=CLEAN_VECTOR_FRAME, mutation="splice", index=3, byte=0, splice=DEEP)
@example(doc=CLEAN_VECTOR_FRAME, mutation="splice", index=4, byte=0, splice=ESCAPES)
@example(doc=CLEAN_VECTOR_FRAME, mutation="splice", index=5, byte=0, splice=ESCAPED_DEEP)
@big_integer_examples
def test_reader_returns_what_json_returns(reader_dir, doc, mutation, index, byte, splice):
    """load_frame reads what parse_frame reads from json.loads's document:
    the same kind, frame class, A, codomain dims and digest, or the same
    error class and message; both refuse for its depth the splice nested
    1,100 deep, and the one nested 65 deep behind an escaped quote."""
    path = reader_dir / "doc.json"
    path.write_bytes(mutated(json.dumps(doc).encode(), mutation, index, byte, splice))
    assert frame_read(load_frame, str(path)) == frame_read(json_load_frame, str(path))


@pytest.mark.parametrize("splice", BIG_INTEGERS)
@pytest.mark.parametrize("index", [0, 1], ids=["dim", "leaf"])
def test_vector_reader_returns_what_json_returns(tmp_path, index, splice):
    path = tmp_path / "vector.json"
    path.write_bytes(mutated(json.dumps({"dim": 1, "data": [[1.0, 0.0, 0.0, 0.0]]}).encode(),
                             "splice", index, 0, splice))
    try:
        expected = parse_vector(json_reader(str(path)), "vector").data.tobytes()
    except QuatFramesError as exc:
        with pytest.raises(type(exc)) as info:
            load_vector(str(path))
        assert str(info.value) == str(exc)
    else:
        assert load_vector(str(path)).data.tobytes() == expected


# the largest float rounds up to the first integer that float() refuses
FLOAT_OVERFLOW = 2**1024 - 2**970


@example(str(2**64))
@example(str(-2**63 - 1))
@example(str(FLOAT_OVERFLOW - 1))
@example(str(FLOAT_OVERFLOW))
@example(str(-FLOAT_OVERFLOW))
@given(st.one_of(st.from_regex(r"-?[1-9][0-9]{19,399}", fullmatch=True),
                 st.integers(10**19, 10**400).map(str),
                 st.integers(FLOAT_OVERFLOW - 2**971, FLOAT_OVERFLOW + 2**971).map(str)))
def test_orjson_reads_a_long_integer_as_float_reads_it(literal):
    """The one way orjson's reading of text that json reads differs from
    json's: an integer literal outside [-2^63, 2^64) reads as
    float(int(literal)), or is refused where float() refuses it."""
    try:
        value = orjson.loads(literal)
    except orjson.JSONDecodeError:
        return
    number = int(literal)
    expected = number if -2**63 <= number < 2**64 else float(number)
    assert type(value) is type(expected) and value == expected


def test_json_reads_only_what_orjson_or_the_parser_refuses(tmp_path, monkeypatch):
    calls = {"orjson": 0, "json": 0}

    def counted(name, loads):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return loads(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(orjson, "loads", counted("orjson", orjson.loads))
    monkeypatch.setattr(json, "loads", counted("json", json.loads))
    # repr floats below 0.01 have 19 digits or more after the point
    floats = [0.0049223739685802575, -1.2345678901234567e+22, 5e-324, 1e-05]
    doc = {"kind": "vector_frame", "dim": 1, "members": [{"dim": 1, "data": [floats]}]}
    accepted = {"repr": json.dumps(doc),
                "dumps12": dumps12({**doc, "members": [{"dim": 1, "data": np.array([floats])}]}),
                "19 digits": json.dumps(doc).replace("5e-324", "1000000000000000000")}
    path = tmp_path / "frame.json"
    for name, text in accepted.items():
        path.write_text(text)
        calls.update(orjson=0, json=0)
        assert load_frame(str(path))[0] == "vector_frame"
        assert calls == {"orjson": 1, "json": 0}, name
    # orjson reads this dim as a float, which the parser refuses
    path.write_text(json.dumps({**doc, "dim": 2**64}))
    calls.update(orjson=0, json=0)
    with pytest.raises(ValidationError, match=r"^frame\.dim: must be <= 4096$"):
        load_frame(str(path))
    assert calls == {"orjson": 1, "json": 1}


# JSON nested 65 deep, 1,100 deep, and 65 deep past a string that holds an
# escaped quote, which read as the end of the string would hide the depth
TOO_DEEP = {"65": b"[" * 65 + b"]" * 65,
            "1100": b"[" * 1100 + b"]" * 1100,
            "65-escaped-quote": b'["\\"", ' + b"[" * 64 + b"]" * 65}


@pytest.mark.parametrize("limit", [None, 100_000], ids=["default-limit", "limit-100000"])
def test_nesting_deeper_than_64_is_refused_whatever_the_stack(tmp_path, limit):
    before = sys.getrecursionlimit()
    try:
        if limit:
            sys.setrecursionlimit(limit)
        for name, raw in TOO_DEEP.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(raw)
            assert nesting_depth(raw) > 64
            with pytest.raises(ParseError) as info:
                fileio._load(str(path), lambda value: value)[1]
            assert str(info.value) == f"{path}: arrays and objects nest deeper than 64 levels"
    finally:
        sys.setrecursionlimit(before)


@pytest.mark.parametrize("raw", [
    b"[" * 64 + b"]" * 64,
    b"[" * 62 + b'{"a": [-0.0, 1e5, "[\\"]"]}' + b"]" * 62,
], ids=["balanced", "escaped"])
def test_nesting_64_deep_reads_as_json_reads_it(tmp_path, raw):
    path = tmp_path / "deep.json"
    path.write_bytes(raw)
    assert repr(fileio._load(str(path), lambda value: value)[1]) == repr(json.loads(raw))
