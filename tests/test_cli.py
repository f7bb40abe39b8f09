"""Command-line behavior: report content, artifact round trips,
determinism, and the exit-code contract."""

import builtins
import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    BYTES,
    MUTATIONS,
    SPLICES,
    coordinate_functional_frame,
    json_doc,
    mutated,
    random_operator_frame,
    random_qmatrix,
    shifted_basis_operator_frame,
    shifted_basis_vector_frame,
    standard_basis,
)
from quatframes import cli, errors
from quatframes.cli import main
from quatframes.fileio import (
    MAX_DIM,
    load_frame,
    matrix_obj,
    operator_frame_obj,
    vector_frame_obj,
    vector_obj,
    write_document,
)
from quatframes.linalg import QMatrix, QVector, orthonormalize, outer
from quatframes.operator_frames import OperatorFrame
from quatframes.vector_frames import VectorFrame


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    def put(name, obj):
        path = root / name
        write_document(str(path), obj)
        return str(path)

    basis4 = standard_basis(4)
    paths = {
        "shifted_vec": put("shifted_vec.json",
                           vector_frame_obj(shifted_basis_vector_frame(4))),
        "orthonormal": put("orthonormal.json",
                           vector_frame_obj(VectorFrame(4, basis4))),
        "shifted_op": put("shifted_op.json",
                          operator_frame_obj(shifted_basis_operator_frame(4))),
        "coords": put("coords.json",
                      operator_frame_obj(coordinate_functional_frame(4))),
        "scaled_op": put("scaled_op.json", operator_frame_obj(OperatorFrame(
            4, [m * 0.9 for m in shifted_basis_operator_frame(4).members]))),
        "fusion": put("fusion.json", {
            "kind": "fusion", "dim": 4,
            "weights": [1.0] * 5,
            "subspaces": [[vector_obj(v)] for v in [basis4[0]] + basis4],
        }),
        "quasi": put("quasi.json", {
            "kind": "quasi", "dim": 4,
            "projectors": [matrix_obj(outer(b, b)) for b in basis4],
        }),
        "pseudo": put("pseudo.json", {
            "kind": "pseudo", "dim": 8,
            "analyzers": [vector_obj(v) for v in standard_basis(8)[:4]],
            "synthesizers": [vector_obj(standard_basis(8)[2 * i])
                             for i in range(4)],
            "subspace": [vector_obj(standard_basis(8)[0])],
        }),
        "not_frame": put("not_frame.json", vector_frame_obj(
            VectorFrame(2, [standard_basis(2)[0]]))),
        "probe": put("probe.json", vector_obj(basis4[1])),
        "root": str(root),
    }
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ====== analyze ======

def test_analyze_shifted_vector_frame(files, capsys):
    code, doc, _ = run_json(capsys, "analyze", files["shifted_vec"])
    assert code == 0
    assert doc["kind"] == "vector_frame"
    assert doc["bounds"] == [1, 2]
    assert doc["member_count"] == 5
    assert doc["classification"] == ["bessel", "frame"]
    assert doc["tool"] == "quatframes" and doc["version"]


def test_analyze_orthonormal_full_classification(files, capsys):
    code, doc, _ = run_json(capsys, "analyze", files["orthonormal"])
    assert code == 0
    assert doc["bounds"] == [1, 1]
    assert doc["classification"] == ["bessel", "frame", "tight", "parseval",
                                     "exact"]


def test_analyze_operator_and_fusion_kinds(files, capsys):
    code, doc, _ = run_json(capsys, "analyze", files["shifted_op"])
    assert code == 0 and doc["bounds"] == [1, 2]
    code, doc, _ = run_json(capsys, "analyze", files["fusion"])
    assert code == 0 and doc["bounds"] == [1, 2]


def test_analyze_quasi_checks(files, capsys):
    code, doc, _ = run_json(capsys, "analyze", files["quasi"])
    assert code == 0
    assert doc["checks"] == {"resolution_ok": True, "bessel_bound": 1,
                             "self_adjoint": True, "compatible": True}


# a 2 x 2 projector on H^2 that is not self-adjoint, and its self-adjoint part
NOT_SELF_ADJOINT = np.random.default_rng(0).standard_normal((2, 2, 4))
SELF_ADJOINT = (NOT_SELF_ADJOINT + QMatrix(NOT_SELF_ADJOINT).adjoint().data) / 2


def quasi_file(tmp_path, projector):
    path = str(tmp_path / "quasi.json")
    write_document(path, {"kind": "quasi", "dim": 2, "projectors": [
        {"rows": 2, "cols": 2, "data": projector}]})
    return path


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
@pytest.mark.parametrize("projector, self_adjoint", [
    (NOT_SELF_ADJOINT, False), (SELF_ADJOINT, True)], ids=["general", "self-adjoint"])
def test_quasi_verdicts_do_not_depend_on_the_scale(capsys, tmp_path, projector,
                                                    self_adjoint, scale):
    code, doc, _ = run_json(capsys, "analyze", quasi_file(tmp_path, projector * scale))
    assert code == 0
    assert doc["checks"]["self_adjoint"] is self_adjoint
    assert doc["checks"]["compatible"] is True


def test_quasi_bessel_bound_that_underflows_is_refused(capsys, tmp_path):
    # sum_j P_j* P_j near 1e-319 is subnormal: its few digits are no bound
    code, out, err = run(capsys, "analyze", quasi_file(tmp_path, NOT_SELF_ADJOINT * 1e-160))
    assert code == 2 and out == ""
    assert err.startswith("error: the frame operator underflows") and err.count("\n") == 1


def test_analyze_pseudo_checks(files, capsys):
    code, doc, _ = run_json(capsys, "analyze", files["pseudo"])
    assert code == 0
    assert doc["checks"]["holds"] is True
    assert doc["checks"]["max_residual"] == 0
    assert doc["seed"] == 0


@pytest.mark.filterwarnings("error")
def test_overflowing_pseudo_residual_exits_two(capsys, tmp_path):
    # the residual of x = e_1 is 1e400 e_1, refused before LAPACK sees it
    basis = [vector_obj(b * 1e200) for b in standard_basis(4)]
    path = str(tmp_path / "huge_pseudo.json")
    write_document(path, {"kind": "pseudo", "dim": 4, "analyzers": basis,
                          "synthesizers": basis,
                          "subspace": [vector_obj(standard_basis(4)[0])]})
    code, out, err = run(capsys, "analyze", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_analyze_nonframe_still_reports(files, capsys):
    code, doc, _ = run_json(capsys, "analyze", files["not_frame"])
    assert code == 0
    assert doc["is_frame"] is False
    assert "frame" not in doc["classification"]


def test_analyze_tiny_orthonormal_basis_is_a_tight_frame(capsys, tmp_path):
    # the frame test is relative to the scale of S: bounds 1e-12 still
    # make the orthonormal basis of H^2 scaled by 1e-6 a tight frame
    path = str(tmp_path / "tiny.json")
    write_document(path, vector_frame_obj(
        VectorFrame(2, [b * 1e-6 for b in standard_basis(2)])))
    code, doc, _ = run_json(capsys, "analyze", path)
    assert code == 0 and doc["bounds"] == [1e-12, 1e-12]
    assert doc["classification"] == ["bessel", "frame", "tight", "exact"]
    code, doc, _ = run_json(capsys, "parseval", path,
                            "-o", str(tmp_path / "pv.json"))
    assert code == 0 and doc["bounds"] == [1, 1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["analyze", "dual", "parseval"])
def test_overflowing_frame_operator_exits_two(capsys, tmp_path, command):
    # finite input whose frame operator overflows is refused before LAPACK
    e1, e2 = standard_basis(2)
    path = str(tmp_path / "huge.json")
    write_document(path, vector_frame_obj(VectorFrame(2, [e1 * 1e200, e2])))
    out_args = [] if command == "analyze" else ["-o", str(tmp_path / "out.json")]
    code, out, err = run(capsys, command, path, *out_args)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_frame_with_entries_near_overflow_runs_every_command(capsys, tmp_path):
    # S = 1e300 I is finite, so every command works; the norms behind the
    # singularity and self-adjointness checks must not square 1e300
    path = str(tmp_path / "large.json")
    write_document(path, vector_frame_obj(
        VectorFrame(2, [b * 1e150 for b in standard_basis(2)])))
    code, doc, err = run_json(capsys, "analyze", path)
    assert code == 0 and err == "" and doc["bounds"] == [1e300, 1e300]
    assert doc["classification"] == ["bessel", "frame", "tight", "exact"]
    for command, bounds in (("dual", [1e-300, 1e-300]), ("parseval", [1, 1])):
        code, doc, err = run_json(capsys, command, path,
                                  "-o", str(tmp_path / f"{command}.json"))
        assert code == 0 and err == "" and doc["bounds"] == bounds
    code, doc, err = run_json(capsys, "reconstruct", path, "--random", "2")
    assert code == 0 and err == "" and doc["max_residual"] < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-154, 9e-155])
def test_dual_near_the_largest_float_runs(capsys, tmp_path, scale):
    # S = scale^2 I, so S^-1 and the dual's frame operator are near 1e308
    # and finite; averaging their entries with their conjugates, or a pair
    # of their eigenvalues, must not overflow
    path = str(tmp_path / "small.json")
    write_document(path, vector_frame_obj(
        VectorFrame(2, [b * scale for b in standard_basis(2)])))
    code, doc, err = run_json(capsys, "dual", path, "-o", str(tmp_path / "dual.json"))
    assert code == 0 and err == ""
    assert doc["bounds"] == pytest.approx([scale**-2] * 2, rel=1e-11)
    assert 1e307 < doc["bounds"][0] < np.inf
    code, doc, err = run_json(capsys, "reconstruct", path, "--random", "2")
    assert code == 0 and err == "" and doc["ok"] is True


def assert_scaled_basis_fusion_is_parseval(capsys, tmp_path, scale):
    # the subspaces spanned by e1*scale and e2*scale are those of the
    # standard basis, whatever the scale
    path = str(tmp_path / "scaled_fusion.json")
    write_document(path, {
        "kind": "fusion", "dim": 2, "weights": [1.0, 1.0],
        "subspaces": [[vector_obj(b * scale)] for b in standard_basis(2)],
    })
    code, doc, err = run_json(capsys, "analyze", path)
    assert code == 0 and err == "" and doc["bounds"] == [1, 1]
    assert doc["classification"] == ["bessel", "frame", "tight", "parseval",
                                     "exact"]


@pytest.mark.filterwarnings("error")
def test_fusion_with_huge_basis_vectors_is_parseval(capsys, tmp_path):
    # Gram-Schmidt must not square the entries to inf
    assert_scaled_basis_fusion_is_parseval(capsys, tmp_path, 1e160)


@pytest.mark.filterwarnings("error")
def test_fusion_with_tiny_basis_vectors_is_parseval(capsys, tmp_path):
    # Gram-Schmidt drops a vector only relative to its own norm
    assert_scaled_basis_fusion_is_parseval(capsys, tmp_path, 1e-11)


# a vector of norm 1e-320, below the 5.6e-309 whose reciprocal overflows
TINY = {"dim": 2, "data": [[1e-320, 0, 0, 0], [0, 0, 0, 0]]}
E1 = {"dim": 2, "data": [[1, 0, 0, 0], [0, 0, 0, 0]]}
E2 = {"dim": 2, "data": [[0, 0, 0, 0], [1, 0, 0, 0]]}
# the subspace of TINY is that of E1, so each file has the answer it would
# have with E1 in its place
SUBNORMAL_DOCS = {
    "fusion": {"kind": "fusion", "dim": 2, "weights": [1, 1], "subspaces": [[TINY], [E2]]},
    "pseudo": {"kind": "pseudo", "dim": 2, "analyzers": [E1], "synthesizers": [E1],
               "subspace": [TINY]},
    "quasi": {"kind": "quasi", "dim": 2, "projectors": [
        {"rows": 2, "cols": 2, "data": [TINY["data"], [[0, 0, 0, 0], [0, 0, 0, 0]]]}]},
}


@pytest.mark.parametrize("kind, keys", [
    ("fusion", ["is_parseval"]),
    ("pseudo", ["checks", "holds"]),
    ("quasi", ["checks", "compatible"]),
])
def test_subnormal_basis_vector_normalizes(capsys, tmp_path, kind, keys):
    path = str(tmp_path / f"{kind}.json")
    write_document(path, SUBNORMAL_DOCS[kind])
    code, doc, err = run_json(capsys, "analyze", path)
    for key in keys:
        doc = doc[key]
    assert code == 0 and err == "" and doc is True


# frames whose S has a subnormal largest eigenvalue, near 1e-319 and 1e-320:
# one 5-row member on H^3, and a unitary's columns on H^2 (a tight frame)
SUBNORMAL_S_OP = {"kind": "operator_frame", "dim": 3, "members": [
    {"rows": 5, "cols": 3,
     "data": np.random.default_rng(0).standard_normal((5, 3, 4)) * 1e-160}]}
SUBNORMAL_S_TIGHT = {"kind": "vector_frame", "dim": 2, "members": [
    {"dim": 2, "data": column * 1e-160}
    for column in np.swapaxes(orthonormalize(QMatrix(
        np.random.default_rng(1).standard_normal((2, 2, 4)))).data, 0, 1)]}


@pytest.mark.parametrize("doc, command", [
    (SUBNORMAL_S_OP, "analyze"), (SUBNORMAL_S_OP, "parseval"), (SUBNORMAL_S_TIGHT, "analyze"),
], ids=["analyze-op", "parseval-op", "analyze-tight"])
def test_subnormal_frame_operator_is_refused(capsys, tmp_path, doc, command):
    # S keeps a few significant digits only: the tight frame's bounds came
    # out unequal, and its Parseval normalization was not Parseval
    path = str(tmp_path / "frame.json")
    write_document(path, doc)
    out_flags = ["-o", str(tmp_path / "out.json")] if command == "parseval" else []
    code, out, err = run(capsys, command, path, *out_flags)
    assert code == 2 and out == ""
    assert err.startswith("error: the frame operator underflows") and err.count("\n") == 1


def tiny_basis(scale):
    """The standard basis of H^2 times scale, as vector file documents."""
    return [{"dim": 2, "data": [[scale * (k == 0), 0, 0, 0], [scale * (k == 1), 0, 0, 0]]}
            for k in (0, 1)]


# the standard basis of H^2 times 1e-170, a tight frame whose S = 1e-340 I
# underflows to exactly 0: as a vector frame, as pseudo analyzers, and as
# one operator member
ZERO_S_DOCS = {
    "vector": {"kind": "vector_frame", "dim": 2, "members": tiny_basis(1e-170)},
    "pseudo": {"kind": "pseudo", "dim": 2, "analyzers": tiny_basis(1e-170),
               "synthesizers": tiny_basis(1e170), "subspace": tiny_basis(1.0)},
    "operator": {"kind": "operator_frame", "dim": 2, "members": [
        {"rows": 2, "cols": 2, "data": [v["data"] for v in tiny_basis(1e-170)]}]},
}


@pytest.mark.parametrize("kind, argv", [
    ("vector", ["analyze", "F"]),
    ("vector", ["parseval", "F", "-o", "OUT"]),
    ("vector", ["dual", "F", "-o", "OUT"]),
    ("vector", ["reconstruct", "F", "--random", "2"]),
    ("pseudo", ["convert", "F", "-o", "OUT"]),
    ("operator", ["stability", "F", "F", "--fit"]),
], ids=["analyze", "parseval", "dual", "reconstruct", "convert", "stability"])
def test_frame_operator_underflowing_to_zero_is_refused(capsys, tmp_path, kind, argv):
    # an S of 0 says nothing of a nonzero family, so no command may answer "not a frame"
    path = str(tmp_path / "frame.json")
    write_document(path, ZERO_S_DOCS[kind])
    names = {"F": path, "OUT": str(tmp_path / "out.json")}
    code, out, err = run(capsys, *(names.get(a, a) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: the frame operator underflows") and err.count("\n") == 1


# the standard basis of H^2 times 1e-160, whose S = 1e-320 I is subnormal:
# as pseudo analyzers and as one operator member
SUBNORMAL_S_DOCS = {
    "pseudo": {"kind": "pseudo", "dim": 2, "analyzers": tiny_basis(1e-160),
               "synthesizers": tiny_basis(1e160), "subspace": tiny_basis(1.0)},
    "operator": {"kind": "operator_frame", "dim": 2, "members": [
        {"rows": 2, "cols": 2, "data": [v["data"] for v in tiny_basis(1e-160)]}]},
}


@pytest.mark.parametrize("kind, argv", [
    ("pseudo", ["convert", "F", "-o", "OUT"]),
    ("operator", ["stability", "F", "F", "--fit", "--theorem", "1"]),
    ("operator", ["stability", "F", "F", "--fit", "--theorem", "2"]),
], ids=["convert", "stability-t1", "stability-t2"])
def test_subnormal_frame_operator_is_refused_by_convert_and_stability(
        capsys, tmp_path, kind, argv):
    # the bounds were printed as 9.99988867183e-321, digits of noise
    path = str(tmp_path / "frame.json")
    write_document(path, SUBNORMAL_S_DOCS[kind])
    names = {"F": path, "OUT": str(tmp_path / "out.json")}
    code, out, err = run(capsys, *(names.get(a, a) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: the frame operator underflows") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-600, -513, -511, -300, 0, 300, 511, 513])
@pytest.mark.parametrize("kind", ["vector", "operator"])
def test_every_reader_of_s_answers_or_refuses_at_one_scale(capsys, tmp_path, kind, k):
    # S is about 4^k I: out of scale at most 2^-1024 and at inf, so -513 and
    # 513 are refused and -511 and 511 are answered, by every command alike
    basis = tiny_basis(2.0**k)
    doc = ({"kind": "vector_frame", "dim": 2, "members": basis} if kind == "vector" else
           {"kind": "operator_frame", "dim": 2, "members": [
               {"rows": 2, "cols": 2, "data": [v["data"] for v in basis]}]})
    path, out_path = str(tmp_path / "frame.json"), str(tmp_path / "out.json")
    write_document(path, doc)
    argvs = [["analyze", path], ["dual", path, "-o", out_path],
             ["parseval", path, "-o", out_path], ["reconstruct", path, "--random", "2"]]
    if kind == "operator":
        argvs.append(["stability", path, path, "--fit"])
    results = [run(capsys, *argv) for argv in argvs]
    assert {code for code, _, _ in results} == {0 if -513 < k < 513 else 2}
    for code, out, err in results:
        assert (err == "") if code == 0 else (out == "" and err.count("\n") == 1)
        if k < 0 and code:
            assert err.startswith("error: the frame operator underflows")


def test_analyze_is_deterministic(files, capsys):
    _, first, _ = run(capsys, "analyze", files["pseudo"], "--seed", "3")
    _, second, _ = run(capsys, "analyze", files["pseudo"], "--seed", "3")
    assert first == second


# ====== dual ======

def test_dual_writes_inverse_bounds(files, capsys, tmp_path):
    out = str(tmp_path / "dual.json")
    code, doc, _ = run_json(capsys, "dual", files["shifted_op"], "-o", out)
    assert code == 0
    assert doc["bounds"] == [0.5, 1]
    assert doc["output_kind"] == "operator_frame"
    code, doc, _ = run_json(capsys, "analyze", out)
    assert code == 0 and doc["bounds"] == [0.5, 1]


def test_dual_of_dual_round_trips(files, capsys, tmp_path):
    once = str(tmp_path / "once.json")
    twice = str(tmp_path / "twice.json")
    assert run(capsys, "dual", files["shifted_vec"], "-o", once)[0] == 0
    assert run(capsys, "dual", once, "-o", twice)[0] == 0
    _, original, _ = load_frame(files["shifted_vec"])
    _, back, _ = load_frame(twice)
    for a, b in zip(original.members, back.members):
        assert (a - b).norm() < 1e-8


def test_dual_requires_plain_frame_kind(files, capsys, tmp_path):
    out = str(tmp_path / "x.json")
    code, _, err = run(capsys, "dual", files["fusion"], "-o", out)
    assert code == 2 and "convert first" in err


def test_dual_of_nonframe_fails_mathematically(files, capsys, tmp_path):
    out = str(tmp_path / "x.json")
    code, _, err = run(capsys, "dual", files["not_frame"], "-o", out)
    assert code == 1 and "error:" in err


# ====== parseval ======

def test_parseval_whitens_every_kind(files, capsys, tmp_path):
    for key, out_kind in [("shifted_vec", "vector_frame"),
                          ("shifted_op", "operator_frame"),
                          ("fusion", "operator_frame"),
                          ("quasi", "operator_frame"),
                          ("pseudo", "operator_frame")]:
        out = str(tmp_path / f"pv_{key}.json")
        code, doc, _ = run_json(capsys, "parseval", files[key], "-o", out)
        assert code == 0, key
        assert doc["output_kind"] == out_kind
        lo, hi = doc["bounds"]
        assert abs(lo - 1.0) <= 1e-9 and abs(hi - 1.0) <= 1e-9


def test_parseval_idempotent(files, capsys, tmp_path):
    once = str(tmp_path / "pv1.json")
    twice = str(tmp_path / "pv2.json")
    assert run(capsys, "parseval", files["shifted_vec"], "-o", once)[0] == 0
    assert run(capsys, "parseval", once, "-o", twice)[0] == 0
    _, first, _ = load_frame(once)
    _, second, _ = load_frame(twice)
    for a, b in zip(first.members, second.members):
        assert (a - b).norm() < 1e-9


def test_parseval_rejects_nonframe(files, capsys, tmp_path):
    out = str(tmp_path / "x.json")
    code, _, _ = run(capsys, "parseval", files["not_frame"], "-o", out)
    assert code == 1


# ====== convert ======

def test_convert_fusion_preserves_bounds(files, capsys, tmp_path):
    out = str(tmp_path / "conv.json")
    code, doc, _ = run_json(capsys, "convert", files["fusion"], "-o", out)
    assert code == 0 and doc["bounds"] == [1, 2]
    kind, frame, _ = load_frame(out)
    assert kind == "operator_frame" and frame.space_dim == 4


def test_convert_writes_each_fusion_member_on_its_subspace(capsys, tmp_path):
    """Member i is written as the rank(W_i) x n block v_i B_i*, and a {0}
    subspace as one zero row; the written file reads back with the bounds
    convert printed."""
    path, out = str(tmp_path / "fusion.json"), str(tmp_path / "conv.json")
    write_document(path, {"kind": "fusion", "dim": 2, "weights": [1.0, 2.0, 0.5],
                          "subspaces": [
                              [],
                              [{"dim": 2, "data": [[1, 0, 0, 0], [1, 0, 0, 0]]}],
                              [{"dim": 2, "data": [[0, 0, 0, 0], [0, 0, 0, 0]]},
                               {"dim": 2, "data": [[0, 0, 0, 0], [0, 1, 0, 0]]}]]})
    code, converted, _ = run_json(capsys, "convert", path, "-o", out)
    assert code == 0
    with open(out, encoding="utf-8") as handle:
        members = json.load(handle)["members"]
    assert [m["rows"] for m in members] == [1, 1, 1]
    assert not np.any(members[0]["data"])
    code, analyzed, err = run_json(capsys, "analyze", out)
    assert code == 0 and err == ""
    assert np.allclose(analyzed["bounds"], converted["bounds"], rtol=1e-10, atol=0.0)


@st.composite
def fusion_docs(draw):
    """A fusion file on H^n, n <= 4, of one to four subspaces, each spanned
    by one to n standard normal vectors."""
    n = draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.lists(st.integers(1, n), min_size=1, max_size=4))
    return {"kind": "fusion", "dim": n, "weights": gen.uniform(0.25, 4.0, len(dims)).tolist(),
            "subspaces": [[vector_obj(QVector(gen.standard_normal((n, 4)))) for _ in range(d)]
                          for d in dims]}


def bounds_text(out):
    """The printed bounds, as the report's text spells them."""
    line = next(line for line in out.splitlines() if line.startswith('  "bounds": '))
    return line.rstrip(",")


@settings(max_examples=100, deadline=None)
@given(fusion_docs())
def test_convert_prints_the_bounds_analyze_prints(scratch, doc):
    """Both commands read the fusion frame's own analysis matrix, so they
    print the same bounds to the last digit."""
    path = str(scratch / "fusion.json")
    write_document(path, doc)
    code, analyzed = assert_ends_cleanly(["analyze", path])
    assert code == 0
    code, converted = assert_ends_cleanly(["convert", path, "-o", str(scratch / "out.json")])
    assert code == 0
    assert bounds_text(converted) == bounds_text(analyzed)


def test_convert_quasi_and_pseudo(files, capsys, tmp_path):
    code, doc, _ = run_json(capsys, "convert", files["quasi"], "-o",
                            str(tmp_path / "q.json"))
    assert code == 0 and doc["bounds"] == [1, 1]
    code, doc, _ = run_json(capsys, "convert", files["pseudo"], "-o",
                            str(tmp_path / "p.json"))
    assert code == 0 and doc["bounds"] == [1, 1]
    kind, frame, _ = load_frame(str(tmp_path / "p.json"))
    assert frame.space_dim == 1


def test_convert_rejects_plain_kinds(files, capsys, tmp_path):
    code, _, err = run(capsys, "convert", files["shifted_vec"], "-o",
                       str(tmp_path / "x.json"))
    assert code == 2 and "fusion, pseudo, or quasi" in err


def test_convert_flags_broken_quasi(files, capsys, tmp_path):
    basis = standard_basis(2)
    path = str(tmp_path / "halfq.json")
    write_document(path, {"kind": "quasi", "dim": 2,
                          "projectors": [matrix_obj(outer(basis[0], basis[0]))]})
    code, _, err = run(capsys, "convert", path, "-o", str(tmp_path / "x.json"))
    assert code == 1 and "error:" in err


# ====== stability ======

def test_stability_identity_zero_params(files, capsys):
    code, doc, _ = run_json(capsys, "stability", files["shifted_op"],
                            files["shifted_op"])
    assert code == 0
    assert doc["theorem"] == 1
    assert doc["predicted"] == doc["measured"] == [1, 2]
    assert doc["consistent"] is True


def test_stability_fit_both_theorems(files, capsys):
    code, doc, _ = run_json(capsys, "stability", files["shifted_op"],
                            files["scaled_op"], "--fit")
    assert code == 0 and doc["params"]["lambda1"] == 0
    code, doc, _ = run_json(capsys, "stability", files["shifted_op"],
                            files["scaled_op"], "--fit", "--theorem", "2")
    assert code == 0
    assert "lambda" in doc["params"] and "lambda1" not in doc["params"]
    assert "note" in doc


def test_stability_inconsistent_exits_one(files, capsys):
    code, doc, _ = run_json(capsys, "stability", files["shifted_op"],
                            files["scaled_op"], "--lambda1", "0.01")
    assert code == 1
    assert doc["hypothesis_ok"] is False


def test_stability_flag_validation(files, capsys):
    code, _, err = run(capsys, "stability", files["shifted_op"],
                       files["scaled_op"], "--lambda2", "1.5")
    assert code == 2
    code, _, err = run(capsys, "stability", files["shifted_op"],
                       files["scaled_op"], "--fit", "--mu", "0.1")
    assert code == 2 and "conflicts" in err
    code, _, err = run(capsys, "stability", files["shifted_op"],
                       files["scaled_op"], "--theorem", "2", "--lambda1", "0.1")
    assert code == 2 and "theorem 1" in err
    code, _, err = run(capsys, "stability", files["shifted_op"],
                       files["quasi"])
    assert code == 2 and "operator_frame" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flags", [
    ["--lambda1"], ["--lambda2"], ["--mu"],
    ["--theorem", "2", "--lambda"], ["--theorem", "2", "--mu"],
], ids=lambda flags: " ".join(flags))
def test_stability_refuses_nonfinite_constants(files, capsys, flags, value):
    code, out, err = run(capsys, "stability", files["shifted_op"],
                         files["scaled_op"], *flags, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "finite" in err


def write_pair(tmp_path, f, r):
    paths = str(tmp_path / "f.json"), str(tmp_path / "r.json")
    for path, frame in zip(paths, (f, r)):
        write_document(path, operator_frame_obj(frame))
    return paths


@pytest.mark.parametrize("c, attained", [(0.5, 0), (1.5, 1)])
def test_stability_t2_bounds_with_lower_bound_off_one(capsys, tmp_path, c, attained):
    # R = c F meets the synthesis hypothesis with lambda = |1 - c| exactly,
    # and r1 (1 - lambda)^2 or r2 (1 + lambda)^2 is attained; r1 is near 352
    f = random_operator_frame(np.random.default_rng(0), 3, [2] * 4, scale=6.0)
    paths = write_pair(tmp_path, f, OperatorFrame(3, [m * c for m in f.members]))
    code, doc, _ = run_json(capsys, "stability", *paths, "--theorem", "2",
                            "--lambda", "0.5", "--mu", "0")
    assert code == 0 and doc["frame_claim"] is True and doc["consistent"] is True
    assert doc["measured"][attained] == pytest.approx(doc["predicted"][attained],
                                                      rel=1e-10)


def test_stability_t2_refuses_undersized_mu(capsys, tmp_path):
    gen = np.random.default_rng(31)
    f = random_operator_frame(gen, 6, [2] * 6)
    r = OperatorFrame(6, [m + random_qmatrix(gen, 2, 6) * 0.01 for m in f.members])
    paths = write_pair(tmp_path, f, r)
    code, doc, _ = run_json(capsys, "stability", *paths, "--theorem", "2", "--fit")
    assert code == 0
    code, doc, _ = run_json(capsys, "stability", *paths, "--theorem", "2", "--lambda",
                            "0", "--mu", repr(0.9 * doc["params"]["mu"]))
    assert code == 1 and doc["hypothesis_ok"] is False


# the identity as one 2 x 2 operator member
IDENTITY_OP = {"kind": "operator_frame", "dim": 2, "members": [
    {"rows": 2, "cols": 2, "data": [[[1, 0, 0, 0], [0, 0, 0, 0]],
                                    [[0, 0, 0, 0], [1, 0, 0, 0]]]}]}


@pytest.mark.parametrize("flags", [
    ["--mu", "1e200"], ["--lambda1", "0.5", "--mu", "1e300"],
    ["--lambda1", "0.5", "--mu", "1e308"],
], ids=" ".join)
def test_stability_refuses_an_overflowing_predicted_bound(capsys, tmp_path, flags):
    # r1 = r2 = 1, so the predicted bounds are about -mu^2 and mu^2; the
    # refusal comes before the sampled test, whose mu * ||x|| would overflow
    path = str(tmp_path / "op.json")
    write_document(path, IDENTITY_OP)
    code, out, err = run(capsys, "stability", path, path, *flags)
    assert code == 2 and out == ""
    assert err == ("error: predicted frame bound overflows; the constants are "
                   "too large for these frame bounds\n")


def test_stability_seed_echoed(files, capsys):
    code, doc, _ = run_json(capsys, "stability", files["shifted_op"],
                            files["scaled_op"], "--fit", "--seed", "42")
    assert code == 0 and doc["seed"] == 42


# sampled and exact stability, reconstruct with and without random vectors
@pytest.mark.parametrize("argv", [
    ["stability", "shifted_op", "scaled_op", "--lambda1", "0.1"],
    ["stability", "shifted_op", "scaled_op"],
    ["stability", "shifted_op", "scaled_op", "--theorem", "2", "--lambda", "0.1"],
    ["reconstruct", "shifted_vec", "--random", "2"],
    ["reconstruct", "coords", "--vector", "probe"],
], ids=" ".join)
def test_negative_seed_is_refused(files, capsys, argv):
    argv = [files.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: --seed must be nonnegative\n"


def test_analyze_records_a_negative_seed(files, capsys):
    # the seed seeds nothing there
    code, doc, _ = run_json(capsys, "analyze", files["pseudo"], "--seed", "-1")
    assert code == 0 and doc["seed"] == -1


# ====== reconstruct ======

def test_reconstruct_random_vectors(files, capsys):
    code, doc, _ = run_json(capsys, "reconstruct", files["shifted_vec"],
                            "--random", "100")
    assert code == 0
    assert doc["vector_count"] == 100
    assert doc["max_residual"] < 1e-8
    assert doc["ok"] is True


def test_reconstruct_operator_kind(files, capsys):
    code, doc, _ = run_json(capsys, "reconstruct", files["shifted_op"],
                            "--random", "25", "--seed", "9")
    assert code == 0 and doc["seed"] == 9


def test_reconstruct_supplied_vector(files, capsys):
    code, doc, _ = run_json(capsys, "reconstruct", files["coords"],
                            "--vector", files["probe"])
    assert code == 0 and doc["vector_count"] == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e8, 1e300])
def test_reconstruct_verdict_is_relative_to_the_vector(capsys, tmp_path, scale):
    # the residual is round-off relative to ||x||, so ok at any scale; at
    # 1e300 the norms must not square the entries to inf
    gen = np.random.default_rng(0)
    frame = VectorFrame(4, [QVector(m) for m in gen.standard_normal((8, 4, 4))])
    frame_path, vector_path = str(tmp_path / "vf.json"), str(tmp_path / "x.json")
    write_document(frame_path, vector_frame_obj(frame))
    write_document(vector_path, vector_obj(QVector(gen.standard_normal((4, 4)) * scale)))
    code, doc, err = run_json(capsys, "reconstruct", frame_path, "--vector", vector_path)
    assert code == 0 and err == "" and doc["ok"] is True
    assert 0 < doc["max_residual"] <= 1e-12 * scale


@pytest.mark.filterwarnings("error")
def test_reconstruct_overflow_is_nonfinite(capsys, tmp_path):
    # A x overflows: one error line and exit 2, not "max_residual": NaN
    gen = np.random.default_rng(0)
    members = gen.standard_normal((8, 4, 4)) * 1e10
    frame = VectorFrame(4, [QVector(m) for m in members])
    frame_path, vector_path = str(tmp_path / "vf.json"), str(tmp_path / "x.json")
    write_document(frame_path, vector_frame_obj(frame))
    write_document(vector_path, vector_obj(QVector(gen.standard_normal((4, 4)) * 1e300)))
    code, out, err = run(capsys, "reconstruct", frame_path, "--vector", vector_path)
    assert code == errors.NonFinite.exit_code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_reconstruct_refuses_a_dual_that_overflows(capsys, tmp_path):
    # S is near 1e-320, so S^-1 overflows; at this seed LU forms a nan on the
    # way, which numpy raises as LinAlgError unless the inverse is refused first
    path = str(tmp_path / "op.json")
    members = np.random.default_rng(189).standard_normal((3, 3, 4)) * 1e-160
    write_document(path, {"kind": "operator_frame", "dim": 3, "members": [
        {"rows": 3, "cols": 3, "data": members}]})
    code, out, err = run(capsys, "reconstruct", path, "--random", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: the frame operator underflows") and err.count("\n") == 1


def test_reconstruct_vector_dim_mismatch(files, capsys, tmp_path):
    path = str(tmp_path / "short.json")
    write_document(path, vector_obj(standard_basis(2)[0]))
    code, _, err = run(capsys, "reconstruct", files["shifted_vec"],
                       "--vector", path)
    assert code == 2 and "does not match" in err


def test_reconstruct_nonframe_exits_one(files, capsys):
    code, _, _ = run(capsys, "reconstruct", files["not_frame"], "--random", "5")
    assert code == 1


def test_reconstruct_needs_positive_count(files, capsys):
    code, _, _ = run(capsys, "reconstruct", files["shifted_vec"],
                     "--random", "0")
    assert code == 2


# counts above MAX_DIM only: one at or just below it would allocate a
# matrix of that many columns
@pytest.mark.parametrize("count", [MAX_DIM + 1, 10**12])
def test_reconstruct_refuses_a_count_above_max_dim(capsys, tmp_path, count):
    path = str(tmp_path / "vf.json")
    write_document(path, vector_frame_obj(VectorFrame(2, standard_basis(2))))
    code, out, err = run(capsys, "reconstruct", path, "--random", str(count))
    assert code == 2 and out == ""
    assert err == f"error: --random needs a count of at most {MAX_DIM}\n"


# ====== common ======

def test_malformed_file_reports_location(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "vector_frame",')
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2 and "line 1" in err


def every_subcommand(files, out):
    """Argv of each subcommand, analyze on each kind, every one printing."""
    return [
        ["analyze", files["shifted_vec"]], ["analyze", files["shifted_op"]],
        ["analyze", files["fusion"]], ["analyze", files["quasi"]],
        ["analyze", files["pseudo"]],
        ["dual", files["shifted_op"], "--out", out],
        ["parseval", files["fusion"], "--out", out],
        ["convert", files["quasi"], "--out", out],
        ["stability", files["shifted_op"], files["scaled_op"], "--lambda1", "0.2"],
        ["stability", files["shifted_op"], files["scaled_op"], "--theorem", "2", "--fit"],
        ["stability", files["shifted_op"], files["shifted_op"], "--fit"],
        ["reconstruct", files["coords"], "--vector", files["probe"]],
        ["reconstruct", files["shifted_vec"], "--random", "3"],
    ]


def test_every_subcommand_opens_each_input_once(files, capsys, monkeypatch, tmp_path):
    """The digest printed is of the bytes the command read, so no command
    opens an input a second time to hash it, and `stability F F` reads F
    once for both digests."""
    out = str(tmp_path / "out.json")
    opened = Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    for argv in every_subcommand(files, out):
        opened.clear()
        monkeypatch.setattr(builtins, "open", counting_open)
        code, text, _ = run(capsys, *argv)
        monkeypatch.undo()
        assert code in (0, 1), argv
        paths = [a for a in argv if a.startswith(files["root"]) or a == out]
        assert opened == Counter(set(paths)), argv
        doc = json.loads(text)
        digests = ({"input_digest_f": argv[1], "input_digest_r": argv[2]}
                   if argv[0] == "stability" else {"input_digest": argv[1]})
        for key, path in digests.items():
            assert doc[key] == hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _holds_a_record(value) -> bool:
    if hasattr(value, "_fields"):
        return True
    if isinstance(value, dict):
        return any(map(_holds_a_record, value.values()))
    if isinstance(value, (list, tuple)):
        return any(map(_holds_a_record, value))
    return False


def test_no_printed_document_holds_a_record(files, capsys, monkeypatch, tmp_path):
    """The result records are tuples, which dumps12 would print as lists
    instead of refusing them; every printed document holds plain values."""
    printed = []
    real_dumps12 = cli.dumps12

    def dumps12(doc):
        printed.append(doc)
        return real_dumps12(doc)

    monkeypatch.setattr(cli, "dumps12", dumps12)
    argvs = every_subcommand(files, str(tmp_path / "out.json"))
    for argv in argvs:
        run(capsys, *argv)
    assert len(printed) == len(argvs)
    assert not any(map(_holds_a_record, printed))


# families that hold no vector or matrix, so nothing fixes the dimension;
# tested at a tiny dim and at 10^30 only: were the refusal missing, a
# mid-size dim would allocate a dim x dim Gram matrix
@pytest.mark.parametrize("dim", [3, 10**30], ids=["dim3", "dim10e30"])
@pytest.mark.parametrize("family", [
    {"kind": "vector_frame", "members": []},
    {"kind": "operator_frame", "members": []},
    {"kind": "fusion", "weights": [1.0], "subspaces": [[]]},
    {"kind": "pseudo", "analyzers": [], "synthesizers": [], "subspace": []},
    {"kind": "quasi", "projectors": []},
], ids=lambda family: family["kind"])
def test_file_without_vector_or_matrix_is_refused(capsys, tmp_path, dim, family):
    path = str(tmp_path / "empty.json")
    write_document(path, {**family, "dim": dim})
    for argv in (["analyze", path], ["parseval", path, "--out", path + ".out"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: frame.dim: ") and err.count("\n") == 1


# MAX_DIM with no payload reaches the payload refusal, so nothing is
# allocated; MAX_DIM + 1 is refused by the bound before the payload is read
@pytest.mark.parametrize("dim, message", [
    (MAX_DIM, f"the file holds no vector or matrix to fix dim {MAX_DIM}"),
    (MAX_DIM + 1, f"must be <= {MAX_DIM}"),
    (10**30, f"must be <= {MAX_DIM}"),
], ids=["max", "max+1", "10e30"])
@pytest.mark.parametrize("family", [
    {"kind": "vector_frame", "members": []},
    {"kind": "operator_frame", "members": []},
    {"kind": "fusion", "weights": [1.0], "subspaces": [[]]},
    {"kind": "pseudo", "analyzers": [], "synthesizers": [], "subspace": []},
    {"kind": "quasi", "projectors": []},
], ids=lambda family: family["kind"])
def test_frame_dim_is_bounded_before_any_payload(capsys, tmp_path, dim, message, family):
    path = str(tmp_path / "big.json")
    write_document(path, {**family, "dim": dim})
    code, out, err = run(capsys, "analyze", path)
    assert code == 2 and out == ""
    assert err == f"error: frame.dim: {message}\n"


def test_dim_bound_precedes_the_payload(capsys, tmp_path):
    # a bad payload behind an oversized dim is never read
    path = str(tmp_path / "big.json")
    write_document(path, {"kind": "vector_frame", "dim": MAX_DIM + 1,
                          "members": [{"dim": 1, "data": [[True, 0, 0, 0]]}]})
    code, _, err = run(capsys, "analyze", path)
    assert code == 2 and err == f"error: frame.dim: must be <= {MAX_DIM}\n"


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _, _ = run(capsys, "analyze", str(tmp_path / "absent.json"))
    assert code == 2


def test_usage_error_from_argparse(files):
    with pytest.raises(SystemExit) as info:
        main(["stability", files["shifted_op"]])
    assert info.value.code == 2


@pytest.mark.parametrize("kind, field", [
    ("vector_frame", "frame.members[1].data[2][3]"),
    ("operator_frame", "frame.members[3].data[0][2][0]"),
    ("fusion", "frame.weights[1]"),
])
@pytest.mark.parametrize("value", [
    float("nan"), float("inf"),
    # an integer that float() cannot hold, written out in all its digits
    pytest.param(10**400, id="int10e400"),
])
def test_nonfinite_number_is_parse_error(capsys, tmp_path, kind, field, value):
    basis = standard_basis(4)
    if kind == "vector_frame":
        obj = json_doc(vector_frame_obj(VectorFrame(4, basis)))
        obj["members"][1]["data"][2][3] = value
    elif kind == "operator_frame":
        obj = json_doc(operator_frame_obj(coordinate_functional_frame(4)))
        obj["members"][3]["data"][0][2][0] = value
    else:
        obj = {"kind": "fusion", "dim": 4, "weights": [1.0, value],
               "subspaces": json_doc([[vector_obj(basis[0])],
                                      [vector_obj(basis[1])]])}
    path = tmp_path / "nonfinite.json"
    # json.dumps spells the value as the NaN or Infinity token
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err and "finite" in err


def test_overlong_integer_literal_is_parse_error(capsys, tmp_path):
    # json.loads refuses integer literals beyond Python's digit limit
    obj = json_doc(vector_frame_obj(VectorFrame(2, standard_basis(2))))
    text = json.dumps(obj).replace("1.0", "1" + "0" * 4999, 1)
    path = tmp_path / "long.json"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("payload", [
    pytest.param(b"\xff\xfe{}", id="not-utf8"),
    pytest.param(b"[" * 100_000, id="deep-nesting"),
    # valid JSON nested deeper than json's recursion limit, which orjson
    # would read
    pytest.param(b"[" * 1100 + b"]" * 1100, id="deep-valid"),
])
def test_unreadable_json_is_parse_error(files, capsys, tmp_path, payload):
    # both readers: the frame file and the vector file of reconstruct
    path = tmp_path / "unreadable.json"
    path.write_bytes(payload)
    for command in (["analyze", str(path)],
                    ["reconstruct", files["shifted_vec"], "--vector", str(path)]):
        code, out, err = run(capsys, *command)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


# every package error class and the exit code main turns it into
EXIT_CODES = {
    errors.NotAFrame: 1,
    errors.NotAFrameOnSubspace: 1,
    errors.HypothesisViolated: 1,
    errors.Singular: 1,
    errors.NotHermitian: 1,
    errors.NotPositive: 1,
    errors.PullbackFailed: 1,
    errors.ParseError: 2,
    errors.ValidationError: 2,
    errors.InvalidParams: 2,
    errors.ConditionViolated: 2,
    errors.DimensionMismatch: 2,
    errors.InvalidWeight: 2,
    errors.NonFinite: 2,
}


def test_exit_code_table_covers_every_error_class():
    assert set(EXIT_CODES) == set(errors.QuatFramesError.__subclasses__())


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda c: c.__name__)
def test_each_error_class_exits_cleanly(files, capsys, monkeypatch, cls):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_analyze", fail)
    code, out, err = run(capsys, "analyze", files["shifted_vec"])
    assert code == EXIT_CODES[cls]
    assert out == "" and err == "error: boom\n"


# ====== no traceback ======

# entries of the generated files: zero, units, subnormals, numbers near
# overflow up to the top of the float range, and standard normal draws
ENTRIES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1e-320, -1e-320, 1e300, -1e300, 1.7e308, -1.7e308]),
    st.integers(0, 2**32 - 1).map(lambda s: float(np.random.default_rng(s).standard_normal())))


@st.composite
def generalized_docs(draw):
    """A fusion, pseudo or quasi file on H^n, n <= 4, with at most three
    members and at most two vectors per subspace."""
    n = draw(st.integers(1, 4))

    def rows(count):
        return [[draw(ENTRIES) for _ in range(4)] for _ in range(count)]

    def vectors(low, high):
        return [{"dim": n, "data": rows(n)} for _ in range(draw(st.integers(low, high)))]

    kind = draw(st.sampled_from(["fusion", "pseudo", "quasi"]))
    if kind == "fusion":
        subspaces = [vectors(0, 2) for _ in range(draw(st.integers(1, 3)))]
        return {"kind": kind, "dim": n, "weights": [draw(ENTRIES) for _ in subspaces],
                "subspaces": subspaces}
    if kind == "pseudo":
        count = draw(st.integers(0, 3))
        return {"kind": kind, "dim": n, "analyzers": vectors(count, count),
                "synthesizers": vectors(count, count), "subspace": vectors(0, 2)}
    return {"kind": kind, "dim": n, "projectors": [
        {"rows": n, "cols": n, "data": [rows(n) for _ in range(n)]}
        for _ in range(draw(st.integers(1, 3)))]}


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def assert_ends_cleanly(argv, reports_failure=False):
    """The command ends in exit 0 with a JSON report and empty stderr, or in
    exit 1 or 2 with empty stdout and one error line; with reports_failure,
    exit 1 may also come with a report, as a failed verdict does.  Returns
    the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 0 or (reports_failure and code == 1 and out):
        assert err == ""
        json.loads(out, parse_constant=refuse_constant)
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    return code, out


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("no_traceback")


# a pseudo pair whose residual has finite entries and an operator norm that
# overflows, one whose analyzer restricted to the subspace overflows, and
# quasi files whose self-adjointness defect and whose sum overflow
HUGE_RESIDUAL_PSEUDO = {
    "kind": "pseudo", "dim": 2,
    "analyzers": [{"dim": 2, "data": [[1, 0, 0, 0], [0, 0, 0, 0]]}],
    "synthesizers": [{"dim": 2, "data": [[1.5e308, 0, 0, 0], [1.5e308, 0, 0, 0]]}],
    "subspace": [{"dim": 2, "data": [[1, 0, 0, 0], [0, 0, 0, 0]]}]}
HUGE_RESTRICTION_PSEUDO = {
    "kind": "pseudo", "dim": 2,
    "analyzers": [{"dim": 2, "data": [[1.7e308, 0, 0, 0], [0, 1.7e308, 0, 0]]}],
    "synthesizers": [{"dim": 2, "data": [[0, 0, 0, 0], [0, 0, 0, 0]]}],
    "subspace": [{"dim": 2, "data": [[1, 0, 0, 0], [0, 1, 0, 0]]}]}
HUGE_DEFECT_QUASI = {"kind": "quasi", "dim": 1, "projectors": [
    {"rows": 1, "cols": 1, "data": [[[0, 0, 1e308, 0]]]}]}
HUGE_SUM_QUASI = {"kind": "quasi", "dim": 1, "projectors": [
    {"rows": 1, "cols": 1, "data": [[[1e308, 0, 0, 0]]]}] * 2}


@settings(max_examples=60, deadline=None)
@given(generalized_docs())
@example(SUBNORMAL_DOCS["fusion"])
@example(SUBNORMAL_DOCS["pseudo"])
@example(SUBNORMAL_DOCS["quasi"])
@example(HUGE_RESIDUAL_PSEUDO)
@example(HUGE_RESTRICTION_PSEUDO)
@example(HUGE_DEFECT_QUASI)
@example(HUGE_SUM_QUASI)
def test_generalized_files_never_end_in_a_traceback(scratch, doc):
    """Every command on a generalized file ends in a JSON report or one
    error line; a RuntimeWarning is an error here, so numpy cannot
    overflow silently on the way."""
    path = str(scratch / "frame.json")
    write_document(path, doc)
    for argv in (["analyze", path], ["parseval", path, "-o", str(scratch / "out.json")],
                 ["convert", path, "-o", str(scratch / "out.json")]):
        assert_ends_cleanly(argv)


@st.composite
def operator_pairs(draw):
    """Two operator frames F, R on H^n, n <= 3, with the same one to three
    member shapes of at most three rows: standard normal draws at a scale
    from subnormal to near overflow, R being F, F perturbed or its own draw."""
    n = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-320, 1e-160, 1e150, 1e300]))
    f = gen.standard_normal((sum(dims), n, 4)) * scale
    r = draw(st.sampled_from([f, f + 0.01 * scale * gen.standard_normal(f.shape),
                              scale * gen.standard_normal(f.shape)]))

    def frame(a):
        return {"kind": "operator_frame", "dim": n, "members": [
            {"rows": d, "cols": n, "data": block}
            for d, block in zip(dims, np.split(a, np.cumsum(dims)[:-1]))]}

    return frame(f), frame(r)


# zero, subnormal, admissible, next to the lambda2 < 1 limit, and large
CONSTANTS = st.sampled_from([0.0, 1e-320, 0.5, 0.999, 1e200, 1e308])


@settings(max_examples=60, deadline=None)
@given(operator_pairs(), st.tuples(CONSTANTS, CONSTANTS, CONSTANTS),
       st.sampled_from([0, 2**32, -1]))
@example((IDENTITY_OP, IDENTITY_OP), (0.0, 0.0, 1e200), 0)
@example((IDENTITY_OP, IDENTITY_OP), (0.5, 0.0, 1e308), 0)
@example((IDENTITY_OP, IDENTITY_OP), (0.1, 0.0, 0.0), -1)
def test_stability_and_reconstruct_never_end_in_a_traceback(scratch, pair, constants, seed):
    """Both stability theorems and reconstruct on a small operator-frame
    pair end in a JSON report or one error line, at any constant and seed."""
    paths = str(scratch / "f.json"), str(scratch / "r.json")
    for path, doc in zip(paths, pair):
        write_document(path, doc)
    c1, c2, c3 = map(repr, constants)
    seed = ["--seed", str(seed)]
    for argv in (["stability", *paths, "--lambda1", c1, "--lambda2", c2, "--mu", c3, *seed],
                 ["stability", *paths, "--theorem", "2", "--lambda", c1, "--mu", c3, *seed],
                 ["reconstruct", paths[0], "--random", "2", *seed]):
        assert_ends_cleanly(argv, reports_failure=True)


@st.composite
def vector_and_operator_docs(draw):
    """A vector or operator frame file on H^n, n <= 3, with one to four
    members, each standard normal draws times a scale from zero through
    subnormal to near overflow."""
    n = draw(st.integers(1, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = draw(st.lists(st.sampled_from([0.0, 1.0, 1e-320, 1e-160, 1e150, 1e300]),
                           min_size=1, max_size=4))
    if draw(st.booleans()):
        return {"kind": "vector_frame", "dim": n, "members": [
            {"dim": n, "data": gen.standard_normal((n, 4)) * s} for s in scales]}
    return {"kind": "operator_frame", "dim": n, "members": [
        {"rows": d, "cols": n, "data": gen.standard_normal((d, n, 4)) * s}
        for s, d in zip(scales, [draw(st.integers(1, 3)) for _ in scales])]}


@settings(max_examples=60, deadline=None)
@given(vector_and_operator_docs())
@example(SUBNORMAL_S_OP)
@example(SUBNORMAL_S_TIGHT)
def test_vector_and_operator_files_never_end_in_a_traceback(scratch, doc):
    """analyze, dual, parseval and reconstruct on a small vector or
    operator frame end in a JSON report or one error line, and a Parseval
    normalization that is written is Parseval to within 1e-6 times the
    condition number of the input."""
    path, out_path = str(scratch / "frame.json"), str(scratch / "out.json")
    write_document(path, doc)
    _, report = assert_ends_cleanly(["analyze", path])
    assert_ends_cleanly(["dual", path, "-o", out_path])
    code, summary = assert_ends_cleanly(["parseval", path, "-o", out_path])
    if code == 0:
        lower, upper = json.loads(report)["bounds"]
        for bound in json.loads(summary)["bounds"]:
            assert abs(bound - 1.0) <= 1e-6 * upper / lower
    assert_ends_cleanly(["reconstruct", path, "--random", "2"], reports_failure=True)


# small valid files of the five kinds on H^2
SMALL_FILES = [
    {"kind": "vector_frame", "dim": 2, "members": [
        {"dim": 2, "data": [[1.0, 0, 0, 0], [0, 0.5, 0, 0]]},
        {"dim": 2, "data": [[0, 0, -0.25, 0], [1e-05, 0, 0, 2.0]]}]},
    {"kind": "operator_frame", "dim": 2, "members": [
        {"rows": 1, "cols": 2, "data": [[[1.0, 0, 0, 0], [0, 0, 0, 0]]]},
        {"rows": 2, "cols": 2, "data": [[[0, 0, 0, 0], [0.5, 0, 0, 0]],
                                        [[0, 0.25, 0, 0], [0, 0, 0, -1.5]]]}]},
    {"kind": "fusion", "dim": 2, "weights": [1.0, 0.5], "subspaces": [
        [{"dim": 2, "data": [[1.0, 0, 0, 0], [0, 0, 0, 0]]}],
        [{"dim": 2, "data": [[0, 0, 0, 0], [0, 1.0, 0, 0]]},
         {"dim": 2, "data": [[0.5, 0, 0, 0], [0.5, 0, 0, 0]]}]]},
    {"kind": "pseudo", "dim": 2,
     "analyzers": [{"dim": 2, "data": [[1.0, 0, 0, 0], [0, 0, 0, 0]]}],
     "synthesizers": [{"dim": 2, "data": [[1.0, 0, 0, 0], [0, 0, 0.5, 0]]}],
     "subspace": [{"dim": 2, "data": [[1.0, 0, 0, 0], [0, 0, 0, 0]]}]},
    {"kind": "quasi", "dim": 2, "projectors": [
        {"rows": 2, "cols": 2, "data": [[[1.0, 0, 0, 0], [0, 0, 0, 0]],
                                        [[0, 0, 0, 0], [0, 0, 0, 0]]]},
        {"rows": 2, "cols": 2, "data": [[[0, 0, 0, 0], [0, 0, 0, 0]],
                                        [[0, 0, 0, 0], [1.0, 0, 0, 0]]]}]},
]


@settings(max_examples=200, deadline=None)
@given(doc=st.sampled_from(SMALL_FILES),
       mutation=st.sampled_from(MUTATIONS), index=st.integers(0, 2**16), byte=BYTES,
       splice=SPLICES)
def test_mutated_file_text_never_ends_in_a_traceback(scratch, doc, mutation, index, byte,
                                                     splice):
    """analyze on a small file of any kind, its text damaged at one place,
    ends in a JSON report or one error line."""
    path = scratch / "mutated.json"
    path.write_bytes(mutated(json.dumps(doc).encode(), mutation, index, byte, splice))
    assert_ends_cleanly(["analyze", str(path)])


# an operator-frame pair on H^2: SMALL_FILES' operator frame, and its
# members scaled by 0.9
PAIR = [SMALL_FILES[1], {**SMALL_FILES[1], "members": [
    {**m, "data": (0.9 * np.array(m["data"])).tolist()} for m in SMALL_FILES[1]["members"]]}]
COUNTS = ("dim", "rows", "cols")
# leaves from the top of the float range down to the smallest subnormal
LEAVES = [1.7e308, -1.7e308, 1e154, -1e-154, 2.2e-308, 1e-320, 5e-324, -5e-324]
# values of the wrong type for a leaf or a count, a count among them
# spelled as a float
WRONG_TYPES = ["0", True, None, [], {}, [0.0], 2.0, 0.5]
# keys to add to an object that lacks them
EXTRA_KEYS = ["extra", "dim", "rows", "cols", "data", "members", "weights", "subspace"]


def value_paths(node, path=()):
    """The path of every value in a parsed document, as its keys and indices."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from value_paths(child, (*path, key))


def value_at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


# which paths each mutation of a parsed document may act on
DOCUMENT_MUTATIONS = {
    "leaf": lambda path, v: type(v) in (int, float) and path[-1] not in COUNTS,
    "wrong type": lambda path, v: bool(path),
    "off by one": lambda path, v: bool(path) and path[-1] in COUNTS,
    "drop": lambda path, v: isinstance(v, list) and bool(v),
    "duplicate": lambda path, v: isinstance(v, list) and bool(v),
    "delete key": lambda path, v: isinstance(v, dict) and bool(v),
    "extra key": lambda path, v: isinstance(v, dict),
}


@st.composite
def mutated_documents(draw):
    """A small file of any kind, or an operator-frame pair, as parsed, with
    one of its documents changed at one value: a leaf set to an extreme,
    a leaf or count of the wrong type, a count off by one, a list made
    ragged or a key deleted or added."""
    docs = copy.deepcopy(draw(st.sampled_from([[d] for d in SMALL_FILES] + [PAIR])))
    which = draw(st.integers(0, len(docs) - 1))
    doc = docs[which]
    mutation = draw(st.sampled_from(sorted(DOCUMENT_MUTATIONS)))
    fits = DOCUMENT_MUTATIONS[mutation]
    path = draw(st.sampled_from([p for p in value_paths(doc) if fits(p, value_at(doc, p))]))
    value = value_at(doc, path)
    if mutation == "drop":
        value.pop(draw(st.integers(0, len(value) - 1)))
    elif mutation == "duplicate":
        value.append(copy.deepcopy(draw(st.sampled_from(value))))
    elif mutation == "delete key":
        del value[draw(st.sampled_from(sorted(value)))]
    elif mutation == "extra key":
        value[draw(st.sampled_from([k for k in EXTRA_KEYS if k not in value]))] = 0
    else:
        value_at(doc, path[:-1])[path[-1]] = draw(
            st.sampled_from(LEAVES) if mutation == "leaf" else
            st.sampled_from(WRONG_TYPES) if mutation == "wrong type" else
            st.sampled_from([value - 1, value + 1]))
    return docs, which


@settings(max_examples=200, deadline=None)
@given(mutated_documents())
def test_mutated_documents_never_end_in_a_traceback(scratch, mutated_docs):
    """Every subcommand on a small file of any kind, one value of its parsed
    document changed, ends in a JSON report or one error line, and so does
    stability --fit under both theorems on an operator-frame pair with one
    of the two changed."""
    docs, which = mutated_docs
    paths = [scratch / f"doc{i}.json" for i in range(len(docs))]
    for path, each in zip(paths, docs):
        path.write_text(json.dumps(each))
    path, out = str(paths[which]), str(scratch / "out.json")
    for argv in (["analyze", path], ["dual", path, "-o", out], ["parseval", path, "-o", out],
                 ["convert", path, "-o", out]):
        assert_ends_cleanly(argv)
    assert_ends_cleanly(["reconstruct", path, "--random", "2"], reports_failure=True)
    if len(docs) == 2:
        for theorem in ("1", "2"):
            assert_ends_cleanly(["stability", *map(str, paths), "--theorem", theorem, "--fit"],
                                reports_failure=True)
