"""Command-line behavior: report content, artifact round trips,
determinism, and the exit-code contract."""

import json

import numpy as np
import pytest

from conftest import (
    coordinate_functional_frame,
    json_doc,
    random_operator_frame,
    random_qmatrix,
    shifted_basis_operator_frame,
    shifted_basis_vector_frame,
    standard_basis,
)
from quatframes import cli, errors
from quatframes.cli import main
from quatframes.fileio import (
    load_frame,
    matrix_obj,
    operator_frame_obj,
    vector_frame_obj,
    vector_obj,
    write_document,
)
from quatframes.linalg import QVector, outer
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
    _, original = load_frame(files["shifted_vec"])
    _, back = load_frame(twice)
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
    _, first = load_frame(once)
    _, second = load_frame(twice)
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
    kind, frame = load_frame(out)
    assert kind == "operator_frame" and frame.space_dim == 4


def test_convert_quasi_and_pseudo(files, capsys, tmp_path):
    code, doc, _ = run_json(capsys, "convert", files["quasi"], "-o",
                            str(tmp_path / "q.json"))
    assert code == 0 and doc["bounds"] == [1, 1]
    code, doc, _ = run_json(capsys, "convert", files["pseudo"], "-o",
                            str(tmp_path / "p.json"))
    assert code == 0 and doc["bounds"] == [1, 1]
    kind, frame = load_frame(str(tmp_path / "p.json"))
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


def test_stability_seed_echoed(files, capsys):
    code, doc, _ = run_json(capsys, "stability", files["shifted_op"],
                            files["scaled_op"], "--fit", "--seed", "42")
    assert code == 0 and doc["seed"] == 42


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
    assert code == cli.EXIT_CODES[errors.NonFinite] == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


# ====== common ======

def test_malformed_file_reports_location(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "vector_frame",')
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2 and "line 1" in err


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
