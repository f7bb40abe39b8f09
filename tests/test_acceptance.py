"""Acceptance gate: ten checks covering the toolkit's headline claims.

Each test prints exactly one pass/fail line (written past the capture
so it is visible in live runs) and then asserts.  Tolerances are part
of the contract and are stated inline.
"""

import json

import numpy as np
import pytest

from conftest import (
    ACCEPT_SEED,
    ACCEPTANCE_LINES,
    coordinate_functional_frame,
    random_operator_frame,
    shifted_basis_vectors,
    standard_basis,
)
from quatframes.cli import main
from quatframes.errors import ConditionViolated
from quatframes.fileio import (
    matrix_obj,
    operator_frame_obj,
    vector_frame_obj,
    vector_obj,
    write_document,
)
from quatframes.generalizations import (
    FusionFrame,
    QuasiProjectorSystem,
    fusion_frame_operator,
    quasi_projector_check,
)
from quatframes.linalg import (
    QMatrix,
    complex_adjoint_rep,
    frobenius_distance,
    hermitian_eigenvalues,
    inverse_matrix,
    outer,
)
from quatframes.operator_frames import (
    OperatorFrame,
    induced_sequence,
    op_dual,
    op_frame_operator,
    op_parseval,
    op_report,
    reconstruct,
)
from quatframes.sampling import random_qmatrix, random_quaternion, random_qvector
from quatframes.vector_frames import VectorFrame, frame_operator


def report_line(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def bounds_of(s):
    eigs = hermitian_eigenvalues(s)
    return float(eigs[0]), float(eigs[-1])


def shifted_members():
    # eight members z1, z1, z2, ..., z7 spanning H^7
    return shifted_basis_vectors(7)


def rank_one_frame(members, dim):
    return OperatorFrame(dim, [outer(u, u) for u in members])


@pytest.fixture(scope="module")
def random_frames():
    """Fifty seeded operator frames: n <= 16, 3 to 10 members, mixed
    codomain dimensions.  Draws whose smallest eigenvalue is below
    1e-6 of the largest are redrawn so every fixture is an actual
    frame with numerical headroom."""
    gen = np.random.default_rng(ACCEPT_SEED)
    frames = []
    while len(frames) < 50:
        count = int(gen.integers(3, 11))
        dims = [int(gen.integers(1, 5)) for _ in range(count)]
        total = sum(dims)
        if total < 2:
            continue
        n = int(gen.integers(2, min(16, total) + 1))
        f = random_operator_frame(gen, n, dims)
        s = op_frame_operator(f)
        eigs = hermitian_eigenvalues(s)
        if eigs[0] <= 1e-6 * eigs[-1]:
            continue
        frames.append((f, s, eigs))
    return frames


def test_criterion_01_shifted_basis_three_encodings():
    members = shifted_members()
    vector_s = frame_operator(VectorFrame(7, members))
    operator_s = op_frame_operator(rank_one_frame(members, 7))
    fusion_s = fusion_frame_operator(
        FusionFrame(7, [QMatrix.from_columns([u]) for u in members], [1.0] * 8))
    worst = 0.0
    for s in (vector_s, operator_s, fusion_s):
        lo, hi = bounds_of(s)
        worst = max(worst, abs(lo - 1.0), abs(hi - 2.0))
    ok = worst <= 1e-9
    report_line(1, ok,
                f"shifted-basis bounds (1, 2) in all three encodings, "
                f"max deviation {worst:.3e} (tol 1e-9)")


def test_criterion_02_coordinate_functionals_parseval():
    rep = op_report(coordinate_functional_frame(8))
    worst = max(abs(rep.lower - 1.0), abs(rep.upper - 1.0))
    ok = worst <= 1e-12 and rep.is_parseval
    report_line(2, ok,
                f"coordinate functionals report ({rep.lower:.12g}, "
                f"{rep.upper:.12g}) parseval={rep.is_parseval} (tol 1e-12)")


def test_criterion_03_canonical_dual_bounds_and_reconstruction():
    f = rank_one_frame(shifted_members(), 7)
    dual = op_dual(f)
    lo, hi = bounds_of(op_frame_operator(dual))
    bounds_err = max(abs(lo - 0.5), abs(hi - 1.0))
    operator_err = frobenius_distance(
        op_frame_operator(dual), inverse_matrix(op_frame_operator(f)))
    gen = np.random.default_rng(ACCEPT_SEED + 3)
    residual = 0.0
    for _ in range(100):
        x = random_qvector(gen, 7)
        residual = max(residual, (reconstruct(f, dual, x) - x).norm())
    ok = bounds_err <= 1e-9 and operator_err <= 1e-9 and residual < 1e-8
    report_line(3, ok,
                f"dual bounds off by {bounds_err:.3e} (tol 1e-9), "
                f"S_dual vs inverse(S) {operator_err:.3e} (tol 1e-9), "
                f"reconstruction residual {residual:.3e} (tol 1e-8)")


def test_criterion_04_parseval_normalization_sweep(random_frames):
    eye = QMatrix.identity(random_frames[0][0].space_dim)
    worst = 0.0
    for f, _, _ in random_frames:
        whitened = op_frame_operator(op_parseval(f))
        eye = QMatrix.identity(f.space_dim)
        worst = max(worst, frobenius_distance(whitened, eye))
    ok = worst < 1e-9
    report_line(4, ok,
                f"op_parseval of 50 random frames: worst "
                f"|frame operator - I| = {worst:.3e} (tol 1e-9)")


def test_criterion_05_induced_sequence_equivalence(random_frames):
    worst_bounds = 0.0
    worst_entry = 0.0
    for f, s, eigs in random_frames:
        induced = induced_sequence(f)
        s_vec = frame_operator(induced)
        lo, hi = bounds_of(s_vec)
        worst_bounds = max(worst_bounds, abs(lo - eigs[0]), abs(hi - eigs[-1]))
        worst_entry = max(worst_entry, float(np.max(np.abs(s.data - s_vec.data))))
    ok = worst_bounds <= 1e-10 and worst_entry <= 1e-12
    report_line(5, ok,
                f"induced sequences match operator frames: bounds off by "
                f"{worst_bounds:.3e} (tol 1e-10), entries by "
                f"{worst_entry:.3e} (tol 1e-12)")


def test_criterion_06_frame_operator_properties(random_frames):
    members = shifted_members()
    fixtures = [
        frame_operator(VectorFrame(7, members)),
        op_frame_operator(rank_one_frame(members, 7)),
        fusion_frame_operator(FusionFrame(7, [QMatrix.from_columns([u]) for u in members],
                                          [1.0] * 8)),
        op_frame_operator(coordinate_functional_frame(8)),
    ] + [s for _, s, _ in random_frames]
    worst_sym = 0.0
    min_eig = float("inf")
    sandwich_ok = True
    for s in fixtures:
        worst_sym = max(worst_sym, frobenius_distance(s, s.adjoint()))
        eigs = hermitian_eigenvalues(s)
        min_eig = min(min_eig, float(eigs[0]))
        sandwich_ok &= bool(np.all(eigs >= eigs[0] - 1e-9)
                            and np.all(eigs <= eigs[-1] + 1e-9))
    ok = worst_sym <= 1e-12 and min_eig > 0.0 and sandwich_ok
    report_line(6, ok,
                f"{len(fixtures)} frame operators: self-adjointness "
                f"{worst_sym:.3e} (tol 1e-12), min eigenvalue "
                f"{min_eig:.3e} (> 0), spectra inside bounds {sandwich_ok}")


def test_criterion_07_quasi_projector_example():
    basis = standard_basis(8)
    projectors = [outer(b, b) for b in basis]
    system = QuasiProjectorSystem(8, projectors)
    total = projectors[0]
    for p in projectors[1:]:
        total = total + p
    resolution = frobenius_distance(total, QMatrix.identity(8))
    check = quasi_projector_check(system)
    bessel_err = abs(check.bessel_bound - 1.0)
    ok = (resolution < 1e-12 and bessel_err <= 1e-12
          and check.self_adjoint and check.compatible)
    report_line(7, ok,
                f"coordinate projectors at n=8: resolution defect "
                f"{resolution:.3e} (tol 1e-12), Bessel bound off by "
                f"{bessel_err:.3e} (tol 1e-12), self_adjoint="
                f"{check.self_adjoint}, compatible={check.compatible}")


def test_criterion_08_stability_soundness_sweep(random_frames):
    from quatframes.stability import (
        check_stability_t1,
        check_stability_t2,
        fit_params_t1,
        fit_params_t2,
    )
    gen = np.random.default_rng(ACCEPT_SEED + 8)
    all_consistent = True
    produced_t2 = 0
    skipped_t2 = 0
    zero_gap = 0.0
    zero_cases = 0
    for idx, (f, _, _) in enumerate(random_frames):
        scale = 1.0 if idx % 10 == 0 else float(gen.uniform(0.05, 1.0))
        r = OperatorFrame(f.space_dim, [m * scale for m in f.members])
        verdicts = []
        v1 = check_stability_t1(f, r, fit_params_t1(f, r))
        verdicts.append(v1)
        try:
            v2 = check_stability_t2(f, r, fit_params_t2(f, r))
            verdicts.append(v2)
            produced_t2 += 1
        except ConditionViolated:
            # fitted mu too large relative to sqrt(r1); theorem is silent
            skipped_t2 += 1
        for v in verdicts:
            all_consistent &= v.hypothesis_ok and v.consistent
        if scale == 1.0:
            zero_cases += 1
            for v in verdicts:
                zero_gap = max(zero_gap,
                               abs(v.predicted_lower - v.measured_lower),
                               abs(v.predicted_upper - v.measured_upper))
    ok = all_consistent and produced_t2 >= 1 and zero_gap <= 1e-12
    report_line(8, ok,
                f"50 scaled pairs: all fitted verdicts consistent="
                f"{all_consistent} (t2 admissible {produced_t2}, silent "
                f"{skipped_t2}), zero-perturbation gap {zero_gap:.3e} "
                f"over {zero_cases} cases (tol 1e-12)")


def test_criterion_09_algebra_property_suite():
    gen = np.random.default_rng(ACCEPT_SEED + 9)
    worst = 0.0
    for _ in range(10_000):
        p, q, r = (random_quaternion(gen) for _ in range(3))
        assoc = (p * q) * r - p * (q * r)
        dist = p * (q + r) - (p * q + p * r)
        conj_flip = (p * q).conjugate() - q.conjugate() * p.conjugate()
        for d in (assoc, dist, conj_flip):
            worst = max(worst, max(abs(c) for c in d.components))
        worst = max(worst, abs(abs(p * q) - abs(p) * abs(q)))
    chi_worst = 0.0
    for _ in range(100):
        a = random_qmatrix(gen, 5, 5)
        b = random_qmatrix(gen, 5, 5)
        hom = np.linalg.norm(complex_adjoint_rep(a @ b)
                             - complex_adjoint_rep(a) @ complex_adjoint_rep(b))
        adj = np.linalg.norm(complex_adjoint_rep(a.adjoint())
                             - complex_adjoint_rep(a).conj().T)
        chi_worst = max(chi_worst, float(hom), float(adj))
    ok = worst <= 1e-12 and chi_worst <= 1e-12
    report_line(9, ok,
                f"10^4 quaternion triples: worst algebra defect {worst:.3e}; "
                f"100 matrix pairs: worst adjoint-representation defect "
                f"{chi_worst:.3e} (tol 1e-12)")


def test_criterion_10_analyze_determinism(tmp_path, capsys):
    basis = standard_basis(4)
    members = shifted_basis_vectors(4)
    fixtures = {
        "vector_frame.json": vector_frame_obj(VectorFrame(4, members)),
        "operator_frame.json": operator_frame_obj(rank_one_frame(members, 4)),
        "fusion.json": {
            "kind": "fusion", "dim": 4, "weights": [1.0] * 5,
            "subspaces": [[vector_obj(u)] for u in members],
        },
        "pseudo.json": {
            "kind": "pseudo", "dim": 8,
            "analyzers": [vector_obj(v) for v in standard_basis(8)[:4]],
            "synthesizers": [vector_obj(standard_basis(8)[2 * i])
                             for i in range(4)],
            "subspace": [vector_obj(standard_basis(8)[0])],
        },
        "quasi.json": {
            "kind": "quasi", "dim": 4,
            "projectors": [matrix_obj(outer(b, b)) for b in basis],
        },
    }
    identical = True
    for name, obj in fixtures.items():
        path = str(tmp_path / name)
        write_document(path, obj)
        runs = []
        for _ in range(2):
            code = main(["analyze", path])
            out = capsys.readouterr().out
            assert code == 0
            json.loads(out)  # stays well-formed
            runs.append(out.encode())
        identical &= runs[0] == runs[1]
    ok = identical
    report_line(10, ok,
                f"analyze ran twice on {len(fixtures)} fixtures: "
                f"byte-identical={identical}")
