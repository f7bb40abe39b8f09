"""Stability checkers: fitted constants, predicted-vs-measured bounds,
and the guard rails around inadmissible parameters."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    random_operator_frame,
    random_qmatrix,
    random_unit_qvector,
    shifted_basis_operator_frame,
)
from quatframes import operator_frames, reporting
from quatframes.errors import (
    ConditionViolated,
    DimensionMismatch,
    InvalidParams,
    NotAFrame,
)
from quatframes.linalg import QMatrix
from quatframes.operator_frames import OperatorFrame
from quatframes.stability import (
    Theorem1Params,
    Theorem2Params,
    check_stability_t1,
    check_stability_t2,
    difference_frame,
    fit_params_t1,
    fit_params_t2,
)

SEED = 90210


def scaled(f, s):
    return OperatorFrame(f.space_dim, [m * s for m in f.members])


# ====== fitted constants ======

def test_fit_zero_difference_gives_zero_mu():
    f = shifted_basis_operator_frame(5)
    p = fit_params_t1(f, f)
    assert p.lambda1 == 0.0 and p.lambda2 == 0.0 and p.mu == 0.0
    assert fit_params_t2(f, f).mu == 0.0


def test_fit_halved_members_gives_half_sqrt_upper():
    # differences are F/2, so the difference Gram is S_F/4 and
    # mu = sqrt(r2)/2 with r2 = 2 for the shifted basis
    f = shifted_basis_operator_frame(5)
    p = fit_params_t1(f, scaled(f, 0.5))
    assert abs(p.mu - 0.5 * math.sqrt(2.0)) <= 1e-12


def test_fit_single_member_difference_is_its_norm():
    delta = 0.37
    eye = QMatrix.identity(3)
    bump = QMatrix.from_real(np.diag([delta, 0.0, 0.0]))
    f = OperatorFrame(3, [eye])
    r = OperatorFrame(3, [eye - bump])
    assert abs(fit_params_t1(f, r).mu - delta) <= 1e-12
    assert abs(fit_params_t2(f, r).mu - delta) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-560, 560))
@example(0, -560)
@example(0, 560)
def test_fitted_mu_scales_with_the_pair_at_any_scale(seed, k):
    # 2^k scales the difference D exactly, and ||D|| is read at unit scale,
    # so mu scales by 2^k bit for bit, also where D* D under- or overflows
    gen = np.random.default_rng(seed)
    f = random_operator_frame(gen, 3, [1, 2, 2])
    r = OperatorFrame(3, [m + random_qmatrix(gen, m.rows, 3) * 1e-3 for m in f.members])
    mu = fit_params_t1(f, r).mu
    assert fit_params_t1(scaled(f, 2.0**k), scaled(r, 2.0**k)).mu == np.ldexp(mu, k)


def test_difference_frame_shape_checks():
    f = shifted_basis_operator_frame(4)
    with pytest.raises(DimensionMismatch):
        difference_frame(f, OperatorFrame(4, f.members[:-1]))
    with pytest.raises(DimensionMismatch):
        difference_frame(f, shifted_basis_operator_frame(3))


# ====== theorem 1 checker ======

def test_t1_zero_perturbation_predicted_equals_measured():
    f = shifted_basis_operator_frame(6)
    v = check_stability_t1(f, f, Theorem1Params(0.0, 0.0, 0.0))
    assert v.hypothesis_ok and v.frame_claim and v.consistent
    assert v.predicted_lower == v.measured_lower
    assert v.predicted_upper == v.measured_upper
    assert v.note == ""


def test_t1_halved_frame_with_lambda1_half():
    # lhs = (1/2) analysis energy of F, so (1/2, 0, 0) is exact;
    # predicted_lower = 1*(1 - 1/2)^2 = 1/4 and spectra scale by 1/4
    f = shifted_basis_operator_frame(5)
    v = check_stability_t1(f, scaled(f, 0.5), Theorem1Params(0.5, 0.0, 0.0))
    assert v.hypothesis_ok
    assert abs(v.predicted_lower - 0.25) <= 1e-12
    assert abs(v.measured_lower - 0.25) <= 1e-12
    assert abs(v.measured_upper - 0.5) <= 1e-12
    assert v.consistent and v.frame_claim


def test_t1_oversized_mu_makes_no_claim():
    f = shifted_basis_operator_frame(5)
    r1 = 1.0
    v = check_stability_t1(f, f, Theorem1Params(0.0, 0.0, 1.1 * math.sqrt(r1)))
    assert v.hypothesis_ok
    assert v.predicted_lower < 0.0
    assert abs(v.predicted_lower - (-0.01)) <= 1e-12
    assert not v.frame_claim
    assert v.consistent  # vacuous: no claim to contradict
    assert "no frame guarantee" in v.note


def test_t1_detects_hypothesis_violation():
    f = OperatorFrame(2, [QMatrix.identity(2)])
    r = scaled(f, 0.5)
    # true constant is 1/2; lambda1 = 1/4 undershoots on every sample
    v = check_stability_t1(f, r, Theorem1Params(0.25, 0.0, 0.0))
    assert not v.hypothesis_ok
    assert not v.frame_claim
    # and the exact route catches an undershot mu with no sampling luck
    v = check_stability_t1(f, r, Theorem1Params(0.0, 0.0, 0.4))
    assert not v.hypothesis_ok


def test_t1_builds_each_gram_once(monkeypatch):
    calls = []
    real = operator_frames.gram
    # S_F and S_R are formed by reporting.frame_bounds, the differences'
    # Gram by reporting._unit_gram
    for module in (operator_frames, reporting):
        monkeypatch.setattr(module, "gram", lambda a: calls.append(a) or real(a))
    f = shifted_basis_operator_frame(4)
    r = scaled(f, 0.9)
    # S_F, S_R and, for the exact route, the Gram of the differences
    check_stability_t1(f, r, Theorem1Params(0.0, 0.0, 0.2))
    assert len(calls) == 3
    calls.clear()
    check_stability_t1(f, r, Theorem1Params(0.2, 0.0, 0.0))
    assert len(calls) == 2


def test_t2_samples_the_hypothesis_on_the_synthesis_side():
    """F = {1, 1} and R = {1.1, 0.9} on H^1: ||D y|| <= 0.2 ||A_F y|| for
    every y, but at x = (1, -1)/sqrt(2) the synthesis side has A_F* x = 0
    and D* x != 0, so theorem 2's hypothesis fails on the sampled x."""
    f = OperatorFrame(1, [QMatrix.from_real([[1.0]])] * 2)
    r = OperatorFrame(1, [QMatrix.from_real([[1.1]]), QMatrix.from_real([[0.9]])])
    assert not check_stability_t2(f, r, Theorem2Params(0.2, 0.0)).hypothesis_ok


def test_t1_invalid_params():
    f = shifted_basis_operator_frame(4)
    with pytest.raises(InvalidParams):
        check_stability_t1(f, f, Theorem1Params(0.0, 1.0, 0.0))
    with pytest.raises(InvalidParams):
        check_stability_t1(f, f, Theorem1Params(-0.1, 0.0, 0.0))
    with pytest.raises(InvalidParams):
        check_stability_t1(f, f, Theorem1Params(0.0, 0.0, -1e-9))


def test_t1_requires_a_frame():
    not_frame = OperatorFrame(2, [QMatrix.zeros(1, 2)])
    with pytest.raises(NotAFrame):
        check_stability_t1(not_frame, not_frame, Theorem1Params(0.0, 0.0, 0.0))


def test_t1_interval_widens_with_constants():
    f = shifted_basis_operator_frame(5)
    r = scaled(f, 0.9)
    base = check_stability_t1(f, r, Theorem1Params(0.1, 0.0, 0.0))
    for p in [Theorem1Params(0.2, 0.0, 0.0),
              Theorem1Params(0.1, 0.1, 0.0),
              Theorem1Params(0.1, 0.0, 0.3)]:
        wider = check_stability_t1(f, r, p)
        assert wider.predicted_lower <= base.predicted_lower + 1e-15
        assert wider.predicted_upper >= base.predicted_upper - 1e-15


# ====== theorem 2 checker ======

def test_t2_zero_perturbation_predicted_equals_measured():
    f = shifted_basis_operator_frame(6)
    v = check_stability_t2(f, f, Theorem2Params(0.0, 0.0))
    assert v.hypothesis_ok and v.frame_claim and v.consistent
    assert v.predicted_lower == v.measured_lower
    assert v.predicted_upper == v.measured_upper
    assert "mu term" in v.note


def test_t2_scaled_frame_with_lambda():
    # synthesis of the differences is 0.1 times synthesis of F
    f = shifted_basis_operator_frame(5)
    v = check_stability_t2(f, scaled(f, 0.9), Theorem2Params(0.1, 0.0))
    assert v.hypothesis_ok
    # r1 = 1: predicted_lower = (1 - 0.1)^2 = 0.81 = measured_lower
    assert abs(v.predicted_lower - 0.81) <= 1e-12
    assert abs(v.measured_lower - 0.81) <= 1e-12
    assert v.consistent and v.frame_claim


def test_t2_condition_violated():
    f = shifted_basis_operator_frame(4)  # r1 = 1
    with pytest.raises(ConditionViolated):
        check_stability_t2(f, f, Theorem2Params(0.5, 0.6))
    with pytest.raises(InvalidParams):
        check_stability_t2(f, f, Theorem2Params(-0.1, 0.0))


def test_t2_detects_hypothesis_violation():
    f = OperatorFrame(2, [QMatrix.identity(2)])
    v = check_stability_t2(f, scaled(f, 0.5), Theorem2Params(0.2, 0.0))
    assert not v.hypothesis_ok


def test_t2_detects_undersized_mu():
    # the difference is one entry of H^6, so random block vectors almost
    # never point along it; only the exact route refuses mu = 0.9 ||D||
    delta = 0.37
    eye = QMatrix.identity(6)
    f = OperatorFrame(6, [eye])
    r = OperatorFrame(6, [eye - QMatrix.from_real(np.diag([delta] + [0.0] * 5))])
    assert not check_stability_t2(f, r, Theorem2Params(0.0, 0.9 * delta)).hypothesis_ok
    assert check_stability_t2(f, r, fit_params_t2(f, r)).hypothesis_ok


def test_t2_interval_widens_with_constants():
    f = shifted_basis_operator_frame(5)
    r = scaled(f, 0.9)
    base = check_stability_t2(f, r, Theorem2Params(0.1, 0.0))
    for p in [Theorem2Params(0.3, 0.0), Theorem2Params(0.1, 0.2)]:
        wider = check_stability_t2(f, r, p)
        assert wider.predicted_lower <= base.predicted_lower + 1e-15
        assert wider.predicted_upper >= base.predicted_upper - 1e-15


# ====== fitted checks on random data ======

def test_gram_fit_hypothesis_never_violated():
    gen = np.random.default_rng(SEED)
    for _ in range(10):
        f = random_operator_frame(gen, 4, [2, 3, 2, 1])
        wiggle = [random_qmatrix(gen, m.rows, 4) * 1e-3 for m in f.members]
        r = OperatorFrame(4, [m + w for m, w in zip(f.members, wiggle)])
        v1 = check_stability_t1(f, r, fit_params_t1(f, r))
        assert v1.hypothesis_ok
        v2 = check_stability_t2(f, r, fit_params_t2(f, r))
        assert v2.hypothesis_ok


def test_scaled_pairs_consistent_under_both_fits():
    gen = np.random.default_rng(SEED)
    produced_t2 = 0
    for _ in range(10):
        f = random_operator_frame(gen, 3, [2, 2, 3])
        s = float(gen.uniform(0.05, 1.0))
        r = scaled(f, s)
        v1 = check_stability_t1(f, r, fit_params_t1(f, r))
        assert v1.hypothesis_ok and v1.consistent
        try:
            v2 = check_stability_t2(f, r, fit_params_t2(f, r))
        except ConditionViolated:
            continue
        produced_t2 += 1
        assert v2.hypothesis_ok and v2.consistent
    assert produced_t2 >= 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(0.05, 1.95, exclude_min=True, exclude_max=True),
       st.integers(-6, 6))
def test_scaled_pairs_hold_and_stay_consistent_at_any_scale(seed, c, k):
    # R = c F meets theorem 1 with lambda1 = 1 - c (c < 1) and theorem 2
    # with lambda = |1 - c| exactly, each attaining a predicted bound, on
    # a random frame with r1 != 1 whose entries are scaled by 10^k
    f = random_operator_frame(np.random.default_rng(seed), 3, [2] * 4, scale=10.0 ** k)
    r = scaled(f, c)
    if c < 1.0:
        v1 = check_stability_t1(f, r, Theorem1Params(1.0 - c, 0.0, 0.0))
        assert v1.hypothesis_ok and v1.consistent
    v2 = check_stability_t2(f, r, Theorem2Params(abs(1.0 - c), 0.0))
    assert v2.hypothesis_ok and v2.consistent


def test_measured_bounds_agree_with_rayleigh_sampling():
    # independent route: direct member-by-member energies of R
    gen = np.random.default_rng(SEED)
    f = random_operator_frame(gen, 4, [2, 3, 2])
    r = scaled(f, 0.7)
    v = check_stability_t1(f, r, fit_params_t1(f, r))
    for _ in range(50):
        x = random_unit_qvector(gen, 4)
        energy = sum((m @ x).norm_sq() for m in r.members)
        assert v.measured_lower - 1e-9 <= energy <= v.measured_upper + 1e-9


# ====== verdict records ======

def test_verdict_record_shapes():
    f = shifted_basis_operator_frame(4)
    rec1 = check_stability_t1(f, scaled(f, 0.5),
                              Theorem1Params(0.5, 0.0, 0.0), seed=7).to_record()
    assert rec1["theorem"] == 1
    assert rec1["params"] == {"lambda1": 0.5, "lambda2": 0.0, "mu": 0.0}
    assert rec1["predicted"] == [rec1["predicted"][0], rec1["predicted"][1]]
    assert rec1["seed"] == 7
    assert "note" not in rec1
    rec2 = check_stability_t2(f, f, Theorem2Params(0.0, 0.0)).to_record()
    assert rec2["params"] == {"lambda": 0.0, "mu": 0.0}
    assert rec2["consistent"] is True
    assert "note" in rec2


def test_same_seed_reproduces_verdict():
    f = shifted_basis_operator_frame(4)
    r = scaled(f, 0.8)
    p = Theorem1Params(0.1, 0.05, 0.01)
    assert check_stability_t1(f, r, p, seed=3) == check_stability_t1(f, r, p, seed=3)
