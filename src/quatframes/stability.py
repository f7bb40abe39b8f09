"""Perturbation stability checkers for frames of operators.

Two classical hypotheses are supported.  Writing F = {T_i} for the
reference frame with bounds (r1, r2) and R = {R_i} for the perturbed
family:

  theorem 1 (perturbed analysis operators):
      (sum_i ||(T_i - R_i)x||^2)^(1/2)
          <= lambda1 (sum_i ||T_i x||^2)^(1/2)
           + lambda2 (sum_i ||R_i x||^2)^(1/2) + mu ||x||
    concludes R is a frame with bounds
      r1 (1 - (lambda1 + lambda2 + mu/sqrt(r1)) / (1 + lambda2))^2
      r2 (1 + (lambda1 + lambda2 + mu/sqrt(r1)) / (1 - lambda2))^2

  theorem 2 (perturbed synthesis operators), under (lambda + mu/sqrt(r1)) < 1:
      ||sum_i (T_i* - R_i*)(x_i)||
          <= lambda ||sum_i T_i*(x_i)|| + mu (sum_i ||x_i||^2)^(1/2)
    concludes R is a frame with bounds
      r1 (1 - (lambda + mu/sqrt(r1)))^2
      r2 (1 + lambda + mu/sqrt(r2))^2
    (P. G. Casazza and O. Christensen, J. Fourier Anal. Appl. 3, 1997).

Theorem 2 is often quoted with the mu term unrooted, i.e. as
mu * sum_i ||x_i||^2, which is dimensionally inconsistent with the left
side (a norm); the checker adopts the square-root reading and says so
in the verdict's ``note`` field rather than silently correcting it.

Both hypotheses read ||D x|| <= sum_k c_k ||M_k x|| + mu ||x||, with
D = A_F - A_R and M = A_F, A_R on the stacked analysis matrices for
theorem 1 and their adjoints for theorem 2.  With every c_k = 0 that is
||A_F - A_R|| <= mu, decided exactly; otherwise it is tested on seeded
random columns.  The predicted bounds are evaluated verbatim and
compared with the measured bounds of R, both steps with relative slack;
a predicted bound that overflows is refused before the hypothesis is tested.
A nonpositive predicted lower bound means the theorem makes no frame
claim; consistency is then vacuous.  ``predicted_lower`` keeps the sign
of the pre-square factor so that inadmissibly large constants surface
as a negative number instead of a silently squared positive one.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf, isfinite, sqrt
from typing import NamedTuple

import numpy as np

from .errors import ConditionViolated, DimensionMismatch, InvalidParams, NotAFrame
from .linalg import hermitian_eigenvalues
from .operator_frames import OperatorFrame
from .reporting import _refuse_scale, _unit_gram, frame_bounds, has_frame_bounds
from .sampling import random_columns

# relative slack of the sampled hypothesis and of the predicted-vs-measured
# comparison; absorbs rounding, not structure
HYPOTHESIS_SLACK = 1e-9

DEFAULT_SAMPLES = 200

T2_NOTE = ("mu term of the synthesis hypothesis read as "
           "mu*(sum ||x_i||^2)^(1/2)")

NO_CLAIM_NOTE = "predicted lower bound is not positive; no frame guarantee"


def _check_constants(*constants: float) -> None:
    # NaN fails every comparison, so test for what is admissible
    if not all(isfinite(c) and c >= 0.0 for c in constants):
        raise InvalidParams("perturbation constants must be finite and nonnegative")


class Theorem1Params(NamedTuple):
    """Constants (lambda1, lambda2, mu) for the analysis-side hypothesis."""

    lambda1: float
    lambda2: float
    mu: float

    def validate(self) -> None:
        _check_constants(self.lambda1, self.lambda2, self.mu)
        if self.lambda2 >= 1.0:
            raise InvalidParams(
                "lambda2 must be < 1 for the (1 - lambda2) denominator")


class Theorem2Params(NamedTuple):
    """Constants (lambda, mu) for the synthesis-side hypothesis.

    The field is called ``lam`` because ``lambda`` is reserved in Python.
    """

    lam: float
    mu: float

    def validate(self) -> None:
        _check_constants(self.lam, self.mu)


class StabilityVerdict(NamedTuple):
    """Outcome of one stability check.

    ``frame_claim`` is True when the hypothesis held and the predicted
    lower bound is positive, i.e. the theorem actually asserts that the
    perturbed family is a frame.  ``consistent`` compares measured
    against predicted bounds with relative slack HYPOTHESIS_SLACK,
    vacuously True when no claim is made.
    """

    theorem: int
    params: Theorem1Params | Theorem2Params
    hypothesis_ok: bool
    frame_claim: bool
    predicted_lower: float
    predicted_upper: float
    measured_lower: float
    measured_upper: float
    consistent: bool
    seed: int
    note: str = ""

    def to_record(self) -> dict:
        params = self.params._asdict()
        if isinstance(self.params, Theorem2Params):
            params = {"lambda": self.params.lam, "mu": self.params.mu}
        record = {
            "theorem": self.theorem,
            "params": params,
            "hypothesis_ok": self.hypothesis_ok,
            "frame_claim": self.frame_claim,
            "predicted": [self.predicted_lower, self.predicted_upper],
            "measured": [self.measured_lower, self.measured_upper],
            "consistent": self.consistent,
            "seed": self.seed,
        }
        if self.note:
            record["note"] = self.note
        return record


def difference_frame(f: OperatorFrame, r: OperatorFrame) -> OperatorFrame:
    """Memberwise differences {T_i - R_i}, the family with A = A_F - A_R."""
    if f.space_dim != r.space_dim:
        raise DimensionMismatch("families act on different spaces")
    if f.codomain_dims != r.codomain_dims:
        raise DimensionMismatch(
            "families differ in member count or codomain dimensions")
    return OperatorFrame.from_analysis(f.analysis_matrix() - r.analysis_matrix(),
                                       f.codomain_dims)


@lru_cache(maxsize=1)
def _difference_norm(f: OperatorFrame, r: OperatorFrame) -> float:
    """||D|| = 2^e sqrt(lambda_max(S_u)) for D = A_F - A_R at unit scale
    (reporting._unit_gram), where D* D neither under- nor overflows.  Frames
    are read-only, so the last pair's norm is kept: a fit and the check that
    follows it compute it once."""
    d = difference_frame(f, r).analysis_matrix()
    _, exp, s = _unit_gram(d)
    # the Gram operator is positive; tiny negatives are rounding
    with np.errstate(over="ignore"):
        norm = float(np.ldexp(sqrt(max(hermitian_eigenvalues(s)[-1], 0.0)), exp))
    if norm == inf:  # then so is lambda_max(S) of F or of R
        _refuse_scale(d, norm)
    return norm


def fit_params_t1(f: OperatorFrame, r: OperatorFrame) -> Theorem1Params:
    """Simplest admissible constants: lambda1 = lambda2 = 0 and mu the
    operator norm of the stacked difference, so the hypothesis holds for
    every x, not just sampled ones."""
    return Theorem1Params(0.0, 0.0, _difference_norm(f, r))


def fit_params_t2(f: OperatorFrame, r: OperatorFrame) -> Theorem2Params:
    """Synthesis-side analogue of fit_params_t1: the difference synthesis
    operator is the adjoint of the stacked difference, with the same norm.
    The admissibility condition (lambda + mu/sqrt(r1)) < 1 may still fail
    for violent perturbations; the checker reports that, not this fitter.
    """
    return Theorem2Params(0.0, _difference_norm(f, r))


def _frame_bounds_of(f: OperatorFrame) -> tuple[float, float]:
    bounds = frame_bounds(f.analysis_matrix())
    if not has_frame_bounds(*bounds):
        raise NotAFrame("reference family is not a frame of operators")
    return bounds


def _hypothesis_ok(f: OperatorFrame, r: OperatorFrame, constants: tuple,
                   mu: float, adjoint: bool, seed: int) -> bool:
    """||D x|| <= sum_k c_k ||M_k x|| + mu ||x|| with D = A_F - A_R and
    M = (A_F, A_R) cut to the constants c given, or all their adjoints.

    With every c_k = 0 this is ||D|| <= mu (||D*|| = ||D||), decided
    exactly; otherwise it is tested on DEFAULT_SAMPLES seeded random columns.
    """
    if not any(constants):
        return _difference_norm(f, r) <= mu
    families = (difference_frame(f, r), f, r)[:1 + len(constants)]
    ops = [g.analysis_matrix() for g in families]
    if adjoint:
        ops = [m.adjoint() for m in ops]
    x = random_columns(np.random.default_rng(seed), ops[0].cols, DEFAULT_SAMPLES)
    lhs, *norms = [(m @ x).column_norms() for m in ops]
    rhs = mu * x.column_norms() + sum(c * n for c, n in zip(constants, norms))
    return bool(np.all(lhs <= rhs * (1.0 + HYPOTHESIS_SLACK)))


def _predicted(bounds, lower_factor: float, upper_factor: float) -> tuple[float, float]:
    """The predicted bounds r1 * lower_factor^2 (signed) and
    r2 * upper_factor^2; InvalidParams when either overflows."""
    r1, r2 = bounds
    try:  # float ** raises OverflowError where a product gives inf
        predicted = r1 * lower_factor * abs(lower_factor), r2 * upper_factor ** 2
    except OverflowError:
        predicted = (inf,)
    if not all(isfinite(b) for b in predicted):
        raise InvalidParams("predicted frame bound overflows; the constants are "
                            "too large for these frame bounds")
    return predicted


def _verdict(theorem: int, params, seed: int, hypothesis_ok: bool,
             predicted: tuple[float, float], measured: tuple[float, float],
             note: str = "") -> StabilityVerdict:
    """The verdict on the predicted bounds against the measured bounds of R."""
    predicted_lower, predicted_upper = predicted
    claim = predicted_lower > 0.0
    if not claim:
        note = "; ".join(filter(None, (note, NO_CLAIM_NOTE)))
    consistent = not claim or (
        measured[0] >= predicted_lower * (1.0 - HYPOTHESIS_SLACK)
        and measured[1] <= predicted_upper * (1.0 + HYPOTHESIS_SLACK))
    return StabilityVerdict(
        theorem=theorem, params=params, hypothesis_ok=hypothesis_ok,
        frame_claim=hypothesis_ok and claim,
        predicted_lower=predicted_lower, predicted_upper=predicted_upper,
        measured_lower=measured[0], measured_upper=measured[1],
        consistent=consistent, seed=seed, note=note)


def check_stability_t1(f: OperatorFrame, r: OperatorFrame, params: Theorem1Params,
                       seed: int = 0) -> StabilityVerdict:
    """Test the analysis-side hypothesis and compare predicted bounds
    with the measured bounds of the perturbed family.

    With lambda1 = lambda2 = 0 the hypothesis is decided exactly;
    otherwise it is sampled on DEFAULT_SAMPLES seeded random vectors.
    """
    params.validate()
    bounds = _frame_bounds_of(f)
    measured = frame_bounds(r.analysis_matrix())
    shift = params.lambda1 + params.lambda2 + params.mu / sqrt(bounds[0])
    predicted = _predicted(bounds, 1.0 - shift / (1.0 + params.lambda2),
                           1.0 + shift / (1.0 - params.lambda2))
    hypothesis_ok = _hypothesis_ok(f, r, (params.lambda1, params.lambda2), params.mu, False, seed)
    return _verdict(1, params, seed, hypothesis_ok, predicted, measured)


def check_stability_t2(f: OperatorFrame, r: OperatorFrame, params: Theorem2Params,
                       seed: int = 0) -> StabilityVerdict:
    """Test the synthesis-side hypothesis and compare predicted bounds
    with the measured bounds of the perturbed family.

    Raises ConditionViolated when (lambda + mu/sqrt(r1)) >= 1, in which
    case the theorem is silent.  With lambda = 0 the hypothesis is
    decided exactly; otherwise it is sampled on DEFAULT_SAMPLES seeded
    random block vectors.
    """
    params.validate()
    r1, r2 = bounds = _frame_bounds_of(f)
    shift = params.lam + params.mu / sqrt(r1)
    if shift >= 1.0:
        raise ConditionViolated(
            "(lambda + mu/sqrt(r1)) must be < 1 for the synthesis theorem")
    measured = frame_bounds(r.analysis_matrix())
    predicted = _predicted(bounds, 1.0 - shift, 1.0 + params.lam + params.mu / sqrt(r2))
    hypothesis_ok = _hypothesis_ok(f, r, (params.lam,), params.mu, True, seed)
    return _verdict(2, params, seed, hypothesis_ok, predicted, measured, T2_NOTE)
