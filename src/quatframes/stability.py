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
      r1 (1 - (lambda + mu)/sqrt(r1))^2
      r2 (1 + (lambda + mu)/sqrt(r2))^2

Theorem 2 is often quoted with the mu term unrooted, i.e. as
mu * sum_i ||x_i||^2, which is dimensionally inconsistent with the left
side (a norm); the checker adopts the square-root reading and says so
in the verdict's ``note`` field rather than silently correcting it.

Each checker samples its hypothesis on seeded random inputs (all samples
drawn at once and tested as one batch), evaluates
the predicted bounds verbatim (no sharpening), measures the actual
bounds of R, and reports whether measured lies inside predicted.  A
nonpositive predicted lower bound means the theorem makes no frame
claim; consistency is then vacuous.  ``predicted_lower`` keeps the sign
of the pre-square factor so that inadmissibly large constants surface
as a negative number instead of a silently squared positive one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ConditionViolated, DimensionMismatch, InvalidParams, NotAFrame
from .linalg import QMatrix, hermitian_eigenvalues
from .operator_frames import OperatorFrame, op_frame_operator
from .reporting import extremal_eigenvalues, has_frame_bounds
from .sampling import random_columns

# slack for sampled inequality checks; absorbs rounding, not structure
HYPOTHESIS_SLACK = 1e-9

DEFAULT_SAMPLES = 200

T2_NOTE = ("mu term of the synthesis hypothesis read as "
           "mu*(sum ||x_i||^2)^(1/2)")

NO_CLAIM_NOTE = "predicted lower bound is not positive; no frame guarantee"


@dataclass(frozen=True)
class Theorem1Params:
    """Constants (lambda1, lambda2, mu) for the analysis-side hypothesis."""

    lambda1: float
    lambda2: float
    mu: float

    def validate(self) -> None:
        if min(self.lambda1, self.lambda2, self.mu) < 0.0:
            raise InvalidParams("perturbation constants must be nonnegative")
        if self.lambda2 >= 1.0:
            raise InvalidParams(
                "lambda2 must be < 1 for the (1 - lambda2) denominator")


@dataclass(frozen=True)
class Theorem2Params:
    """Constants (lambda, mu) for the synthesis-side hypothesis.

    The field is called ``lam`` because ``lambda`` is reserved in Python.
    """

    lam: float
    mu: float

    def validate(self) -> None:
        if min(self.lam, self.mu) < 0.0:
            raise InvalidParams("perturbation constants must be nonnegative")


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of one stability check.

    ``frame_claim`` is True when the hypothesis held and the predicted
    lower bound is positive, i.e. the theorem actually asserts that the
    perturbed family is a frame.  ``consistent`` compares measured
    against predicted bounds with 1e-9 slack, vacuously True when no
    claim is made.
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
        if isinstance(self.params, Theorem1Params):
            params = {
                "lambda1": self.params.lambda1,
                "lambda2": self.params.lambda2,
                "mu": self.params.mu,
            }
        else:
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
    """Memberwise differences {T_i - R_i} as an operator family."""
    if f.space_dim != r.space_dim:
        raise DimensionMismatch("families act on different spaces")
    if f.codomain_dims != r.codomain_dims:
        raise DimensionMismatch(
            "families differ in member count or codomain dimensions")
    return OperatorFrame(f.space_dim, [t - s for t, s in zip(f.members, r.members)])


def _difference_gram(f: OperatorFrame, r: OperatorFrame) -> QMatrix:
    return op_frame_operator(difference_frame(f, r))


def _top_eigenvalue_sqrt(gram: QMatrix) -> float:
    top = hermitian_eigenvalues(gram)[-1]
    # the Gram operator is positive; tiny negatives are rounding
    return sqrt(max(top, 0.0))


def fit_params_t1(f: OperatorFrame, r: OperatorFrame) -> Theorem1Params:
    """Simplest admissible constants: lambda1 = lambda2 = 0 and mu the
    operator norm of the stacked difference, so the hypothesis holds for
    every x, not just sampled ones."""
    return Theorem1Params(0.0, 0.0, _top_eigenvalue_sqrt(_difference_gram(f, r)))


def fit_params_t2(f: OperatorFrame, r: OperatorFrame) -> Theorem2Params:
    """Synthesis-side analogue of fit_params_t1.

    The norm of the difference synthesis operator equals the square root
    of the top eigenvalue of the same Gram operator, so lambda = 0 with
    that mu makes the hypothesis hold for every block vector.  The
    admissibility condition (lambda + mu/sqrt(r1)) < 1 may still fail
    for violent perturbations of badly conditioned frames; the checker
    reports that rather than this fitter.
    """
    return Theorem2Params(0.0, _top_eigenvalue_sqrt(_difference_gram(f, r)))


def _frame_bounds_of(f: OperatorFrame) -> tuple[float, float]:
    bounds = extremal_eigenvalues(op_frame_operator(f))
    if not has_frame_bounds(*bounds):
        raise NotAFrame("reference family is not a frame of operators")
    return bounds


def _quadratic_forms(s: QMatrix, x: QMatrix) -> np.ndarray:
    # <x, Sx> of every column; real for self-adjoint S, and the real part
    # of conj(x_k) y_k is the dot product of their components
    forms = np.einsum("kpc,kpc->p", x.data, (s @ x).data)
    # clamp rounding from below
    return np.maximum(forms, 0.0)


def _signed_square(scale: float, factor: float) -> float:
    return scale * factor * abs(factor)


def _consistent(predicted_lower: float, predicted_upper: float,
                measured_lower: float, measured_upper: float) -> bool:
    if predicted_lower <= 0.0:
        return True
    return (measured_lower >= predicted_lower - 1e-9
            and measured_upper <= predicted_upper + 1e-9)


def check_stability_t1(
    f: OperatorFrame,
    r: OperatorFrame,
    params: Theorem1Params,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
) -> StabilityVerdict:
    """Test the analysis-side hypothesis and compare predicted bounds
    with the measured bounds of the perturbed family.

    The hypothesis is sampled on ``samples`` seeded unit vectors via the
    batched quadratic forms of the three Gram operators involved.  When
    lambda1 = lambda2 = 0 the inequality reduces to an operator-norm
    bound and is additionally checked exactly.
    """
    params.validate()
    r1, r2 = _frame_bounds_of(f)
    measured_lower, measured_upper = extremal_eigenvalues(op_frame_operator(r))

    s_f = op_frame_operator(f)
    s_r = op_frame_operator(r)
    gram = _difference_gram(f, r)

    x = random_columns(np.random.default_rng(seed), f.space_dim, samples)
    x = QMatrix(x.data / x.column_norms()[None, :, None])
    lhs = np.sqrt(_quadratic_forms(gram, x))
    rhs = (params.lambda1 * np.sqrt(_quadratic_forms(s_f, x))
           + params.lambda2 * np.sqrt(_quadratic_forms(s_r, x))
           + params.mu)
    hypothesis_ok = bool(np.all(lhs <= rhs + HYPOTHESIS_SLACK * np.maximum(1.0, rhs)))
    if hypothesis_ok and params.lambda1 == 0.0 and params.lambda2 == 0.0:
        hypothesis_ok = _top_eigenvalue_sqrt(gram) <= params.mu

    shift = (params.lambda1 + params.lambda2 + params.mu / sqrt(r1))
    predicted_lower = _signed_square(r1, 1.0 - shift / (1.0 + params.lambda2))
    predicted_upper = r2 * (1.0 + shift / (1.0 - params.lambda2)) ** 2

    consistent = _consistent(predicted_lower, predicted_upper,
                             measured_lower, measured_upper)
    return StabilityVerdict(
        theorem=1,
        params=params,
        hypothesis_ok=hypothesis_ok,
        frame_claim=hypothesis_ok and predicted_lower > 0.0,
        predicted_lower=predicted_lower,
        predicted_upper=predicted_upper,
        measured_lower=measured_lower,
        measured_upper=measured_upper,
        consistent=consistent,
        seed=seed,
        note="" if predicted_lower > 0.0 else NO_CLAIM_NOTE,
    )


def check_stability_t2(
    f: OperatorFrame,
    r: OperatorFrame,
    params: Theorem2Params,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
) -> StabilityVerdict:
    """Test the synthesis-side hypothesis and compare predicted bounds
    with the measured bounds of the perturbed family.

    Raises ConditionViolated when (lambda + mu/sqrt(r1)) >= 1, in which
    case the theorem is silent.  The hypothesis is sampled on ``samples``
    seeded random block vectors.
    """
    params.validate()
    r1, r2 = _frame_bounds_of(f)
    if params.lam + params.mu / sqrt(r1) >= 1.0:
        raise ConditionViolated(
            "(lambda + mu/sqrt(r1)) must be < 1 for the synthesis theorem")
    measured_lower, measured_upper = extremal_eigenvalues(op_frame_operator(r))

    diff = difference_frame(f, r)

    # each column is one block vector, its blocks in member order
    x = random_columns(np.random.default_rng(seed), sum(f.codomain_dims), samples)
    lhs = (diff.analysis_matrix().adjoint() @ x).column_norms()
    rhs = (params.lam * (f.analysis_matrix().adjoint() @ x).column_norms()
           + params.mu * x.column_norms())
    hypothesis_ok = bool(np.all(lhs <= rhs + HYPOTHESIS_SLACK * np.maximum(1.0, rhs)))

    shift = (params.lam + params.mu)
    predicted_lower = _signed_square(r1, 1.0 - shift / sqrt(r1))
    predicted_upper = r2 * (1.0 + shift / sqrt(r2)) ** 2

    consistent = _consistent(predicted_lower, predicted_upper,
                             measured_lower, measured_upper)
    note = T2_NOTE
    if predicted_lower <= 0.0:
        note = T2_NOTE + "; " + NO_CLAIM_NOTE
    return StabilityVerdict(
        theorem=2,
        params=params,
        hypothesis_ok=hypothesis_ok,
        frame_claim=hypothesis_ok and predicted_lower > 0.0,
        predicted_lower=predicted_lower,
        predicted_upper=predicted_upper,
        measured_lower=measured_lower,
        measured_upper=measured_upper,
        consistent=consistent,
        seed=seed,
        note=note,
    )
