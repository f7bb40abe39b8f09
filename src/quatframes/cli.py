"""File-driven command line: analyze, dual, parseval, convert,
stability, reconstruct.

Reports go to stdout as fixed-layout JSON (12 significant digits,
stable key order) so reruns on identical input are byte-identical;
constructed frames go to the file named by --out.  Exit codes: 0 for
success (and a consistent stability verdict), 1 for a mathematical
failure (not a frame, inconsistent verdict, reconstruction residual
over threshold), 2 for usage and validation errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .errors import (
    ConditionViolated,
    DimensionMismatch,
    HypothesisViolated,
    InvalidParams,
    InvalidWeight,
    NonFinite,
    NotAFrame,
    NotAFrameOnSubspace,
    NotHermitian,
    NotPositive,
    ParseError,
    PullbackFailed,
    QuatFramesError,
    Singular,
    ValidationError,
)
from .fileio import (
    file_digest,
    dumps12,
    load_frame,
    load_vector,
    operator_frame_obj,
    vector_frame_obj,
    write_document,
)
from .generalizations import (
    fusion_report,
    fusion_to_op_frame,
    pseudo_frame_check,
    pseudo_to_op_frame,
    quasi_projector_check,
    quasi_to_op_frame,
)
from .linalg import QMatrix
from .operator_frames import op_dual, op_parseval, op_report
from .reporting import dual_rows, extremal_eigenvalues, gram
from .sampling import random_columns
from .stability import (
    Theorem1Params,
    Theorem2Params,
    check_stability_t1,
    check_stability_t2,
    fit_params_t1,
    fit_params_t2,
)
from .vector_frames import canonical_dual, parseval, report

# a reconstruction is ok when each residual is at most this times its vector's norm
RECONSTRUCT_TOL = 1e-8


def _head(command: str, path: str) -> dict:
    return {
        "tool": "quatframes",
        "version": __version__,
        "command": command,
        "input_digest": file_digest(path),
    }


def _bounds(frame) -> list[float]:
    return list(extremal_eigenvalues(gram(frame.analysis_matrix())))


def _classification(rep) -> list[str]:
    labels = []
    for label, flag in (("bessel", rep.is_bessel), ("frame", rep.is_frame),
                        ("tight", rep.is_tight), ("parseval", rep.is_parseval),
                        ("exact", rep.is_exact)):
        if flag:
            labels.append(label)
    return labels


def _report_payload(rep, member_count: int) -> dict:
    return {
        "member_count": member_count,
        "bounds": [rep.lower, rep.upper],
        "is_bessel": rep.is_bessel,
        "is_frame": rep.is_frame,
        "is_tight": rep.is_tight,
        "is_parseval": rep.is_parseval,
        "is_exact": rep.is_exact,
        "classification": _classification(rep),
    }


def cmd_analyze(args) -> int:
    kind, frame = load_frame(args.path)
    doc = _head("analyze", args.path)
    doc["kind"] = kind
    doc["seed"] = args.seed
    if kind == "vector_frame":
        doc.update(_report_payload(report(frame), len(frame.members)))
    elif kind == "operator_frame":
        doc.update(_report_payload(op_report(frame), len(frame.members)))
    elif kind == "fusion":
        doc.update(_report_payload(fusion_report(frame), len(frame.subspaces)))
    elif kind == "quasi":
        check = quasi_projector_check(frame)
        doc["member_count"] = len(frame.projectors)
        doc["checks"] = {
            "resolution_ok": check.resolution_ok,
            "bessel_bound": check.bessel_bound,
            "self_adjoint": check.self_adjoint,
            "compatible": check.compatible,
        }
    else:
        check = pseudo_frame_check(frame)
        doc["member_count"] = len(frame.analyzers)
        doc["checks"] = {
            "holds": check.holds,
            "max_residual": check.max_residual,
        }
    print(dumps12(doc))
    return 0


def _write_summary(command: str, args, obj: dict, bounds: list[float]) -> None:
    write_document(args.out, obj)
    doc = _head(command, args.path)
    doc["output_kind"] = obj["kind"]
    doc["output_digest"] = file_digest(args.out)
    doc["bounds"] = bounds
    print(dumps12(doc))


def cmd_dual(args) -> int:
    kind, frame = load_frame(args.path)
    if kind == "vector_frame":
        dual = canonical_dual(frame)
        obj = vector_frame_obj(dual)
    elif kind == "operator_frame":
        dual = op_dual(frame)
        obj = operator_frame_obj(dual)
    else:
        raise ValidationError(
            "dual requires a vector_frame or operator_frame file; "
            "run convert first")
    _write_summary("dual", args, obj, _bounds(dual))
    return 0


def _to_operator_frame(kind: str, frame):
    if kind == "fusion":
        return fusion_to_op_frame(frame)
    if kind == "pseudo":
        return pseudo_to_op_frame(frame)
    return quasi_to_op_frame(frame)


def cmd_parseval(args) -> int:
    kind, frame = load_frame(args.path)
    if kind == "vector_frame":
        result = parseval(frame)
        obj = vector_frame_obj(result)
    else:
        if kind != "operator_frame":
            frame = _to_operator_frame(kind, frame)
        result = op_parseval(frame)
        obj = operator_frame_obj(result)
    _write_summary("parseval", args, obj, _bounds(result))
    return 0


def cmd_convert(args) -> int:
    kind, frame = load_frame(args.path)
    if kind not in ("fusion", "pseudo", "quasi"):
        raise ValidationError("convert requires a fusion, pseudo, or quasi file")
    result = _to_operator_frame(kind, frame)
    obj = operator_frame_obj(result)
    _write_summary("convert", args, obj, _bounds(result))
    return 0


def cmd_stability(args) -> int:
    kind_f, f = load_frame(args.path_f)
    kind_r, r = load_frame(args.path_r)
    if kind_f != "operator_frame" or kind_r != "operator_frame":
        raise ValidationError("stability requires two operator_frame files")

    explicit = [x for x in (args.lambda1, args.lambda2, args.mu, args.lam)
                if x is not None]
    if args.fit and explicit:
        raise ValidationError("--fit conflicts with explicit constants")
    if args.theorem == 1:
        if args.lam is not None:
            raise ValidationError("--lambda applies to --theorem 2; "
                                  "theorem 1 takes --lambda1/--lambda2/--mu")
        if args.fit:
            params = fit_params_t1(f, r)
        else:
            params = Theorem1Params(args.lambda1 or 0.0, args.lambda2 or 0.0,
                                    args.mu or 0.0)
        verdict = check_stability_t1(f, r, params, seed=args.seed)
    else:
        if args.lambda1 is not None or args.lambda2 is not None:
            raise ValidationError("--lambda1/--lambda2 apply to --theorem 1; "
                                  "theorem 2 takes --lambda/--mu")
        if args.fit:
            params = fit_params_t2(f, r)
        else:
            params = Theorem2Params(args.lam or 0.0, args.mu or 0.0)
        verdict = check_stability_t2(f, r, params, seed=args.seed)

    doc = {
        "tool": "quatframes",
        "version": __version__,
        "command": "stability",
        "input_digest_f": file_digest(args.path_f),
        "input_digest_r": file_digest(args.path_r),
    }
    doc.update(verdict.to_record())
    print(dumps12(doc))
    return 0 if verdict.hypothesis_ok and verdict.consistent else 1


def cmd_reconstruct(args) -> int:
    kind, frame = load_frame(args.path)
    if kind not in ("vector_frame", "operator_frame"):
        raise ValidationError(
            "reconstruct requires a vector_frame or operator_frame file; "
            "run convert first")
    # the dual's synthesis after the frame's analysis is the identity
    analysis = frame.analysis_matrix()
    dual_synthesis = dual_rows(analysis).adjoint()

    if args.vector is not None:
        probe = load_vector(args.vector)
        if probe.dim != frame.space_dim:
            raise ValidationError(
                f"vector dimension {probe.dim} does not match "
                f"frame dim {frame.space_dim}")
        x = QMatrix(probe.data[:, None])
    else:
        if args.random < 1:
            raise ValidationError("--random needs a positive count")
        x = random_columns(np.random.default_rng(args.seed), frame.space_dim,
                           args.random)

    with np.errstate(over="ignore", invalid="ignore"):
        residuals = (dual_synthesis @ (analysis @ x) - x).column_norms()
    if not np.isfinite(residuals).all():
        raise NonFinite("reconstruction residual is inf or nan, such as from "
                        "an overflow; rescale the input")
    doc = _head("reconstruct", args.path)
    doc["kind"] = kind
    doc["seed"] = args.seed
    doc["vector_count"] = x.cols
    doc["max_residual"] = float(residuals.max())
    doc["ok"] = bool((residuals <= RECONSTRUCT_TOL * x.column_norms()).all())
    print(dumps12(doc))
    return 0 if doc["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatframes",
        description="Frames of operators in finite-dimensional right "
                    "quaternionic Hilbert spaces: analysis, duals, Parseval "
                    "normalization, conversions, and stability checks.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze",
                       help="report bounds, flags, and checker verdicts")
    p.add_argument("path", help="frame file (any kind)")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the report only; every check is exact")

    p = sub.add_parser("dual", help="write the canonical dual frame")
    p.add_argument("path", help="vector_frame or operator_frame file")
    p.add_argument("--out", "-o", required=True, help="output frame file")

    p = sub.add_parser("parseval",
                       help="write the Parseval normalization (generalized "
                            "kinds are converted to operator frames first)")
    p.add_argument("path", help="frame file (any kind)")
    p.add_argument("--out", "-o", required=True, help="output frame file")

    p = sub.add_parser("convert",
                       help="rewrite a fusion/pseudo/quasi file as an "
                            "operator frame")
    p.add_argument("path", help="fusion, pseudo, or quasi file")
    p.add_argument("--out", "-o", required=True, help="output frame file")

    p = sub.add_parser("stability",
                       help="check a perturbation theorem on a frame pair")
    p.add_argument("path_f", help="reference operator_frame file")
    p.add_argument("path_r", help="perturbed operator_frame file")
    p.add_argument("--theorem", type=int, choices=(1, 2), default=1)
    p.add_argument("--fit", action="store_true",
                   help="fit the simplest admissible constants instead of "
                        "taking them from flags")
    p.add_argument("--lambda1", type=float, default=None, metavar="X")
    p.add_argument("--lambda2", type=float, default=None, metavar="X")
    p.add_argument("--mu", type=float, default=None, metavar="X")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   metavar="X", help="theorem 2 lambda")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("reconstruct",
                       help="reconstruct vectors through the canonical dual "
                            "and report the worst residual")
    p.add_argument("path", help="vector_frame or operator_frame file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--vector", metavar="FILE",
                       help="JSON vector file to reconstruct")
    group.add_argument("--random", type=int, metavar="K",
                       help="number of seeded random vectors")
    p.add_argument("--seed", type=int, default=0)

    return parser


# exit code of each error class: 1 for a mathematical failure of valid
# input, 2 for input that is malformed or outside the admissible range
EXIT_CODES = {
    NotAFrame: 1,
    NotAFrameOnSubspace: 1,
    HypothesisViolated: 1,
    Singular: 1,
    NotHermitian: 1,
    NotPositive: 1,
    PullbackFailed: 1,
    ParseError: 2,
    ValidationError: 2,
    InvalidParams: 2,
    ConditionViolated: 2,
    DimensionMismatch: 2,
    InvalidWeight: 2,
    NonFinite: 2,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parse_args leaves it unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up by name on each call, so a rebound cmd_* is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except QuatFramesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
