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
from .errors import NonFinite, QuatFramesError, ValidationError
from .fileio import (
    MAX_DIM,
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
from .operator_frames import op_dual, op_parseval, op_report, reconstruct
from .reporting import frame_bounds
from .sampling import random_columns
from .stability import (
    Theorem1Params,
    Theorem2Params,
    check_stability_t1,
    check_stability_t2,
    fit_params_t1,
    fit_params_t2,
)
from .vector_frames import VectorFrame, canonical_dual, parseval, report

# a reconstruction is ok when each residual is at most this times its vector's norm
RECONSTRUCT_TOL = 1e-8


def _head(command: str, **digests: str) -> dict:
    return {"tool": "quatframes", "version": __version__, "command": command, **digests}


def _report_payload(rep) -> dict:
    """The bounds and is_ flags of a FrameReport, and as its classification
    the names of the flags that hold without their is_ prefix."""
    flags = {name: flag for name, flag in rep._asdict().items() if name.startswith("is_")}
    return {"bounds": [rep.lower, rep.upper], **flags,
            "classification": [name[3:] for name, flag in flags.items() if flag]}


def cmd_analyze(args) -> int:
    kind, frame, digest = load_frame(args.path)
    doc = _head("analyze", input_digest=digest)
    doc["kind"] = kind
    doc["seed"] = args.seed
    doc["member_count"] = len(frame)
    if kind == "vector_frame":
        doc.update(_report_payload(report(frame)))
    elif kind == "operator_frame":
        doc.update(_report_payload(op_report(frame)))
    elif kind == "fusion":
        doc.update(_report_payload(fusion_report(frame)))
    elif kind == "quasi":
        doc["checks"] = quasi_projector_check(frame)._asdict()
    else:
        doc["checks"] = pseudo_frame_check(frame)._asdict()
    print(dumps12(doc))
    return 0


def _write_summary(command: str, digest: str, out: str, frame) -> None:
    bounds = list(frame_bounds(frame.analysis_matrix()))
    obj = (vector_frame_obj if isinstance(frame, VectorFrame) else operator_frame_obj)(frame)
    doc = _head(command, input_digest=digest)
    doc["output_kind"] = obj["kind"]
    doc["output_digest"] = write_document(out, obj)
    doc["bounds"] = bounds
    print(dumps12(doc))


def cmd_dual(args) -> int:
    kind, frame, digest = load_frame(args.path)
    if kind == "vector_frame":
        dual = canonical_dual(frame)
    elif kind == "operator_frame":
        dual = op_dual(frame)
    else:
        raise ValidationError(
            "dual requires a vector_frame or operator_frame file; "
            "run convert first")
    _write_summary("dual", digest, args.out, dual)
    return 0


def _to_operator_frame(kind: str, frame):
    if kind == "fusion":
        return fusion_to_op_frame(frame)
    if kind == "pseudo":
        return pseudo_to_op_frame(frame)
    return quasi_to_op_frame(frame)


def cmd_parseval(args) -> int:
    kind, frame, digest = load_frame(args.path)
    if kind == "vector_frame":
        result = parseval(frame)
    else:
        if kind != "operator_frame":
            frame = _to_operator_frame(kind, frame)
        result = op_parseval(frame)
    _write_summary("parseval", digest, args.out, result)
    return 0


def cmd_convert(args) -> int:
    kind, frame, digest = load_frame(args.path)
    if kind not in ("fusion", "pseudo", "quasi"):
        raise ValidationError("convert requires a fusion, pseudo, or quasi file")
    _write_summary("convert", digest, args.out, _to_operator_frame(kind, frame))
    return 0


def _check_seed(args) -> None:
    if args.seed < 0:  # numpy's generator takes no other seed
        raise ValidationError("--seed must be nonnegative")


def cmd_stability(args) -> int:
    _check_seed(args)
    kind_f, f, digest_f = loaded = load_frame(args.path_f)
    # frames are read-only, so `stability F F` reads F once
    kind_r, r, digest_r = load_frame(args.path_r) if args.path_r != args.path_f else loaded
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
        check = check_stability_t1
    else:
        if args.lambda1 is not None or args.lambda2 is not None:
            raise ValidationError("--lambda1/--lambda2 apply to --theorem 1; "
                                  "theorem 2 takes --lambda/--mu")
        if args.fit:
            params = fit_params_t2(f, r)
        else:
            params = Theorem2Params(args.lam or 0.0, args.mu or 0.0)
        check = check_stability_t2
    verdict = check(f, r, params, seed=args.seed)

    doc = _head("stability", input_digest_f=digest_f, input_digest_r=digest_r)
    doc.update(verdict.to_record())
    print(dumps12(doc))
    return 0 if verdict.hypothesis_ok and verdict.consistent else 1


def cmd_reconstruct(args) -> int:
    _check_seed(args)
    kind, frame, digest = load_frame(args.path)
    if kind not in ("vector_frame", "operator_frame"):
        raise ValidationError(
            "reconstruct requires a vector_frame or operator_frame file; "
            "run convert first")
    # a file that is no frame is refused before any vector is read
    dual = op_dual(frame)

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
        if args.random > MAX_DIM:
            raise ValidationError(f"--random needs a count of at most {MAX_DIM}")
        x = random_columns(np.random.default_rng(args.seed), frame.space_dim,
                           args.random)

    with np.errstate(over="ignore", invalid="ignore"):
        residuals = (reconstruct(frame, dual, x) - x).column_norms()
    if not np.isfinite(residuals).all():
        raise NonFinite("reconstruction residual is inf or nan, such as from "
                        "an overflow; rescale the input")
    doc = _head("reconstruct", input_digest=digest)
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
    p.add_argument("--seed", type=int, default=0, help="nonnegative")

    p = sub.add_parser("reconstruct",
                       help="reconstruct vectors through the canonical dual "
                            "and report the worst residual")
    p.add_argument("path", help="vector_frame or operator_frame file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--vector", metavar="FILE",
                       help="JSON vector file to reconstruct")
    group.add_argument("--random", type=int, metavar="K",
                       help="number of seeded random vectors")
    p.add_argument("--seed", type=int, default=0, help="nonnegative")

    return parser


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
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
