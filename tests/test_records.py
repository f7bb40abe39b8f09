"""The result records: seven immutable named tuples whose fields, defaults,
reprs and stability record stay as they were when they were dataclasses."""

import ast
from pathlib import Path

import numpy as np
import pytest

from quatframes.generalizations import PseudoCheck, QuasiCheck
from quatframes.linalg import QMatrix, Spectrum
from quatframes.reporting import FrameReport
from quatframes.stability import StabilityVerdict, Theorem1Params, Theorem2Params

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quatframes"

S = QMatrix(np.eye(2)[:, :, None] * np.array([1.0, 0.0, 0.0, 0.0]))
VALUES = np.array([1.0, 2.0])

# each record, built from its fields in order, and its field names
RECORDS = [
    (FrameReport(1.0, 2.0, True, True, False, False, True, S),
     ("lower", "upper", "is_bessel", "is_frame", "is_tight", "is_parseval",
      "is_exact", "frame_operator")),
    (Theorem1Params(0.1, 0.05, 0.01), ("lambda1", "lambda2", "mu")),
    (Theorem2Params(0.2, 0.3), ("lam", "mu")),
    (StabilityVerdict(1, Theorem1Params(0.1, 0.0, 0.2), True, True, 0.5, 2.0,
                      0.6, 1.9, True, 7),
     ("theorem", "params", "hypothesis_ok", "frame_claim", "predicted_lower",
      "predicted_upper", "measured_lower", "measured_upper", "consistent",
      "seed", "note")),
    (PseudoCheck(True, 1e-12), ("holds", "max_residual")),
    (QuasiCheck(True, 1.5, False, True),
     ("resolution_ok", "bessel_bound", "self_adjoint", "compatible")),
    (Spectrum(VALUES, S), ("eigenvalues", "eigenvectors")),
]
NAMES = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, fields", RECORDS, ids=NAMES)
def test_fields_keep_their_order_and_defaults(record, fields):
    assert type(record)._fields == fields
    expected = {"note": ""} if isinstance(record, StabilityVerdict) else {}
    assert type(record)._field_defaults == expected
    assert not expected or record.note == ""


@pytest.mark.parametrize("record, fields", RECORDS, ids=NAMES)
def test_records_are_immutable(record, fields):
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_reprs_are_unchanged():
    reprs = [repr(record) for record, _ in RECORDS]
    assert reprs == [
        f"FrameReport(lower=1.0, upper=2.0, is_bessel=True, is_frame=True, "
        f"is_tight=False, is_parseval=False, is_exact=True, frame_operator={S!r})",
        "Theorem1Params(lambda1=0.1, lambda2=0.05, mu=0.01)",
        "Theorem2Params(lam=0.2, mu=0.3)",
        "StabilityVerdict(theorem=1, params=Theorem1Params(lambda1=0.1, "
        "lambda2=0.0, mu=0.2), hypothesis_ok=True, frame_claim=True, "
        "predicted_lower=0.5, predicted_upper=2.0, measured_lower=0.6, "
        "measured_upper=1.9, consistent=True, seed=7, note='')",
        "PseudoCheck(holds=True, max_residual=1e-12)",
        "QuasiCheck(resolution_ok=True, bessel_bound=1.5, self_adjoint=False, "
        "compatible=True)",
        f"Spectrum(eigenvalues={VALUES!r}, eigenvectors={S!r})",
    ]


def test_spectrum_properties_read_the_extremal_eigenvalues():
    spectrum = RECORDS[6][0]
    assert (spectrum.lower, spectrum.upper) == (1.0, 2.0)
    assert type(spectrum.lower) is float


def test_verdict_records_are_unchanged():
    rec1 = RECORDS[3][0].to_record()
    assert list(rec1.items()) == [
        ("theorem", 1), ("params", {"lambda1": 0.1, "lambda2": 0.0, "mu": 0.2}),
        ("hypothesis_ok", True), ("frame_claim", True), ("predicted", [0.5, 2.0]),
        ("measured", [0.6, 1.9]), ("consistent", True), ("seed", 7)]
    assert list(rec1["params"]) == ["lambda1", "lambda2", "mu"]
    rec2 = StabilityVerdict(2, Theorem2Params(0.2, 0.3), False, False, -0.1, 3.0,
                            0.5, 2.5, True, 0, note="a note").to_record()
    assert list(rec2.items()) == [
        ("theorem", 2), ("params", {"lambda": 0.2, "mu": 0.3}),
        ("hypothesis_ok", False), ("frame_claim", False), ("predicted", [-0.1, 3.0]),
        ("measured", [0.5, 2.5]), ("consistent", True), ("seed", 0),
        ("note", "a note")]


# Each @dataclass generates the source of its methods and exec-compiles it
# at import: 0.45-0.85 ms per record against 0.07-0.18 ms for a NamedTuple
# with the same fields (best of 200 on a 2-core VM), about 4.5 ms of the
# ~24 ms it took to import quatframes.cli with the seven records as
# dataclasses and PYTHONDONTWRITEBYTECODE=1, which every command pays.
def test_no_module_imports_dataclasses():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "dataclasses" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert not importers, importers
