"""Span recorder installed from outside the package.

The recorder rebinds each listed public function wherever a quatframes
module holds it (so `from .linalg import inner` bindings are covered
too), records a span per call (name, start, end, parent, size, pass),
and counts calls that are too fine to span.  A layer's self time is its
span time minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from time import perf_counter

# span name -> public functions (module, attribute) recorded under it
SPANS = {
    "cli": [("cli", "main")],
    "fileio.parse": [("fileio", "load_frame"), ("fileio", "load_vector")],
    "fileio.write": [("fileio", "write_document")],
    "fileio.dumps12": [("fileio", "dumps12")],
    "fileio.digest": [("fileio", "file_digest")],
    "linalg.eig": [("linalg", "hermitian_eigenvalues"), ("linalg", "hermitian_spectrum")],
    "linalg.inverse": [("linalg", "inverse_matrix"), ("linalg", "solve")],
    "linalg.sqrt": [("linalg", "positive_sqrt")],
    "linalg.gram_schmidt": [("linalg", "orthonormalize"), ("linalg", "projection")],
    "vector_frames.frame_operator": [("vector_frames", "frame_operator")],
    "vector_frames": [("vector_frames", "report"), ("vector_frames", "canonical_dual")],
    "operator_frames.frame_operator": [("operator_frames", "op_frame_operator")],
    "operator_frames.synthesis": [("operator_frames", "op_synthesis")],
    "operator_frames": [("operator_frames", "op_report"), ("operator_frames", "op_dual"),
                        ("operator_frames", "op_parseval"), ("operator_frames", "reconstruct")],
    "reporting.build_report": [("reporting", "build_report")],
    "generalizations.fusion": [("generalizations", "fusion_frame_operator"),
                               ("generalizations", "fusion_report"),
                               ("generalizations", "fusion_to_op_frame")],
    "generalizations.pseudo": [("generalizations", "pseudo_frame_check"),
                               ("generalizations", "pseudo_to_op_frame")],
    "generalizations.quasi": [("generalizations", "quasi_projector_check"),
                              ("generalizations", "quasi_to_op_frame")],
    "stability.check": [("stability", "check_stability_t1"), ("stability", "check_stability_t2")],
    "stability.fit": [("stability", "fit_params_t1"), ("stability", "fit_params_t2")],
}

# count name -> calls counted without a span (class attributes use a dot)
COUNTS = {
    "linalg.matmul": [("linalg", "QMatrix.__matmul__")],
    "linalg.inner": [("linalg", "inner")],
    "quaternion.objects": [("quaternion", "Quaternion.__init__")],
    "stability.samples": [("sampling", "random_unit_qvector"),
                          ("sampling", "random_block_vector")],
}


def _file_size(args, result) -> int:
    return os.path.getsize(args[0])


def _rows(args, result) -> int:
    return args[0].rows


# span name -> size recorded per call, from its arguments and result
SIZES = {
    "fileio.parse": _file_size,
    "fileio.write": _file_size,
    "linalg.eig": _rows,
}


class Recorder:
    """Spans and counts of one traced run, grouped by pass."""

    def __init__(self):
        # each span is [name, start, end, parent index, size, pass]
        self.spans: list[list] = []
        # calls counted without a span, by (pass, count name)
        self.counts: Counter = Counter()
        # exceptions that left a span, by span name
        self.failed: Counter = Counter()
        self.pass_index = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        rec = self
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1, 0, rec.pass_index]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec.failed[name] += 1
                raise
            finally:
                span[2] = perf_counter()
                rec._stack.pop()
            if size is not None:
                span[4] = size(args, result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[rec.pass_index, name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Rebind every listed function in every loaded quatframes module."""
        modules = [m for n, m in sys.modules.items()
                   if n == "quatframes" or n.startswith("quatframes.")]
        for table, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for name, targets in table.items():
                for module, attr in targets:
                    owner = sys.modules[f"quatframes.{module}"]
                    if "." in attr:
                        cls_name, attr = attr.split(".")
                        cls = getattr(owner, cls_name)
                        self._patch(cls, attr, make(name, getattr(cls, attr)))
                        continue
                    original = getattr(owner, attr)
                    wrapper = make(name, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, *_), c in zip(self.spans, child)]

    def to_json(self) -> dict:
        keys = ("name", "start", "end", "parent", "size", "pass")
        return {"spans": [dict(zip(keys, s)) for s in self.spans],
                "counts": [{"pass": p, "name": n, "calls": c}
                           for (p, n), c in sorted(self.counts.items())],
                "failed": dict(self.failed)}


def layer_metrics(rec: Recorder, passes: int, samples_per_check: int) -> dict:
    """Per-layer numbers per traced pass, from spans with pass >= 0.

    Every span name gives `<name>.calls` and `<name>.self_s`; the rest are
    the derived counts and ratios that the layer table names.
    """
    selfs = rec.self_times()
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    sizes = Counter()
    cli_total = 0.0
    eig_children: Counter = Counter()
    for (name, start, end, parent, size, pass_index), self_s in zip(rec.spans, selfs):
        if pass_index < 0:
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        sizes[name] += size
        if name == "cli":
            cli_total += end - start
        if name == "linalg.eig" and parent >= 0 and rec.spans[parent][0] == "reporting.build_report":
            eig_children[parent] += 1
    out["linalg.eig.dim_sum"] = sizes["linalg.eig"]
    out["fileio.bytes_read"] = sizes["fileio.parse"]
    out["fileio.bytes_written"] = sizes["fileio.write"]
    out["reporting.removal_eigensolves"] = sum(max(c - 1, 0) for c in eig_children.values())
    for name in COUNTS:
        key = f"{name}.calls" if name.startswith("linalg.") else name
        out[key] = sum(c for (p, n), c in rec.counts.items() if n == name and p >= 0)
    out = {k: v / passes for k, v in out.items()}
    out["cli.total_s"] = cli_total / passes
    out["linalg.failed"] = sum(v for k, v in rec.failed.items() if k.startswith("linalg."))
    out["stability.samples_used_ratio"] = _ratio(
        out["stability.samples"], out["stability.check.calls"] * samples_per_check)
    out["linalg.solver_share"] = _ratio(
        sum(out[f"linalg.{k}.self_s"] for k in ("eig", "inverse", "sqrt")), out["cli.total_s"])
    out["stability.sampling_eig_ratio"] = _ratio(
        out["stability.check.self_s"] + out["operator_frames.synthesis.self_s"],
        out["linalg.eig.self_s"])
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
