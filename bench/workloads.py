"""Seeded workload generators.

Each workload is a list of CLI commands over input files generated from
the seed.  The program sees only the files; the expected outcome of each
command (exit code and, lazily, reference values from reference.py) is
kept beside it for the checker.  Argv items that depend on reference
values (the explicit stability constants) are callables, resolved after
the timed set-up by Workload.resolve, so set-up time counts generating
and writing the files, not the benchmark's own reference math.  Sizes
are fixed per workload and the seed varies the entries, so every seed
asks for the same amount of work.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


@dataclass
class Command:
    """One CLI call: argv for quatframes.cli.main, the exit code the
    workload expects, and a thunk giving the reference values to check.
    Until Workload.resolve, an argv item may be a callable giving it."""

    argv: list
    exit: int = 0
    expect: Callable[[], dict] | None = None

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    """Generated files (name -> text) and the command list of one pass."""

    root: Path
    files: dict[str, str] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)
    # commands run once after the timed passes; see run.known_defects
    probes: list[Command] = field(default_factory=list)

    def put(self, name: str, doc) -> str:
        self.files[name] = doc if isinstance(doc, str) else json.dumps(doc)
        return str(self.root / "in" / name)

    def out(self, name: str) -> str:
        return str(self.root / "out" / name)

    def run(self, *argv, exit: int = 0, expect=None) -> None:
        self.commands.append(Command(list(argv), exit, expect))

    def resolve(self) -> None:
        """Turn every argv item into its string, calling deferred ones."""
        for cmd in self.commands + self.probes:
            cmd.argv = [str(a() if callable(a) else a) for a in cmd.argv]

    def write(self) -> None:
        (self.root / "in").mkdir(parents=True)
        (self.root / "out").mkdir()
        for name, text in self.files.items():
            (self.root / "in" / name).write_text(text, encoding="utf-8")


# ====== file documents ======

def vector_doc(v: np.ndarray) -> dict:
    return {"dim": v.shape[0], "data": v.tolist()}


def matrix_doc(m: np.ndarray) -> dict:
    return {"rows": m.shape[0], "cols": m.shape[1], "data": m.tolist()}


def vector_frame_doc(members: np.ndarray) -> dict:
    return {"kind": "vector_frame", "dim": members.shape[1],
            "members": [vector_doc(u) for u in members]}


def operator_frame_doc(members: list[np.ndarray]) -> dict:
    return {"kind": "operator_frame", "dim": members[0].shape[1],
            "members": [matrix_doc(t) for t in members]}


def fusion_doc(subspaces: list[np.ndarray], weights: list[float]) -> dict:
    return {"kind": "fusion", "dim": subspaces[0].shape[1], "weights": weights,
            "subspaces": [[vector_doc(v) for v in b] for b in subspaces]}


def pseudo_doc(analyzers, synthesizers, subspace) -> dict:
    return {"kind": "pseudo", "dim": analyzers.shape[1],
            "analyzers": [vector_doc(v) for v in analyzers],
            "synthesizers": [vector_doc(v) for v in synthesizers],
            "subspace": [vector_doc(v) for v in subspace]}


def quasi_doc(projectors: list[np.ndarray]) -> dict:
    return {"kind": "quasi", "dim": projectors[0].shape[0],
            "projectors": [matrix_doc(p) for p in projectors]}


# ====== random families ======

def _cycled(rng, values, count: int) -> list[int]:
    """`count` sizes cycling through `values`, shuffled: the total is
    fixed by the workload, the order by the seed."""
    sizes = [values[k % len(values)] for k in range(count)]
    rng.shuffle(sizes)
    return sizes


def operator_members(rng, n: int, count: int) -> list[np.ndarray]:
    return [rng.standard_normal((d, n, 4)) for d in _cycled(rng, (1, 2, 3, 4), count)]


def perturbed(rng, members, eps: float) -> list[np.ndarray]:
    return [t + eps * rng.standard_normal(t.shape) for t in members]


def fusion_family(rng, n: int, count: int):
    subspaces = [rng.standard_normal((k, n, 4)) for k in _cycled(rng, (1, 2, 3), count)]
    weights = [float(w) for w in rng.uniform(0.5, 2.0, count)]
    return subspaces, weights


def hermitian(rng, n: int, scale: float) -> np.ndarray:
    b = rng.standard_normal((n, n, 4)) * scale
    adj = np.swapaxes(b, 0, 1).copy()
    adj[..., 1:] = -adj[..., 1:]
    return (b + adj) / 2.0


def quasi_family(rng, n: int, count: int) -> list[np.ndarray]:
    """count - 1 random self-adjoint operators and the identity minus
    their sum: self-adjoint, resolving the identity, and a frame."""
    parts = [hermitian(rng, n, 0.3) for _ in range(count - 1)]
    last = -sum(parts)
    last[np.arange(n), np.arange(n), 0] += 1.0
    return parts + [last]


# ====== expectations ======
#
# An expectation is {"close": {path: number or numbers}, "equal": {path:
# value}} over dotted paths into the stdout document: "close" values must
# match the reference to a relative 1e-8, "equal" values exactly.

def analyzed(chi_s: Callable[[], np.ndarray]):
    return lambda: {"close": {"bounds": ref.extremes(chi_s())}, "equal": {"is_frame": True}}


def bounds(chi_s: Callable[[], np.ndarray]):
    return lambda: {"close": {"bounds": ref.extremes(chi_s())}}


def dual_bounds(chi_s: Callable[[], np.ndarray]):
    def expect():
        lo, hi = ref.extremes(chi_s())
        return {"close": {"bounds": (1.0 / hi, 1.0 / lo)}}
    return expect


def parseval_bounds() -> dict:
    return {"close": {"bounds": (1.0, 1.0)}}


def reconstructed() -> dict:
    return {"equal": {"ok": True}}


def _frame_commands(w: Workload, tag: str, path: str, chi_s, random: int,
                    every: bool = True) -> None:
    """analyze and reconstruct of a vector or operator frame, and with
    `every` also dual and parseval."""
    w.run("analyze", path, expect=analyzed(chi_s))
    if every:
        w.run("dual", path, "--out", w.out(f"{tag}.dual.json"), expect=dual_bounds(chi_s))
        w.run("parseval", path, "--out", w.out(f"{tag}.parseval.json"), expect=parseval_bounds)
    w.run("reconstruct", path, "--random", random, expect=reconstructed)


def _generalized_commands(w: Workload, tag: str, path: str, expect_analyze, chi_s) -> None:
    """analyze, parseval and convert of a fusion, pseudo or quasi file."""
    w.run("analyze", path, expect=expect_analyze)
    w.run("parseval", path, "--out", w.out(f"{tag}.parseval.json"), expect=parseval_bounds)
    w.run("convert", path, "--out", w.out(f"{tag}.convert.json"), expect=bounds(chi_s))


def _stability_commands(w: Workload, tag: str, f, r, theorem1: bool = True,
                        t2_seeds=()) -> tuple[str, str]:
    """Stability checks of one pair: both theorems with fitted constants;
    with `theorem1`, theorem 1 also at explicit constants 1.5 and 0.5 times
    the fitted mu; and theorem 2 at 1.5 times mu for each of `t2_seeds`.
    The explicit constants fix each exit code by construction.  Returns
    the two file paths."""
    pf = w.put(f"{tag}.f.json", operator_frame_doc(f))
    pr = w.put(f"{tag}.r.json", operator_frame_doc(r))

    @functools.cache
    def mu() -> float:
        value = ref.difference_norm(f, r)
        r1 = ref.extremes(ref.operator_frame_chi(f))[0]
        # theorem 2 refuses with exit 2 unless mu/sqrt(r1) < 1
        if not 1.5 * value < np.sqrt(r1):
            raise ValueError(f"{tag}: perturbation too large for theorem 2")
        return value

    def verdict(holds: bool, fitted: bool = False):
        def expect():
            out = {"close": {"measured": ref.extremes(ref.operator_frame_chi(r))},
                   "equal": {"hypothesis_ok": holds}}
            if holds:
                out["equal"]["consistent"] = True
            if fitted:
                out["close"]["params.mu"] = mu()
            return out
        return expect

    w.run("stability", pf, pr, "--theorem", 1, "--fit", expect=verdict(True, fitted=True))
    w.run("stability", pf, pr, "--theorem", 2, "--fit", expect=verdict(True, fitted=True))
    if theorem1:
        w.run("stability", pf, pr, "--theorem", 1, "--lambda1", 0, "--lambda2", 0,
              "--mu", lambda: repr(1.5 * mu()), expect=verdict(True))
        # the exact operator-norm test refuses any mu below the fitted one
        w.run("stability", pf, pr, "--theorem", 1, "--lambda1", 0, "--lambda2", 0,
              "--mu", lambda: repr(0.5 * mu()), exit=1, expect=verdict(False))
    for seed in t2_seeds:
        w.run("stability", pf, pr, "--theorem", 2, "--lambda", 0,
              "--mu", lambda: repr(1.5 * mu()), "--seed", seed, expect=verdict(True))
    return pf, pr


def _fusion_file(w: Workload, tag: str, subspaces, weights):
    path = w.put(f"{tag}.json", fusion_doc(subspaces, weights))
    return path, lambda: ref.fusion_chi(subspaces, weights)


# ====== workloads ======

def spectral(seed: int, root: Path) -> Workload:
    """Vector, operator and fusion frames at n = 32, where chi(S) is
    64 x 64: one command per subcommand, each on its own file."""
    rng = np.random.default_rng([seed, 1])
    w = Workload(root)
    n = 32
    vf = {m: rng.standard_normal((m, n, 4)) for m in (64, 128)}
    paths = {m: w.put(f"vf{m}.json", vector_frame_doc(u)) for m, u in vf.items()}
    f = operator_members(rng, n, 24)
    r = perturbed(rng, f, 0.01)
    pf = w.put("op.json", operator_frame_doc(f))
    pr = w.put("op_pert.json", operator_frame_doc(r))
    fusion, chi_fusion = _fusion_file(w, "fusion", *fusion_family(rng, n, 24))

    w.run("analyze", paths[128], expect=analyzed(lambda: ref.vector_frame_chi(vf[128])))
    w.run("dual", paths[64], "--out", w.out("vf64.dual.json"),
          expect=dual_bounds(lambda: ref.vector_frame_chi(vf[64])))
    w.run("parseval", pf, "--out", w.out("op.parseval.json"), expect=parseval_bounds)
    w.run("convert", fusion, "--out", w.out("fusion.convert.json"), expect=bounds(chi_fusion))
    w.run("reconstruct", paths[128], "--random", 8, expect=reconstructed)
    w.run("stability", pf, pr, "--theorem", 2, "--fit", expect=lambda: {
        "close": {"measured": ref.extremes(ref.operator_frame_chi(r)),
                  "params.mu": ref.difference_norm(f, r)},
        "equal": {"hypothesis_ok": True, "consistent": True}})
    return w


# members per frame and theorem-2 checks per pair at their own sample
# seeds: enough that the sampled hypothesis loops outweigh the
# eigensolves, which is what the perturbation workload stresses
PERTURBATION_MEMBERS = 32
PERTURBATION_T2_SEEDS = 2


def perturbation(seed: int, root: Path) -> Workload:
    """Two operator-frame pairs at n = 16 under both stability theorems."""
    rng = np.random.default_rng([seed, 3])
    w = Workload(root)
    n = 16
    for k, eps in enumerate((0.01, 0.05)):
        f = operator_members(rng, n, PERTURBATION_MEMBERS)
        r = perturbed(rng, f, eps)
        pf, pr = _stability_commands(w, f"pair{k}", f, r, theorem1=(k == 0),
                                     t2_seeds=range(PERTURBATION_T2_SEEDS))
        w.run("analyze", pf, expect=analyzed(lambda f=f: ref.operator_frame_chi(f)))
        w.run("analyze", pr, expect=analyzed(lambda r=r: ref.operator_frame_chi(r)))
    return w


def _catalog_kind_files(w: Workload, rng, n: int, small: bool) -> None:
    """Files at dimension n with many members, so that parsing, per-member
    loops and output formatting cost more than the eigensolves of an
    n x n operator.  The `small` dimension gets all five kinds and every
    subcommand; the other only vector and operator frames, analyzed,
    reconstructed and refused, since each of its eigensolves costs about
    six of the small one's."""
    for m in (4 * n, 16 * n, 32 * n):
        members = rng.standard_normal((m, n, 4))
        tag = f"n{n}.vf{m}"
        path = w.put(f"{tag}.json", vector_frame_doc(members))
        _frame_commands(w, tag, path, lambda u=members: ref.vector_frame_chi(u), 4, small)
        if m == 16 * n:
            probe = w.put(f"n{n}.probe.json", vector_doc(rng.standard_normal((n, 4))))
            w.run("reconstruct", path, "--vector", probe, expect=reconstructed)
            short = w.put(f"n{n}.short.json", vector_doc(rng.standard_normal((n - 1, 4))))
            w.run("reconstruct", path, "--vector", short, exit=2)
        if m == 32 * n:
            # refusals after parsing the largest file
            w.run("convert", path, "--out", w.out(f"{tag}.convert.json"), exit=2)
            w.run("stability", path, path, exit=2)

    # n - 1 vectors cannot span H^n: analyze still reports, dual and
    # parseval refuse with exit 1
    members = rng.standard_normal((n - 1, n, 4))
    path = w.put(f"n{n}.nonframe.json", vector_frame_doc(members))
    w.run("analyze", path, expect=bounds(lambda: ref.vector_frame_chi(members)))
    if small:
        w.run("dual", path, "--out", w.out(f"n{n}.nonframe.dual.json"), exit=1)
        w.run("parseval", path, "--out", w.out(f"n{n}.nonframe.parseval.json"), exit=1)
        # a usage error: argparse refuses a missing --out
        w.run("dual", path, exit=2)

    for k in range(2):
        f = operator_members(rng, n, 8 * n * (k + 1))
        tag = f"n{n}.op{k}"
        path = w.put(f"{tag}.json", operator_frame_doc(f))
        _frame_commands(w, tag, path, lambda f=f: ref.operator_frame_chi(f), 4, small)
        if k == 0:
            w.run("convert", path, "--out", w.out(f"{tag}.convert.json"), exit=2)
    if not small:
        return

    for k in range(2):
        tag = f"n{n}.fusion{k}"
        path, chi_s = _fusion_file(w, tag, *fusion_family(rng, n, 4 * n * (k + 1)))
        _generalized_commands(w, tag, path, analyzed(chi_s), chi_s)
        if k == 0:
            w.run("dual", path, "--out", w.out(f"{tag}.dual.json"), exit=2)

    for k in range(2):
        s = n // 2 + k
        subspace = rng.standard_normal((s, n, 4))
        analyzers = rng.standard_normal((4 * n, n, 4))
        synth = ref.pseudo_synthesizers(analyzers, subspace)
        tag = f"n{n}.pseudo{k}"
        path = w.put(f"{tag}.json", pseudo_doc(analyzers, synth, subspace))
        chi_s = lambda a=analyzers, b=subspace: ref.pseudo_chi(a, b)
        holds = lambda: {"equal": {"checks.holds": True}}
        _generalized_commands(w, tag, path, holds, chi_s)
        if k == 0:
            w.run("reconstruct", path, "--random", 4, exit=2)

    for k in range(2):
        projectors = quasi_family(rng, n, 3 + k)
        tag = f"n{n}.quasi{k}"
        path = w.put(f"{tag}.json", quasi_doc(projectors))
        # the projectors themselves are the members: S = sum_j P_j* P_j
        chi_s = lambda p=projectors: ref.operator_frame_chi(p)
        checks = lambda c=chi_s: {
            "close": {"checks.bessel_bound": ref.extremes(c())[1]},
            "equal": {"checks.resolution_ok": True, "checks.self_adjoint": True,
                      "checks.compatible": True}}
        _generalized_commands(w, tag, path, checks, chi_s)
        if k == 0:
            w.run("dual", path, "--out", w.out(f"{tag}.dual.json"), exit=2)

    f = operator_members(rng, n, n)
    pf, _ = _stability_commands(w, f"n{n}.pair", f, perturbed(rng, f, 0.02), t2_seeds=(0,))
    w.run("stability", pf, pf, "--theorem", 1, "--lambda", 0.1, exit=2)


def _rejected_files(w: Workload, rng, n: int) -> None:
    """Structurally bad inputs; each must exit 2."""
    good = vector_frame_doc(rng.standard_normal((n + 1, n, 4)))
    bad = {
        "missing_dim": {k: v for k, v in good.items() if k != "dim"},
        "member_dim": {**good, "members": good["members"][:-1]
                       + [vector_doc(rng.standard_normal((n + 1, 4)))]},
        "short_data": {**good, "members": [{"dim": n, "data": good["members"][0]["data"][:-1]}]},
        "bool_entry": {**good, "dim": 1, "members": [{"dim": 1, "data": [[True, 0, 0, 0]]}]},
        "unknown_kind": {**good, "kind": "tensor_frame"},
        "op_domain": {"kind": "operator_frame", "dim": n,
                      "members": [matrix_doc(rng.standard_normal((2, n + 1, 4)))]},
    }
    for name, doc in bad.items():
        w.run("analyze", w.put(f"bad.{name}.json", doc), exit=2)
    w.run("analyze", w.put("bad.truncated.json", json.dumps(good)[:-7]), exit=2)
    w.run("analyze", str(w.root / "in" / "absent.json"), exit=2)


def catalog(seed: int, root: Path) -> Workload:
    """Many small files of all five kinds at n in {4, 8}, with rejects."""
    rng = np.random.default_rng([seed, 2])
    w = Workload(root)
    for n in (4, 8):
        _catalog_kind_files(w, rng, n, small=(n == 4))
    _rejected_files(w, rng, 4)
    # a non-finite entry is an invalid number and should exit 2 as well
    for name, value in (("nan", float("nan")), ("inf", float("inf"))):
        members = rng.standard_normal((6, 4, 4))
        members[2, 1, 3] = value
        path = w.put(f"nonfinite.{name}.json", vector_frame_doc(members))
        w.probes.append(Command(["analyze", path], exit=2))
    return w


BUILDERS = {"spectral": spectral, "catalog": catalog, "perturbation": perturbation}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, root: Path) -> Workload:
    """Generate a workload's files and commands; nothing is written or
    resolved yet."""
    return BUILDERS[name](seed, root)
