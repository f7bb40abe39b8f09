"""quatframes benchmark: scripted sessions of quatframes.cli.main, run in
process and in a closed loop (one client; each command is sent only after
the previous one returned).

    python3 bench/run.py --workload spectral --seed 1 --seconds 40 --trace 0

Set-up imports quatframes from src/ of this checkout and writes the
workload's seeded input files under bench/_work/.  The timed part repeats
whole passes over the workload's command list until --seconds is spent
(at least two passes, so stdout can be compared across passes), checks
every command against references computed without quatframes, and
prints each metric by name and unit.  Times are paced to a reference
host speed (see Pacer); the unpaced throughput is printed beside them.
The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}.

With --trace 1 the run alternates untraced and traced passes; the traced
ones record spans through spans.Recorder and report the per-layer
metrics, written in full to bench/_work/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

# single-threaded BLAS, set before numpy loads it: the matrices here are at
# most 64 x 64, and a second BLAS thread on a shared two-core host made
# small LAPACK calls tens of times slower and their timings erratic
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"

MIN_PASSES = 2
# timed set-ups after each round; setup_s is their median
SETUPS_PER_ROUND = 3
SUBCOMMANDS = ("analyze", "dual", "parseval", "convert", "reconstruct", "stability")
# command_tail_ms is this percentile of all untraced command runs; see
# end_to_end
TAIL_PERCENTILE = 90


def declared_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares in `section`
    ("end_to_end" or "per_layer"), in their declared order."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared[section]}


# ====== machine ======

def _os_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy already loaded."""
    with open("/proc/self/maps", encoding="ascii") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "os_threads": _os_threads(),
    }


# ====== host speed ======
#
# On the shared two-core VM this benchmark was defined on, the speed of
# the same code moves by up to 1.8x within seconds, in wall and in CPU
# time alike, so raw times follow the host more than the program: the
# commands per second of ten runs of the same code spread by 0.15 to 0.28
# of their median.  Every timed interval (a command, a set-up) is
# therefore paced: a fixed reference kernel runs around and within it,
# and its time is scaled as it would be on a host where the kernel takes
# REFERENCE_S.  The kernel is benchmark code that no change to quatframes
# touches, so a faster program still reads faster in full.

REFERENCE_S = 1.0e-3
KERNEL_REPEATS = 2
# how often the kernel runs inside a timed interval
SAMPLE_PERIOD_S = 0.1


class _Q:
    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w, x, y, z):
        self.w, self.x, self.y, self.z = w, x, y, z

    def __mul__(self, o):
        return _Q(self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
                  self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
                  self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
                  self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w)


_KERNEL_MATRIX = np.eye(16) + 0.01 * np.arange(256.0).reshape(16, 16) % 1.0
_KERNEL_MATRIX = _KERNEL_MATRIX + _KERNEL_MATRIX.T


def _kernel() -> None:
    """Pure-Python object arithmetic like quaternion.py's, then small
    LAPACK eigensolves like linalg's: the two kinds of work the program
    spends its time on."""
    q, p = _Q(0.5, 0.5, 0.5, 0.5), _Q(1.0, 1e-3, -2e-3, 3e-3)
    for _ in range(700):
        q = q * p
    for _ in range(8):
        np.linalg.eigvalsh(_KERNEL_MATRIX)


def kernel_seconds() -> float:
    """The fastest of KERNEL_REPEATS timings of the reference kernel, so a
    preemption in one of them does not count."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


class Pacer:
    """Times intervals on the reference host.  The kernel runs before the
    first interval, after each one, and every SAMPLE_PERIOD_S within it
    from a SIGALRM handler (a timer signal, no thread).  Each stretch of
    an interval between two kernel runs is scaled by REFERENCE_S over the
    mean of those two runs, and the kernel's own time inside the interval
    is left out.  Consecutive intervals share the kernel run between them."""

    def __init__(self):
        self.last: float | None = None
        self._marks: list[tuple[float, float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        kernel = kernel_seconds()
        self._marks.append((start, perf_counter(), kernel))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)

    def measure(self, fn):
        """Run fn() and return (its result, paced seconds, wall seconds
        without the kernel runs)."""
        if self.last is None:
            self.last = kernel_seconds()
        self._marks = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            end = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = kernel_seconds()
        inside = [mark for mark in self._marks if mark[0] < end]
        points = [(start, start, self.last), *inside, (end, end, after)]
        self.last = after
        paced = wall = 0.0
        for (_, stop, k0), (resume, _, k1) in zip(points, points[1:]):
            wall += resume - stop
            paced += (resume - stop) * REFERENCE_S / (0.5 * (k0 + k1))
        return result, paced, wall


# ====== set-up ======

def import_cli():
    """Import quatframes.cli from this checkout's src/."""
    cli = importlib.import_module("quatframes.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"quatframes imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def _quatframes_modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n == "quatframes" or n.startswith("quatframes.")}


def set_up(name: str, seed: int, root: Path):
    """One timed set-up: import quatframes afresh, then generate and write
    the workload's inputs under `root`.  The argv items that depend on
    reference values are resolved after the clock stops.  Returns (cli,
    workload, seconds)."""
    shutil.rmtree(root, ignore_errors=True)
    for module in _quatframes_modules():
        del sys.modules[module]
    def generate():
        cli = import_cli()
        work = workloads.build(name, seed, root)
        work.write()
        return cli, work

    (cli, work), seconds, _ = Pacer().measure(generate)
    work.resolve()
    return cli, work, seconds


def repeat_set_up(name: str, seed: int) -> float:
    """Time one more set-up into a side directory and put the session's
    own import of quatframes back afterwards."""
    kept = _quatframes_modules()
    try:
        return set_up(name, seed, WORK / f"{name}.again")[2]
    finally:
        for module in _quatframes_modules():
            del sys.modules[module]
        sys.modules.update(kept)


# ====== the closed loop ======

def call(cli, argv: list[str]):
    """One in-process CLI call: (exit code, stdout, exception, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        # argparse refuses usage errors by exiting
        code = exc.code
    except Exception as exc:
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    return code, out.getvalue(), error, seconds


class Session:
    """Passes over one workload's commands, with every outcome checked."""

    def __init__(self, cli, work: workloads.Workload):
        self.cli = cli
        self.commands = work.commands
        self.expects = [c.expect() if c.expect else None for c in work.commands]
        self.ledger = checks.StdoutLedger()
        # (command index, paced seconds, traced) per command run
        self.latencies: list[tuple[int, float, bool]] = []
        # unscaled wall seconds of the untraced runs, printed for reference
        self.wall: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, traced: bool = False) -> None:
        pacer = Pacer()
        for index, (cmd, expect) in enumerate(zip(self.commands, self.expects)):
            (code, stdout, error, _), seconds, wall = pacer.measure(
                lambda: call(self.cli, cmd.argv))
            self.attempted += 1
            self.latencies.append((index, seconds, traced))
            if not traced:
                self.wall.append(wall)
            problems = [error] if error else checks.output_problems(
                expect, cmd.exit, code, stdout)
            problems += self.ledger.problems(index, stdout)
            if problems:
                self.failures.append(f"{' '.join(cmd.argv)}: {'; '.join(problems)}")


def drive(session: Session, seconds: float, recorder: spans.Recorder | None,
          again) -> int:
    """Repeat rounds until the next one would overrun `seconds`; a round
    is one pass, or with a recorder an untraced and a traced pass, and
    then SETUPS_PER_ROUND more timed set-ups by calling `again`, so that
    set-up times are sampled across the run like command times.  Returns the number
    of traced passes."""
    start = perf_counter()
    rounds = traced = 0
    min_rounds = MIN_PASSES if recorder is None else 1
    while True:
        session.run_pass()
        if recorder is not None:
            recorder.pass_index = traced
            recorder.install()
            try:
                session.run_pass(traced=True)
            finally:
                recorder.uninstall()
            traced += 1
        for _ in range(SETUPS_PER_ROUND):
            again()
        # collect the garbage of this round (old imports among it) outside
        # the timed calls, so each pass starts from a similar heap
        gc.collect()
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return traced


def known_defects(cli, work: workloads.Workload, recorder: spans.Recorder | None) -> list[str]:
    """Run the workload's probes once, untimed, and describe each outcome.

    Probes are inputs on which the program is known to fail at this
    version; they are reported here rather than counted as failed."""
    lines = []
    if recorder is not None:
        recorder.pass_index = -1
        recorder.install()
    try:
        for cmd in work.probes:
            code, _, error, seconds = call(cli, cmd.argv)
            outcome = error or f"exit {code}"
            status = "ok" if code == cmd.exit else "KNOWN DEFECT"
            lines.append(f"probe {status}: {' '.join(cmd.argv)} -> {outcome} "
                         f"(expected exit {cmd.exit}, {seconds * 1e3:.1f} ms)")
    finally:
        if recorder is not None:
            recorder.uninstall()
    return lines


# ====== metrics ======

def end_to_end(session: Session, setup_times: list[float]) -> tuple[dict, list[str]]:
    """Every time here is paced (see Pacer).  A subcommand's latency is
    taken per command first, so that it compares the same work from run
    to run: each command's median over the untraced passes, and
    <subcommand>_ms is the median of those over the subcommand's commands.

    command_tail_ms is the TAIL_PERCENTILE of every untraced command run
    and commands_per_s is those runs over their summed time.  The
    percentile is fixed rather than the highest one with ten runs beyond
    it: on a mix of commands, that one would move from command to command
    as the number of passes that fit in the run changes."""
    runs: dict[int, list[float]] = {}
    for index, seconds, traced in session.latencies:
        if not traced:
            runs.setdefault(index, []).append(seconds)
    latency = {}
    for sub in SUBCOMMANDS:
        times = [statistics.median(v) for i, v in runs.items()
                 if session.commands[i].name == sub]
        if times:
            latency[f"{sub}_ms"] = 1e3 * statistics.median(times)
    every_run = [s for v in runs.values() for s in v]
    tail = float(np.percentile(every_run, TAIL_PERCENTILE))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "commands_per_s": len(every_run) / sum(every_run),
        "analyze_ms": latency["analyze_ms"],
        "stability_ms": latency["stability_ms"],
        "command_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"  {name:40s} {value:14.6g} ms (printed only)"
             for name, value in latency.items() if name not in metrics]
    notes += [f"setup_s is the median of {len(setup_times)} set-ups",
              f"commands_per_s unpaced {len(session.wall) / sum(session.wall):.6g} 1/s "
              f"(wall time, printed only)",
              f"command_tail_ms is p{TAIL_PERCENTILE} of {len(every_run)} untraced "
              f"command runs, {sum(s > tail for s in every_run)} beyond it",
              f"failed_ratio {len(session.failures) / session.attempted:.4f} 1 "
              f"({len(session.failures)} of {session.attempted})"]
    return metrics, notes


def per_layer(session: Session, recorder: spans.Recorder, traced: int) -> dict:
    samples = importlib.import_module("quatframes.stability").DEFAULT_SAMPLES
    metrics = spans.layer_metrics(recorder, traced, samples)
    cps = {}
    for mode in (False, True):
        seconds = [s for _, s, t in session.latencies if t is mode]
        cps[mode] = len(seconds) / sum(seconds)
    metrics["trace.overhead_ratio"] = cps[False] / cps[True]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quatframes" / "cli.py").is_file():
        print(f"error: no quatframes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    machine = fingerprint()
    print("machine " + json.dumps(machine))

    cli, work, setup_s = set_up(args.workload, args.seed, WORK / args.workload)
    setup_times = [setup_s]
    session = Session(cli, work)
    recorder = spans.Recorder() if args.trace else None
    traced = drive(session, args.seconds, recorder,
                   lambda: setup_times.append(repeat_set_up(args.workload, args.seed)))
    probe_lines = known_defects(cli, work, recorder)

    if recorder is None:
        metrics, notes = end_to_end(session, setup_times)
        units = declared_units("end_to_end")
    else:
        metrics, notes = per_layer(session, recorder, traced), []
        units = declared_units("per_layer")
        out = WORK / f"spans-{args.workload}.json"
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "machine": machine, "traced_passes": traced,
                                   **recorder.to_json()}))
        notes.append(f"spans written to {out.relative_to(ROOT)}")
    if list(metrics) != list(units):
        raise RuntimeError(f"metrics {list(metrics)} are not those BENCHMARK.json declares")

    print(f"workload {args.workload} seed {args.seed}: {len(work.files)} files, "
          f"{len(work.commands)} commands per pass, {session.attempted} commands run")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    for line in notes + probe_lines + session.failures[:20]:
        print(line)
    threads = _os_threads()
    if threads != machine["os_threads"]:
        print(f"warning: {threads} OS threads at the end, {machine['os_threads']} at the start")
    print(json.dumps({
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
