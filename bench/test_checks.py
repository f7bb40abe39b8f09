"""Tests of the benchmark's own checker and metric plumbing.

    python3 -m pytest bench/test_checks.py
"""

import json
import sys

import pytest

import checks
import run
import spans
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

DOC = json.dumps({"bounds": [0.5, 2.0], "checks": {"holds": True}, "ok": True})


def test_matching_output_passes():
    expect = {"close": {"bounds": (0.5, 2.0 * (1 + 1e-10))},
              "equal": {"checks.holds": True, "ok": True}}
    assert checks.output_problems(expect, 0, 0, DOC) == []


@pytest.mark.parametrize("bounds", [(0.5, 2.0 * (1 + 1e-6)), (0.51, 2.0), (2.0, 0.5)])
def test_corrupted_bound_is_flagged(bounds):
    problems = checks.output_problems({"close": {"bounds": bounds}}, 0, 0, DOC)
    assert problems and "bounds" in problems[0]


def test_wrong_exit_code_is_flagged():
    assert checks.output_problems(None, 2, 1, "") == ["exit 1, expected 2"]
    assert checks.output_problems({"equal": {"ok": True}}, 0, None, "")


def test_wrong_flag_and_missing_field_are_flagged():
    assert checks.output_problems({"equal": {"ok": False}}, 0, 0, DOC)
    assert checks.output_problems({"equal": {"ok": 1}}, 0, 0, DOC)
    assert checks.output_problems({"close": {"measured": (1.0, 2.0)}}, 0, 0, DOC)


def test_nondeterministic_stdout_is_flagged():
    ledger = checks.StdoutLedger()
    assert ledger.problems(3, DOC) == []
    assert ledger.problems(3, DOC) == []
    assert ledger.problems(3, DOC + " ") == ["stdout differs from the first pass"]


@pytest.fixture
def catalog(tmp_path):
    cli = run.import_cli()
    work = workloads.build("catalog", 7, tmp_path / "catalog")
    work.write()
    work.resolve()
    return cli, work


def test_catalog_pass_is_clean_and_corruption_is_caught(catalog):
    cli, work = catalog
    session = run.Session(cli, work)
    session.run_pass()
    assert session.failures == []

    first = next(i for i, e in enumerate(session.expects) if e and "bounds" in e.get("close", {}))
    lo, hi = session.expects[first]["close"]["bounds"]
    session.expects[first]["close"]["bounds"] = (lo, hi * 1.001)
    refused = next(i for i, c in enumerate(session.commands) if c.exit == 2)
    session.commands[refused].exit = 0
    session.run_pass()
    assert len(session.failures) == 2
    assert "bounds" in session.failures[0] and "exit 2, expected 0" in session.failures[1]


def test_recorder_restores_every_binding_and_metric_names_match(catalog):
    cli, work = catalog
    session = run.Session(cli, work)
    recorder = spans.Recorder()
    before = {name: dict(vars(mod)) for name, mod in run._quatframes_modules().items()}
    methods = (sys.modules["quatframes.linalg"].QMatrix.__matmul__,
               sys.modules["quatframes.quaternion"].Quaternion.__init__)
    session.run_pass()
    recorder.pass_index = 0
    recorder.install()
    session.run_pass(traced=True)
    recorder.uninstall()
    after = {name: dict(vars(mod)) for name, mod in run._quatframes_modules().items()}
    assert after == before
    assert (sys.modules["quatframes.linalg"].QMatrix.__matmul__,
            sys.modules["quatframes.quaternion"].Quaternion.__init__) == methods
    assert session.failures == []

    layer = run.per_layer(session, recorder, 1)
    assert list(run.declared_units("per_layer")) == list(layer)
    e2e, _ = run.end_to_end(session, [0.1])
    assert list(run.declared_units("end_to_end")) == list(e2e)
    assert layer["cli.calls"] == len(work.commands)
    assert layer["stability.check.calls"] > 0 and layer["linalg.eig.calls"] > 0


def test_pacer_leaves_kernel_runs_out_and_restores_the_timer():
    import signal
    from time import perf_counter

    def spin():
        end = perf_counter() + 0.35
        while perf_counter() < end:
            pass
        return "done"

    handler = signal.getsignal(signal.SIGALRM)
    pacer = run.Pacer()
    start = perf_counter()
    result, paced, wall = pacer.measure(spin)
    elapsed = perf_counter() - start
    assert result == "done"
    # the kernel ran within the interval, and its time is not the program's
    assert len(pacer._marks) >= 2
    assert 0.3 < wall < elapsed - sum(b - a for a, b, _ in pacer._marks) + 1e-6
    assert paced > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
