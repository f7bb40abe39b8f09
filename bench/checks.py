"""Output checks for benchmark commands.

A command passes when cli.main returned the exit code the workload
expects, the stdout document agrees with the reference values computed
by reference.py, and its stdout is byte-identical to the first pass.
"""

from __future__ import annotations

import json

# relative tolerance against numpy's eigvalsh on chi(S); the CLI prints
# 12 significant digits, so this leaves room for solver round-off only
RTOL = 1e-8


def _lookup(doc, path: str):
    for key in path.split("."):
        if not isinstance(doc, dict) or key not in doc:
            raise KeyError(path)
        doc = doc[key]
    return doc


def _close(got, want) -> bool:
    if isinstance(want, (int, float)):
        got, want = [got], [want]
    if not isinstance(got, list) or len(got) != len(want):
        return False
    if not all(isinstance(g, (int, float)) and not isinstance(g, bool) for g in got):
        return False
    scale = max(abs(v) for v in want) or 1.0
    return all(abs(g - v) <= RTOL * scale for g, v in zip(got, want))


def output_problems(expect: dict | None, expected_exit: int,
                    code: int | None, stdout: str) -> list[str]:
    """Everything wrong with one command's outcome; empty when it passed."""
    if code != expected_exit:
        return [f"exit {code}, expected {expected_exit}"]
    if expect is None:
        # refusals report on stderr and leave stdout empty
        return [] if expected_exit == 0 or not stdout else ["stdout on a refused command"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = []
    for path, want in expect.get("close", {}).items():
        try:
            got = _lookup(doc, path)
        except KeyError:
            problems.append(f"{path} missing")
            continue
        if not _close(got, want):
            problems.append(f"{path} = {got}, reference {want}")
    for path, want in expect.get("equal", {}).items():
        try:
            got = _lookup(doc, path)
        except KeyError:
            problems.append(f"{path} missing")
            continue
        if got != want or type(got) is not type(want):
            problems.append(f"{path} = {got!r}, expected {want!r}")
    return problems


class StdoutLedger:
    """Remembers the first stdout of each command of a pass and flags any
    later pass whose stdout differs."""

    def __init__(self):
        self._first: dict[int, str] = {}

    def problems(self, index: int, stdout: str) -> list[str]:
        first = self._first.setdefault(index, stdout)
        return [] if stdout == first else ["stdout differs from the first pass"]
