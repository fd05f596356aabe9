"""Shared test plumbing: the acceptance suite registers one line per
criterion here and the terminal summary prints them after the run, and
`fresh_python` runs code in a new interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import funcevt

ACCEPTANCE_LINES = []


def fresh_python(code):
    """The stdout of code run by a new interpreter that imports funcevt
    from where this one does; a failure of the code fails the test."""
    env = {**os.environ, "PYTHONPATH": str(Path(funcevt.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def record(num, ok, detail):
    line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append((num, line))
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
