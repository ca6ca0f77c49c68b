from __future__ import annotations

import os
import pathlib
import sys
import tempfile

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
# Hypothesis caches the constants of the source it reads even with database=None; keep that cache out of the tree.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", str(pathlib.Path(tempfile.gettempdir()) / "segreml-hypothesis"))

_ACCEPTANCE_RESULTS: dict[str, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in str(item.fspath):
        return
    label = item.function.__doc__ or item.name
    label = label.strip().splitlines()[0]
    _ACCEPTANCE_RESULTS[item.name] = f"[acceptance] {label}: {'PASS' if report.passed else 'FAIL'}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_RESULTS:
        terminalreporter.write_line("")
        for line in _ACCEPTANCE_RESULTS.values():
            terminalreporter.write_line(line)
