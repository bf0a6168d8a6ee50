"""Shared pytest wiring: reprints the acceptance checklist after the run,
and fails any test that leaves a child process behind.

test_acceptance collects one line per criterion into its RESULTS list;
echoing them in the terminal summary keeps the checklist visible even
though pytest captures stdout during the tests themselves.
"""

import os
import sys

import pytest

import msmae  # noqa: F401  before any test module loads numpy: the suite runs under its BLAS pin


@pytest.fixture(autouse=True)
def no_child_left():
    """Training forks a gradient worker; every path out of a loop must reap it."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process " + ("running" if pid == 0 else f"{pid} unreaped"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance checklist")
    for line in results:
        terminalreporter.write_line(line)
