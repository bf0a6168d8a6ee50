"""Shared pytest wiring: reprints the acceptance checklist after the run.

test_acceptance collects one line per criterion into its RESULTS list;
echoing them in the terminal summary keeps the checklist visible even
though pytest captures stdout during the tests themselves.
"""

import sys

import msmae  # noqa: F401  before any test module loads numpy: the suite runs under its BLAS pin


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance checklist")
    for line in results:
        terminalreporter.write_line(line)
