"""Run one msmae command in a fresh process under the benchmark's clocks.

    python3 perfbench/launch.py REPORT.json SPANS.npz|- -- <msmae arguments>

Imports the program from the checkout's src/, installs the step clock
(and, when SPANS is not '-', the tracer), runs msmae.cli.main and writes
the clock report to REPORT.json. The exit code is the command's.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402


def main():
    report_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py REPORT SPANS|- -- ARGS...")
    from msmae import cli
    tracer = None
    if spans_path != "-":
        tracer = tracing.Tracer()
        tracer.install()
    clock = tracing.StepClock()
    clock.install()
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.save(spans_path)
        with open(report_path, "w") as fh:
            json.dump(clock.report(), fh)


if __name__ == "__main__":
    sys.exit(main())
