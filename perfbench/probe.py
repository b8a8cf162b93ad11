"""Fresh-interpreter probe of CLI set-up cost.

    PYTHONPATH=src python3 perfbench/probe.py setup|main

Prints CLOCK_MONOTONIC nanoseconds, comparable with the parent's clock: the
first statement, tightsf.cli imported, its parser built and, with ``main``,
the start and end of one in-process ``cli.main`` call.
"""
import time

first = time.monotonic_ns()
import sys  # noqa: E402

import tightsf.cli as cli  # noqa: E402

imported = time.monotonic_ns()
cli.build_parser()
built = time.monotonic_ns()
marks = [first, imported, built]
if sys.argv[1] == "main":
    import io
    from contextlib import redirect_stdout

    with redirect_stdout(io.StringIO()):
        marks.append(time.monotonic_ns())
        cli.main(["classify", "-2;1/2,2/3,11/13", "--json"])
        marks.append(time.monotonic_ns())
print(*marks)
