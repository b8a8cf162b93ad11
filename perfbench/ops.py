"""The ops of each workload, written once for the timed and the traced run.

The ops call tightsf's public functions as any user would.  For the traced
run, ``Tracer.install`` replaces each stage's function, wherever a tightsf
module (or this one) holds it as a global, with a wrapper that records a
span.  The library's own calls between layers (``classify`` ->
``contfrac.expand``, ``theta.theta`` -> ``theta.c1_squared``, ``cli.main`` ->
everything) go through those globals, so the spans nest as the calls do and
each stage's self time is its time minus that of the traced calls it made.
No stage reaches itself through other stages, so inclusive times do not
count a call twice.  ``src/`` is not edited; the timed run installs nothing.
"""
from __future__ import annotations

import importlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter_ns

from tightsf import cli, report
from tightsf.classify import classify
from tightsf.farey import bypass_attach, bypass_oracle
from tightsf.floer import expansion, index_set, laurent_image, pairwise_distinct, stein_obstructed
from tightsf.seifert import linking_matrix, parse_manifold
from tightsf.slopes import Slope
from tightsf.theta import SurgeryDiagram, theta

from workloads import FLOER_MAX_N, STAGES, manifold_text, sphere_legs


class Tracer:
    """Keeps spans in memory as (op, stage, start_ns, end_ns, self_ns)."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._child_ns = []  # per open span, the time of the traced calls it made

    def _wrap(self, stage: int, fn):
        spans, open_spans = self.spans, self._child_ns

        def traced(*args, **kwargs):
            open_spans.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += end - start
                spans.append((self.op, stage, start, end, end - start - child))
        return traced

    def install(self) -> None:
        wrapped = {}
        for i, stage in enumerate(STAGES):
            module, name = stage.split(".")
            fn = getattr(importlib.import_module(f"tightsf.{module}"), name)
            wrapped[id(fn)] = (fn, self._wrap(i, fn))
        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == "tightsf" or module_name == __name__:
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped and wrapped[id(value)][0] is value:
                        setattr(module, attr, wrapped[id(value)][1])


def classify_report(text):
    """text -> parse_manifold -> classify -> classification_json -> report."""
    sd = parse_manifold(text)
    doc = report.classification_json(classify(sd))
    return sd, report.report("classify", doc)


def op_classify(text):
    return classify_report(text)[1]


def op_deep(text, with_theta):
    sd, out = classify_report(text)
    if not with_theta:
        return out
    matrix = linking_matrix(sd)
    diagram = SurgeryDiagram(matrix, tuple(matrix[i][i] + 2 for i in range(len(matrix))))
    return out + "\ntheta " + str(theta(diagram))


def floer_table(n):
    rows = [(idx.i, idx.j, expansion(idx).coeffs, str(laurent_image(idx)), stein_obstructed(idx))
            for idx in index_set(n)]
    return repr((rows, pairwise_distinct(n)))


def op_sphere(n, bypasses):
    """Returns (classify report, floer table or None, [(attach, oracle)])."""
    out = classify_report(manifold_text(sphere_legs(n)))[1]
    table = floer_table(n) if n <= FLOER_MAX_N else None
    pairs = []
    for dividing, ruling, side in bypasses:
        d, r = Slope(*dividing), Slope(*ruling)
        pairs.append((bypass_attach(d, r, side), bypass_oracle(d, r, side)))
    return out, table, pairs


def run_main(argv):
    """cli.main in this process: (exit code or exception name, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a traceback in the real CLI
            code = type(exc).__name__
    return code, out.getvalue(), err.getvalue()


def op_cli(argv, _legs, work):
    """One CLI call in this process; legs are for the input-size counts."""
    return run_main([a.replace("{work}", str(work)) for a in argv])


OPS = {"classify": op_classify, "deep": op_deep, "floer": floer_table, "sphere": op_sphere, "cli": op_cli}
