"""Runs one pass of a workload in a fresh process, a round at a time.

    python3 perfbench/worker.py WORKLOAD SEED PASS MODE WORKDIR

MODE is ``plain`` (the timed run) or ``trace`` (the per-layer run, with the
stage functions wrapped after warm-up).  The
worker imports tightsf, warms up on inputs disjoint from the timed ones and
prints ``{"ready": rounds}``.  Each ``next`` line on stdin runs one round and
prints one JSON line with the latency of each op and any failed check; when
the pass is exhausted, or on ``stop``, it prints a final line with its peak
memory (and, in trace mode, the per-stage totals) and exits.  Output checks
run outside the timed interval of each op.
"""
from __future__ import annotations

import ast
import json
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

import workloads as wl
from ops import OPS, Tracer
from workloads import STAGES, digest


def legs_of(text: str):
    return [Fraction(x) for x in text.split(";", 1)[1].split(",")]


class Checker:
    """Compares each output with the recorded digest and the independent oracle."""

    def __init__(self, workload: str):
        self.expected = wl.load_expected(workload)

    def __call__(self, item_id, kind, args, out):
        if kind == "classify":
            return self._report(item_id, out, legs_of(args[0]))
        if kind == "deep":
            report_text = out.rsplit("\ntheta ", 1)[0] if args[1] else out
            return self._report(item_id, out, legs_of(args[0]), report_text)
        if kind == "sphere":
            return self._sphere(item_id, args[0], *out)
        if kind == "cli":
            return wl.check_cli(item_id, *out, self.expected)
        raise ValueError(f"no check for {kind}")

    def _report(self, item_id, out, legs, report_text=None):
        if digest(out) != self.expected[item_id][0]:
            return "report digest differs from the recorded one"
        return wl.check_classify_doc(json.loads(report_text or out), legs)

    def _sphere(self, item_id, n, out, table, pairs):
        want = self.expected[item_id]
        if digest(out) != want[0]:
            return "classify digest differs from the recorded one"
        reason = wl.check_classify_doc(json.loads(out), wl.sphere_legs(n))
        if reason:
            return reason
        if table is not None:
            if digest(table) != want[1]:
                return "floer digest differs from the recorded one"
            rows, distinct = ast.literal_eval(table)
            if len(rows) != n * (n + 1) // 2 or not distinct or sum(r[4] for r in rows) != n // 2:
                return "floer table breaks n(n+1)/2 classes, distinctness or floor(n/2) obstructed"
        for attach, oracle in pairs:
            if attach != oracle:
                return f"bypass_attach {attach} differs from bypass_oracle {oracle}"
        return None


def trace_summary(tracer: Tracer, items: list, op_ns: int, bytes_seen: list) -> dict:
    n = len(STAGES)
    calls, busy, own = [0] * n, [0] * n, [0] * n
    for _, stage, start, end, self_ns in tracer.spans:
        calls[stage] += 1
        busy[stage] += end - start
        own[stage] += self_ns
    entries, legs, max_bits = 0, 0, 0
    for kind, args in items:
        text = args[0] if kind in ("classify", "deep") else None
        if kind == "sphere":
            text = wl.manifold_text(wl.sphere_legs(args[0]))
        if kind == "cli" and args[1] is not None:
            text = wl.manifold_text(args[1])
        if text:
            for r in legs_of(text):
                entries += wl.hj_profile(r)[0]
                legs += 1
                max_bits = max(max_bits, r.denominator.bit_length())
    return {
        "calls": calls, "busy_ns": busy, "self_ns": own, "op_ns": op_ns,
        "report_bytes": sum(bytes_seen), "reports": len(bytes_seen),
        "leg_entries": entries, "legs": legs, "max_bits": max_bits, "spans": len(tracer.spans),
    }


def main() -> int:
    workload, seed, pass_index, mode, work = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4], Path(sys.argv[5])
    rounds = wl.ROUNDS[workload](seed, pass_index)
    check = Checker(workload)
    for _, kind, args in wl.WARMUP[workload](seed):
        OPS[kind](*args, *((work,) if kind == "cli" else ()))
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    traced_items, bytes_seen = [], []
    op_count, op_ns = 0, 0
    print(json.dumps({"ready": len(rounds)}), flush=True)
    for line in sys.stdin:
        if line.strip() != "next" or not rounds:
            break
        lat, ids, fails = [], [], []
        for item_id, kind, args in rounds.pop(0):
            extra = (work,) if kind == "cli" else ()
            if tracer:
                tracer.op = op_count
                traced_items.append((kind, args))
            start = perf_counter_ns()
            out = OPS[kind](*args, *extra)
            lat.append(perf_counter_ns() - start)
            op_ns += lat[-1]
            ids.append(item_id)
            op_count += 1
            reason = check(item_id, kind, args, out)
            if reason:
                fails.append([item_id, reason])
            if tracer and kind in ("classify", "deep", "sphere"):
                text = out[0] if kind == "sphere" else out
                bytes_seen.append(len(text.rsplit("\ntheta ", 1)[0].encode()))
        print(json.dumps({"lat": lat, "ids": ids, "fail": fails}), flush=True)
    end = {"end": True, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        end["trace"] = trace_summary(tracer, traced_items, op_ns, bytes_seen)
        dump = work / f"trace-{workload}-seed{seed}-pass{pass_index}.jsonl"
        with open(dump, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"stages": STAGES, "fields": ["op", "stage", "start_ns", "end_ns", "self_ns"]}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(end), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
