"""tightsf benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload sweep_q12 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is loaded from ``src/``
and the CLI started as ``python -m tightsf.cli``.  Workloads are closed loops
with one caller: library workloads run in worker processes (perfbench/worker.py),
one pass per process, and ``cli_cold`` starts one CLI process per op.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` a separate traced
run that times each stage's public function from outside and prints the
per-layer metrics.
The last line of stdout is one JSON object; earlier lines are for people.
See perfbench/README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic_ns

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 9
CLI_PROBES = 5
# Stages that call other traced stages; they report self time too.
SELF_STAGES = (
    "seifert.parse_manifold", "seifert.linking_matrix", "contfrac.convergents", "contfrac.tight_count",
    "contfrac.solid_torus_count", "convex.max_twist_table", "classify.classify", "theta.theta", "cli.main",
)
TRACE_PLAIN_SHARE = 0.4  # of --seconds; the traced pass takes the rest
CHILD_TIMEOUT = 120
# Interpreter start (spawn to first statement) on the idle reference machine.
# Set-up time is scaled by INTERP_REF_S / (interpreter start of the same
# probe): contention slows both parts of a start alike, so the ratio stays
# within about 4% while raw start times swing by 2x.
INTERP_REF_S = 0.045


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """A worker process running one pass of a library workload."""

    def __init__(self, workload: str, seed: int, pass_index: int, mode: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(pass_index), mode, str(WORK)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )
        self.end = None
        self._read()  # the ready line, after import and warm-up

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        rec = json.loads(line)
        if rec.get("end"):
            self.end = rec
        return rec

    def next_round(self) -> dict | None:
        """The next round's record, or None once the pass is exhausted."""
        self.proc.stdin.write("next\n")
        self.proc.stdin.flush()
        rec = self._read()
        if self.end:
            self.close()
            return None
        return rec

    def stop(self) -> dict:
        if self.end is None:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            self._read()
        self.close()
        return self.end

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=CHILD_TIMEOUT)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def probe(mode: str) -> list[int]:
    """Fresh interpreter: [spawn, first statement, cli imported, parser built, (main start, main end)]."""
    spawn = monotonic_ns()
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), mode], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"probe failed: {done.stderr.strip()}")
    return [spawn] + [int(x) for x in done.stdout.split()]


class Tally:
    """Rounds of one run: op latencies (ns), the parent's calibration time
    around each round, its number of correct ops, failed checks and the
    scaled latency of each item."""

    def __init__(self):
        self.rounds, self.cal, self.good, self.fails = [], [], [], []
        self.by_id = {}

    def add_round(self, lat, ids, fails, cal=None):
        self.rounds.append(lat)
        self.cal.append(cal)
        self.good.append(len(lat) - len(fails))
        self.fails += fails
        k = wl.CAL_REF_NS / cal if cal else 1.0
        self.by_id.update(zip(ids, (x * k for x in lat)))

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rounds)

    def scaled(self):
        """(op latencies, round throughputs of correct ops) at the reference machine speed.

        In-process rounds are scaled by CAL_REF_NS / (calibration time around
        the round): other tenants of a shared machine slow the library and the
        calibration job alike, by up to 2x for minutes at a time.  The job runs
        in this process, which never imports tightsf, so nothing the library
        does to its own interpreter (its heap, its GC settings) reaches the
        scale.  Rounds of process starts carry no calibration and stay as
        measured, because start-up cost does not slow in step with the job.
        """
        lat, rates = [], []
        for r, cal, good in zip(self.rounds, self.cal, self.good):
            k = wl.CAL_REF_NS / cal if cal else 1.0
            lat += [x * k for x in r]
            rates.append(good / sum(r) * 1e9 / k)
        return lat, rates


def run_library(workload: str, seed: int, seconds: float, mode: str, tally: Tally, probes: list | None):
    """Closed loop over rounds of worker passes for ``seconds`` of measured rounds.

    The calibration job is timed here, just before and just after each round.
    """
    measured, next_probe, pass_index, rss_kb, traces = 0.0, 0.0, 0, 0, []
    worker, cal = None, None
    wl.calibration_ns()  # warm-up
    try:
        while measured < seconds:
            if probes is not None and measured >= next_probe:
                probes.append(probe("setup"))
                next_probe += seconds / SETUP_PROBES
                cal = None
            if worker is None:
                worker = Worker(workload, seed, pass_index, mode)
                pass_index += 1
                cal = None
            if cal is None:
                cal = wl.calibration_ns()
            start = monotonic_ns()
            rec = worker.next_round()
            elapsed = monotonic_ns() - start
            if rec is None:
                rss_kb = max(rss_kb, worker.end["rss_kb"])
                traces.append(worker.end.get("trace"))
                worker = None
                continue
            measured += elapsed / 1e9
            cal_after = wl.calibration_ns()
            tally.add_round(rec["lat"], rec["ids"], rec["fail"], (cal + cal_after) // 2)
            cal = cal_after
    finally:
        if worker is not None:
            end = worker.stop()
            rss_kb = max(rss_kb, end["rss_kb"])
            traces.append(end.get("trace"))
    return rss_kb, [t for t in traces if t]


def run_cli(seed: int, seconds: float, tally: Tally, probes: list):
    """Closed loop of fresh ``python -m tightsf.cli`` processes."""
    expected = wl.load_expected("cli_cold")
    argv0 = [sys.executable, "-m", "tightsf.cli"]
    env = child_env()

    def spawn(argv):
        argv = [a.replace("{work}", str(WORK)) for a in argv]
        return subprocess.run(argv0 + argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT)

    for _, _, (argv, _) in wl.cli_warmup(seed):
        spawn(argv)
    measured, next_probe, pass_index = 0.0, 0.0, 0
    while measured < seconds:
        for rnd in wl.cli_rounds(seed, pass_index):
            if measured >= seconds:
                break
            if measured >= next_probe:
                probes.append(probe("setup"))
                next_probe += seconds / SETUP_PROBES
            lat, ids, fails = [], [], []
            for item_id, _, (argv, _) in rnd:
                start = monotonic_ns()
                done = spawn(argv)
                lat.append(monotonic_ns() - start)
                ids.append(item_id)
                reason = wl.check_cli(item_id, done.returncode, done.stdout, done.stderr, expected)
                if reason:
                    fails.append([item_id, reason])
            measured += sum(lat) / 1e9
            tally.add_round(lat, ids, fails)
        pass_index += 1
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def percentile(values, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    s = sorted(values)
    k = max(0, math.ceil(p / 100 * len(s)) - 1)
    return s[k], len(s) - k - 1


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, Tally]:
    tally, probes = Tally(), []
    if workload == "cli_cold":
        rss_kb = run_cli(seed, seconds, tally, probes)
    else:
        rss_kb, _ = run_library(workload, seed, seconds, "plain", tally, probes)
    lat, rates = tally.scaled()
    tail_p = wl.TAIL_PERCENTILE[workload]
    tail, beyond = percentile(lat, tail_p)
    print(f"samples: {len(lat)} ops in {len(tally.rounds)} rounds; tail is p{tail_p} with {beyond} "
          f"samples beyond it; setup from {len(probes)} fresh interpreters, unscaled median "
          f"{statistics.median(p[3] - p[0] for p in probes) / 1e9:.4g} s")
    if workload != "cli_cold":
        raw = sorted(x for r in tally.rounds for x in r)
        print(f"machine speed: calibration median {statistics.median(tally.cal) / 1e6:.3f} ms against "
              f"{wl.CAL_REF_NS / 1e6:.3f} ms reference; unscaled p50 {statistics.median(raw) / 1e6:.4g} ms")
    if beyond < 10:
        print(f"warning: fewer than 10 samples beyond p{tail_p}")
    metrics = {
        "setup_s": metric(statistics.median((p[3] - p[0]) / (p[1] - p[0]) for p in probes) * INTERP_REF_S, "s"),
        "ops_per_s": metric(statistics.median(rates), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat) / 1e6, "ms"),
        "latency_tail_ms": metric(tail / 1e6, "ms"),
        "peak_rss_mb": metric(rss_kb / 1024, "MiB"),
    }
    return metrics, tally


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, Tally]:
    plain, traced = Tally(), Tally()
    run_library(workload, seed, seconds * TRACE_PLAIN_SHARE, "plain", plain, None)
    _, traces = run_library(workload, seed, seconds * (1 - TRACE_PLAIN_SHARE), "trace", traced, None)
    total = {k: 0 for k in ("op_ns", "report_bytes", "reports", "leg_entries", "legs", "spans")}
    calls, busy, own, max_bits = [0] * len(wl.STAGES), [0] * len(wl.STAGES), [0] * len(wl.STAGES), 0
    for t in traces:
        for k in total:
            total[k] += t[k]
        calls = [a + b for a, b in zip(calls, t["calls"])]
        busy = [a + b for a, b in zip(busy, t["busy_ns"])]
        own = [a + b for a, b in zip(own, t["self_ns"])]
        max_bits = max(max_bits, t["max_bits"])
    op_ns = max(total["op_ns"], 1)
    metrics = {}
    for stage, n, ns in zip(wl.STAGES, calls, busy):
        metrics[f"{stage}.calls"] = metric(n, "count")
        metrics[f"{stage}.busy_ms"] = metric(ns / 1e6, "ms")
        metrics[f"{stage}.mean_us"] = metric(ns / n / 1e3 if n else 0.0, "us")
        metrics[f"{stage}.share_pct"] = metric(100 * ns / op_ns, "%")
    for stage, ns in zip(wl.STAGES, own):
        if stage in SELF_STAGES:
            metrics[f"{stage}.self_ms"] = metric(ns / 1e6, "ms")
    metrics["report.bytes"] = metric(total["report_bytes"] / total["reports"] if total["reports"] else 0.0, "B/op")
    metrics["input.leg_entries"] = metric(total["leg_entries"] / total["legs"] if total["legs"] else 0.0, "count")
    metrics["input.max_bits"] = metric(max_bits, "count")
    common = [i for i in traced.by_id if i in plain.by_id]
    plain_ns = sum(plain.by_id[i] for i in common)
    metrics["trace.overhead_pct"] = metric(
        100 * (sum(traced.by_id[i] for i in common) / plain_ns - 1) if plain_ns else 0.0, "%")
    metrics["trace.spans"] = metric(total["spans"], "count")
    probes = [probe("main") for _ in range(CLI_PROBES)]
    metrics["cli.interpreter_ms"] = metric(statistics.median(p[1] - p[0] for p in probes) / 1e6, "ms")
    metrics["cli.import_ms"] = metric(statistics.median(p[2] - p[1] for p in probes) / 1e6, "ms")
    metrics["cli.build_parser_us"] = metric(statistics.median(p[3] - p[2] for p in probes) / 1e3, "us")
    metrics["cli.main_us"] = metric(statistics.median(p[5] - p[4] for p in probes) / 1e3, "us")
    print(f"traced {traced.attempted} ops ({len(common)} also timed untraced); "
          f"{total['spans']} spans written to {WORK.name}/trace-{workload}-seed{seed}-pass*.jsonl")
    plain.rounds += traced.rounds
    plain.fails += traced.fails
    return metrics, plain


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tightsf" / "cli.py").is_file():
        print(f"error: no tightsf sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every child, so that the calibration
        # job runs on the CPU that runs the workers.  The vCPUs of a shared
        # machine slow down independently; unpinned, the scale often followed
        # the other one and doubled the spread between runs.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print(f"machine: nproc={os.cpu_count()} cpu={cpu_model()!r} python={platform.python_version()}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.workload == "cli_cold":
        wl.write_diagrams(WORK)
    if args.trace:
        metrics, tally = per_layer(args.workload, args.seed, args.seconds)
    else:
        metrics, tally = end_to_end(args.workload, args.seed, args.seconds)
    attempted, failed = tally.attempted, len(tally.fails)
    unknown = [f for f in tally.fails if f[0] not in wl.KNOWN_SEED_DEFECTS]
    print(f"error_rate: {failed / attempted:.6f} ({failed} of {attempted} ops)")
    for item_id in sorted({f[0] for f in tally.fails if f[0] in wl.KNOWN_SEED_DEFECTS}):
        print(f"known seed defect {item_id}: {wl.KNOWN_SEED_DEFECTS[item_id]}")
    for item_id, reason in unknown[:20]:
        print(f"FAILED {item_id}: {reason}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unknown, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
