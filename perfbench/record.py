"""Records the expected output digests in perfbench/expected/.

    PYTHONPATH=src python3 perfbench/record.py [WORKLOAD ...]

Run it on the reference program only: the benchmark then fails any op whose
JSON report, floer table or CLI output differs from what was recorded here.
Malformed CLI inputs have no digest; they are checked against their contract
(exit 1, no output, one line on stderr).
"""
from __future__ import annotations

import sys
from pathlib import Path

import workloads as wl
from ops import classify_report, floer_table, op_deep, run_main
from workloads import digest


def record(workload: str, work: Path) -> list[str]:
    if workload == "sweep_q12":
        return [f"{i} {digest(classify_report(wl.manifold_text(t))[1])}"
                for i, t in enumerate(wl.sweep_triples())]
    if workload == "deep_legs":
        lines = []
        for item_id in wl.deep_pool_ids():
            _, _, args = wl.deep_item(item_id)
            lines.append(f"{item_id} {digest(op_deep(*args))}")
        return lines
    if workload == "sphere_family":
        lines = []
        for n in range(1, wl.SPHERE_MAX_N + 1):
            out = classify_report(wl.manifold_text(wl.sphere_legs(n)))[1]
            table = digest(floer_table(n)) if n <= wl.FLOER_MAX_N else "-"
            lines.append(f"{n} {digest(out)} {table}")
        return lines
    wl.write_diagrams(work)
    lines = []
    for kind, pool in wl.cli_pools().items():
        if kind == "bad":
            continue
        for item_id, argv, _ in pool:
            code, out, _ = run_main([a.replace("{work}", str(work)) for a in argv])
            lines.append(f"{item_id} {code} {digest(out)}")
    return lines


def main() -> int:
    work = Path(__file__).resolve().parent.parent / ".perfbench"
    wl.EXPECTED.mkdir(exist_ok=True)
    for workload in sys.argv[1:] or wl.WORKLOADS:
        lines = record(workload, work)
        (wl.EXPECTED / f"{workload}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"{workload}: {len(lines)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
