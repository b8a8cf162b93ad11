"""Every stage the benchmark traces names a function of its tightsf module.

A traced run resolves each entry of `STAGES` in `perfbench/workloads.py` with
getattr(import_module("tightsf.<module>"), name), so a stage whose function is
deleted or renamed breaks it.  The tuple is read with ast; perfbench is not
imported.
"""
import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def benchmark_stages():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["STAGES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no STAGES tuple in {WORKLOADS}")


def test_every_stage_resolves():
    stages = benchmark_stages()
    assert "convex.slope_coeffs" in stages and "contfrac.solid_torus_count" in stages
    for stage in stages:
        module, name = stage.split(".")
        fn = getattr(importlib.import_module(f"tightsf.{module}"), name, None)
        assert callable(fn), stage
