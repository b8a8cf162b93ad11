"""Every name the benchmark takes from tightsf resolves.

A traced run resolves each entry of `STAGES` in `perfbench/workloads.py` with
getattr(import_module("tightsf.<module>"), name), and `perfbench/ops.py`
imports its ops from tightsf at start, so a stage or an imported name that is
deleted or renamed breaks every run.  Both are read with ast; perfbench is
not imported.
"""
import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def benchmark_stages():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["STAGES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no STAGES tuple in {WORKLOADS}")


def benchmark_imports():
    """(module, name) for each `from tightsf... import name`, and (module, None)
    for each `import tightsf...`, in perfbench/*.py."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.partition(".")[0] == "tightsf":
                found += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(alias.name, None) for alias in node.names if alias.name.partition(".")[0] == "tightsf"]
    return found


def test_every_stage_resolves():
    stages = benchmark_stages()
    assert "convex.slope_coeffs" in stages and "contfrac.solid_torus_count" in stages
    for stage in stages:
        module, name = stage.split(".")
        fn = getattr(importlib.import_module(f"tightsf.{module}"), name, None)
        assert callable(fn), stage


def test_every_benchmark_import_resolves():
    imports = benchmark_imports()
    assert ("tightsf.floer", "laurent_image") in imports and ("tightsf.cli", None) in imports
    for module, name in imports:
        m = importlib.import_module(module)
        if name is not None and not hasattr(m, name):
            importlib.import_module(f"{module}.{name}")  # `from tightsf import cli` binds a submodule
