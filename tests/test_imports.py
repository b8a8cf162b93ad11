"""Each name has one import path: the module that defines or uses it."""
import ast
import importlib
import pkgutil
from pathlib import Path
from types import ModuleType

import tightsf

PACKAGE_DIR = Path(tightsf.__file__).parent
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE_DIR)]))


def test_submodule_names_give_modules():
    # a package attribute named like a submodule would shadow it in
    # `import tightsf.<name> as m`
    assert "classify" in SUBMODULES
    for name in SUBMODULES:
        importlib.import_module(f"tightsf.{name}")
        m = getattr(tightsf, name)
        assert isinstance(m, ModuleType) and m.__name__ == f"tightsf.{name}", name
    import tightsf.classify as m
    assert m.EXACT == "exact"


def test_package_imports_nothing():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    assert not [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]


def unused_imports(source):
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_scan_sees_a_stray_alias():
    assert unused_imports("from .slopes import INF, Slope\n\nx = Slope(1)\n") == [(1, "INF")]
    assert unused_imports("import a.b\nimport c as d\n\nd.f(a.b)\n") == []


def test_no_unused_imports():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in PACKAGE_DIR.glob("*.py")}
    assert {name: unused for name, unused in found.items() if unused} == {}
