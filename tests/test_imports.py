"""Each name has one import path: the module that defines or uses it, and
each definition has a consumer."""
import ast
import builtins
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import tightsf
from test_perfbench_stages import benchmark_imports, benchmark_stages

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


def escaping_checks(source):
    """(line, kind) of each assert statement, which -O strips, and each raise
    of AssertionError or RuntimeError, which cli.main lets out as a traceback."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("AssertionError", "RuntimeError"):
                found.append((node.lineno, exc.id))
    return sorted(found)


def test_checks_raise_arithmetic_error():
    # a broken identity in src/ is an explicit raise of a library error, with no allowlist
    stray = "assert x\nif y:\n    raise RuntimeError('y')\nraise AssertionError\nraise ArithmeticError('z')\n"
    assert escaping_checks(stray) == [(1, "assert"), (3, "RuntimeError"), (4, "AssertionError")]
    found = {path.name: escaping_checks(path.read_text(encoding="utf-8")) for path in PACKAGE_DIR.glob("*.py")}
    assert {name: checks for name, checks in found.items() if checks} == {}


# the exception types cli.main turns into exit 1 and a one-line error
CLI_CAUGHT = ("ValueError", "ArithmeticError", "OSError", "KeyError")


def uncaught_raises(source):
    """(function, line, type) of each raise in source of a type that is not a
    builtin subclass of one in CLI_CAUGHT; type is the raised name, or None
    for a bare raise or a raised expression that is no name.  function is the
    name of the innermost def around the raise, or None at module level."""
    caught = tuple(getattr(builtins, name) for name in CLI_CAUGHT)
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.id if isinstance(exc, ast.Name) else None
                cls = getattr(builtins, name, None) if name else None
                if not (isinstance(cls, type) and issubclass(cls, caught)):
                    found.append((function, child.lineno, name))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else function)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda use: use[1])


def test_raise_scan_sees_strays():
    stray = ("def f(x):\n    if x:\n        raise LookupError('x')\n    raise ZeroDivisionError\n"
             "raise TypeError\ntry:\n    pass\nexcept KeyError as exc:\n    raise exc\nraise OSError('y') from None\n")
    assert uncaught_raises(stray) == [("f", 3, "LookupError"), (None, 5, "TypeError"), (None, 9, "exc")]


def test_every_raise_is_one_cli_main_catches():
    main = next(node for node in ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8")).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [tuple(getattr(n, "id", None) for n in getattr(h.type, "elts", [h.type]))
                for h in ast.walk(main) if isinstance(h, ast.ExceptHandler)]
    assert CLI_CAUGHT in handlers
    found = {path.stem: {(function, what) for function, _, what in uncaught_raises(path.read_text(encoding="utf-8"))}
             for path in PACKAGE_DIR.glob("*.py")}
    assert {name: raises for name, raises in found.items() if raises} == {
        # the CLI hands the report writer only library values
        "report": {("_walk", "TypeError")},
        # nothing assigns to a slope
        "slopes": {("__setattr__", "AttributeError")},
    }


def float_uses(source):
    """(function, line, what) of each float or complex constant, call of float
    or round, and true division / or /= in source; function is the name of
    the innermost def around it, or None at module level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Constant) and type(child.value) in (float, complex):
                found.append((function, child.lineno, repr(child.value)))
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id in ("float", "round"):
                found.append((function, child.lineno, child.func.id + "()"))
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                found.append((function, child.lineno, "/"))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else function)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda use: use[1:])


def test_float_scan_sees_strays():
    stray = "x = 1 / 2\ndef f(a):\n    a /= 3\n    return float(a) + round(a, 1) + 0.5 + 2j\ny = 7 // 2\n"
    assert float_uses(stray) == [(None, 1, "/"), ("f", 3, "/"), ("f", 4, "0.5"), ("f", 4, "2j"),
                                 ("f", 4, "float()"), ("f", 4, "round()")]


def test_no_floats_in_src():
    # the library is exact: its one float is selftest's 5% draw of the
    # infinite slope, and it has no true division
    found = {path.stem: {(function, what) for function, _, what in float_uses(path.read_text(encoding="utf-8"))}
             for path in PACKAGE_DIR.glob("*.py")}
    assert {name: uses for name, uses in found.items() if uses} == {
        "selftest": {("random_slope", "0.05")}}


def _overridden(tree):
    """(class, method) pairs that a base class from outside the package
    defines: the base calls them, as argparse calls ArgumentParser.error."""
    namespace = {}
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
               and not getattr(node, "level", 0) and getattr(node, "module", None) != "__future__"]
    exec(compile(ast.Module(imports, []), "<imports>", "exec"), namespace)
    pairs = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                try:
                    base_class = eval(compile(ast.Expression(base), "<base>", "eval"), namespace)
                except NameError:  # a class of the package
                    continue
                pairs.update((node.name, name) for name in dir(base_class))
    return pairs


def _definitions(tree):
    """(name, node, is_method) for each top-level function and class, and each
    public method of a top-level class that no outside base class defines."""
    overridden = _overridden(tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                        and (node.name, item.name) not in overridden):
                    yield f"{node.name}.{item.name}", item, True


def unused_definitions(sources, consumed=frozenset()):
    """Definitions in sources (module name -> text) that nothing reads, by module.

    A top-level name is read as an ast.Name or an ast.Attribute.attr, a method
    only as an ast.Attribute.attr.  A read counts when it lies outside the
    definition's own lines and outside every definition found unused, so a
    group of definitions that only read each other is reported whole.  Names
    in consumed have a consumer outside the sources.
    """
    defs, reads = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for qualname, node, is_method in _definitions(tree):
            defs.append((module, qualname, is_method, range(node.lineno, node.end_lineno + 1)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((module, node.lineno, False))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((module, node.lineno, True))
    unused = set()  # indices into defs
    while True:
        dead = {(defs[i][0], line) for i in unused for line in defs[i][3]}
        found = set()
        for i, (module, qualname, is_method, lines) in enumerate(defs):
            name = qualname.rpartition(".")[2]
            readers = {(m, line) for m, line, attr in reads.get(name, ()) if attr or not is_method}
            if name not in consumed and not readers - dead - {(module, line) for line in lines}:
                found.add(i)
        if found == unused:
            break
        unused = found
    report = {}
    for i in sorted(unused):
        module, qualname, _, lines = defs[i]
        report.setdefault(module, []).append((lines.start, qualname))
    return report

def test_unused_definition_scan_sees_strays():
    source = (
        "class Box:\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def stray_method(self):\n"
        "        return self.used()\n"
        "def stray_function():\n"
        "    return Box().used()\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def only_called_by_a_stray():\n"
        "    return 2\n"
        "def stray_caller():\n"
        "    return only_called_by_a_stray()\n"
        "def entry():\n"
        "    return Box().used()\n"
        "entry()\n"
    )
    assert unused_definitions({"m": source}) == {"m": [
        (4, "Box.stray_method"), (6, "stray_function"), (8, "recursive"),
        (10, "only_called_by_a_stray"), (12, "stray_caller"),
    ]}
    # a method is called through an attribute; a bare name of the same text is no call
    assert unused_definitions({"m": "class A:\n    def f(self):\n        pass\nf = 1\nprint(f, A)\n"}) == {
        "m": [(2, "A.f")]}
    # an override is called by its outside base, and a consumer outside the sources counts
    parser = "import argparse\nclass P(argparse.ArgumentParser):\n    def error(self, message):\n        pass\n"
    assert unused_definitions({"m": parser}) == {"m": [(2, "P")]}
    assert unused_definitions({"m": parser}, consumed={"P"}) == {}


def benchmark_consumed():
    """The names perfbench imports from tightsf or traces as a stage."""
    consumed = {name for _, name in benchmark_imports() if name is not None}
    return consumed | {stage.partition(".")[2] for stage in benchmark_stages()}


def test_every_definition_has_a_consumer():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert unused_definitions(sources, benchmark_consumed()) == {}


def test_library_modules_keep_only_what_a_command_runs():
    # with selftest, the one home of the slow routes, left out, every
    # definition still has a consumer among the commands and the benchmark;
    # without the benchmark too, only the wrappers it traces as stages are left
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE_DIR.glob("*.py"))
               if path.stem != "selftest"}
    assert unused_definitions(sources, benchmark_consumed()) == {}
    assert {module: [name for _, name in found] for module, found in unused_definitions(sources).items()} == {
        "contfrac": ["expand", "convergents", "tight_count", "solid_torus_count"],
        "report": ["classification_json"],
        "theta": ["signature", "c1_squared"],
    }


def selftest_imports(source):
    """For each import of the selftest module in source, whether it is a
    statement of the module's top level."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" if node.module else alias.name for alias in node.names]
            names.append(node.module or "")
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[:2] in (["selftest"], ["tightsf", "selftest"]) for name in names):
            found.append(node in tree.body)
    return found


def test_only_the_selftest_command_imports_selftest():
    stray = ("from .selftest import run_all\nimport tightsf.selftest\nfrom . import selftest\n"
             "def f():\n    from .selftest import SUITES\nfrom .seifert import parse_manifold\n")
    assert selftest_imports(stray) == [True, True, True, False]
    found = {path.stem: selftest_imports(path.read_text(encoding="utf-8")) for path in PACKAGE_DIR.glob("*.py")}
    assert {name: imports for name, imports in found.items() if imports} == {"cli": [False]}


# Each public function of a library module that a command runs: its oracle,
# as selftest.<name>, test_<file>.<name> or an outside library's name, and
# the test that compares the two; or None and the reason it has no oracle.
FAST_MODULES = ("contfrac", "convex", "seifert", "slopes")
ORACLES = {
    "contfrac.Expansion.entry_count": ("test_contfrac.expand_stepwise",
                                       "test_contfrac::test_fast_paths_match_stepwise_oracles"),
    "contfrac.Expansion.entries": ("test_contfrac.expand_stepwise",
                                   "test_contfrac::test_fast_paths_match_stepwise_oracles"),
    "contfrac.leg_of": (None, "reads (p, q) off its argument's fields; test_expand_domain_errors pins its refusals"),
    "contfrac.read_leg": ("test_contfrac.runs_oracle", "test_contfrac::test_one_pass_matches_pow_and_the_run_loop"),
    "contfrac.capped_count": (None, "a bound, not a value; test_expansion_cap pins it at MAX_EXPANSION"),
    "contfrac.expand": ("selftest.ncf_eval", "test_acceptance::test_criterion_6_number_theory_suites"),
    "contfrac.convergents": ("test_contfrac.convergents_via_eval",
                             "test_contfrac::test_fast_paths_match_stepwise_oracles"),
    "contfrac.shifted_product": ("test_contfrac.prod_shifted", "test_contfrac::test_fast_paths_match_stepwise_oracles"),
    "contfrac.reverse_shift": ("test_contfrac.runs_of", "test_contfrac::test_fast_paths_match_stepwise_oracles"),
    "contfrac.tight_count": ("test_contfrac.prod_shifted", "test_contfrac::test_fast_paths_match_stepwise_oracles"),
    "contfrac.solid_torus_count": ("test_contfrac.unshifted_last_count",
                                   "test_contfrac::test_integer_slope_count_matches_stepwise"),
    "convex.measured_slope": (None, "the slope formulas themselves; test_measured_slope_formulas pins the family's"),
    "convex.slope_coeffs": ("test_convex.slope_coeffs_fraction_sum",
                            "test_convex::test_slope_coeffs_matches_fraction_sum_sweep"),
    "convex.v3_slope": ("selftest.v3_slope_stepwise", "test_acceptance::test_criterion_4_slope_calculus_consistency"),
    "convex.limit_regime": ("test_convex.limit_regime_fraction", "test_convex::test_increasing_matches_stepwise_sweep"),
    "convex.v3_slope_limit": ("test_convex.v3_slope_limit_fraction",
                              "test_convex::test_increasing_matches_stepwise_sweep"),
    "convex.max_twist_table": ("selftest.v3_slope_stepwise",
                               "test_cli::test_printed_sphere_rows_match_the_stepwise_route"),
    "seifert.SeifertData.r": ("test_seifert.normalize_fraction",
                              "test_seifert::test_integer_route_matches_fraction_oracle_on_big_legs"),
    "seifert.parse_manifold": ("test_seifert.normalize_fraction",
                               "test_seifert::test_integer_route_matches_fraction_oracle_on_big_legs"),
    "seifert.h1_order": ("sympy.Matrix.det", "test_seifert::test_h1_order_matches_sympy_determinant"),
    "seifert.linking_matrix": (None, "the plumbing written out; test_linking_matrix_examples pins two"),
    "seifert.detect_family": ("test_seifert.detect_family_fraction",
                              "test_seifert::test_integer_route_matches_fraction_oracle_on_big_legs"),
    "slopes.parse_int": (None, "int() under a length cap; test_input_integer_cap_is_one_line pins the cap"),
    "slopes.Slope.vec": (None, "returns the two stored fields"),
    "slopes.Slope.as_fraction": (None, "the Fraction of the two stored fields"),
    "slopes.Slope.parse": (None, "int() on each part; test_parse_and_str round-trips it through str"),
}
TESTS_DIR = Path(__file__).resolve().parent


def _test_file_names(stem):
    tree = ast.parse((TESTS_DIR / f"{stem}.py").read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _resolves(oracle):
    module, _, name = oracle.partition(".")
    if module.startswith("test_"):
        return name in _test_file_names(module)
    value = importlib.import_module("tightsf.selftest" if module == "selftest" else module)
    for part in name.split("."):
        value = getattr(value, part, None)
    return callable(value)


def test_each_fast_function_has_an_oracle_or_a_reason():
    public = set()
    for module in FAST_MODULES:
        tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
        public |= {f"{module}.{qualname}" for qualname, node, _ in _definitions(tree)
                   if isinstance(node, ast.FunctionDef) and not qualname.rpartition(".")[2].startswith("_")}
    assert sorted(public - set(ORACLES)) == [] and sorted(set(ORACLES) - public) == []
    for function, (oracle, test) in ORACLES.items():
        if oracle is None:
            assert test and "\n" not in test, function
            continue
        stem, _, name = test.partition("::")
        assert name.startswith("test_") and name in _test_file_names(stem), (function, test)
        assert _resolves(oracle), (function, oracle)


# Run with the package directory's parent as argv[1] and a command line after
# it: run the command and print, to stderr, the tightsf modules then loaded,
# which of the record modules and the selftest modules are loaded, and main's
# exit code.
COMMAND_IMPORTS = """
import sys
sys.path.insert(0, sys.argv[1])
from tightsf.cli import main
code = main(sys.argv[2:])
loaded = set(sys.modules)
print(sorted(m for m in loaded if m.partition(".")[0] == "tightsf"), file=sys.stderr)
print(sorted({"dataclasses", "inspect", "tightsf.selftest", "random"} & loaded), code, file=sys.stderr)
"""
# what classify runs, and so what every command loads
CLASSIFY_PATH = ["tightsf", "tightsf.classify", "tightsf.cli", "tightsf.contfrac", "tightsf.convex",
                 "tightsf.report", "tightsf.seifert", "tightsf.slopes"]


def loaded_by(*argv):
    """(tightsf modules loaded, stray modules loaded, JSON report) after one
    command under -S, which keeps a .pth hook of site from loading any of
    them before the package does."""
    proc = subprocess.run([sys.executable, "-S", "-c", COMMAND_IMPORTS, str(PACKAGE_DIR.parent), *argv],
                          capture_output=True, text=True, timeout=60)
    modules, strays = proc.stderr.splitlines()
    assert (strays, proc.returncode) == ("[] 0", 0), argv
    return ast.literal_eval(modules), json.loads(proc.stdout)["result"]


def test_classify_loads_neither_dataclasses_nor_inspect():
    # every library record is a named tuple, and selftest, with its random
    # draws, loads only when it runs; nor do farey, floer and theta
    modules, result = loaded_by("classify", "-2;1/3,2/5,3/7", "--json")
    assert modules == CLASSIFY_PATH
    assert result["status"] == "exact"


def test_each_command_adds_only_its_own_module(tmp_path):
    diagram = tmp_path / "F.json"
    diagram.write_text(json.dumps({"L": [[-2]], "rot": [0]}))
    for module, argv, key, value in (
        ("tightsf.farey", ("bypass", "--dividing", "-7/3", "--ruling", "-1/999", "--side", "back", "--oracle"),
         "oracle", {"num": -2, "den": 1}),
        ("tightsf.floer", ("floer", "--n", "2"), "pairwise_distinct", True),
        ("tightsf.theta", ("theta", "--diagram", str(diagram)), "theta", {"num": -1, "den": 1}),
    ):
        modules, result = loaded_by(*argv, "--json")
        assert modules == sorted(CLASSIFY_PATH + [module]), argv
        assert result[key] == value, argv
