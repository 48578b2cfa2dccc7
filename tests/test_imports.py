"""The package imports nothing outside the standard library, no runtime
check of it is an assert, its public names are pinned, and importing it or
running a subcommand loads only the modules that are used."""

import ast
import fnmatch
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import racah

PACKAGE = Path(racah.__file__).parent


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    outside = {
        f"{path.name}: {name}"
        for path in modules
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside


def test_package_has_no_assert_statements():
    # python -O strips asserts, and every runtime check must still fire there
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def _surface(cls):
    """The public names of a class and the special methods it defines."""
    return {name for name, value in vars(cls).items() if not name.startswith("_") or callable(value)}


def _package_imports(path: Path) -> set[str]:
    """The package modules that a module imports, each relative import
    (the package's only kind) by the module it names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_criterion_and_oracle_modules_stay_independent():
    # the closed-form criterion (params) and the matrix oracles (linalg,
    # intmat, poly) share nothing but the rational type
    assert _package_imports(PACKAGE / "params.py") == {"rational"}
    for name in ("linalg", "intmat", "poly"):
        assert "params" not in _package_imports(PACKAGE / f"{name}.py"), name


def test_public_surface_is_pinned():
    # a name joins or leaves the API only through an edit of these sets
    assert len(racah.__all__) == len(set(racah.__all__))
    assert set(racah.__all__) == {
        "ALL_FLIPS", "AnalysisReport", "ConsistencyError", "FreeElement", "IDENTITY_FLIP",
        "IdentifyResult", "IsoResult", "Mat", "ModuleRep", "NormalElement", "ParamTriple",
        "ParseError", "Poly", "Rat", "RationalTooLargeError", "RelationReport",
        "RewriteLimitError", "Scalars", "ShapeError", "SignFlip", "Subspace", "VermaTruncation",
        "Witness", "act", "analyze", "build_R", "build_verma", "canonical", "eigenspace",
        "evaluate", "format_element", "format_rat", "golden_example",
        "identify", "in_P", "intertwiner_space", "invertible", "irreducible_oracle",
        "isomorphic", "kernel", "l_matrix", "minimal_polynomial",
        "normal_form", "parse", "parse_rat", "phi", "rank", "rat", "rref", "scalars",
        "spin", "squarefree", "theta", "theta_star", "trace_formula", "varphi", "verify_relations",
        "verma_checks",
    }
    assert _surface(racah.Poly) == {
        "__eq__", "__hash__", "__init__", "__reduce__", "__repr__", "__setattr__", "__str__",
        "coeffs", "degree", "from_roots", "is_zero",
    }
    assert _surface(racah.Mat) == {
        "__add__", "__eq__", "__hash__", "__init__", "__mul__",
        "__reduce__", "__repr__", "__setattr__", "__sub__", "apply", "cols", "entries",
        "from_cleared", "rows", "scale", "shape", "trace",
    }
    # rewriter elements are values without arithmetic
    for cls, names in ((racah.FreeElement, {"terms"}), (racah.NormalElement, {"terms", "to_free"})):
        assert {name for name in dir(cls) if not name.startswith("_")} == names
        operators = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__")
        assert not [name for name in operators if hasattr(cls, name)], cls
    assert not {"SUM_WORD_LIMIT", "SUM_LETTER_LIMIT"} & set(vars(racah.rewriter))
    # a subspace is its canonical basis: test membership as in_span does,
    # Subspace(n, [*s.basis, v]) == s
    assert {name for name in dir(racah.Subspace) if not name.startswith("_")} == {
        "ambient_dim", "basis", "dim", "pivots",
    }
    # documents are written, not read
    assert not fnmatch.filter(vars(racah.serialize), "*_from_*")


def _referenced_names(tree):
    """The names a module's code uses: Name and Attribute nodes and the
    names it imports.  A docstring or comment does not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2]


def test_every_private_helper_is_used():
    # a module-level _helper that no code in the package names is dead
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    used = {name for tree in trees.values() for name in _referenced_names(tree)}
    unused = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not unused


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # bench/ is outside tier-1, so deleting a traced name would show only there
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, function, _, _ in tracing.FUNCTIONS:
        assert callable(getattr(getattr(racah, module), function, None)), (module, function)
    assert {name for name, _ in tracing.MAT_METHODS} | {"__mul__"} <= set(vars(racah.Mat))


def test_every_public_name_resolves_to_its_home_module():
    for name in racah.__all__:
        home = importlib.import_module(f"racah.{racah._HOME[name]}")
        assert getattr(racah, name) is getattr(home, name)
    assert "__all__" in dir(racah) and set(racah.__all__) <= set(dir(racah))
    namespace = {}
    exec("from racah import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(racah.__all__)
    with pytest.raises(AttributeError):
        racah.poly_gcd


def _loaded(code: str, *argv: str) -> set[str]:
    """The modules in sys.modules after a fresh interpreter, with the
    package found where this one was, ran code with argv."""
    script = f"import sys\ntry:\n    {code}\nfinally:\n    print(*sys.modules, sep='\\n', file=sys.stderr)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines())


# what python -m racah runs
_MAIN = "import runpy; runpy.run_module('racah', run_name='__main__', alter_sys=True)"


def test_import_loads_no_submodule():
    assert not {m for m in _loaded("import racah") if m.startswith("racah.")}
    loaded = _loaded("import racah; racah.modules.BASES")
    assert "racah.modules" in loaded and "racah.analyzer" not in loaded


GENERIC = ["--a", "1/3", "--b", "-2/5", "--c", "7/4"]


@pytest.mark.parametrize(
    "argv, used, unused",
    [
        (
            ["verify", *GENERIC, "--d", "2"],
            {"racah.modules"},
            {"racah.rewriter", "racah.analyzer", "racah.verma", "racah.golden", "concurrent.futures"},
        ),
        (
            ["construct", *GENERIC, "--d", "2"],
            {"racah.modules"},
            {"racah.analyzer", "racah.linalg", "racah.rewriter", "racah.verma", "racah.golden"},
        ),
        (
            ["analyze", *GENERIC, "--d", "2"],
            {"racah.analyzer"},
            {"racah.rewriter", "racah.verma", "racah.golden", "concurrent.futures"},
        ),
        (
            ["intertwine", *GENERIC, "--d", "2", "--basis2", "u"],
            {"racah.analyzer", "racah.linalg"},
            {"racah.rewriter", "racah.verma", "racah.golden"},
        ),
        (
            ["verma", *GENERIC, "--nu", "3"],
            {"racah.verma"},
            {"racah.analyzer", "racah.linalg", "racah.rewriter", "racah.golden"},
        ),
        (
            ["eval", *GENERIC, "--d", "2", "--expr", "[A,B]"],
            {"racah.rewriter", "racah.modules"},
            {"racah.analyzer", "racah.linalg", "racah.verma", "racah.golden"},
        ),
        (["golden"], {"racah.golden", "racah.analyzer"}, {"racah.rewriter", "racah.verma"}),
        (["reduce", "--expr", "[A,B]"], {"racah.rewriter"}, {"racah.analyzer", "racah.linalg"}),
        (
            ["sweep", "--grid", "a=1/3;b=1/2;c=1/4;d=1,2", "--jobs", "1"],
            {"racah.analyzer"},
            {"concurrent.futures"},
        ),
        (["sweep", "--grid", "a=1/3;b=1/2;c=1/4;d=1,2", "--jobs", "2"], {"concurrent.futures"}, set()),
        (
            ["sweep", "--grid", "a=1/3;b=1/2;c=1/4;d=1", "--jobs", "2"],
            {"racah.analyzer"},
            {"concurrent.futures"},
        ),
    ],
    ids=[
        "verify", "construct", "analyze", "intertwine", "verma", "eval", "golden", "reduce",
        "sweep", "sweep-jobs-2", "sweep-one-point-jobs-2",
    ],
)
def test_subcommand_loads_only_what_it_runs(argv, used, unused):
    loaded = _loaded(_MAIN, *argv)
    assert used <= loaded
    # the records are NamedTuples: no subcommand pays for dataclasses and inspect
    assert not (unused | {"dataclasses", "inspect"}) & loaded
