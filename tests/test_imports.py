"""The package imports nothing outside the standard library, no runtime
check of it is an assert, and its public names are pinned."""

import ast
import sys
from pathlib import Path

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


def test_public_surface_is_pinned():
    # a name joins or leaves the API only through an edit of these sets
    assert len(racah.__all__) == len(set(racah.__all__))
    assert set(racah.__all__) == {
        "ALL_FLIPS", "AnalysisReport", "ConsistencyError", "FreeElement", "IDENTITY_FLIP",
        "IdentifyResult", "IsoResult", "Mat", "ModuleRep", "NormalElement", "ParamTriple",
        "ParseError", "Poly", "Rat", "RationalTooLargeError", "RelationReport",
        "RewriteLimitError", "Scalars", "ShapeError", "SignFlip", "Subspace", "VermaTruncation",
        "Witness", "act", "analyze", "build_R", "build_verma", "canonical", "diagonalizable",
        "eigenspace", "eliminate", "evaluate", "format_element", "format_rat", "golden_example",
        "identify", "in_P", "intertwiner_space", "invertible", "irreducible_criterion",
        "irreducible_oracle", "isomorphic", "kernel", "l_matrix", "minimal_polynomial",
        "normal_form", "parse", "parse_rat", "phi", "poly_gcd", "rank", "rat", "rref", "scalars",
        "spin", "squarefree", "theta", "theta_star", "trace_formula", "varphi", "verify_relations",
        "verma_checks",
    }
    assert _surface(racah.Poly) == {
        "__eq__", "__hash__", "__init__", "__reduce__", "__repr__", "__setattr__", "__str__",
        "coeffs", "degree", "from_roots", "is_zero",
    }
    assert _surface(racah.Mat) == {
        "__add__", "__eq__", "__getattr__", "__getitem__", "__hash__", "__init__", "__mul__",
        "__reduce__", "__repr__", "__setattr__", "__sub__", "apply", "cols", "diagonal", "entries",
        "from_cleared", "identity", "rows", "scale", "shape", "trace", "zero",
    }
