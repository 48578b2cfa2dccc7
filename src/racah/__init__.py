"""Exact-arithmetic construction, verification and classification of the
finite-dimensional modules R_d(a,b,c) of the Racah algebra.

Importing the package loads none of its modules.  Each public name is
looked up in its home module on first access (PEP 562), which imports that
module and keeps the value here; the modules themselves (racah.modules,
racah.rewriter, ...) load the same way.  So a program, or a subcommand of
racah.cli, pays to import only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "analyzer": (
        "AnalysisReport", "IdentifyResult", "IsoResult", "analyze", "identify",
        "irreducible_oracle", "isomorphic", "l_matrix",
    ),
    "errors": ("ConsistencyError", "ParseError", "RewriteLimitError"),
    "golden": ("golden_example",),
    "linalg": (
        "Subspace", "eigenspace", "intertwiner_space", "invertible", "kernel",
        "minimal_polynomial", "rank", "rref", "spin",
    ),
    "matrix": ("Mat", "ShapeError"),
    "modules": ("ModuleRep", "RelationReport", "build_R", "verify_relations"),
    "params": (
        "ALL_FLIPS", "IDENTITY_FLIP", "ParamTriple", "Scalars", "SignFlip", "Witness", "act",
        "canonical", "in_P", "phi", "scalars", "theta", "theta_star", "trace_formula", "varphi",
    ),
    "poly": ("Poly", "squarefree"),
    "rational": ("Rat", "RationalTooLargeError", "format_rat", "parse_rat", "rat"),
    "rewriter": (
        "FreeElement", "NormalElement", "evaluate", "format_element", "normal_form", "parse",
    ),
    "verma": ("VermaTruncation", "build_verma", "verma_checks"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "intmat", "serialize"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
