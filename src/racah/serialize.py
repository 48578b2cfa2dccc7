"""External formats: canonical JSON documents and the plain-text matrix
rendering (one row per line, entries space-separated, every rational
rendered p/q in lowest terms).

Documents are emitted deterministically: sorted keys, two-space indent,
trailing newline, the bytes json.dumps(doc, indent=2, sort_keys=True)
writes.  All rationals cross the boundary as strings so no precision is
ever lost to floats.  Matrices and subspaces are printed from their
cleared integer forms, one gcd per nonzero entry; an absent entry prints
0.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .rational import format_rat, format_ratio

if TYPE_CHECKING:
    from .analyzer import AnalysisReport, IdentifyResult, IsoResult
    from .linalg import Subspace
    from .matrix import Mat
    from .modules import ModuleRep, RelationReport
    from .params import ParamTriple, Scalars
    from .verma import VermaReport


def dumps(doc) -> str:
    """doc as canonical JSON text: dicts with str keys, lists, str, int,
    bool and None; anything else raises TypeError."""
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(x, newline: str, out: list) -> None:
    """Append the JSON text of x, whose lines inside start with newline."""
    if isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, (dict, list)):
        if not x:
            out.append("{}" if isinstance(x, dict) else "[]")
            return
        inner = newline + "  "
        if isinstance(x, dict):
            if not all(isinstance(k, str) for k in x):
                raise TypeError("keys must be str")
            out.append("{")
            for i, key in enumerate(sorted(x)):
                out.append(inner if i == 0 else "," + inner)
                out.append(encode_basestring_ascii(key))
                out.append(": ")
                _write(x[key], inner, out)
            out.append(newline + "}")
        else:
            out.append("[")
            for i, item in enumerate(x):
                out.append(inner if i == 0 else "," + inner)
                _write(item, inner, out)
            out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _cleared_row(den: int, row: dict, ncols: int) -> list[str]:
    """The canonical strings of the ncols entries of row/den, for a sparse
    integer row."""
    return [format_ratio(row[j], den) if j in row else "0" for j in range(ncols)]


def mat_to_rows(m: Mat) -> list[list[str]]:
    den, rows = m._cleared
    return [_cleared_row(den, row, m.cols) for row in rows]


def mat_to_text(m: Mat) -> str:
    return "\n".join(" ".join(row) for row in mat_to_rows(m))


def params_to_doc(p: ParamTriple) -> dict:
    return {"a": format_rat(p.a), "b": format_rat(p.b), "c": format_rat(p.c)}


def scalars_to_doc(sc: Scalars) -> dict:
    return {
        "zeta": format_rat(sc.zeta),
        "zeta_star": format_rat(sc.zeta_star),
        "eta": format_rat(sc.eta),
        "gamma": format_rat(sc.gamma),
    }


def rep_to_doc(rep: ModuleRep) -> dict:
    return {
        "d": rep.d,
        "params": params_to_doc(rep.params),
        "basis": rep.basis,
        "A": mat_to_rows(rep.A),
        "B": mat_to_rows(rep.B),
        "C": mat_to_rows(rep.C),
        "D": mat_to_rows(rep.D),
        "scalars": scalars_to_doc(rep.scalars),
    }


def subspace_to_doc(s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "dim": s.dim,
        "basis": [
            _cleared_row(row[pcol], row, s.ambient_dim) for row, pcol in zip(s._rows, s.pivots)
        ],
    }


def witnesses_to_doc(witnesses) -> list[dict]:
    return [{"form": w.form, "value": format_rat(w.value), "index": w.i} for w in witnesses]


def relation_report_to_doc(report: RelationReport) -> dict:
    checks = []
    for c in report.checks:
        entry = {"name": c.name, "ok": c.ok}
        if c.mismatch is not None:
            i, j, lhs, rhs = c.mismatch
            entry["first_mismatch"] = {
                "row": i,
                "col": j,
                "lhs": format_rat(lhs),
                "rhs": format_rat(rhs),
            }
        checks.append(entry)
    return {
        "d": report.d,
        "params": params_to_doc(report.params),
        "basis": report.basis,
        "checks": checks,
        "all_pass": report.all_pass,
    }


def identify_to_doc(result: IdentifyResult) -> dict:
    per = {}
    for name, rec in result.per_generator.items():
        per[name] = {
            "trace": format_rat(rec.trace),
            "quadratic": str(rec.quadratic),
            "roots": [format_rat(r) for r in rec.roots] if rec.roots else None,
        }
    return {
        "d": result.d,
        "per_generator": per,
        "all_rational": result.all_rational,
        "candidate": params_to_doc(result.candidate) if result.candidate else None,
    }


def analysis_to_doc(report: AnalysisReport) -> dict:
    return {
        "params": params_to_doc(report.params),
        "d": report.d,
        "scalars": scalars_to_doc(report.scalars),
        "canonical_params": params_to_doc(report.canonical_params),
        "flip": list(report.flip),
        "irreducible": report.irreducible,
        "witnesses": witnesses_to_doc(report.witnesses),
        "reducible_subspace": (
            subspace_to_doc(report.reducible_subspace)
            if report.reducible_subspace is not None
            else None
        ),
        "traces": {k: format_rat(v) for k, v in report.traces.items()},
        "minimal_polynomials": {
            k: str(v) for k, v in report.minimal_polynomials.items()
        },
        "diagonalizable": report.diagonalizable,
        "l_diagonal": [format_rat(x) for x in report.l_diagonal],
        "l_det_nonzero": report.l_det_nonzero,
        "identification": identify_to_doc(report.identification),
    }


def iso_to_doc(result: IsoResult) -> dict:
    return {
        "d": result.d,
        "params_1": params_to_doc(result.p1),
        "params_2": params_to_doc(result.p2),
        "same_orbit": result.same_orbit,
        "hom_dim": result.hom_dim,
        "isomorphic": result.iso,
        "intertwiner": mat_to_rows(result.intertwiner) if result.intertwiner else None,
    }


def verma_report_to_doc(report: VermaReport) -> dict:
    return {
        "params": params_to_doc(report.params),
        "nu": format_rat(report.nu),
        "cutoff": report.cutoff,
        "safe_window": report.safe_window,
        "d": report.d,
        "checks": [
            {"name": c.name, "status": c.status, "detail": c.detail}
            for c in report.checks
        ],
        "all_pass": report.all_pass,
    }
