"""External formats: canonical JSON documents and the plain-text matrix
rendering (one row per line, entries space-separated, every rational
rendered p/q in lowest terms).

Documents are emitted deterministically: sorted keys, two-space indent,
trailing newline.  All rationals cross the boundary as strings so no
precision is ever lost to floats.
"""

from __future__ import annotations

import json

from .analyzer import AnalysisReport, IdentifyResult, IsoResult
from .linalg import Subspace
from .matrix import Mat
from .modules import ModuleRep, RelationReport
from .params import ParamTriple, Scalars, SignFlip
from .rational import format_rat, parse_rat
from .verma import VermaReport


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def mat_to_rows(m: Mat) -> list[list[str]]:
    return [[format_rat(x) for x in row] for row in m.entries]


def mat_from_rows(rows) -> Mat:
    return Mat([[parse_rat(x) for x in row] for row in rows])


def mat_to_text(m: Mat, row_sep: str = "\n") -> str:
    return row_sep.join(" ".join(format_rat(x) for x in row) for row in m.entries)


def params_to_doc(p: ParamTriple) -> dict:
    return {"a": format_rat(p.a), "b": format_rat(p.b), "c": format_rat(p.c)}


def params_from_doc(doc) -> ParamTriple:
    return ParamTriple(parse_rat(doc["a"]), parse_rat(doc["b"]), parse_rat(doc["c"]))


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


def rep_from_doc(doc) -> ModuleRep:
    sc = doc["scalars"]
    return ModuleRep(
        d=int(doc["d"]),
        params=params_from_doc(doc["params"]),
        basis=doc["basis"],
        A=mat_from_rows(doc["A"]),
        B=mat_from_rows(doc["B"]),
        C=mat_from_rows(doc["C"]),
        D=mat_from_rows(doc["D"]),
        scalars=Scalars(
            parse_rat(sc["zeta"]),
            parse_rat(sc["zeta_star"]),
            parse_rat(sc["eta"]),
            parse_rat(sc["gamma"]),
        ),
    )


def subspace_to_doc(s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "dim": s.dim,
        "basis": [[format_rat(x) for x in v] for v in s.basis],
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
