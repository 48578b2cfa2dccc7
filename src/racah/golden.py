"""The pinned worked example: d = 4 at (a,b,c) = (-1/2,-1/2,-1/2).

golden_example() rebuilds the module from scratch and compares its JSON
document (racah.serialize.rep_to_doc) with the stored fixture, the
canonical strings of A, B, C and D entry by entry.  Then it checks a
battery of independently known facts: the relation set, the central
scalars and the three one-dimensional B-eigenlines on that module, and,
from one racah.analyzer.analyze() report, the traces, the quintic minimal
polynomial, non-diagonalizability of all three generators, irreducibility
and trace identification.  analyze() checks each of these by criterion and
oracle and raises ConsistencyError when the two split, so golden_example()
does too.
"""

from __future__ import annotations

import json
from importlib.resources import files
from itertools import zip_longest

from .analyzer import analyze
from .linalg import Subspace, eigenspace
from .modules import build_R, verify_relations
from .params import ParamTriple
from .poly import Poly
from .rational import ONE, ZERO, format_rat, rat
from .serialize import rep_to_doc


def _load_fixture() -> dict:
    return json.loads(files("racah").joinpath("fixtures/example11.json").read_text())


def _first_mismatch(got: dict, want: dict):
    """Detail text for the first entry of A, B, C, D where two module
    documents, as rows of canonical strings, differ, or None.  A row or
    entry that only one side has is "nothing" on the other, so a fixture
    of another shape differs."""
    for name in ("A", "B", "C", "D"):
        for i, (g, w) in enumerate(zip_longest(got[name], want[name], fillvalue=[])):
            for j, (x, y) in enumerate(zip_longest(g, w, fillvalue="nothing")):
                if x != y:
                    return f"first mismatch {name}[{i}][{j}] = {x}, fixture has {y}"
    return None


def _claim(claims: list, name: str, ok: bool, detail: str = ""):
    claims.append({"name": name, "ok": bool(ok), "detail": detail})


def golden_example() -> dict:
    """Run the pinned example end to end; returns a document with one entry
    per claim and an overall verdict.  A construction that differs from
    the fixture is reported by its first mismatched matrix entry."""
    p = ParamTriple(rat(-1, 2), rat(-1, 2), rat(-1, 2))
    d = 4
    rep = build_R(p, d, "v")

    claims: list[dict] = []

    mismatch = _first_mismatch(rep_to_doc(rep), _load_fixture())
    _claim(claims, "construction reproduces the stored matrices", not mismatch, mismatch or "")

    report = verify_relations(rep)
    _claim(
        claims,
        "defining relations hold",
        report.all_pass,
        "" if report.all_pass else f"first failure: {report.failures[0].name}",
    )

    sc = rep.scalars
    _claim(
        claims,
        "central scalars are (0, 0, 21/4)",
        sc.zeta == 0 and sc.zeta_star == 0 and sc.eta == rat(21, 4),
        f"zeta={format_rat(sc.zeta)} zeta_star={format_rat(sc.zeta_star)} eta={format_rat(sc.eta)}",
    )

    analysis = analyze(p, d)
    tr = analysis.traces
    _claim(
        claims,
        "all three generator traces are 35/4",
        all(v == rat(35, 4) for v in tr.values()),
        " ".join(f"tr{k}={format_rat(v)}" for k, v in tr.items()),
    )

    quintic = Poly.from_roots(
        [rat(-1, 4), rat(3, 4), rat(3, 4), rat(15, 4), rat(15, 4)]
    )
    mp_a = analysis.minimal_polynomials["A"]
    mp_b = analysis.minimal_polynomials["B"]
    _claim(
        claims,
        "minimal polynomial of A and B is (x+1/4)(x-3/4)^2(x-15/4)^2",
        mp_a == quintic and mp_b == quintic,
        f"minpoly(A) = {mp_a}",
    )

    lines = {
        rat(15, 4): (ONE, ZERO, ZERO, ZERO, ZERO),
        rat(3, 4): (rat(3), ONE, ZERO, ZERO, ZERO),
        rat(-1, 4): (rat(27), rat(12), rat(8), ZERO, ZERO),
    }
    lines_ok = True
    detail = []
    for lam, vec in lines.items():
        space = eigenspace(rep.B, lam)
        want = Subspace(d + 1, [vec])
        if space != want:
            lines_ok = False
            detail.append(f"eigenvalue {format_rat(lam)}: dim {space.dim}")
    _claim(
        claims,
        "B has exactly the three stored one-dimensional eigenlines",
        lines_ok,
        "; ".join(detail),
    )

    _claim(
        claims,
        "no generator is diagonalizable (both routes)",
        not any(analysis.diagonalizable.values()),
    )

    irreducible = analysis.irreducible
    _claim(
        claims,
        "irreducible by criterion and by spin oracle",
        irreducible,
        f"criterion={irreducible} oracle={irreducible}",
    )

    ident = analysis.identification
    _claim(
        claims,
        "trace identification recovers the canonical triple",
        ident.candidate == analysis.canonical_params,
        f"candidate={ident.candidate}",
    )

    ok = all(c["ok"] for c in claims)
    return {
        "example": "d=4 at (-1/2,-1/2,-1/2)",
        "claims": claims,
        "ok": ok,
    }
