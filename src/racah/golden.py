"""The pinned worked example: d = 4 at (a,b,c) = (-1/2,-1/2,-1/2).

golden_example() rebuilds the module from scratch and checks it against the
stored fixture plus a battery of independently known facts: the relation
set, the central scalars, traces, the quintic minimal polynomial, the three
one-dimensional B-eigenlines, non-diagonalizability of all three
generators, irreducibility by both routes, and trace identification.
"""

from __future__ import annotations

import json
from importlib.resources import files

from .analyzer import (
    ConsistencyError,
    diagonalizable,
    identify,
    irreducible_criterion,
    irreducible_oracle,
)
from .linalg import Subspace, eigenspace, minimal_polynomial
from .modules import ModuleRep, build_R, verify_relations
from .params import ParamTriple, canonical
from .poly import Poly, squarefree
from .rational import ONE, ZERO, format_rat, rat
from .serialize import rep_from_doc


def _load_fixture() -> ModuleRep:
    text = files("racah").joinpath("fixtures/example11.json").read_text()
    return rep_from_doc(json.loads(text))


def _claim(claims: list, name: str, ok: bool, detail: str = ""):
    claims.append({"name": name, "ok": bool(ok), "detail": detail})


def golden_example() -> dict:
    """Run the pinned example end to end; returns a document with one entry
    per claim and an overall verdict.  A construction that differs from
    the fixture is reported by its first mismatched matrix entry."""
    p = ParamTriple(rat(-1, 2), rat(-1, 2), rat(-1, 2))
    d = 4
    fixture = _load_fixture()
    rep = build_R(p, d, "v")

    claims: list[dict] = []

    mismatch = None
    for name in ("A", "B", "C", "D"):
        got = rep.generator(name)
        want = fixture.generator(name)
        for i in range(d + 1):
            for j in range(d + 1):
                if got.entries[i][j] != want.entries[i][j] and mismatch is None:
                    mismatch = (name, i, j, got.entries[i][j], want.entries[i][j])
    _claim(
        claims,
        "construction reproduces the stored matrices",
        mismatch is None,
        ""
        if mismatch is None
        else "first mismatch {0}[{1}][{2}] = {3}, fixture has {4}".format(
            mismatch[0], mismatch[1], mismatch[2], format_rat(mismatch[3]), format_rat(mismatch[4])
        ),
    )

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

    tr = {name: rep.generator(name).trace() for name in ("A", "B", "C")}
    _claim(
        claims,
        "all three generator traces are 35/4",
        all(v == rat(35, 4) for v in tr.values()),
        " ".join(f"tr{k}={format_rat(v)}" for k, v in tr.items()),
    )

    quintic = Poly.from_roots(
        [rat(-1, 4), rat(3, 4), rat(3, 4), rat(15, 4), rat(15, 4)]
    )
    mp_a = minimal_polynomial(rep.A)
    mp_b = minimal_polynomial(rep.B)
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

    diag_ok = not squarefree(mp_a) and not squarefree(mp_b)
    diag_detail = ""
    try:
        crit_says = [diagonalizable(p, d, g, mode="both") for g in ("A", "B", "C")]
        agree = not any(crit_says)
    except ConsistencyError as exc:
        agree = False
        diag_detail = str(exc)
    _claim(
        claims,
        "no generator is diagonalizable (both routes)",
        diag_ok and agree,
        diag_detail,
    )

    crit, _ = irreducible_criterion(p, d)
    oracle, _ = irreducible_oracle(build_R(p, d, "v"))
    _claim(
        claims,
        "irreducible by criterion and by spin oracle",
        crit and oracle,
        f"criterion={crit} oracle={oracle}",
    )

    ident = identify(rep.A, rep.B, rep.C)
    canon, _ = canonical(p)
    _claim(
        claims,
        "trace identification recovers the canonical triple",
        ident.candidate == canon,
        f"candidate={ident.candidate}",
    )

    ok = all(c["ok"] for c in claims)
    return {
        "example": "d=4 at (-1/2,-1/2,-1/2)",
        "claims": claims,
        "ok": ok,
    }
