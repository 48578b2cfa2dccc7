"""Acceptance gate: nine end-to-end criteria, every comparison exact.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s) and
enforces its own wall-clock budget.  Random suites use fixed seeds so the
point sets are reproducible run to run.
"""

import contextlib
import functools
import random
import time

from racah import (
    FreeElement,
    Mat,
    ModuleRep,
    ParamTriple,
    SignFlip,
    act,
    build_R,
    build_verma,
    canonical,
    diagonalizable,
    evaluate,
    golden_example,
    identify,
    in_P,
    invertible,
    irreducible_criterion,
    irreducible_oracle,
    isomorphic,
    l_matrix,
    normal_form,
    parse,
    rat,
    trace_formula,
    varphi,
    verify_relations,
    verma_checks,
)
import racah.golden
from racah.rewriter import SYMBOLS

from conftest import commutator, random_rat, random_triple, upper_bidiagonal

HALF = rat(1, 2)
FORMS = ("a+b+c+1", "-a+b+c", "a-b+c", "a+b-c")


@contextlib.contextmanager
def criterion(number, description, budget=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget}s budget"
            )
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def tampered_build_R(p, d, basis="v"):
    """build_R with the sign of every superdiagonal entry varphi_i of B
    flipped, and C and D rebuilt from the flipped B."""
    rep = build_R(p, d, basis)
    vp = [-varphi(p, d, i) for i in range(1, d + 1)]
    ts = [rep.B.entries[i][i] for i in range(d + 1)]
    b_bad = upper_bidiagonal(ts, vp)
    c_bad = Mat.identity(d + 1).scale(rep.scalars.eta) - rep.A - b_bad
    d_bad = commutator(rep.A, b_bad).scale(HALF)
    return ModuleRep(d, p, basis, rep.A, b_bad, c_bad, d_bad, rep.scalars)


def test_criterion_1_golden_example(monkeypatch):
    with criterion(1, "pinned worked example reproduced end to end", budget=1.0):
        doc = golden_example()
        assert doc["ok"], [c for c in doc["claims"] if not c["ok"]]

        # the three central elements act as the zero matrix at this point
        rep = build_R(ParamTriple(rat(-1, 2), rat(-1, 2), rat(-1, 2)), 4)
        alpha = commutator(rep.A, rep.D) + rep.A * rep.C - rep.B * rep.A
        beta = commutator(rep.B, rep.D) + rep.B * rep.A - rep.C * rep.B
        gamma = commutator(rep.C, rep.D) + rep.C * rep.B - rep.A * rep.C
        assert alpha == beta == gamma == Mat.zero(5)

        # negative control: a flipped superdiagonal sign is caught and located
        monkeypatch.setattr(racah.golden, "build_R", tampered_build_R)
        neg = golden_example()
        assert not neg["ok"]
        first_bad = next(c for c in neg["claims"] if not c["ok"])
        assert first_bad["name"] == "construction reproduces the stored matrices"
        assert "first mismatch B[0][1]" in first_bad["detail"]


def test_criterion_2_relations_on_random_modules():
    with criterion(2, "defining relations on 200 random modules, all bases", budget=30.0):
        rng = random.Random(104729)
        seen_checks = set()
        for _ in range(200):
            p = random_triple(rng)
            d = rng.randint(0, 8)
            for basis in ("v", "w", "u"):
                report = verify_relations(build_R(p, d, basis))
                assert report.all_pass, (p, d, basis, report.failures)
                seen_checks.update(c.name for c in report.checks)
        for needed in (
            "AAB presentation identity",
            "ABB presentation identity",
            "alpha = zeta I",
            "beta = zeta_star I",
            "A + B + C = eta I",
        ):
            assert needed in seen_checks


def _boundary_point(rng, form, d, i):
    """A triple whose named linear form hits the forbidden value d/2 - i."""
    v = rat(d) * HALF - i
    x, y = random_rat(rng), random_rat(rng)
    if form == "a+b+c+1":
        return ParamTriple(v - 1 - x - y, x, y)
    if form == "-a+b+c":
        return ParamTriple(x + y - v, x, y)
    if form == "a-b+c":
        return ParamTriple(x, x + y - v, y)
    return ParamTriple(x, y, x + y - v)


@functools.lru_cache(maxsize=1)
def classification_suite():
    """(boundary, random) point lists shared by criteria 3, 4 and 5.

    The boundary list hits, for every form and every d <= 6, each forbidden
    value d/2 - i at least once; the random list pads the total past 500."""
    rng = random.Random(224737)
    boundary = []
    for d in range(1, 7):
        for form in FORMS:
            for i in range(1, d + 1):
                p = _boundary_point(rng, form, d, i)
                ok, wit = irreducible_criterion(p, d)
                assert not ok
                assert any(w.form == form and w.i == i for w in wit)
                boundary.append((p, d))
    extra = []
    while len(boundary) + len(extra) < 504:
        extra.append((random_triple(rng), rng.randint(0, 6)))
    return tuple(boundary), tuple(extra)


def test_criterion_3_criteria_match_oracles():
    with criterion(
        3, "irreducibility and diagonalizability criteria vs oracles", budget=60.0
    ):
        boundary, extra = classification_suite()
        assert len(boundary) == 4 * 21  # every form, every (d, i) with d <= 6
        for p, d in boundary + extra:
            crit, _ = irreducible_criterion(p, d)
            oracle_ok, sub = irreducible_oracle(build_R(p, d))
            assert crit == oracle_ok, (p, d)
            if not crit:
                assert 0 < sub.dim <= d
            else:
                for g in ("A", "B", "C"):
                    # mode="both" raises ConsistencyError on any split
                    diagonalizable(p, d, g, mode="both")


def test_criterion_4_l_matrix_three_ways():
    with criterion(4, "transition matrix by three methods, det iff irreducible", budget=60.0):
        rng = random.Random(611953)
        points = [(random_triple(rng), rng.randint(0, 6)) for _ in range(100)]
        boundary, _ = classification_suite()
        for p, d in points:
            closed = l_matrix(p, d, "closed")
            assert l_matrix(p, d, "recurrence") == closed, (p, d)
            assert l_matrix(p, d, "direct") == closed, (p, d)
            det_nonzero = all(closed.entries[i][i] != 0 for i in range(d + 1))
            assert det_nonzero == irreducible_criterion(p, d)[0], (p, d)
        for p, d in boundary:
            lm = l_matrix(p, d, "closed")
            assert any(lm.entries[i][i] == 0 for i in range(d + 1)), (p, d)


def test_criterion_5_traces_and_identification():
    with criterion(5, "trace formula and parameter recovery on every suite point"):
        boundary, extra = classification_suite()
        for p, d in boundary + extra:
            rep = build_R(p, d)
            formula = trace_formula(p, d)
            for g in ("A", "B", "C"):
                assert rep.generator(g).trace() == formula[g], (p, d, g)
            res = identify(rep.A, rep.B, rep.C)
            assert res.all_rational, (p, d)
            assert res.candidate == canonical(p)[0], (p, d)


def test_criterion_6_isomorphism_classification():
    with criterion(6, "flip partners isomorphic, distinct orbits not", budget=60.0):
        rng = random.Random(1299709)
        single_flips = (SignFlip(-1, 1, 1), SignFlip(1, -1, 1), SignFlip(1, 1, -1))
        done = 0
        while done < 50:
            d = rng.randint(1, 4)
            p = random_triple(rng)
            if not in_P(p, d)[0]:
                continue
            done += 1
            for flip in single_flips:
                res = isomorphic(p, act(p, flip), d)
                assert res.hom_dim == 1, (p, flip, d)
                assert res.iso and invertible(res.intertwiner)
            while True:
                q = random_triple(rng)
                if in_P(q, d)[0] and canonical(q)[0] != canonical(p)[0]:
                    break
            res = isomorphic(p, q, d)
            assert res.hom_dim == 0 and not res.iso, (p, q, d)


def test_criterion_7_rewriter_soundness():
    with criterion(7, "normal ordering sound, linear, idempotent", budget=30.0):
        rng = random.Random(15485863)
        rep5 = build_R(random_triple(rng), 5)
        elements = []
        for _ in range(300):
            word = tuple(
                rng.choice(SYMBOLS) for _ in range(rng.randint(0, 6))
            )
            coeff = rat(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
            elements.append(FreeElement({word: coeff}))
        for elem in elements:
            nf = normal_form(elem)
            assert evaluate(nf, rep5) == evaluate(elem, rep5), elem.terms
            assert normal_form(nf.to_free()) == nf
        for x, y in zip(elements[0::2], elements[1::2]):
            assert normal_form(x + y) == normal_form(x) + normal_form(y)
        c = rat(-7, 3)
        assert normal_form(elements[0].scale(c)) == normal_form(elements[0]).scale(c)
        for text in (
            "A^2*B - 2*A*B*A + B*A^2 - 2*A*B - 2*B*A - (2*A^2 - 2*A*delta + 2*alpha)",
            "A*B^2 - 2*B*A*B + B^2*A - 2*A*B - 2*B*A - (2*B^2 - 2*B*delta - 2*beta)",
            "alpha + beta + gamma",
        ):
            assert normal_form(parse(text)).is_zero(), text


def test_criterion_8_ladder_truncations():
    with criterion(8, "truncated ladder modules specialize to the finite ones", budget=10.0):
        rng = random.Random(32452843)
        for _ in range(20):
            d = rng.randint(1, 5)
            p = random_triple(rng)
            vt = build_verma(p, d)
            assert vt.cutoff == d + 10
            report = verma_checks(vt, d)
            bad = [c for c in report.checks if c.status != "pass"]
            assert not bad, (p, d, bad)


def test_criterion_9_rational_power_normal_form():
    with criterion(9, "rational eighth power normal-ordered in under 0.5s, evaluation matches"):
        start = time.perf_counter()
        x = parse("(1/2*A + 2/3*C)^8")
        nf = normal_form(x)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"normal_form took {elapsed:.2f}s, over the 0.5s budget"
        rep = build_R(random_triple(random.Random(49979687)), 2)
        assert evaluate(nf, rep) == evaluate(x, rep)
