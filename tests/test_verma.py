import dataclasses

import pytest
from hypothesis import given, strategies as st

from racah import (
    Mat,
    ParamTriple,
    build_R,
    build_verma,
    rat,
    theta,
    theta_star,
    varphi,
    verma_checks,
)
from racah.rational import HALF, ONE, ZERO, Rat, format_rat
from racah.verma import VermaCheck

from conftest import nudged, presentation_identities_oracle, rationals, triples

P = ParamTriple.of("1/3", "-2/5", "7/4")


def by_name(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert len(matches) == 1
    return matches[0]


def test_default_cutoff_and_shapes():
    vt = build_verma(P, 3)
    assert vt.cutoff == 13
    assert vt.dim == 14
    assert vt.safe_window == 11
    assert vt.A.shape() == (14, 14)
    assert vt.B.shape() == (14, 14)


def test_specialized_nu_all_checks_pass():
    report = verma_checks(build_verma(P, 3), 3)
    assert report.d == 3 and report.nu == 3
    assert len(report.checks) == 8
    assert report.all_pass
    assert all(c.status == "pass" for c in report.checks)


def test_superdiagonal_entry_vanishes_at_integral_nu():
    # at nu = 1 the varphi sequence has its zero at index 2
    vt = build_verma(P, 1, cutoff=4)
    assert vt.B.entries[1][2] == 0
    assert vt.B.entries[0][1] == rat(15089, 3600)


@given(
    st.one_of(triples(), triples(max_num=10**6, max_den=10**6)),
    st.one_of(st.integers(0, 20), rationals(40, 7), rationals(10**6, 10**6)),
    st.integers(3, 14),
)
def test_truncation_entries_are_the_per_index_forms(p, nu, cutoff):
    vt = build_verma(p, nu, cutoff)
    for i in range(cutoff + 1):
        for j in range(cutoff + 1):
            a = theta(p, nu, i) if j == i else ONE if j == i - 1 else ZERO
            b = theta_star(p, nu, i) if j == i else varphi(p, nu, j) if j == i + 1 else ZERO
            assert (vt.A[i, j], vt.B[i, j]) == (a, b)
            assert type(vt.A[i, j]) is type(vt.B[i, j]) is Rat


def test_quotient_block_is_the_finite_module():
    vt = build_verma(P, 2)
    rep = build_R(P, 2)
    for i in range(3):
        for j in range(3):
            assert vt.A.entries[i][j] == rep.A.entries[i][j]
            assert vt.B.entries[i][j] == rep.B.entries[i][j]


def test_generic_nu_fails_only_the_submodule_checks():
    report = verma_checks(build_verma(P, rat(9, 2), cutoff=8), 4)
    assert not report.all_pass
    tail = by_name(report, "tail is a submodule")
    assert tail.status == "fail"
    assert "not a submodule at this nu" in tail.detail
    quot = by_name(report, "quotient matches the finite module")
    assert quot.status == "skip"
    for c in report.checks:
        if c.name not in (tail.name, quot.name):
            assert c.status == "pass", c


def test_build_preconditions():
    with pytest.raises(ValueError):
        build_verma(P, rat(9, 2))  # non-integral nu needs an explicit cutoff
    with pytest.raises(ValueError):
        build_verma(P, -1)
    with pytest.raises(ValueError):
        build_verma(P, 3, cutoff=2)


def test_check_preconditions():
    vt = build_verma(P, 3, cutoff=5)
    with pytest.raises(ValueError):
        verma_checks(vt, 4)  # needs cutoff >= d+2
    with pytest.raises(ValueError):
        verma_checks(vt, -1)
    with pytest.raises(ValueError):
        verma_checks(vt, rat(2))


def test_tampered_truncation_fails_annihilator():
    vt = build_verma(P, 2, cutoff=4)
    bump = Mat([[1 if (i, j) == (0, 0) else 0 for j in range(5)] for i in range(5)])
    bad = dataclasses.replace(vt, B=vt.B + bump)
    report = verma_checks(bad, 2)
    assert by_name(report, "U1 annihilates the highest vector").status == "fail"
    assert not report.all_pass


@given(triples(max_num=6, max_den=4), st.integers(0, 4))
def test_specialization_property(p, d):
    report = verma_checks(build_verma(p, d), d)
    assert report.all_pass, [c for c in report.checks if c.status == "fail"]


def unit(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def moved_checks_oracle(vt, d):
    """The eight checks of verma_checks as they were computed before they
    moved to cleared integer rows: the annihilators by Mat.apply on Fraction
    tuples, alpha and beta by dense Fraction Mat products, the ladder
    products stepped as dense length-n tuples for every i <= j, and the
    quotient blocks compared entry by entry.  Oracle for verma_checks."""
    p, nu, n, window = vt.params, vt.nu, vt.dim, vt.safe_window
    a_mat, b_mat = vt.A, vt.B
    ident = Mat.identity(n)
    zeta, zeta_star, eta, _ = vt.scalars
    e0 = unit(n, 0)
    th0, ts0, ts1 = theta(p, nu, 0), theta_star(p, nu, 0), theta_star(p, nu, 1)
    u1 = tuple(x - ts0 * e for x, e in zip(b_mat.apply(e0), e0))
    w = tuple(x - th0 * e for x, e in zip(a_mat.apply(e0), e0))
    bw = tuple(x - ts1 * y for x, y in zip(b_mat.apply(w), w))
    u2 = tuple(x - varphi(p, nu, 1) * e for x, e in zip(bw, e0))
    ab, ba = a_mat * b_mat, b_mat * a_mat
    c_mat = ident.scale(eta) - a_mat - b_mat
    d_mat = (ab - ba).scale(HALF)
    alpha_col = (a_mat * d_mat - d_mat * a_mat + a_mat * c_mat - ba).apply(e0)
    beta_col = (b_mat * d_mat - d_mat * b_mat + ba - c_mat * b_mat).apply(e0)
    checks = [
        VermaCheck(
            "U1 annihilates the highest vector",
            "pass" if all(x == 0 for x in u1) else "fail",
            f"(B - theta*_0) m_0 with theta*_0 = {format_rat(ts0)}",
        ),
        VermaCheck(
            "U2 annihilates the highest vector",
            "pass" if all(x == 0 for x in u2) else "fail",
            "((B - theta*_1)(A - theta_0) - varphi_1) m_0",
        ),
        VermaCheck(
            "alpha acts as zeta on the highest vector",
            "pass" if alpha_col == tuple(zeta * e for e in e0) else "fail",
            f"zeta = {format_rat(zeta)}",
        ),
        VermaCheck(
            "beta acts as zeta_star on the highest vector",
            "pass" if beta_col == tuple(zeta_star * e for e in e0) else "fail",
            f"zeta_star = {format_rat(zeta_star)}",
        ),
    ]
    ladder_bad = None
    for i in range(0, window + 1):
        vec = unit(n, i)
        for j in range(i, window + 1):
            thj = theta(p, nu, j)
            vec = tuple(x - thj * y for x, y in zip(a_mat.apply(vec), vec))
            if vec != unit(n, j + 1):
                ladder_bad = (i, j)
                break
        if ladder_bad:
            break
    checks.append(
        VermaCheck(
            "ladder product identity on the safe window",
            "fail" if ladder_bad else "pass",
            f"prod_(h=i..j)(A - theta_h) m_i = m_(j+1) failed at (i,j) = {ladder_bad}"
            if ladder_bad
            else f"prod_(h=i..j)(A - theta_h) m_i = m_(j+1) for 0 <= i <= j <= {window}",
        )
    )
    pres_bad = None
    for name, lhs, rhs in presentation_identities_oracle(a_mat, b_mat, ab, ba, ident, vt.scalars):
        for j in range(0, window + 1):
            for i in range(n):
                if lhs.entries[i][j] != rhs.entries[i][j]:
                    pres_bad = (name, i, j)
                    break
            if pres_bad:
                break
        if pres_bad:
            break
    checks.append(
        VermaCheck(
            "presentation identities on the safe window",
            "fail" if pres_bad else "pass",
            f"first mismatch {pres_bad}" if pres_bad
            else f"AAB and ABB identities agree on columns 0..{window}",
        )
    )
    tail_vp = varphi(p, nu, d + 1)
    tail_ok = tail_vp == 0 and b_mat.entries[d][d + 1] == 0
    checks.append(
        VermaCheck(
            "tail is a submodule",
            "pass" if tail_ok else "fail",
            f"varphi_{d + 1} = 0 at nu = {format_rat(nu)}: span(m_i, i > {d}) is stable"
            if tail_ok
            else f"not a submodule at this nu: varphi_{d + 1} = {format_rat(tail_vp)}",
        )
    )
    if tail_ok:
        rep = build_R(p, d, "v")
        block_ok = True
        for i in range(d + 1):
            for j in range(d + 1):
                if (
                    a_mat.entries[i][j] != rep.A.entries[i][j]
                    or b_mat.entries[i][j] != rep.B.entries[i][j]
                ):
                    block_ok = False
        checks.append(
            VermaCheck(
                "quotient matches the finite module",
                "pass" if block_ok else "fail",
                f"leading {d + 1}x{d + 1} blocks of A and B equal the basis-v matrices",
            )
        )
    else:
        checks.append(
            VermaCheck(
                "quotient matches the finite module",
                "skip",
                "no submodule at this nu, nothing to quotient by",
            )
        )
    return tuple(checks)


def assert_matches_oracle(vt, d):
    report = verma_checks(vt, d)
    assert report.checks == moved_checks_oracle(vt, d)
    return report


@given(triples(max_num=9, max_den=6), st.integers(0, 12), st.integers(0, 4))
def test_checks_at_nu_equal_d_match_the_fraction_oracle(p, d, extra):
    report = assert_matches_oracle(build_verma(p, d, max(3, d + 2) + extra), d)
    assert all(c.status == "pass" for c in report.checks[2:6])


@given(triples(max_num=9, max_den=6), rationals(40, 7).filter(lambda x: x.denominator > 1),
       st.integers(0, 10), st.integers(2, 6))
def test_checks_at_non_integral_nu_match_the_fraction_oracle(p, nu, d, extra):
    assert_matches_oracle(build_verma(p, nu, max(3, d + extra)), d)


nonzero_rationals = rationals(9, 6).filter(bool)


@given(triples(max_num=9, max_den=6), st.integers(0, 10), st.sampled_from("AB"),
       nonzero_rationals, st.booleans(), st.data())
def test_tampered_truncations_match_the_fraction_oracle(p, d, gen, delta, integral, data):
    # one entry of A or B moved, anywhere in the truncation
    nu = d if integral else rat(2 * d + 1, 2)
    vt = build_verma(p, nu, d + 4)
    i, j = data.draw(st.integers(0, vt.cutoff)), data.draw(st.integers(0, vt.cutoff))
    assert_matches_oracle(dataclasses.replace(vt, **{gen: nudged(getattr(vt, gen), i, j, delta)}), d)


@pytest.mark.parametrize("gen, i, j, statuses", [
    ("A", 4, 3, ("pass", "pass", "fail", "pass")),  # one rung of the ladder
    ("A", 0, 12, ("pass", "pass", "pass", "fail")),  # past the window, seen by the identities
    ("A", 0, 1, ("fail", "pass", "fail", "fail")),
    ("B", 0, 2, ("fail", "pass", "pass", "fail")),
    ("B", 1, 0, ("fail", "fail", "pass", "fail")),
])
def test_tampered_truncation_reports_the_moved_checks(gen, i, j, statuses):
    vt = build_verma(P, 3)
    bad = nudged(getattr(vt, gen), i, j, rat(1, 7))
    report = assert_matches_oracle(dataclasses.replace(vt, **{gen: bad}), 3)
    assert tuple(c.status for c in report.checks[2:6]) == statuses


@pytest.mark.parametrize("gen, i, j", [("A", 3, 3), ("B", 3, 2), ("A", 0, 3)])
def test_quotient_check_sees_the_last_row_and_column(gen, i, j):
    vt = build_verma(P, 3)
    bad = dataclasses.replace(vt, **{gen: nudged(getattr(vt, gen), i, j, rat(1, 7))})
    report = assert_matches_oracle(bad, 3)
    assert by_name(report, "quotient matches the finite module").status == "fail"
