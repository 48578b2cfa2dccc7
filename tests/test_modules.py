import pytest
from hypothesis import given, strategies as st

import racah.modules as modules
import racah.verma as verma
from racah import (
    Mat,
    ModuleRep,
    ParamTriple,
    SignFlip,
    act,
    build_R,
    build_verma,
    evaluate,
    in_P,
    irreducible_oracle,
    parse,
    phi,
    rat,
    scalars,
    theta,
    theta_star,
    varphi,
    verify_relations,
    verma_checks,
)
from racah.intmat import clear, scalar
from racah.modules import BASES, RelationCheck, RelationReport, _compare
from racah.params import sequences
from racah.rational import HALF, ONE, ZERO, Rat

from conftest import (
    ONTO_FORM,
    combine_oracle,
    commutator,
    first_nonzero,
    fraction_scalars,
    identity_mat,
    lower_bidiagonal,
    module_points,
    mul_oracle,
    nudged,
    presentation_identities_oracle,
    rationals,
    tridiagonal,
    triples,
    upper_bidiagonal,
    zero_mat,
)

P = ParamTriple.of("1/3", "-2/5", "7/4")


def test_build_d1_frozen():
    # every entry below is hand-computed from the defining formulas
    rep = build_R(P, 1)
    assert rep.dim == 2 and rep.basis == "v"
    assert rep.A == Mat([[rat(55, 36), 0], [1, rat(-5, 36)]])
    assert rep.B == Mat([[rat(11, 100), rat(15089, 3600)], [0, rat(-9, 100)]])
    eta = rat(20761, 3600)
    assert rep.scalars.eta == eta
    assert rep.C == Mat(
        [
            [rat(991, 240), rat(-15089, 3600)],
            [rat(-1), rat(1439, 240)],
        ]
    )
    assert rep.D == Mat(
        [
            [rat(-15089, 7200), rat(15089, 4320)],
            [rat(1, 10), rat(15089, 7200)],
        ]
    )


def test_build_d0():
    rep = build_R(P, 0)
    assert rep.A == Mat([[P.a * (P.a + 1)]])
    assert rep.B == Mat([[P.b * (P.b + 1)]])
    assert rep.C == Mat([[P.c * (P.c + 1)]])
    assert rep.D == zero_mat(1)
    assert verify_relations(rep).all_pass


def test_build_validation():
    with pytest.raises(ValueError):
        build_R(P, -1)
    with pytest.raises(ValueError):
        build_R(P, rat(2))
    with pytest.raises(ValueError):
        build_R(P, 2, "x")


def test_generator_accessor():
    rep = build_R(P, 2)
    assert rep.generator("A") is rep.A
    assert rep.generator("D") is rep.D
    with pytest.raises(ValueError):
        rep.generator("E")


def test_bidiagonal_shapes():
    rep = build_R(P, 3)
    for i in range(4):
        for j in range(4):
            if j > i:
                assert rep.A.entries[i][j] == 0
            if i > j + 1:
                assert rep.A.entries[i][j] == 0
            if j not in (i, i + 1):
                assert rep.B.entries[i][j] == 0
    assert all(rep.A.entries[i + 1][i] == 1 for i in range(3))


@given(triples(max_num=6, max_den=4), st.integers(0, 4), st.sampled_from(BASES))
def test_relations_hold_in_every_basis(p, d, basis):
    report = verify_relations(build_R(p, d, basis))
    assert len(report.checks) == 21
    assert report.all_pass, report.failures


@pytest.mark.parametrize("p, d", [(P, 3), (ParamTriple.of("1/3", "4/3", 1), 2)])
@pytest.mark.parametrize("basis", BASES)
def test_module_rebuilt_from_its_public_fields_acts_as_built(p, d, basis):
    # the record holds nothing beyond its fields; the second point is reducible
    rep = build_R(p, d, basis)
    rebuilt = ModuleRep(rep.d, rep.params, rep.basis, rep.A, rep.B, rep.C, rep.D, rep.scalars)
    assert rebuilt == rep
    assert verify_relations(rebuilt) == verify_relations(rep)
    assert irreducible_oracle(rebuilt) == irreducible_oracle(rep)
    x = parse("[A,B] - 2*D + alpha*C^2 - delta")
    assert evaluate(x, rebuilt) == evaluate(x, rep)


def test_scalars_attached_to_rep():
    rep = build_R(P, 3)
    assert rep.scalars == scalars(P, 3)


def test_tampered_module_is_reported_with_location():
    rep = build_R(P, 2)
    bad_b = rep.B + Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    tampered = rep._replace(B=bad_b)
    report = verify_relations(tampered)
    assert not report.all_pass
    first = report.failures[0]
    assert first.name == "[A,B] = 2D"
    i, j, lhs, rhs = first.mismatch
    assert (i, j) == (0, 0)
    assert lhs != rhs


def dense_c_and_d(rep):
    """C and D as build_R made them before it built them on their band:
    eta*I - A - B and the commutator [A,B]/2 over whole matrices.  Oracle
    for the band construction."""
    c = identity_mat(rep.dim).scale(rep.scalars.eta) - rep.A - rep.B
    return c, commutator(rep.A, rep.B).scale(HALF)


@given(triples(max_num=9, max_den=6), st.integers(0, 12), st.sampled_from(BASES))
def test_band_c_and_d_match_the_dense_construction(p, d, basis):
    rep = build_R(p, d, basis)
    assert (rep.C, rep.D) == dense_c_and_d(rep)
    for m in (rep.C, rep.D):
        assert all(type(x) is Rat for row in m.entries for x in row)
        assert all(
            x == 0 for i, row in enumerate(m.entries) for j, x in enumerate(row) if abs(i - j) > 1
        )


def test_band_c_and_d_at_a_large_six_digit_point():
    rep = build_R(ParamTriple.of("999983/999979", "-999961/999959", "999953/999931"), 24, "u")
    assert (rep.C, rep.D) == dense_c_and_d(rep)


def fraction_build_R(p, d, basis="v"):
    """build_R as it was before it read params.sequences: every entry from
    the per-index Fraction forms, and C and D on their band in Fraction
    arithmetic.  Oracle for the integer construction."""
    n = d + 1
    th = [theta(p, d, i) for i in range(n)]
    ts = [theta_star(p, d, i) for i in range(n)]
    ph = [phi(p, d, i) for i in range(1, n)]
    vp = [varphi(p, d, i) for i in range(1, n)]
    if basis == "v":
        a, b, u = th, ts, vp
    elif basis == "w":
        a, b, u = th[::-1], ts, ph
    else:
        a, b, u = th, ts[::-1], ph[::-1]
    sc = fraction_scalars(p, d)
    c_mat = tridiagonal([sc.eta - x - y for x, y in zip(a, b)], [-ONE] * d, [-x for x in u])
    uu = [ZERO, *u, ZERO]
    d_mat = tridiagonal(
        [(uu[i] - uu[i + 1]) * HALF for i in range(n)],
        [(b[i] - b[i + 1]) * HALF for i in range(d)],
        [(a[i] - a[i + 1]) * x * HALF for i, x in enumerate(u)],
    )
    a_mat = lower_bidiagonal(a, [ONE] * d)
    b_mat = upper_bidiagonal(b, u)
    return ModuleRep(d, p, basis, a_mat, b_mat, c_mat, d_mat, sc)


def assert_same_module(p, d, basis):
    got, want = build_R(p, d, basis), fraction_build_R(p, d, basis)
    for name in ModuleRep._fields:
        assert getattr(got, name) == getattr(want, name), (p, d, basis, name)
    for m in (got.A, got.B, got.C, got.D):
        assert all(type(x) is Rat for row in m.entries for x in row)


@given(module_points(), st.sampled_from(BASES))
def test_build_R_matches_the_fraction_construction(point, basis):
    assert_same_module(*point, basis)


@pytest.mark.parametrize(
    "basis, flip",
    [("w", SignFlip(-1, 1, 1)), ("u", SignFlip(1, -1, 1)), ("v", SignFlip(1, 1, -1))],
    ids=["w-f_a", "u-f_b", "v-f_c"],
)
@given(module_points())
def test_w_basis_is_v_basis_of_a_flip(basis, flip, point):
    # build_R builds every basis as the v basis of a flipped triple, and the
    # Fraction construction builds each of the three layouts on its own
    p, d = point
    want = fraction_build_R(p, d, basis)
    got = build_R(act(p, flip), d, "v")
    assert (got.A, got.B, got.C, got.D, got.scalars) == (
        want.A, want.B, want.C, want.D, want.scalars
    ), (p, d, basis)


@pytest.mark.parametrize("form", range(4))
@pytest.mark.parametrize("basis", BASES)
def test_build_R_matches_the_fraction_construction_on_each_boundary(form, basis):
    # every i in 1..d on each reducibility form: a phi_h or varphi_h is 0
    a, b = rat(1, 3), rat(-2, 5)
    for d in (1, 2, 7, 16):
        for i in range(1, d + 1):
            p = ParamTriple(a, b, ONTO_FORM[form](a, b, rat(d, 2) - i))
            assert not in_P(p, d)[0]
            _, _, _, ph, vp = sequences(p, d, d + 1)
            assert 0 in ph[1:] + vp[1:]
            assert_same_module(p, d, basis)


def test_build_R_matches_the_fraction_construction_at_six_digits():
    p = ParamTriple.of("999983/999979", "-999961/999959", "999953/999931")
    for basis in BASES:
        assert_same_module(p, 16, basis)


def verify_relations_oracle(rep):
    """verify_relations as dense Fraction Mat products and sums, before it
    ran on cleared integer rows.  Oracle for the integer route."""
    a, b, c, dd = rep.A, rep.B, rep.C, rep.D
    ident = identity_mat(rep.dim)
    zeta, zeta_star, eta, gamma = rep.scalars

    def compare(name, lhs, rhs):
        hit = first_nonzero(lhs - rhs)
        if hit is None:
            return RelationCheck(name, True)
        i, j, _ = hit
        return RelationCheck(name, False, (i, j, lhs.entries[i][j], rhs.entries[i][j]))

    ab, ba = a * b, b * a
    bc, cb = b * c, c * b
    ca, ac = c * a, a * c
    two_d = dd.scale(2)
    alpha_mat = commutator(a, dd) + ac - ba
    beta_mat = commutator(b, dd) + ba - cb
    gamma_mat = commutator(c, dd) + cb - ac
    checks = [
        compare("[A,B] = 2D", ab - ba, two_d),
        compare("[B,C] = 2D", bc - cb, two_d),
        compare("[C,A] = 2D", ca - ac, two_d),
        compare("alpha = zeta I", alpha_mat, ident.scale(zeta)),
        compare("beta = zeta_star I", beta_mat, ident.scale(zeta_star)),
        compare("gamma = gamma_scalar I", gamma_mat, ident.scale(gamma)),
        compare("A + B + C = eta I", a + b + c, ident.scale(eta)),
    ]
    for name, central in (("alpha", alpha_mat), ("beta", beta_mat), ("gamma", gamma_mat)):
        for gname, gen in (("A", a), ("B", b), ("C", c), ("D", dd)):
            checks.append(compare(f"{name} commutes with {gname}", central * gen, gen * central))
    for name, lhs, rhs in presentation_identities_oracle(a, b, ab, ba, ident, rep.scalars):
        checks.append(compare(f"{name} presentation identity", lhs, rhs))
    return RelationReport(rep.d, rep.params, rep.basis, tuple(checks))


def verify_relations_18_products(rep):
    """verify_relations as it was before it derived every side from 8
    products and the residuals E and F: AB, BA, BC, CB, CA and AC, the six
    of D with A, B and C in the central elements, and six for the
    presentation identities, on cleared integer rows, through the kernels
    as they were then.  Oracle for the 8-product route."""
    n = rep.dim
    den, (a, b, c, dd), (zeta, zeta_star, eta, gamma) = clear(
        (rep.A, rep.B, rep.C, rep.D), rep.scalars
    )
    mul, combine = mul_oracle, combine_oracle
    sq = den * den
    ab, ba = mul(a, b), mul(b, a)
    bc, cb = mul(b, c), mul(c, b)
    ca, ac = mul(c, a), mul(a, c)
    two_d = combine((2 * den, dd))
    alpha_mat = combine((1, mul(a, dd)), (-1, mul(dd, a)), (1, ac), (-1, ba))
    beta_mat = combine((1, mul(b, dd)), (-1, mul(dd, b)), (1, ba), (-1, cb))
    gamma_mat = combine((1, mul(c, dd)), (-1, mul(dd, c)), (1, cb), (-1, ac))
    centrals = (
        ("alpha", "zeta", den * zeta, alpha_mat),
        ("beta", "zeta_star", den * zeta_star, beta_mat),
        ("gamma", "gamma_scalar", den * gamma, gamma_mat),
    )
    scalar_checks = [
        _compare(f"{name} = {s_name} I", m, scalar(n, s), sq) for name, s_name, s, m in centrals
    ]
    checks = [
        _compare("[A,B] = 2D", combine((1, ab), (-1, ba)), two_d, sq),
        _compare("[B,C] = 2D", combine((1, bc), (-1, cb)), two_d, sq),
        _compare("[C,A] = 2D", combine((1, ca), (-1, ac)), two_d, sq),
        *scalar_checks,
        _compare("A + B + C = eta I", combine((1, a), (1, b), (1, c)), scalar(n, eta), den),
    ]
    cube = sq * den
    for (name, _, s, m), scalar_check in zip(centrals, scalar_checks):
        off = None if scalar_check.ok else combine((1, m), (-s, scalar(n, 1)))
        for gname, gen in (("A", a), ("B", b), ("C", c), ("D", dd)):
            check_name = f"{name} commutes with {gname}"
            if off is None:
                checks.append(RelationCheck(check_name, True))
            else:
                lhs, rhs = mul(off, gen), mul(gen, off)
                checks.append(_compare(check_name, lhs, rhs, cube, combine((s, gen))))
    ident = scalar(n, 1)
    comm = combine((1, ab), (-1, ba))
    a2, b2 = mul(a, a), mul(b, b)
    quadratic = ((-2 * den, ab), (-2 * den, ba))
    lhs_aab = combine((1, mul(a, comm)), (-1, mul(comm, a)), *quadratic)
    rhs_aab = combine((2 * den, a2), (-2 * den * eta, a), (2 * den * den * zeta, ident))
    lhs_abb = combine((1, mul(comm, b)), (-1, mul(b, comm)), *quadratic)
    rhs_abb = combine((2 * den, b2), (-2 * den * eta, b), (-2 * den * den * zeta_star, ident))
    for name, lhs, rhs in (("AAB", lhs_aab, rhs_aab), ("ABB", lhs_abb, rhs_abb)):
        checks.append(_compare(f"{name} presentation identity", lhs, rhs, cube))
    return RelationReport(rep.d, rep.params, rep.basis, tuple(checks))


def assert_same_report(rep):
    """verify_relations(rep) equals the report of both oracles, the dense
    Fraction one and the 18-product integer one, mismatch entries included."""
    report = verify_relations(rep)
    assert report == verify_relations_oracle(rep)
    assert report == verify_relations_18_products(rep)
    for check in report.checks:
        if check.mismatch is not None:
            assert all(type(x) is Rat for x in check.mismatch[2:])
    return report


@given(triples(max_num=9, max_den=6), st.integers(0, 12), st.sampled_from(BASES))
def test_relations_match_the_fraction_oracle(p, d, basis):
    assert assert_same_report(build_R(p, d, basis)).all_pass


nonzero_rationals = rationals(9, 6).filter(bool)


@given(triples(max_num=9, max_den=6), st.integers(0, 12), st.sampled_from(BASES),
       st.sampled_from("ABCD"), nonzero_rationals, st.data())
def test_tampered_relations_match_the_fraction_oracle(p, d, basis, gen, delta, data):
    # one entry of one generator moved, anywhere, off the band included
    rep = build_R(p, d, basis)
    i, j = data.draw(st.integers(0, d)), data.draw(st.integers(0, d))
    tampered = rep._replace(**{gen: nudged(rep.generator(gen), i, j, delta)})
    assert_residual_is_nonzero(assert_same_report(tampered), gen)


def assert_residual_is_nonzero(report, gen):
    """A moved entry of A, B or C moves E = A + B + C - eta I, and one of D
    moves F = [A,B] - 2D, so verify_relations formed that residual's
    products."""
    check = "[A,B] = 2D" if gen == "D" else "A + B + C = eta I"
    assert not {c.name: c for c in report.checks}[check].ok


def test_tampered_relations_at_a_large_six_digit_point():
    p = ParamTriple.of("999983/999979", "-999961/999959", "999953/999931")
    for basis in BASES:
        rep = build_R(p, 16, basis)
        assert assert_same_report(rep).all_pass
        for gen, i, j in (("A", 0, 16), ("B", 9, 3), ("C", 16, 0), ("D", 5, 5), ("A", 7, 8)):
            bad = nudged(rep.generator(gen), i, j, rat(7, 999979))
            tampered = assert_same_report(rep._replace(**{gen: bad}))
            assert_residual_is_nonzero(tampered, gen)


def test_centrality_mismatch_adds_back_the_scalar_part():
    # D(0, 0) moved by 1 at d = 3: alpha is no longer scalar, and its
    # commutator with A first differs at (1, 0), where A is 1, so the
    # reported values include the s * A(1, 0) that EA and AE both leave out
    rep = build_R(P, 3, "v")
    tampered = rep._replace(D=nudged(rep.D, 0, 0, ONE))
    report = assert_same_report(tampered)
    got = {c.name: c for c in report.checks}["alpha commutes with A"]
    expect = {c.name: c for c in verify_relations_oracle(tampered).checks}["alpha commutes with A"]
    assert not got.ok and got.mismatch == expect.mismatch
    i, j = got.mismatch[:2]
    assert (i, j) == (1, 0) and tampered.A.entries[i][j] != 0
    assert rep.scalars.zeta != 0


@pytest.fixture
def mul_calls(monkeypatch):
    """One entry per intmat.mul call through racah.modules and racah.verma."""
    calls, real = [], modules.mul

    def counting(x, y):
        calls.append(None)
        return real(x, y)

    monkeypatch.setattr(modules, "mul", counting)
    monkeypatch.setattr(verma, "mul", counting)
    return calls


@pytest.mark.parametrize("basis", BASES)
def test_verify_relations_takes_8_products_on_a_passing_module(mul_calls, basis):
    # AB, BA, A^2, B^2, AD, DA, BD and DB; the residuals E and F are zero
    # and centrality holds, so none of their products is formed
    report = verify_relations(build_R(P, 5, basis))
    assert report.all_pass and len(mul_calls) == 8


# E != 0 adds AE, EA, BE, EB, ED and DE; F != 0 adds AF, FA, FB and BF
@pytest.mark.parametrize("gen, residual_products", [("C", 6), ("D", 4)])
def test_verify_relations_takes_the_residual_products_on_a_tampered_module(
    mul_calls, gen, residual_products
):
    rep = build_R(P, 5)
    tampered = rep._replace(**{gen: nudged(rep.generator(gen), 2, 3, ONE)})
    report = verify_relations(tampered)
    # each central element that is no longer scalar takes OG and GO for
    # G = A, B, C and D
    nonscalar = sum(not c.ok for c in report.checks[3:6])
    assert nonscalar == 3 and len(mul_calls) == 8 + residual_products + 8 * nonscalar


def test_verma_checks_takes_21_products(mul_calls):
    report = verma_checks(build_verma(P, 2, 12), 2)
    assert all(c.status != "fail" for c in report.checks) and len(mul_calls) == 21
