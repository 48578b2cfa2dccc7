import pytest
from hypothesis import given, strategies as st

from racah import (
    ALL_FLIPS,
    IDENTITY_FLIP,
    ParamTriple,
    SignFlip,
    act,
    canonical,
    in_P,
    phi,
    rat,
    scalars,
    theta,
    theta_star,
    trace_formula,
    varphi,
)

from racah.params import sequences
from racah.rational import Rat

from conftest import fraction_scalars, triples, rationals

SIX_DIGITS = 10**6


def any_triples():
    return st.one_of(triples(), triples(max_num=SIX_DIGITS, max_den=SIX_DIGITS))


def any_nus():
    # integer nu (the finite modules) and rational nu (the Verma ladder)
    return st.one_of(
        st.integers(-8, 40), rationals(40, 7), rationals(SIX_DIGITS, SIX_DIGITS)
    )

# A generic-looking triple used for the frozen values below; every number
# in this block was computed by hand and is deliberately hard-coded.
P = ParamTriple.of("1/3", "-2/5", "7/4")
NU = 3


def test_theta_frozen():
    assert theta(P, NU, 2) == rat(-5, 36)


def test_theta_star_frozen():
    assert theta_star(P, NU, 2) == rat(-9, 100)


def test_phi_frozen():
    assert phi(P, NU, 2) == rat(16289, 900)


def test_varphi_frozen():
    assert varphi(P, NU, 2) == rat(15089, 900)


def test_scalars_frozen():
    s = scalars(P, NU)
    assert s.zeta == rat(-240499, 14400)
    assert s.zeta_star == rat(83657, 4800)
    assert s.eta == rat(31561, 3600)
    assert s.gamma == -s.zeta - s.zeta_star


def test_symmetric_point_sequences():
    # the all -1/2 point with nu = 4: palindromic theta, phi = varphi
    p = ParamTriple.of("-1/2", "-1/2", "-1/2")
    ths = [theta(p, 4, i) for i in range(5)]
    assert ths == [rat(15, 4), rat(3, 4), rat(-1, 4), rat(3, 4), rat(15, 4)]
    assert [theta_star(p, 4, i) for i in range(5)] == ths
    vps = [varphi(p, 4, i) for i in range(1, 5)]
    assert vps == [rat(-9), rat(-3, 2), rat(-3, 2), rat(-9)]
    assert [phi(p, 4, i) for i in range(1, 5)] == vps


def test_theta_star_is_theta_with_a_b_swapped():
    q = ParamTriple(P.b, P.a, P.c)
    for i in range(5):
        assert theta_star(P, NU, i) == theta(q, NU, i)


@given(rationals(), rationals(), st.integers(1, 6))
def test_theta_three_term_recurrences(a, nu, i):
    p = ParamTriple(a, rat(0), rat(0))
    t0, t1, t2 = (theta(p, nu, j) for j in (i - 1, i, i + 1))
    assert t2 + t0 == 2 * (t1 + 1)
    assert t2 * t0 == t1 * (t1 - 2)


@given(triples(), st.integers(0, 6))
def test_theta_flip_reversal(p, d):
    pa = act(p, SignFlip(-1, 1, 1))
    pb = act(p, SignFlip(1, -1, 1))
    for i in range(d + 1):
        assert theta(pa, d, i) == theta(p, d, d - i)
        assert theta_star(pb, d, i) == theta_star(p, d, d - i)


@given(triples(), st.integers(1, 6))
def test_varphi_flip_covariance(p, d):
    pa = act(p, SignFlip(-1, 1, 1))
    pb = act(p, SignFlip(1, -1, 1))
    for i in range(1, d + 1):
        assert varphi(pa, d, i) == phi(p, d, i)
        assert varphi(pb, d, i) == phi(p, d, d - i + 1)


@given(triples(), st.integers(0, 6))
def test_scalars_invariant_under_flips(p, d):
    s = scalars(p, d)
    for flip in ALL_FLIPS:
        assert scalars(act(p, flip), d) == s


# ----------------------------------------------------------------- flips

def test_act_known():
    p = ParamTriple.of(-2, 0, "-3/4")
    assert act(p, SignFlip(-1, 1, -1)) == ParamTriple.of(1, 0, "-1/4")
    assert act(p, IDENTITY_FLIP) == p


def test_all_flips_enumeration():
    assert len(ALL_FLIPS) == 8
    assert len(set(ALL_FLIPS)) == 8
    assert IDENTITY_FLIP in ALL_FLIPS


@given(triples())
def test_act_is_an_involution(p):
    for flip in ALL_FLIPS:
        assert act(act(p, flip), flip) == p


@given(triples())
def test_act_respects_composition(p):
    for f in ALL_FLIPS:
        for g in ALL_FLIPS:
            fg = SignFlip(f.sa * g.sa, f.sb * g.sb, f.sc * g.sc)
            assert act(p, fg) == act(act(p, g), f)


def test_canonical_known():
    assert canonical(P) == (P, IDENTITY_FLIP)
    p = ParamTriple.of(-2, 0, "-3/4")
    cp, flip = canonical(p)
    assert cp == ParamTriple.of(1, 0, "-1/4")
    assert flip == SignFlip(-1, 1, -1)
    # the fixed point of the coordinate involution stays put
    half = ParamTriple.of("-1/2", "-1/2", "-1/2")
    assert canonical(half)[0] == half


@given(triples())
def test_canonical_representative(p):
    cp, flip = canonical(p)
    assert act(p, flip) == cp
    assert all(x >= rat(-1, 2) for x in cp)
    assert canonical(cp) == (cp, IDENTITY_FLIP)
    # constant on the whole orbit
    for f in ALL_FLIPS:
        assert canonical(act(p, f))[0] == cp


# --------------------------------------------------------- irreducibility

def test_in_P_generic_point():
    ok, witnesses = in_P(P, 3)
    assert ok and witnesses == []


def test_in_P_single_witness():
    ok, witnesses = in_P(ParamTriple.of(1, 1, "-7/2"), 1)
    assert not ok
    assert len(witnesses) == 1
    w = witnesses[0]
    assert w.form == "a+b+c+1"
    assert w.value == rat(-1, 2)
    assert w.i == 1


def test_in_P_multiple_witnesses():
    ok, witnesses = in_P(ParamTriple.of(0, 0, -1), 2)
    assert not ok
    got = {(w.form, w.i) for w in witnesses}
    assert got == {("a+b+c+1", 1), ("-a+b+c", 2), ("a-b+c", 2)}


def test_in_P_trivial_dimension():
    assert in_P(ParamTriple.of(0, 0, -1), 0) == (True, [])


def test_in_P_rejects_negative_d():
    with pytest.raises(ValueError):
        in_P(P, -1)


@given(triples(max_num=4, max_den=4), st.integers(0, 5))
def test_in_P_witnesses_are_honest(p, d):
    ok, witnesses = in_P(p, d)
    assert ok == (not witnesses)
    for w in witnesses:
        assert w.value == rat(d) / 2 - w.i
        assert 1 <= w.i <= d


@given(triples(max_num=4, max_den=2), st.integers(0, 5))
def test_in_P_flip_invariant(p, d):
    ok, witnesses = in_P(p, d)
    for flip in ALL_FLIPS:
        fok, fwitnesses = in_P(act(p, flip), d)
        assert fok == ok
        assert len(fwitnesses) == len(witnesses)


# ------------------------------------------------------------------ traces

def test_trace_formula_symmetric_point():
    p = ParamTriple.of("-1/2", "-1/2", "-1/2")
    assert trace_formula(p, 4) == {
        "A": rat(35, 4),
        "B": rat(35, 4),
        "C": rat(35, 4),
    }


def test_trace_formula_dimension_zero():
    assert trace_formula(P, 0) == {
        "A": P.a * P.a + P.a,
        "B": P.b * P.b + P.b,
        "C": P.c * P.c + P.c,
    }


@given(triples(), st.integers(0, 6))
def test_trace_formula_flip_invariant(p, d):
    t = trace_formula(p, d)
    for flip in ALL_FLIPS:
        assert trace_formula(act(p, flip), d) == t


@given(any_triples(), any_nus(), st.integers(1, 12))
def test_sequences_match_the_per_index_forms(p, nu, n):
    q, th, ts, ph, vp = sequences(p, nu, n)
    assert (len(th), len(ts), len(ph), len(vp)) == (n, n, n, n)
    for i in range(n):
        assert Rat(th[i], q) == theta(p, nu, i)
        assert Rat(ts[i], q) == theta_star(p, nu, i)
        assert Rat(ph[i], q) == phi(p, nu, i)
        assert Rat(vp[i], q) == varphi(p, nu, i)


def test_sequences_common_denominator():
    # L = lcm(2*7, 3, 5, 4) = 420 and q = den(nu) L^2
    q, th, ts, ph, vp = sequences(P, rat(5, 7), 1)
    assert q == 7 * 420**2
    assert (ph, vp) == ([0], [0])
    assert Rat(th[0], q) == theta(P, rat(5, 7), 0)
    assert Rat(ts[0], q) == theta_star(P, rat(5, 7), 0)
    q, *_ = sequences(P, NU, 3)
    assert q == 60**2


@given(any_triples(), any_nus())
def test_scalars_match_the_fraction_forms(p, nu):
    assert scalars(p, nu) == fraction_scalars(p, nu)
