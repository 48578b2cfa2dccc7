import pickle

import pytest
from hypothesis import example, given, strategies as st

import racah.poly
from racah import Poly, poly_gcd, rat, squarefree
from racah.poly import monic_scaled, squarefree_integer
from racah.rational import Rat

from conftest import (
    euclid_gcd, poly_derivative, poly_divmod, poly_monic, poly_mul, poly_squarefree, rationals
)


def polys(max_deg=5):
    return st.lists(rationals(), min_size=0, max_size=max_deg + 1).map(Poly)


@given(st.lists(rationals(), max_size=5))
def test_from_roots_and_eval(roots):
    p = Poly.from_roots(roots)
    assert p == Poly(poly_mul(*[[-r, 1] for r in roots]))
    assert p.degree == len(roots) and p.coeffs[-1] == 1
    assert Poly.from_roots([rat(1, 2), -3]) == Poly([rat(-3, 2), rat(5, 2), 1])


def test_coefficient_types_give_equal_polys():
    ints = Poly([1, 0, -3, 1])
    assert ints == Poly([rat(1), rat(0), rat(-3), rat(1)]) == Poly([True, False, -3, True])
    assert all(type(c) is Rat for c in Poly([True, 2, rat(1, 2)]).coeffs)
    assert Poly([rat(1, 2), rat(0)]).coeffs == (rat(1, 2),)
    with pytest.raises(TypeError):
        Poly([0.5])
    with pytest.raises(TypeError):
        Poly([rat(1), 0.5])


def test_pickle_round_trip():
    for p in (Poly([rat(1, 2), 0, -3]), Poly([])):
        assert pickle.loads(pickle.dumps(p)) == p


def test_str_rendering():
    assert str(Poly([-1, 0, 1])) == "x^2 - 1"
    assert str(Poly([])) == "0"
    assert str(Poly([rat(1, 2)])) == "1/2"
    assert str(Poly([0, -1])) == "-x"
    assert str(Poly([2, rat(-3, 2), 1])) == "x^2 - 3/2*x + 2"


def test_gcd_known():
    f = Poly.from_roots([1, 1, 2])
    g = Poly.from_roots([1, 3])
    assert poly_gcd(f, g) == Poly.from_roots([1])
    assert poly_gcd(f, Poly([])) == Poly(poly_monic(f.coeffs))
    assert poly_gcd(Poly([]), Poly([])).is_zero()


@given(polys(4), polys(4))
def test_gcd_is_common_divisor(f, g):
    d = poly_gcd(f, g)
    if d.is_zero():
        assert f.is_zero() and g.is_zero()
    else:
        assert not poly_divmod(f.coeffs, d.coeffs)[1] and not poly_divmod(g.coeffs, d.coeffs)[1]


@given(polys(3), polys(3), polys(2))
def test_gcd_captures_common_factor(f, g, h):
    if h.is_zero():
        return
    d = poly_gcd(Poly(poly_mul(f.coeffs, h.coeffs)), Poly(poly_mul(g.coeffs, h.coeffs)))
    assert not poly_divmod(d.coeffs, h.coeffs)[1]


@st.composite
def gcd_pairs(draw):
    """Two polynomials with a random common factor, each scaled by an
    integer with content, a negative number or a fraction, so that the
    inputs are non-primitive or have a negative leading coefficient; zero
    and constant polynomials come from polys() itself."""
    common = draw(polys(3))
    scales = st.sampled_from([1, -1, 6, -10, 12, rat(-3, 4), rat(5, 6)])
    return tuple(
        Poly(poly_mul(draw(polys(4)).coeffs, common.coeffs, [draw(scales)])) for _ in range(2)
    )


@given(gcd_pairs())
@example((Poly([]), Poly([])))
@example((Poly([]), Poly([-6, 0, 6])))
@example((Poly([rat(-4, 3)]), Poly([])))
@example((Poly([5]), Poly([-7, 2])))
@example((Poly([6, -12, 6]), Poly([-4, 4])))
@example((Poly([2, 0, -2]), Poly([3, 3])))
@example((Poly([rat(1, 2), rat(-1, 3)]), Poly([rat(-3, 4), rat(1, 2)])))
def test_poly_gcd_matches_fraction_euclid(pair):
    f, g = pair
    got = poly_gcd(f, g)
    assert got == Poly(euclid_gcd(f.coeffs, g.coeffs))
    assert got == poly_gcd(g, f)
    assert all(type(c) is Rat for c in got.coeffs)


def test_squarefree():
    assert squarefree(Poly([-1, 0, 1]))  # x^2 - 1
    assert not squarefree(Poly.from_roots([1, 1]))
    assert squarefree(Poly.from_roots([rat(1, 2), rat(1, 3)]))
    assert not squarefree(Poly.from_roots([rat(1, 2), rat(1, 2), 7]))
    assert squarefree(Poly([5]))
    with pytest.raises(ValueError):
        squarefree(Poly([]))


# ------------------------- differential: the modular certificate vs Euclid

Q = 2**61 - 1


def euclid_squarefree(p):
    """squarefree without the modular certificate: gcd(p, p') over Q."""
    return p.degree == 0 or len(euclid_gcd(p.coeffs, poly_derivative(p.coeffs))) == 1


@st.composite
def squarefree_candidates(draw):
    """Products of small rational linear and quadratic factors with
    repeats, or plain random polynomials, times a rational scale."""
    if draw(st.booleans()):
        p = polys(6).filter(lambda p: not p.is_zero())
        return draw(p)
    factors = draw(st.lists(polys(2).filter(lambda f: f.degree >= 1), min_size=1, max_size=4))
    out = [draw(rationals().filter(bool))]
    for f in factors:
        out = poly_mul(out, f.coeffs)
        if draw(st.integers(0, 3)) == 0:
            out = poly_mul(out, f.coeffs)
    return Poly(out)


@given(squarefree_candidates())
def test_squarefree_matches_euclid(p):
    assert squarefree(p) == euclid_squarefree(p)


def euclid_calls(p, monkeypatch):
    """(verdict, number of exact gcd calls) of squarefree(p): the exact
    fallback is the integer remainder sequence behind poly_gcd."""
    calls = []
    real = racah.poly._integer_gcd

    def recording_gcd(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(racah.poly, "_integer_gcd", recording_gcd)
    return squarefree(p), len(calls)


def test_certificate_settles_squarefree_cases(monkeypatch):
    assert euclid_calls(Poly([-2, 0, 1]), monkeypatch) == (True, 0)


def test_fallback_when_the_residue_is_not_squarefree(monkeypatch):
    # x^2 - q is squarefree over Q, but x^2 mod q is a square
    assert euclid_calls(Poly([-Q, 0, 1]), monkeypatch) == (True, 1)
    assert euclid_calls(Poly([Q * Q, 2 * Q, 1]), monkeypatch) == (False, 1)


def test_fallback_when_q_divides_the_leading_coefficient(monkeypatch):
    assert euclid_calls(Poly([1, 0, Q]), monkeypatch) == (True, 1)
    assert euclid_calls(Poly([rat(1, Q), 2, Q]), monkeypatch) == (False, 1)
    assert euclid_calls(Poly([-1, 0, rat(Q, 7)]), monkeypatch) == (True, 1)


@st.composite
def integer_polys(draw):
    """Nonzero integer polynomials, lowest degree first, without trailing
    zeros: random ones, or products of small integer factors with repeats
    (not squarefree), or x^2 - q^k squares mod q."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        cs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=7))
    elif kind == 1:
        factors = draw(
            st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=3), min_size=1, max_size=4)
        )
        p = [1]
        for f in factors:
            p = poly_mul(p, f)
            if draw(st.booleans()):
                p = poly_mul(p, f)
        cs = [int(c) for c in p]
    else:
        k = draw(st.integers(1, 2))
        cs = [-(Q**k), 0, draw(st.sampled_from([1, Q]))]
    while cs and not cs[-1]:
        cs.pop()
    return cs or [draw(st.integers(1, 9))]


@given(integer_polys())
def test_squarefree_integer_matches_the_oracles(ints):
    p = Poly(ints)
    got = squarefree_integer(ints)
    assert got == euclid_squarefree(p) == poly_squarefree(p) == squarefree(p)


@given(integer_polys(), st.integers(1, 30))
def test_squarefree_integer_ignores_the_scale(ints, den):
    # P(den x) is squarefree iff P is, and monic_scaled builds it
    scaled = monic_scaled(ints, den)
    assert scaled.coeffs[-1] == 1
    assert squarefree_integer(ints) == euclid_squarefree(scaled)
    assert scaled == Poly(poly_monic([c * den**i for i, c in enumerate(ints)]))


def test_squarefree_integer_known_cases():
    assert squarefree_integer([7]) and squarefree_integer([3, -2])
    assert squarefree_integer([-2, 0, 1])
    assert not squarefree_integer([1, 2, 1])  # (x + 1)^2
    assert not squarefree_integer([0, 0, 0, 4])  # 4x^3
    assert squarefree_integer([-Q, 0, 1])  # a square mod q only
    assert not squarefree_integer([Q * Q, 2 * Q, 1])  # (x + q)^2
