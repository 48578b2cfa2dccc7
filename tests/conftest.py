import random

from hypothesis import HealthCheck, settings, strategies as st

from racah import Mat, ParamTriple, Scalars, rat
from racah.rational import HALF

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


def rationals(max_num=9, max_den=9):
    return st.builds(
        lambda n, d: rat(n, d),
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def triples(max_num=9, max_den=9):
    r = rationals(max_num, max_den)
    return st.builds(ParamTriple, r, r, r)


# c as a function of (a, b, t) that puts each reducibility form at t
ONTO_FORM = (
    lambda a, b, t: t - a - b - 1,  # a+b+c+1
    lambda a, b, t: t + a - b,  # -a+b+c
    lambda a, b, t: t - a + b,  # a-b+c
    lambda a, b, t: a + b - t,  # a+b-c
)


@st.composite
def module_points(draw, max_d=16):
    """(p, d) with small or 6-digit coordinates; half of the draws with
    d > 0 move c onto one of the four reducibility forms at d/2 - i for
    some i in 1..d, where a phi_i or varphi_i vanishes."""
    d = draw(st.integers(0, max_d))
    p = draw(st.one_of(triples(), triples(max_num=10**6, max_den=10**6)))
    if d and draw(st.booleans()):
        t = rat(d, 2) - draw(st.integers(1, d))
        p = ParamTriple(p.a, p.b, draw(st.sampled_from(ONTO_FORM))(p.a, p.b, t))
    return p, d


def fraction_scalars(p, nu):
    """params.scalars as per-term Fraction arithmetic, before it ran on
    integers over a common denominator; kept as its oracle."""
    nu = rat(nu)
    a, b, c = p
    half_nu = nu * HALF
    zeta = (c - b) * (c + b + 1) * (a - half_nu) * (a + half_nu + 1)
    zeta_star = (a - c) * (a + c + 1) * (b - half_nu) * (b + half_nu + 1)
    eta = half_nu * (half_nu + 1) + a * (a + 1) + b * (b + 1) + c * (c + 1)
    return Scalars(zeta, zeta_star, eta, -zeta - zeta_star)


def random_rat(rng: random.Random, max_num=9, max_den=9):
    return rat(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_triple(rng: random.Random, max_num=9, max_den=9) -> ParamTriple:
    return ParamTriple(
        random_rat(rng, max_num, max_den),
        random_rat(rng, max_num, max_den),
        random_rat(rng, max_num, max_den),
    )


def presentation_identities_oracle(a, b, ab, ba, ident, sc):
    """(name, lhs, rhs) of the AAB and ABB presentation identities as dense
    Fraction Mat products: the routine modules.presentation_identities
    replaced with cleared integer rows, kept as the oracle of
    verify_relations and verma_checks."""
    zeta, zeta_star, eta, _ = sc
    a2, b2 = a * a, b * b
    lhs_aab = a2 * b - (a * ba).scale(2) + ba * a - ab.scale(2) - ba.scale(2)
    rhs_aab = a2.scale(2) - a.scale(2 * eta) + ident.scale(2 * zeta)
    lhs_abb = a * b2 - (b * ab).scale(2) + b2 * a - ab.scale(2) - ba.scale(2)
    rhs_abb = b2.scale(2) - b.scale(2 * eta) - ident.scale(2 * zeta_star)
    return (("AAB", lhs_aab, rhs_aab), ("ABB", lhs_abb, rhs_abb))


def commutator(x, y):
    """[x, y] = x*y - y*x of two Mats."""
    return x * y - y * x


def nudged(m, i, j, delta):
    """The Mat m with delta added to entry (i, j)."""
    rows = [list(row) for row in m.entries]
    rows[i][j] += delta
    return Mat(rows)
