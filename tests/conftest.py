import random

from hypothesis import HealthCheck, settings, strategies as st

from racah import Mat, ParamTriple, rat

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
