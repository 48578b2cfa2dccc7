"""Parameter triples (a,b,c), the scalar sequences attached to them, the
sign-flip group action, and the combinatorial irreducibility condition.

Conventions: nu is the free parameter of the infinite-dimensional picture;
the (d+1)-dimensional modules specialize nu = d.  All four index sequences
theta, theta_star, phi, varphi and the central scalars zeta, zeta_star, eta
are polynomials in (a,b,c,nu) evaluated exactly.  theta .. varphi take one
index each; sequences() evaluates all four at once as Python integers over
one common denominator, which is how the matrices are built.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .rational import Rat, HALF, parse_rat, rat


class ParamTriple(NamedTuple):
    a: Rat
    b: Rat
    c: Rat

    @classmethod
    def of(cls, a, b, c) -> "ParamTriple":
        """Coerce the three coordinates; strings go through the strict
        parser, so "1/3" works but "0.5" does not."""

        def conv(x):
            return parse_rat(x) if isinstance(x, str) else rat(x)

        return cls(conv(a), conv(b), conv(c))


class SignFlip(NamedTuple):
    """Element of {+1,-1}^3 acting coordinatewise by x -> -x-1 where the
    component is -1.  Composition is the componentwise product."""

    sa: int
    sb: int
    sc: int


IDENTITY_FLIP = SignFlip(1, 1, 1)

ALL_FLIPS = tuple(
    SignFlip(sa, sb, sc) for sa in (1, -1) for sb in (1, -1) for sc in (1, -1)
)


class Scalars(NamedTuple):
    zeta: Rat
    zeta_star: Rat
    eta: Rat
    gamma: Rat


def act(p: ParamTriple, flip: SignFlip) -> ParamTriple:
    def one(x, s):
        return x if s == 1 else -x - 1

    return ParamTriple(one(p.a, flip.sa), one(p.b, flip.sb), one(p.c, flip.sc))


def canonical(p: ParamTriple) -> tuple[ParamTriple, SignFlip]:
    """Unique orbit representative with every coordinate >= -1/2, and the
    flip carrying p to it.  (-1/2 is the fixed point of x -> -x-1, so the
    representative is well defined even on the boundary.)"""
    flip = SignFlip(*(1 if x >= -HALF else -1 for x in p))
    return act(p, flip), flip


def theta(p: ParamTriple, nu, i: int) -> Rat:
    t = p.a + rat(nu) * HALF - i
    return t * (t + 1)


def theta_star(p: ParamTriple, nu, i: int) -> Rat:
    t = p.b + rat(nu) * HALF - i
    return t * (t + 1)


def phi(p: ParamTriple, nu, i: int) -> Rat:
    nu = rat(nu)
    a, b, c = p
    return (
        rat(i)
        * (i - nu - 1)
        * (a - b + c - nu * HALF + i)
        * (a - b - c - nu * HALF + i - 1)
    )


def varphi(p: ParamTriple, nu, i: int) -> Rat:
    nu = rat(nu)
    a, b, c = p
    return (
        rat(i)
        * (i - nu - 1)
        * (a + b + c + nu * HALF - i + 2)
        * (a + b - c + nu * HALF - i + 1)
    )


def _cleared(p: ParamTriple, nu) -> tuple[int, int, int, int, int, int, int]:
    """(num(nu), den(nu), L, L a, L b, L c, L nu/2), all integers, with
    L = lcm(2 den(nu), den(a), den(b), den(c)): every linear factor of the
    closed forms below is an integer over L."""
    nu = rat(nu)
    num, den = nu.numerator, nu.denominator
    lcd = lcm(2 * den, *(x.denominator for x in p))
    a, b, c = (x.numerator * (lcd // x.denominator) for x in p)
    return num, den, lcd, a, b, c, num * (lcd // (2 * den))


def sequences(
    p: ParamTriple, nu, n: int
) -> tuple[int, list[int], list[int], list[int], list[int]]:
    """(q, theta, theta_star, phi, varphi) at indices 0..n-1, each sequence
    as Python ints over one common denominator q: theta(p, nu, i) equals
    Rat(theta[i], q), and likewise for the other three (phi and varphi
    start with their zero at i = 0).

    With L as in _cleared, theta_i and theta*_i are products of two
    integers over L, and phi_i and varphi_i of two such and of
    i - nu - 1, an integer over den(nu); hence q = den(nu) L^2."""
    num, den, lcd, a, b, c, h = _cleared(p, nu)
    th, ts, ph, vp = [], [], [], []
    for i in range(n):
        t = a + h - lcd * i  # L (a + nu/2 - i)
        s = b + h - lcd * i
        th.append(den * t * (t + lcd))
        ts.append(den * s * (s + lcd))
        head = i * (den * (i - 1) - num)  # den(nu) i (i - nu - 1)
        ph.append(head * (a - b + c - h + lcd * i) * (a - b - c - h + lcd * (i - 1)))
        vp.append(head * (a + b + c + h - lcd * (i - 2)) * (a + b - c + h - lcd * (i - 1)))
    return den * lcd * lcd, th, ts, ph, vp


def scalars(p: ParamTriple, nu) -> Scalars:
    """zeta, zeta_star and gamma over L^4 and eta over L^2, with L as in
    _cleared, each evaluated on integers and divided once."""
    _, _, lcd, a, b, c, h = _cleared(p, nu)
    zeta = (c - b) * (c + b + lcd) * (a - h) * (a + h + lcd)
    zeta_star = (a - c) * (a + c + lcd) * (b - h) * (b + h + lcd)
    eta = h * (h + lcd) + a * (a + lcd) + b * (b + lcd) + c * (c + lcd)
    sq = lcd * lcd
    return Scalars(
        Rat(zeta, sq * sq), Rat(zeta_star, sq * sq), Rat(eta, sq), Rat(-zeta - zeta_star, sq * sq)
    )


# The four linear forms whose values decide irreducibility.
_FORMS = ("a+b+c+1", "-a+b+c", "a-b+c", "a+b-c")


class Witness(NamedTuple):
    form: str
    value: Rat
    i: int  # the index with value = d/2 - i


def in_P(p: ParamTriple, d: int) -> tuple[bool, list[Witness]]:
    """Membership in the good parameter set for dimension d+1: none of the
    four linear forms may land in {d/2 - i : i = 1..d}.  Returns the verdict
    and every violation found.

    The forms are evaluated on integers: with L = lcm(den a, den b, den c),
    L times a form's value is an integer V, and the value is d/2 - i iff
    d L - 2V = 2 L i.  Only a witness's value is made a rational."""
    if d < 0:
        raise ValueError(f"d must be a nonnegative integer, got {d}")
    lcd = lcm(*(x.denominator for x in p))
    a, b, c = (x.numerator * (lcd // x.denominator) for x in p)
    witnesses = []
    for name, value in zip(_FORMS, (a + b + c + lcd, -a + b + c, a - b + c, a + b - c)):
        i, rest = divmod(d * lcd - 2 * value, 2 * lcd)
        if not rest and 1 <= i <= d:
            witnesses.append(Witness(name, Rat(value, lcd), i))
    return (not witnesses), witnesses


def trace_formula(p: ParamTriple, d: int) -> dict[str, Rat]:
    """Traces of the three generators on the (d+1)-dimensional module,
    straight from the coordinate: (d+1) * (x^2 + x + d(d+2)/12)."""
    shift = rat(d * (d + 2), 12)

    def tr(x):
        return (d + 1) * (x * x + x + shift)

    return {"A": tr(p.a), "B": tr(p.b), "C": tr(p.c)}
