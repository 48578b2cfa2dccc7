"""Univariate polynomials over the exact rationals.

A Poly is the frozen value a report carries and does no arithmetic.  Its
coefficients are stored lowest-degree first with trailing zeros stripped;
the zero polynomial has an empty coefficient tuple and degree -1.

The squarefreeness test and the gcd run on integer polynomials, plain
lists of ints.  squarefree_integer() is the core: it first tries a
certificate on the polynomial reduced mod the prime 2^61 - 1, and takes the
exact gcd with the derivative (a primitive remainder sequence on
integers) only when the certificate fails.  squarefree() clears a
Poly to such a list and calls it; racah.analyzer calls it directly on the
integer minimal polynomials of racah.linalg, so no Poly is built on that
path but the one the report keeps (monic_scaled).
"""

from __future__ import annotations

from math import gcd, lcm

from .rational import Rat, ZERO, ONE, rat, format_sum


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if type(c) is Rat else rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return (Poly, (self.coeffs,))

    @classmethod
    def from_roots(cls, roots) -> "Poly":
        """Monic polynomial with the given roots (repeats allowed): each
        factor x - r maps the coefficients c to c_(i-1) - r c_i."""
        cs = [ONE]
        for r in roots:
            r = rat(r)
            cs = [a - r * b for a, b in zip([ZERO, *cs], [*cs, ZERO])]
        return cls(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        den = lcm(*[c.denominator for c in self.coeffs])
        pieces = [
            ("" if i == 0 else "x" if i == 1 else f"x^{i}", c.numerator * (den // c.denominator))
            for i, c in reversed(list(enumerate(self.coeffs)))
            if c
        ]
        return format_sum(den, pieces)

    def __repr__(self):
        return f"Poly({self})"


def _integer_gcd(a: list[int], b: list[int]) -> list[int]:
    """A primitive integer multiple of the gcd of two integer polynomials
    (empty when both are zero), by a primitive polynomial remainder
    sequence (Brown 1971, J. ACM 18): both are made primitive, and each
    pseudo-remainder has its content divided out.  By Gauss's lemma the
    last nonzero remainder is a rational multiple of the gcd."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def monic_scaled(ints: list[int], den: int) -> Poly:
    """The monic polynomial P(den*x) / (lead * den^deg) of the nonzero
    integer polynomial P given lowest degree first: the polynomial of a
    matrix M whose cleared integer matrix den*M has the polynomial P."""
    lead = ints[-1] * den ** (len(ints) - 1)
    return Poly([Rat(c * den**i, lead) for i, c in enumerate(ints)])


def _integers(p: Poly) -> list[int]:
    """The coefficients of p times the lcm of their denominators."""
    den = lcm(*[c.denominator for c in p.coeffs])
    return [c.numerator * (den // c.denominator) for c in p.coeffs]


def _primitive(a: list[int]) -> list[int]:
    """The integer polynomial with its content divided out."""
    g = gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by the nonzero b, times a nonzero integer:
    the leading term of a is cancelled by a <- (lc(b)/g) a - (lc(a)/g) x^k b
    with g = gcd(lc(a), lc(b)) until deg a < deg b."""
    a = list(a)
    lb = b[-1]
    while len(a) >= len(b):
        la = a[-1]
        g = gcd(la, lb)
        sa, sb = lb // g, la // g
        shift = len(a) - len(b)
        if sa != 1:
            a = [sa * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= sb * c
        while a and not a[-1]:
            a.pop()
    return a


PRIME = 2**61 - 1  # the modulus of the certificates, here and in racah.analyzer


def squarefree(p: Poly) -> bool:
    """A nonzero polynomial is squarefree iff gcd(p, p') is constant; p
    is cleared of denominators and handed to squarefree_integer()."""
    if p.is_zero():
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    return squarefree_integer(_integers(p))


def squarefree_integer(ints: list[int]) -> bool:
    """Is the nonzero integer polynomial P (lowest degree first, no
    trailing zero) squarefree over Q?  So is P(c*x) for any c != 0, and any
    rational multiple of P.

    A modular certificate settles most cases (modular gcds as in Brown
    1971, J. ACM 18): take the prime q = 2^61 - 1.  If q does not divide
    P's leading coefficient and gcd(P mod q, P' mod q) is constant, P is
    squarefree.  Were g^2 to divide P for a nonconstant g, Gauss's lemma
    gives a primitive integer such g, which keeps its degree mod q and
    divides both residues.  When the certificate fails, the exact gcd of P
    and P' over the integers decides."""
    if len(ints) <= 2:
        return True
    derivative = [i * c for i, c in enumerate(ints)][1:]
    if ints[-1] % PRIME:
        f = [c % PRIME for c in ints]
        df = [c % PRIME for c in derivative]
        if _degree_of_gcd_mod_q(f, df) == 0:
            return True
    return len(_integer_gcd(ints, derivative)) == 1


def _degree_of_gcd_mod_q(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) over the integers mod PRIME, for residue
    coefficient lists (lowest degree first) that are not both zero."""
    a, b = _strip(a), _strip(b)
    while b:
        inv = pow(b[-1], -1, PRIME)
        while len(a) >= len(b):
            f = a[-1] * inv % PRIME
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % PRIME
            a = _strip(a)
        a, b = b, a
    return len(a) - 1


def _strip(cs: list[int]) -> list[int]:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs
