"""Construction of the (d+1)-dimensional modules R_d(a,b,c) and structural
verification of the defining relations on them.

Three distinguished bases are supported:
  v: A lower bidiagonal (diagonal theta_0..theta_d, subdiagonal 1),
     B upper bidiagonal (diagonal theta*_0..theta*_d, superdiagonal
     varphi_1..varphi_d);
  w: A lower bidiagonal with reversed diagonal theta_d..theta_0,
     B upper bidiagonal (diagonal theta*_0..theta*_d, superdiagonal
     phi_1..phi_d);
  u: A as in v, B upper bidiagonal with reversed diagonal theta*_d..theta*_0
     and superdiagonal phi_d..phi_1.
In every basis C = eta*I - A - B and D = (AB - BA)/2, both tridiagonal, and
all four are integer bands (params.sequences): A, B, C over q, D over 2q^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intmat import Rows, clear, combine, mul, scalar
from .matrix import Mat
from .params import ParamTriple, Scalars, scalars, sequences
from .rational import Rat

BASES = ("v", "w", "u")


@dataclass(frozen=True)
class ModuleRep:
    d: int
    params: ParamTriple
    basis: str
    A: Mat
    B: Mat
    C: Mat
    D: Mat
    scalars: Scalars
    # params.sequences at indices 0..d, as build_R evaluated them
    _sequences: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.d + 1

    def generator(self, name: str) -> Mat:
        try:
            return {"A": self.A, "B": self.B, "C": self.C, "D": self.D}[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None


def build_R(p: ParamTriple, d: int, basis: str = "v") -> ModuleRep:
    """The (d+1)-dimensional module with parameters p in the given basis."""
    if not isinstance(d, int) or d < 0:
        raise ValueError(f"d must be a nonnegative integer, got {d!r}")
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    n = d + 1
    q, th, ts, ph, vp = seqs = sequences(p, d, n)
    if basis == "v":
        a, b, u = th, ts, vp[1:]
    elif basis == "w":
        a, b, u = th[::-1], ts, ph[1:]
    else:  # u
        a, b, u = th, ts[::-1], ph[:0:-1]
    sc = scalars(p, d)
    eta = sc.eta.numerator * (q // sc.eta.denominator)  # eta * q
    # a, b and B's superdiagonal u are at scale q; A's subdiagonal is all ones
    zeros, uu = [0] * d, [0, *u, 0]
    a_mat = _band(q, a, [q] * d, zeros)
    b_mat = _band(q, b, zeros, u)
    c_mat = _band(q, [eta - x - y for x, y in zip(a, b)], [-q] * d, [-x for x in u])
    d_mat = _band(
        2 * q * q,
        [(uu[i] - uu[i + 1]) * q for i in range(n)],
        [(b[i] - b[i + 1]) * q for i in range(d)],
        [(a[i] - a[i + 1]) * x for i, x in enumerate(u)],
    )
    return ModuleRep(d, p, basis, a_mat, b_mat, c_mat, d_mat, sc, seqs)


def _band(den: int, diag: list[int], sub: list[int], sup: list[int]) -> Mat:
    """The square matrix over den with an integer diagonal, sub- and
    superdiagonal; Mat.from_cleared divides out their common factor."""
    sub, sup = [0, *sub], [*sup, 0]
    rows = [
        {j: x for j, x in ((i - 1, sub[i]), (i, y), (i + 1, sup[i])) if x}
        for i, y in enumerate(diag)
    ]
    return Mat.from_cleared(den, rows, len(diag))


@dataclass(frozen=True)
class RelationCheck:
    name: str
    ok: bool
    # on failure: (row, col, lhs entry, rhs entry) of the first mismatch
    mismatch: tuple[int, int, Rat, Rat] | None = None


@dataclass(frozen=True)
class RelationReport:
    d: int
    params: ParamTriple
    basis: str
    checks: tuple[RelationCheck, ...] = field(default_factory=tuple)

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.ok]


def _compare(
    name: str, lhs: Rows, rhs: Rows, scale: int, common: Rows | None = None
) -> RelationCheck:
    """Compare two sides given at the same scale, as cleared integer rows;
    a mismatch is the first differing entry in row-major order.  common,
    when given, is a term both sides share that lhs and rhs leave out: it
    moves no mismatch, and is added back to the two values reported."""
    for i, (left, right) in enumerate(zip(lhs, rhs)):
        if left != right:
            j = min(k for k in left.keys() | right.keys() if left.get(k) != right.get(k))
            shift = common[i].get(j, 0) if common else 0
            return RelationCheck(
                name,
                False,
                (i, j, Rat(left.get(j, 0) + shift, scale), Rat(right.get(j, 0) + shift, scale)),
            )
    return RelationCheck(name, True)


def verify_relations(rep: ModuleRep) -> RelationReport:
    """Check every defining relation of the algebra on the four matrices:
    the commutator relations, the scalar action of the central elements,
    centrality itself, and the two degree-3 presentation identities.

    The matrices and the central scalars are cleared together once (den
    times each, as sparse integer rows), and each identity is compared at
    den^k for its degree k: a product of k generators, or of scalars and
    generators, is a product of k cleared factors, and a term of lower
    degree is multiplied up by the missing powers of den.

    A module that passes costs 18 products: AB, BA, BC, CB, CA and AC, the
    six of D with A, B and C in the central elements, and the six of the
    presentation identities.  A central element M at den^2 is s*I + E for
    its scalar s, and s*I commutes with everything, so MG - GM = EG - GE
    for each generator G: centrality is checked on the off-scalar part E,
    and costs no product when the scalar check found E = 0.  The
    presentation identities take their left sides as nested commutators
    (presentation_identities)."""
    n = rep.dim
    den, (a, b, c, dd), (zeta, zeta_star, eta, gamma) = clear(
        (rep.A, rep.B, rep.C, rep.D), rep.scalars
    )
    sq = den * den

    ab, ba = mul(a, b), mul(b, a)
    bc, cb = mul(b, c), mul(c, b)
    ca, ac = mul(c, a), mul(a, c)
    two_d = combine((2 * den, dd))

    # the central elements at den^2, each with its scalar there
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
        # the off-scalar part E = M - s I, zero when the scalar check passed
        off = None if scalar_check.ok else combine((1, m), (-s, scalar(n, 1)))
        for gname, gen in (("A", a), ("B", b), ("C", c), ("D", dd)):
            check_name = f"{name} commutes with {gname}"
            if off is None:
                checks.append(RelationCheck(check_name, True))
            else:
                lhs, rhs = mul(off, gen), mul(gen, off)
                checks.append(_compare(check_name, lhs, rhs, cube, combine((s, gen))))

    for name, lhs, rhs in presentation_identities(a, b, ab, ba, den, zeta, zeta_star, eta):
        checks.append(_compare(f"{name} presentation identity", lhs, rhs, cube))

    return RelationReport(rep.d, rep.params, rep.basis, tuple(checks))


def presentation_identities(
    a: Rows, b: Rows, ab: Rows, ba: Rows, den: int, zeta: int, zeta_star: int, eta: int
):
    """(name, lhs, rhs) of the AAB and ABB degree-3 presentation identities
    at den^3, as integer rows.  a, b and the scalars are cleared with den
    (each is den times its value), and ab = a*b, ba = b*a (at den^2) are
    the products the caller already holds; a term of degree k < 3 is
    multiplied by den^(3-k).  The left sides are taken as nested commutators,
    [A,[A,B]] = A^2 B - 2ABA + BA^2 and [[A,B],B] = AB^2 - 2BAB + B^2 A,
    the same integers from 4 products instead of 6; with A^2 and B^2 for
    the right sides, the two identities cost 6 products."""
    ident = scalar(len(a), 1)
    comm = combine((1, ab), (-1, ba))  # [A,B] at den^2
    a2, b2 = mul(a, a), mul(b, b)
    quadratic = ((-2 * den, ab), (-2 * den, ba))
    lhs_aab = combine((1, mul(a, comm)), (-1, mul(comm, a)), *quadratic)
    rhs_aab = combine((2 * den, a2), (-2 * den * eta, a), (2 * den * den * zeta, ident))
    lhs_abb = combine((1, mul(comm, b)), (-1, mul(b, comm)), *quadratic)
    rhs_abb = combine((2 * den, b2), (-2 * den * eta, b), (-2 * den * den * zeta_star, ident))
    return (("AAB", lhs_aab, rhs_aab), ("ABB", lhs_abb, rhs_abb))
