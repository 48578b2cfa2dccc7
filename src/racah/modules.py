"""Construction of the (d+1)-dimensional modules R_d(a,b,c) and structural
verification of the defining relations on them.

The v basis is the one layout: A lower bidiagonal (diagonal
theta_0..theta_d, subdiagonal 1), B upper bidiagonal (diagonal
theta*_0..theta*_d, superdiagonal varphi_1..varphi_d).  The w and u bases
of R_d(p) are the v bases of R_d(act(p, f_a)) and R_d(act(p, f_b)), for
f_a = SignFlip(-1, 1, 1) and f_b = SignFlip(1, -1, 1): w reverses A's
diagonal and has B's superdiagonal phi_1..phi_d, u reverses B's diagonal
and has phi_d..phi_1.  f_c = SignFlip(1, 1, -1) leaves the v basis as it is.
In every basis C = eta*I - A - B and D = (AB - BA)/2, both tridiagonal, and
all four are integer bands (params.sequences): A, B, C over q, D over 2q^2.
build_bands() forms the rows of A, B and C, which is all analyze() reads;
build_R() adds D and wraps the four into Mats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .intmat import Rows, clear, combine, mul, scalar
from .matrix import Mat
from .params import IDENTITY_FLIP, ParamTriple, Scalars, SignFlip, act, scalars, sequences
from .rational import Rat

BASES = ("v", "w", "u")
_FLIPS = {"v": IDENTITY_FLIP, "w": SignFlip(-1, 1, 1), "u": SignFlip(1, -1, 1)}


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
    # params.sequences at indices 0..d of the flipped triple, as build_R evaluated them
    _sequences: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.d + 1

    def generator(self, name: str) -> Mat:
        try:
            return {"A": self.A, "B": self.B, "C": self.C, "D": self.D}[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None


class Bands(NamedTuple):
    """A, B and C of R_d(p) in one basis, each as sparse integer rows over
    the common denominator q of params.sequences (q times the matrix, no
    zero stored, no common factor divided out), with the central scalars
    and the flipped triple's sequences at indices 0..d they were formed from."""

    q: int
    A: Rows
    B: Rows
    C: Rows
    scalars: Scalars
    sequences: tuple


def build_bands(p: ParamTriple, d: int, basis: str = "v") -> Bands:
    """The integer bands of A, B and C that build_R wraps into Mats: the v
    bands of the flipped triple, evaluating its sequences and scalars once."""
    if not isinstance(d, int) or d < 0:
        raise ValueError(f"d must be a nonnegative integer, got {d!r}")
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    p = act(p, _FLIPS[basis])
    seqs = sequences(p, d, d + 1)
    q, th, ts, _, vp = seqs
    sc = scalars(p, d)
    eta = sc.eta.numerator * (q // sc.eta.denominator)  # eta * q
    # th, ts and B's superdiagonal u are at scale q; A's subdiagonal is all ones
    u = vp[1:]
    zeros = [0] * d
    return Bands(
        q,
        _band_rows(th, [q] * d, zeros),
        _band_rows(ts, zeros, u),
        _band_rows([eta - x - y for x, y in zip(th, ts)], [-q] * d, [-x for x in u]),
        sc,
        seqs,
    )


def build_R(p: ParamTriple, d: int, basis: str = "v") -> ModuleRep:
    """The (d+1)-dimensional module with parameters p in the given basis:
    the bands of build_bands() and D = (AB - BA)/2, over 2q^2, as Mats."""
    bands = build_bands(p, d, basis)
    n, q = d + 1, bands.q
    _, th, ts, _, vp = bands.sequences
    uu = [*vp, 0]  # B's superdiagonal between two zeros: varphi_0 = 0
    d_rows = _band_rows(
        [(uu[i] - uu[i + 1]) * q for i in range(n)],
        [(ts[i] - ts[i + 1]) * q for i in range(d)],
        [(th[i] - th[i + 1]) * x for i, x in enumerate(vp[1:])],
    )
    a_mat, b_mat, c_mat = (Mat.from_cleared(q, rows, n) for rows in (bands.A, bands.B, bands.C))
    d_mat = Mat.from_cleared(2 * q * q, d_rows, n)
    return ModuleRep(d, p, basis, a_mat, b_mat, c_mat, d_mat, bands.scalars, bands.sequences)


def _band_rows(diag: list[int], sub: list[int], sup: list[int]) -> Rows:
    """The sparse rows of the square integer matrix with the given
    diagonal, subdiagonal and superdiagonal, zeros dropped."""
    sub, sup = [0, *sub], [*sup, 0]
    return [
        {j: x for j, x in ((i - 1, sub[i]), (i, y), (i + 1, sup[i])) if x}
        for i, y in enumerate(diag)
    ]


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
    if lhs == rhs:
        return RelationCheck(name, True)
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

    A module that passes costs 8 products: AB, BA, A^2, B^2, AD, DA, BD
    and DB.  Every other side is obtained from them, as the same integer
    rows, through two residuals: E = A + B + C - eta I, which the check
    "A + B + C = eta I" compares with zero, and F = [A,B] - 2D, the
    difference of the two sides of "[A,B] = 2D".  Since C = eta I - A - B + E
    and [A,B] = 2D + F:
      [B,C] = [A,B] + [B,E] and [C,A] = [A,B] + [E,A];
      AC = AE + eta A - A^2 - AB and CB = EB + eta B - AB - B^2, in
      alpha = [A,D] + AC - BA and beta = [B,D] + BA - CB;
      gamma = [E,D] - alpha - beta, as alpha + beta + gamma = [A+B+C, D];
      [A,[A,B]] = 2[A,D] + [A,F] and [[A,B],B] = 2[D,B] + [F,B], the
      nested commutators of the presentation identities
      (presentation_identities).
    A product with E or F is formed only when that residual is nonzero.
    A central element M at den^2 is s*I + O for its scalar s, and s*I
    commutes with everything, so MG - GM = OG - GO for each generator G:
    centrality is checked on the off-scalar part O, and costs no product
    when the scalar check found O = 0."""
    n = rep.dim
    den, (a, b, c, dd), (zeta, zeta_star, eta, gamma) = clear(
        (rep.A, rep.B, rep.C, rep.D), rep.scalars
    )
    sq = den * den
    ident, zero = scalar(n, 1), scalar(n, 0)

    ab, ba, a2, b2 = mul(a, b), mul(b, a), mul(a, a), mul(b, b)
    ad_da = combine((1, mul(a, dd)), (-1, mul(dd, a)))  # [A,D] at den^2
    bd_db = combine((1, mul(b, dd)), (-1, mul(dd, b)))  # [B,D] at den^2
    comm = combine((1, ab), (-1, ba))  # [A,B] at den^2
    two_d = combine((2 * den, dd))
    e = combine((1, a), (1, b), (1, c), (-eta, ident))  # E at den
    f = combine((1, comm), (-1, two_d))  # F at den^2
    # what each residual adds, with no product when it is zero
    ae = eb = ed_de = zero
    bc_cb = ca_ac = comm
    if any(e):
        ae, eb = mul(a, e), mul(e, b)
        bc_cb = combine((1, comm), (1, mul(b, e)), (-1, eb))
        ca_ac = combine((1, comm), (1, mul(e, a)), (-1, ae))
        ed_de = combine((1, mul(e, dd)), (-1, mul(dd, e)))
    aab = [(2 * den, ad_da)]  # [A,[A,B]] at den^3, as combine terms
    abb = [(-2 * den, bd_db)]  # [[A,B],B] at den^3, as combine terms
    if any(f):
        aab += [(1, mul(a, f)), (-1, mul(f, a))]
        abb += [(1, mul(f, b)), (-1, mul(b, f))]

    # the central elements at den^2, each with its scalar there
    alpha_mat = combine((1, ad_da), (1, ae), (eta, a), (-1, a2), (-1, ab), (-1, ba))
    beta_mat = combine((1, bd_db), (1, ba), (-1, eb), (-eta, b), (1, ab), (1, b2))
    gamma_mat = combine((1, ed_de), (-1, alpha_mat), (-1, beta_mat))
    centrals = (
        ("alpha", "zeta", den * zeta, alpha_mat),
        ("beta", "zeta_star", den * zeta_star, beta_mat),
        ("gamma", "gamma_scalar", den * gamma, gamma_mat),
    )

    scalar_checks = [
        _compare(f"{name} = {s_name} I", m, scalar(n, s), sq) for name, s_name, s, m in centrals
    ]
    checks = [
        _compare("[A,B] = 2D", comm, two_d, sq),
        _compare("[B,C] = 2D", bc_cb, two_d, sq),
        _compare("[C,A] = 2D", ca_ac, two_d, sq),
        *scalar_checks,
        _compare("A + B + C = eta I", e, zero, den, scalar(n, eta)),
    ]
    cube = sq * den
    for (name, _, s, m), scalar_check in zip(centrals, scalar_checks):
        # the off-scalar part O = M - s I, zero when the scalar check passed
        off = None if scalar_check.ok else combine((1, m), (-s, ident))
        for gname, gen in (("A", a), ("B", b), ("C", c), ("D", dd)):
            check_name = f"{name} commutes with {gname}"
            if off is None:
                checks.append(RelationCheck(check_name, True))
            else:
                lhs, rhs = mul(off, gen), mul(gen, off)
                checks.append(_compare(check_name, lhs, rhs, cube, combine((s, gen))))

    identities = presentation_identities(a, b, a2, b2, ab, ba, aab, abb, den, zeta, zeta_star, eta)
    for name, lhs, rhs in identities:
        checks.append(_compare(f"{name} presentation identity", lhs, rhs, cube))

    return RelationReport(rep.d, rep.params, rep.basis, tuple(checks))


def presentation_identities(
    a: Rows, b: Rows, a2: Rows, b2: Rows, ab: Rows, ba: Rows,
    aab: list[tuple[int, Rows]], abb: list[tuple[int, Rows]],
    den: int, zeta: int, zeta_star: int, eta: int,
):
    """(name, lhs, rhs) of the AAB and ABB degree-3 presentation identities
    at den^3, as integer rows.  a, b and the scalars are cleared with den
    (each is den times its value); a2, b2, ab and ba are the products A^2,
    B^2, AB and BA at den^2, and aab and abb the nested commutators
    [A,[A,B]] = A^2 B - 2ABA + BA^2 and [[A,B],B] = AB^2 - 2BAB + B^2 A at
    den^3 as combine terms (coefficient, rows), all formed by the caller; a
    term of degree k < 3 is multiplied by den^(3-k).  The identities
    themselves take no product."""
    ident = scalar(len(a), 1)
    quadratic = ((-2 * den, ab), (-2 * den, ba))
    lhs_aab = combine(*aab, *quadratic)
    rhs_aab = combine((2 * den, a2), (-2 * den * eta, a), (2 * den * den * zeta, ident))
    lhs_abb = combine(*abb, *quadratic)
    rhs_abb = combine((2 * den, b2), (-2 * den * eta, b), (-2 * den * den * zeta_star, ident))
    return (("AAB", lhs_aab, rhs_aab), ("ABB", lhs_abb, rhs_abb))
