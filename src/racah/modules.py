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
In every basis C = eta*I - A - B and D = (AB - BA)/2, both tridiagonal and
built entry by entry on their band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .matrix import Mat, commutator, lower_bidiagonal, tridiagonal, upper_bidiagonal
from .params import ParamTriple, Scalars, phi, scalars, theta, theta_star, varphi
from .rational import HALF, ONE, ZERO, Rat

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
    th = [theta(p, d, i) for i in range(n)]
    ts = [theta_star(p, d, i) for i in range(n)]
    ph = [phi(p, d, i) for i in range(1, n)]
    vp = [varphi(p, d, i) for i in range(1, n)]
    if basis == "v":
        a, b, u = th, ts, vp
    elif basis == "w":
        a, b, u = th[::-1], ts, ph
    else:  # u
        a, b, u = th, ts[::-1], ph[::-1]
    sc = scalars(p, d)
    # C and D on their band, from the diagonals a, b and B's superdiagonal u
    # (A's subdiagonal is all ones)
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


def _compare(name: str, lhs: Mat, rhs: Mat) -> RelationCheck:
    diff = lhs - rhs
    hit = diff.first_nonzero()
    if hit is None:
        return RelationCheck(name, True)
    i, j, _ = hit
    return RelationCheck(name, False, (i, j, lhs.entries[i][j], rhs.entries[i][j]))


def verify_relations(rep: ModuleRep) -> RelationReport:
    """Check every defining relation of the algebra on the four matrices:
    the commutator relations, the scalar action of the central elements,
    centrality itself, and the two degree-3 presentation identities."""
    a, b, c, dd = rep.A, rep.B, rep.C, rep.D
    n = rep.dim
    ident = Mat.identity(n)
    zeta, zeta_star, eta, gamma = rep.scalars

    ab, ba = a * b, b * a
    bc, cb = b * c, c * b
    ca, ac = c * a, a * c
    two_d = dd.scale(2)

    alpha_mat = commutator(a, dd) + ac - ba
    beta_mat = commutator(b, dd) + ba - cb
    gamma_mat = commutator(c, dd) + cb - ac

    checks = [
        _compare("[A,B] = 2D", ab - ba, two_d),
        _compare("[B,C] = 2D", bc - cb, two_d),
        _compare("[C,A] = 2D", ca - ac, two_d),
        _compare("alpha = zeta I", alpha_mat, ident.scale(zeta)),
        _compare("beta = zeta_star I", beta_mat, ident.scale(zeta_star)),
        _compare("gamma = gamma_scalar I", gamma_mat, ident.scale(gamma)),
        _compare("A + B + C = eta I", a + b + c, ident.scale(eta)),
    ]
    for name, central in (("alpha", alpha_mat), ("beta", beta_mat), ("gamma", gamma_mat)):
        for gname, gen in (("A", a), ("B", b), ("C", c), ("D", dd)):
            checks.append(
                _compare(f"{name} commutes with {gname}", central * gen, gen * central)
            )

    for name, lhs, rhs in presentation_identities(a, b, ab, ba, ident, rep.scalars):
        checks.append(_compare(f"{name} presentation identity", lhs, rhs))

    return RelationReport(rep.d, rep.params, rep.basis, tuple(checks))


def presentation_identities(a: Mat, b: Mat, ab: Mat, ba: Mat, ident: Mat, sc: Scalars):
    """(name, lhs, rhs) of the AAB and ABB degree-3 presentation identities,
    built from the products ab = A*B and ba = B*A the caller already holds."""
    zeta, zeta_star, eta, _ = sc
    a2, b2 = a * a, b * b
    lhs_aab = a2 * b - (a * ba).scale(2) + ba * a - ab.scale(2) - ba.scale(2)
    rhs_aab = a2.scale(2) - a.scale(2 * eta) + ident.scale(2 * zeta)
    lhs_abb = a * b2 - (b * ab).scale(2) + b2 * a - ab.scale(2) - ba.scale(2)
    rhs_abb = b2.scale(2) - b.scale(2 * eta) - ident.scale(2 * zeta_star)
    return (("AAB", lhs_aab, rhs_aab), ("ABB", lhs_abb, rhs_abb))
