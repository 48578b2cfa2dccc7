"""Truncated ladder modules with a free parameter nu.

The infinite-dimensional picture has basis m_0, m_1, ... with A acting lower
bidiagonally (theta_i(nu) on the diagonal, 1 below) and B upper bidiagonally
(theta*_i(nu) on the diagonal, varphi_i(nu) above).  We keep rows/columns
0..cutoff; identities read off the truncation are trustworthy only while
they cannot reach past the cutoff, hence the safe window cutoff-2 (no
relation used here climbs the ladder by more than two steps).

At nu = d the entry varphi_{d+1} vanishes, the tail span{m_i : i > d}
becomes a submodule, and the quotient is the (d+1)-dimensional module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .matrix import Mat, lower_bidiagonal, upper_bidiagonal
from .modules import build_R, presentation_identities
from .params import ParamTriple, Scalars, scalars, theta, theta_star, varphi
from .rational import HALF, ONE, ZERO, Rat, format_rat, rat


@dataclass(frozen=True)
class VermaTruncation:
    params: ParamTriple
    nu: Rat
    cutoff: int
    A: Mat
    B: Mat
    scalars: Scalars

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    @property
    def safe_window(self) -> int:
        return self.cutoff - 2


def build_verma(p: ParamTriple, nu, cutoff: Optional[int] = None) -> VermaTruncation:
    """Truncation of the nu-parameter ladder module to indices 0..cutoff.

    cutoff defaults to nu + 10 when nu is a nonnegative integer; otherwise
    it must be given.  cutoff >= 3 keeps the safe window nonempty.
    """
    nu = rat(nu)
    if cutoff is None:
        if nu.denominator != 1 or nu < 0:
            raise ValueError(
                "cutoff is required unless nu is a nonnegative integer, "
                f"got nu = {format_rat(nu)}"
            )
        cutoff = int(nu) + 10
    if cutoff < 3:
        raise ValueError(f"cutoff must be at least 3, got {cutoff}")
    n = cutoff + 1
    th = [theta(p, nu, i) for i in range(n)]
    ts = [theta_star(p, nu, i) for i in range(n)]
    vp = [varphi(p, nu, i) for i in range(1, n)]
    a_mat = lower_bidiagonal(th, [ONE] * cutoff)
    b_mat = upper_bidiagonal(ts, vp)
    return VermaTruncation(p, nu, cutoff, a_mat, b_mat, scalars(p, nu))


@dataclass(frozen=True)
class VermaCheck:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


@dataclass(frozen=True)
class VermaReport:
    params: ParamTriple
    nu: Rat
    cutoff: int
    safe_window: int
    d: int
    checks: tuple[VermaCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def _unit(n: int, i: int):
    return tuple(ONE if j == i else ZERO for j in range(n))


def verma_checks(vt: VermaTruncation, d: int) -> VermaReport:
    """Structural checks tying the truncation to the (d+1)-dimensional
    module: the two annihilator conditions on the highest vector, the scalar
    action of the central elements there, the ladder product identity and the
    presentation identities on the safe window, and (when varphi_{d+1}
    vanishes at this nu) the tail submodule and its quotient."""
    if not isinstance(d, int) or d < 0:
        raise ValueError(f"d must be a nonnegative integer, got {d!r}")
    if d > vt.cutoff - 2:
        raise ValueError(
            f"cutoff {vt.cutoff} too small to probe d = {d}; need cutoff >= d+2"
        )
    p, nu = vt.params, vt.nu
    n = vt.dim
    window = vt.safe_window
    a_mat, b_mat = vt.A, vt.B
    ident = Mat.identity(n)
    zeta, zeta_star, eta, _ = vt.scalars
    checks: list[VermaCheck] = []

    e0 = _unit(n, 0)
    th0 = theta(p, nu, 0)
    ts0 = theta_star(p, nu, 0)
    ts1 = theta_star(p, nu, 1)

    u1 = tuple(x - ts0 * e for x, e in zip(b_mat.apply(e0), e0))
    checks.append(
        VermaCheck(
            "U1 annihilates the highest vector",
            "pass" if all(x == 0 for x in u1) else "fail",
            f"(B - theta*_0) m_0 with theta*_0 = {format_rat(ts0)}",
        )
    )

    w = tuple(x - th0 * e for x, e in zip(a_mat.apply(e0), e0))
    bw = tuple(x - ts1 * y for x, y in zip(b_mat.apply(w), w))
    vp1 = varphi(p, nu, 1)
    u2 = tuple(x - vp1 * e for x, e in zip(bw, e0))
    checks.append(
        VermaCheck(
            "U2 annihilates the highest vector",
            "pass" if all(x == 0 for x in u2) else "fail",
            "((B - theta*_1)(A - theta_0) - varphi_1) m_0",
        )
    )

    # central elements on m_0, assembled from the truncated matrices
    ab, ba = a_mat * b_mat, b_mat * a_mat
    c_mat = ident.scale(eta) - a_mat - b_mat
    d_mat = (ab - ba).scale(HALF)
    alpha_col = (a_mat * d_mat - d_mat * a_mat + a_mat * c_mat - ba).apply(e0)
    checks.append(
        VermaCheck(
            "alpha acts as zeta on the highest vector",
            "pass" if alpha_col == tuple(zeta * e for e in e0) else "fail",
            f"zeta = {format_rat(zeta)}",
        )
    )
    beta_col = (b_mat * d_mat - d_mat * b_mat + ba - c_mat * b_mat).apply(e0)
    checks.append(
        VermaCheck(
            "beta acts as zeta_star on the highest vector",
            "pass" if beta_col == tuple(zeta_star * e for e in e0) else "fail",
            f"zeta_star = {format_rat(zeta_star)}",
        )
    )

    ladder_bad = None
    for i in range(0, window + 1):
        vec = _unit(n, i)
        for j in range(i, window + 1):
            thj = theta(p, nu, j)
            vec = tuple(x - thj * y for x, y in zip(a_mat.apply(vec), vec))
            if vec != _unit(n, j + 1):
                ladder_bad = (i, j)
                break
        if ladder_bad:
            break
    checks.append(
        VermaCheck(
            "ladder product identity on the safe window",
            "fail" if ladder_bad else "pass",
            f"prod_(h=i..j)(A - theta_h) m_i = m_(j+1) failed at (i,j) = {ladder_bad}"
            if ladder_bad
            else f"prod_(h=i..j)(A - theta_h) m_i = m_(j+1) for 0 <= i <= j <= {window}",
        )
    )

    pres_bad = None
    for name, lhs, rhs in presentation_identities(a_mat, b_mat, ab, ba, ident, vt.scalars):
        for j in range(0, window + 1):
            for i in range(n):
                if lhs.entries[i][j] != rhs.entries[i][j]:
                    pres_bad = (name, i, j)
                    break
            if pres_bad:
                break
        if pres_bad:
            break
    checks.append(
        VermaCheck(
            "presentation identities on the safe window",
            "fail" if pres_bad else "pass",
            f"first mismatch {pres_bad}" if pres_bad
            else f"AAB and ABB identities agree on columns 0..{window}",
        )
    )

    tail_vp = varphi(p, nu, d + 1)
    tail_ok = tail_vp == 0 and b_mat.entries[d][d + 1] == 0
    checks.append(
        VermaCheck(
            "tail is a submodule",
            "pass" if tail_ok else "fail",
            f"varphi_{d + 1} = 0 at nu = {format_rat(nu)}: span(m_i, i > {d}) is stable"
            if tail_ok
            else f"not a submodule at this nu: varphi_{d + 1} = {format_rat(tail_vp)}",
        )
    )

    if tail_ok:
        rep = build_R(p, d, "v")
        block_ok = True
        for i in range(d + 1):
            for j in range(d + 1):
                if (
                    a_mat.entries[i][j] != rep.A.entries[i][j]
                    or b_mat.entries[i][j] != rep.B.entries[i][j]
                ):
                    block_ok = False
        checks.append(
            VermaCheck(
                "quotient matches the finite module",
                "pass" if block_ok else "fail",
                f"leading {d + 1}x{d + 1} blocks of A and B equal the basis-v matrices",
            )
        )
    else:
        checks.append(
            VermaCheck(
                "quotient matches the finite module",
                "skip",
                "no submodule at this nu, nothing to quotient by",
            )
        )

    return VermaReport(p, nu, vt.cutoff, window, d, tuple(checks))
