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

from typing import NamedTuple, Optional

from .intmat import clear, columns, combine, mul, scalar
from .matrix import Mat
from .modules import _band_rows, build_R, presentation_identities
from .params import ParamTriple, Scalars, scalars, sequences
from .rational import Rat, format_rat, rat


class VermaTruncation(NamedTuple):
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
    q, th, ts, _, vp = sequences(p, nu, n)
    a_mat = Mat.from_cleared(q, _band_rows(th, [q] * cutoff, [0] * cutoff), n)
    b_mat = Mat.from_cleared(q, _band_rows(ts, [0] * cutoff, vp[1:]), n)
    return VermaTruncation(p, nu, cutoff, a_mat, b_mat, scalars(p, nu))


class VermaCheck(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


class VermaReport(NamedTuple):
    params: ParamTriple
    nu: Rat
    cutoff: int
    safe_window: int
    d: int
    checks: tuple[VermaCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


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
    zeta, zeta_star, eta, _ = vt.scalars
    q, th, ts, _, vp = sequences(p, nu, n)
    ts0, ts1, vp1 = Rat(ts[0], q), Rat(ts[1], q), Rat(vp[1], q)
    checks: list[VermaCheck] = []

    # every check but the last two runs on the truncated matrices cleared
    # together with the scalars, the theta_h of the ladder check and the
    # theta*_0, theta*_1 and varphi_1 of the annihilator checks
    den, (a, b), ints = clear(
        (a_mat, b_mat),
        (zeta, zeta_star, eta, ts0, ts1, vp1, *(Rat(x, q) for x in th[: window + 1])),
    )
    zeta_i, zeta_star_i, eta_i, ts0_i, ts1_i, vp1_i, thetas = *ints[:6], ints[6:]
    # m_0 as a one-column matrix, so that X*m0 is column 0 of X
    m0 = [{0: 1}] + [{} for _ in range(n - 1)]
    ae, be = mul(a, m0), mul(b, m0)

    u1 = combine((1, be), (-ts0_i, m0))  # (B - theta*_0) m_0 at den
    checks.append(
        VermaCheck(
            "U1 annihilates the highest vector",
            "pass" if not any(u1) else "fail",
            f"(B - theta*_0) m_0 with theta*_0 = {format_rat(ts0)}",
        )
    )

    w = combine((1, ae), (-thetas[0], m0))  # (A - theta_0) m_0 at den
    u2 = combine((1, mul(b, w)), (-ts1_i, w), (-vp1_i * den, m0))  # at den^2
    checks.append(
        VermaCheck(
            "U2 annihilates the highest vector",
            "pass" if not any(u2) else "fail",
            "((B - theta*_1)(A - theta_0) - varphi_1) m_0",
        )
    )

    ab, ba = mul(a, b), mul(b, a)
    two_d = combine((1, ab), (-1, ba))  # 2D at den^2
    c = combine((eta_i, scalar(n, 1)), (-1, a), (-1, b))
    # alpha and beta act on m_0 through their factors, at 2 den^3
    de = mul(two_d, m0)
    alpha_col = combine(
        (1, mul(a, de)), (-1, mul(two_d, ae)), (2 * den, mul(a, mul(c, m0))), (-2 * den, mul(b, ae))
    )
    checks.append(
        VermaCheck(
            "alpha acts as zeta on the highest vector",
            "pass" if alpha_col == combine((2 * den * den * zeta_i, m0)) else "fail",
            f"zeta = {format_rat(zeta)}",
        )
    )
    beta_col = combine(
        (1, mul(b, de)), (-1, mul(two_d, be)), (2 * den, mul(b, ae)), (-2 * den, mul(c, be))
    )
    checks.append(
        VermaCheck(
            "beta acts as zeta_star on the highest vector",
            "pass" if beta_col == combine((2 * den * den * zeta_star_i, m0)) else "fail",
            f"zeta_star = {format_rat(zeta_star)}",
        )
    )

    # prod_(h=i..j)(A - theta_h) m_i = m_(j+1) for all i <= j on the window
    # holds iff every rung (A - theta_h) m_h = m_(h+1) does, for h = 0..window:
    # each product climbs one rung at a time.  So the first (i, j) at which
    # the products fail is (0, h) for the first failing rung h.
    a_cols = columns(a)
    ladder_bad = None
    for h in range(window + 1):
        rung = dict(a_cols[h])
        rung[h] = rung.get(h, 0) - thetas[h]
        if {k: x for k, x in rung.items() if x} != {h + 1: den}:
            ladder_bad = (0, h)
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

    aab = [(1, mul(a, two_d)), (-1, mul(two_d, a))]  # [A,[A,B]] at den^3
    abb = [(1, mul(two_d, b)), (-1, mul(b, two_d))]  # [[A,B],B] at den^3
    identities = presentation_identities(
        a, b, mul(a, a), mul(b, b), ab, ba, aab, abb, den, zeta_i, zeta_star_i, eta_i
    )
    # the first mismatch on columns 0..window, in column-major order
    pres_bad = None
    for name, lhs, rhs in identities:
        bad = [
            (j, i)
            for i, (left, right) in enumerate(zip(lhs, rhs))
            if left != right
            for j in left.keys() | right.keys()
            if j <= window and left.get(j) != right.get(j)
        ]
        if bad:
            j, i = min(bad)
            pres_bad = (name, i, j)
            break
    checks.append(
        VermaCheck(
            "presentation identities on the safe window",
            "fail" if pres_bad else "pass",
            f"first mismatch {pres_bad}" if pres_bad
            else f"AAB and ABB identities agree on columns 0..{window}",
        )
    )

    tail_vp = Rat(vp[d + 1], q)
    tail_ok = tail_vp == 0 and d + 1 not in b[d]
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
        for pair in ((a_mat, rep.A), (b_mat, rep.B)):  # each pair cleared together
            _, (big, small), _ = clear(pair)
            block_ok = block_ok and all(
                {j: x for j, x in big[i].items() if j <= d} == small[i] for i in range(d + 1)
            )
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
