"""Classification of the finite-dimensional modules: irreducibility,
diagonalizability of the generators, the triangular transition matrix L,
parameter identification from traces, and isomorphism testing.

Everything here comes in two routes: a closed-form criterion in the
parameters, and a structural oracle that only touches the matrices.  The
two must agree; analyze() raises ConsistencyError when they do not, which
is the package's standing cross-check of the formulas against the linear
algebra.

The irreducibility oracle is Norton's irreducibility test, the MeatAxe
criterion (Parker 1984; Holt and Rees 1994, J. Austral. Math. Soc. 57):
take theta = B - lambda_d, for lambda_d the last diagonal entry of the
upper bidiagonal B.  When no superdiagonal entry of B vanishes, the kernel
of theta is one eigenline of B and its left kernel is e_d, which A^T alone
spins to all of V* when A is lower bidiagonal with a nonzero subdiagonal.
So the module is irreducible iff the spin of that eigenline under {A, B}
reaches V.  Before any spin, an O(d^2) certificate reads the bands
(racah.linalg._is_cyclic()): A is cyclic with cyclic vector e_0, so the
eigenline x is f(A) e_0 for a polynomial f, and x is cyclic for A iff f
vanishes at no diagonal entry of A.  Then the A-cyclic span of x, which
lies in its {A, B}-spin, is already V, and the module is irreducible with
no spin run.  Only when x is not cyclic does the exact spin run.  A
reducible module, or a pair off those bands, goes to the witness loop,
which takes the eigenline of each distinct eigenvalue of B in index
order, skips one that is cyclic for A (when A is on its band), spins the
others and returns the first proper span.

analyze() reads A, B and C as the integer bands they are built from
(racah.modules.build_bands(): q times each matrix, for the common
denominator q of racah.params.sequences), so it forms no D, no Mat and no
cleared copy.  Each public function it would otherwise call is a thin
wrapper over the integer core it calls instead: irreducible_oracle() over
_irreducible_rows(), racah.linalg.minimal_polynomial() over
minimal_polynomial_integer(), and identify() over _identify_traces(),
which takes the traces analyze() already holds.  Diagonalizability is read
off the diagonal of each unreduced block when the generator is bidiagonal
(A and B; B splits into blocks where a varphi_i vanishes), and is
otherwise, for C, the squarefreeness of the minimal polynomial,
racah.poly.squarefree_integer(), the core of racah.poly.squarefree().
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import ConsistencyError
from .intmat import Rows, clear, columns, combine, mul, scalar
from .linalg import (
    Subspace,
    _bidiagonal_blocks,
    _is_cyclic,
    _lower_bidiagonal,
    intertwiner_space,
    invertible,
    minimal_polynomial_integer,
    spin_integer,
    subspace_of_rows,
)
from .matrix import Mat
from .modules import ModuleRep, build_bands, build_R
from .params import (
    ParamTriple,
    Scalars,
    SignFlip,
    Witness,
    canonical,
    in_P,
    scalars,
    sequences,
    trace_formula,
)
from .poly import Poly, monic_scaled, squarefree_integer
from .rational import ONE, Rat, format_rat, is_square


def irreducible_oracle(rep: ModuleRep) -> tuple[bool, Optional[Subspace]]:
    """Matrix-side irreducibility test on a module in any basis (each is a v
    basis); returns a proper nonzero invariant subspace as witness when reducible.

    A vanishing superdiagonal entry varphi_i of B hands us the invariant
    tail span(v_i..v_d) directly.  Otherwise B is nonderogatory with all
    eigenvalues on its diagonal, so every nonzero invariant subspace
    contains one of its (one-dimensional) eigenlines; the module is
    irreducible iff each eigenline generates everything under {A, B}.

    A and B are cleared of denominators together once.  When A is lower
    bidiagonal with a nonzero subdiagonal and B is upper bidiagonal,
    Norton's test reads one eigenline: take theta = B - lambda_d.  Were U
    a proper nonzero invariant subspace meeting ker(theta), the lambda_d
    eigenline, in 0 only, theta would map U onto itself, so the left kernel
    of theta, spanned by e_d, would annihilate U.  The annihilator of U is
    invariant under A^T, and A^T spins e_d to all of V*, so U = 0.  Hence
    every proper nonzero invariant subspace contains the lambda_d
    eigenline, and the module is irreducible iff that eigenline spins to V.

    The cyclic certificate settles most points without a spin.  A e_j =
    theta_j e_j + s_j e_(j+1) with every s_j != 0, so e_0 is cyclic for A
    and the eigenline is x = f(A) e_0 for a polynomial f in the Newton
    basis of A's diagonal.  x is cyclic for A, that is x, Ax, A^2 x, ...
    span V, iff f vanishes at no diagonal entry theta_i;
    racah.linalg._is_cyclic() evaluates f there on integers in O(d^2).
    The spin of x under {A, B} contains its spin under A alone, so a
    cyclic x spins to V, and the module is irreducible.  When x is not
    cyclic nothing is proved, and the exact spin runs.

    When that spin does not reach V, or when A or B is off its band, the
    witness loop takes the eigenline of each distinct eigenvalue of B, in
    index order, and returns the first proper span.  At lambda_d it takes
    the span of Norton's spin instead of spinning that eigenline again,
    and it skips an eigenline that is cyclic for A, whose spin is V, when
    A is on its band.  Every eigenline is checked against B by
    _eigenline() before it is tested or spun.
    """
    _, (a_rows, b_rows), _ = clear([rep.A, rep.B])
    return _irreducible_rows(a_rows, b_rows)


def _irreducible_rows(a_rows: Rows, b_rows: Rows) -> tuple[bool, Optional[Subspace]]:
    """irreducible_oracle() on A and B cleared together (den*A, den*B for
    any common den > 0, as sparse integer rows)."""
    n = len(b_rows)
    for i in range(1, n):
        if i not in b_rows[i - 1]:
            return False, subspace_of_rows(n, [{h: 1} for h in range(i, n)])
    # on A's band, an eigenline cyclic for A alone spins to V unspun
    a_band = _lower_bidiagonal(a_rows)
    norton = a_band and _upper_bidiagonal(b_rows)
    if norton:
        last = b_rows[-1].get(n - 1, 0)
        first = next(i for i, row in enumerate(b_rows) if row.get(i, 0) == last)
        line = _eigenline(b_rows, first)
        if _is_cyclic(a_rows, line):
            return True, None
    # the columns of a square matrix are its transpose as rows; a B off
    # its band goes to the loop, whose eigenlines report it
    ops = [columns(a_rows), columns(b_rows)]
    spun = {}  # index of an eigenvalue's first occurrence -> its eigenline's span
    if norton:
        spun[first] = spin_integer(n, [line], ops)
        if len(spun[first]) == n:
            return True, None
    seen = set()
    for i, row in enumerate(b_rows):
        lam = row.get(i, 0)
        if lam in seen:
            continue
        seen.add(lam)
        if i in spun:
            generated = spun[i]
        else:
            line = _eigenline(b_rows, i)
            if a_band and _is_cyclic(a_rows, line):
                continue
            generated = spin_integer(n, [line], ops)
        if len(generated) < n:
            return False, subspace_of_rows(n, generated)
    return True, None


def _upper_bidiagonal(rows: Rows) -> bool:
    """Is the square matrix zero off its diagonal and first superdiagonal?"""
    return not any(row.keys() - {i, i + 1} for i, row in enumerate(rows))


def _eigenline(b_rows: Rows, i: int) -> dict[int, int]:
    """The eigenvector of the integer upper bidiagonal B for its diagonal
    entry at index i, the first index holding that value, by exact
    back-substitution from x_i = prod_(m<i) (lam_m - lam_i), as a sparse
    integer row.  Raises ConsistencyError unless (B - lam) x = 0 on every
    row of B as stored."""
    lam = b_rows[i].get(i, 0)
    prefix = [1]
    for m in range(i):
        prefix.append(prefix[-1] * (b_rows[m].get(m, 0) - lam))
    x, t = {}, 1
    for k in range(i, -1, -1):
        x[k] = t * prefix[k]
        if k:
            t *= -b_rows[k - 1][k]
    for r, row in enumerate(b_rows):
        if sum([c * x.get(j, 0) for j, c in row.items()]) != lam * x.get(r, 0):
            raise ConsistencyError(
                f"B is not upper bidiagonal: (B - lambda) x != 0 at row {r} for the "
                f"eigenline of diagonal entry {i}"
            )
    return x


def l_matrix(p: ParamTriple, d: int, method: str = "closed") -> Mat:
    """Lower-triangular module map L from the v basis to the u basis,
    L A_v = A_u L and L B_v = B_u L, in three independently computable ways;
    up to scale the only one when R_d(p) is irreducible (Schur's lemma).

    closed:     binomial closed form for each entry,
                L[i][j] = C(d-i+j, j) C(i, j) / C(d, j)
                          * prod_(h=1..i-j) (theta*_0 - theta*_(d-h+1))
                          * prod_(h=1..d-i) phi_h * prod_(h=1..j) varphi_h,
                a product of d sequence values: an integer over
                C(d, j) q^d, built over lcm_j C(d, j) q^d;
    recurrence: first column from the same products, then
                L[i][j] = (theta_i - theta_(j-1)) L[i][j-1] + L[i-1][j-1];
                the theta differences are integers over a divisor r of q,
                so column j is an integer over q^d r^j, lifted to (qr)^d;
    direct:     read off row 0 of prod_h (B - theta*_h) times the partial
                A-products, straight from the v-basis integer bands of A
                and B over q (build_bands()), row i at q^(2d-i), lifted to
                q^(2d).

    q is the common denominator of params.sequences: closed and recurrence
    run on its integer sequences alone.
    """
    if not isinstance(d, int) or d < 0:
        raise ValueError(f"d must be a nonnegative integer, got {d!r}")
    n = d + 1

    if method == "closed":
        seqs = sequences(p, d, n)
        down, phi_tail, varphi_head = _l_products(d, seqs)
        binom = [math.comb(d, j) for j in range(n)]
        lift = math.lcm(*binom)
        lifts = [lift // x for x in binom]
        rows = []
        for i in range(n):
            row = {}
            for j in range(i + 1):
                x = math.comb(d - i + j, j) * math.comb(i, j) * lifts[j]
                x *= down[i - j] * phi_tail[d - i] * varphi_head[j]
                if x:
                    row[j] = x
            rows.append(row)
        return Mat.from_cleared(lift * seqs[0] ** d, rows, n)

    if method == "recurrence":
        seqs = sequences(p, d, n)
        q, th = seqs[0], seqs[1]
        # theta_i - theta_k = t_ik / r with r = q/g, for g the gcd of q and
        # every difference theta_i - theta_0 (all over q)
        g = math.gcd(q, *(x - th[0] for x in th))
        r = q // g
        down, phi_tail, _ = _l_products(d, seqs)
        col = [down[i] * phi_tail[d - i] for i in range(n)]  # column 0 at q^d
        cols = [col]
        for j in range(1, n):
            t = th[j - 1]
            col = [0] * j + [(th[i] - t) // g * col[i] + r * col[i - 1] for i in range(j, n)]
            cols.append(col)  # column j at q^d r^j
        lifts = [r ** (d - j) for j in range(n)]
        rows = [
            {j: cols[j][i] * lifts[j] for j in range(i + 1) if cols[j][i]} for i in range(n)
        ]
        return Mat.from_cleared(q**d * r**d, rows, n)

    if method == "direct":
        # on the v bands of A and B over q, with the theta_h and theta*_h
        # of the sequences they were formed from brought to q (a multiple
        # of the sequences' own), so that a product of k factors
        # (A - theta_h) or (B - theta*_h) sits at q^k
        bands = build_bands(p, d, "v")
        q, a, b = bands.q, bands.A, bands.B
        seq_q, th, ts, _, _ = bands.sequences
        shifts = [x * (q // seq_q) for x in th + ts]
        ident = scalar(n, 1)
        prod_b = ident
        for h in range(1, n):
            prod_b = mul(prod_b, combine((1, b), (-shifts[n + h], ident)))
        partial = ident  # prod_(h=1..d-i) (A - theta_(d-h+1)), built downward
        partials = [None] * n
        partials[d] = partial
        for i in range(d - 1, -1, -1):
            partial = mul(partial, combine((1, a), (-shifts[i + 1], ident)))
            partials[i] = partial
        rows = []  # row i of L at q^(2d - i), brought up to q^(2d)
        for i in range(n):
            m = mul(prod_b, partials[i])
            scale = q ** (2 * d - i)
            below = next(((r, min(row)) for r, row in enumerate(m) if r and row), None)
            if below is not None:
                r, j = below
                raise ConsistencyError(
                    f"B-annihilator product must land in the top row at {p}, d={d}: "
                    f"for partial product i={i} it has {format_rat(Rat(m[r][j], scale))} "
                    f"at row {r}, column {j}"
                )
            lift = q**i
            rows.append({j: x * lift for j, x in m[0].items()})
        return Mat.from_cleared(q ** (2 * d), rows, n)

    raise ValueError(f"method must be closed, recurrence or direct, got {method!r}")


def _l_diagonal(d: int, seqs: tuple) -> tuple:
    """The diagonal of l_matrix(p, d) without the rest of it, from
    params.sequences at indices 0..d: L[i][i] = prod_(h=1..d-i) phi_h *
    prod_(h=1..i) varphi_h, a product of d sequence values, so one integer
    over q^d."""
    _, phi_tail, varphi_head = _l_products(d, seqs)
    scale = seqs[0] ** d
    return tuple(Rat(phi_tail[d - i] * varphi_head[i], scale) for i in range(d + 1))


def _l_products(d: int, seqs: tuple) -> tuple[list[int], list[int], list[int]]:
    """The prefix products of L's closed form from params.sequences at
    indices 0..d, for k = 0..d, each an integer over q^k:
    down[k] = prod_(h=1..k) (theta*_0 - theta*_(d-h+1)),
    phi_tail[k] = prod_(h=1..k) phi_h and varphi_head[k] = prod_(h=1..k) varphi_h."""
    _, _, ts, ph, vp = seqs
    down, phi_tail, varphi_head = [1], [1], [1]
    for h in range(1, d + 1):
        down.append(down[-1] * (ts[0] - ts[d - h + 1]))
        phi_tail.append(phi_tail[-1] * ph[h])
        varphi_head.append(varphi_head[-1] * vp[h])
    return down, phi_tail, varphi_head


def _coordinate_criterion(p: ParamTriple, d: int, generator: str) -> bool:
    """Is the generator diagonalizable on an irreducible R_d(p)?  Yes iff
    its coordinate x avoids {(i-d-1)/2 : i = 1..2d-1}.  Only an x with 2x
    an integer can meet it, and it meets it at i = 2x + d + 1."""
    x = p["ABC".index(generator)]
    if x.denominator > 2:
        return True
    return not 1 <= 2 * x.numerator // x.denominator + d + 1 <= 2 * d - 1


def _diagonalizable(rows: Rows, minpoly: list[int]) -> bool:
    """Is the square integer matrix with sparse rows rows and integer
    minimal polynomial minpoly diagonalizable over the algebraic closure?

    An upper or lower bidiagonal matrix is the direct sum of the unreduced
    blocks between the zeros of its off-diagonal (_bidiagonal_blocks()).
    Each block is an unreduced Hessenberg matrix, or the transpose of one,
    so it is nonderogatory: its minimal polynomial is prod (x - lambda_i)
    over its diagonal, squarefree iff the block's diagonal entries are
    distinct.  So the matrix is diagonalizable iff every block's are.  A
    and B of the modules always have this shape, A as one block, and B as
    one block unless a varphi_i vanishes.  Any other matrix, C of the
    modules, is decided by the squarefreeness of minpoly."""
    blocks = _bidiagonal_blocks(rows)
    if blocks is not None:
        return all(len(set(block)) == len(block) for block in blocks)
    return squarefree_integer(minpoly)


class GeneratorIdentification(NamedTuple):
    trace: Rat
    quadratic: Poly
    roots: Optional[tuple[Rat, Rat]]  # (canonical root >= -1/2, its partner)


class IdentifyResult(NamedTuple):
    d: int
    per_generator: dict  # name -> GeneratorIdentification
    candidate: Optional[ParamTriple]  # canonical triple, when all roots rational
    all_rational: bool


def identify(a_mat: Mat, b_mat: Mat, c_mat: Mat) -> IdentifyResult:
    """Recover the parameter orbit of a claimed R_d from generator traces.

    Each coordinate solves x^2 + x + d(d+2)/12 - tr/(d+1) = 0; the two
    roots of each quadratic are partners under x -> -x-1, so the solution
    set is exactly one flip orbit, reported by its canonical (>= -1/2)
    representative."""
    mats = {"A": a_mat, "B": b_mat, "C": c_mat}
    sizes = {m.rows for m in mats.values()} | {m.cols for m in mats.values()}
    if len(sizes) != 1:
        raise ValueError(f"generator matrices must share one square size, got {sorted(sizes)}")
    return _identify_traces(sizes.pop() - 1, {name: m.trace() for name, m in mats.items()})


def _identify_traces(d: int, traces: dict) -> IdentifyResult:
    """identify() from the traces {"A": tr, "B": tr, "C": tr} of the three
    generators on a (d+1)-dimensional module, on integers: the constant
    term d(d+2)/12 - tr/(d+1) and the discriminant 1 - 4*const share the
    denominator 12(d+1)den(tr)."""
    per = {}
    coords = {}
    all_rational = True
    for name, tr in traces.items():
        den = 12 * (d + 1) * tr.denominator
        num = d * (d + 2) * (d + 1) * tr.denominator - 12 * tr.numerator
        quad = Poly([Rat(num, den), ONE, ONE])
        rational, s = is_square(Rat(den - 4 * num, den))
        if rational:  # the roots (-1 +- s)/2
            p, q = s.numerator, s.denominator
            root = (Rat(p - q, 2 * q), Rat(-p - q, 2 * q))
        else:
            root = None
        per[name] = GeneratorIdentification(tr, quad, root)
        if rational:
            coords[name] = root[0]
        else:
            all_rational = False
    candidate = (
        ParamTriple(coords["A"], coords["B"], coords["C"]) if all_rational else None
    )
    return IdentifyResult(d, per, candidate, all_rational)


class IsoResult(NamedTuple):
    d: int
    p1: ParamTriple
    p2: ParamTriple
    same_orbit: bool
    hom_dim: int
    iso: bool
    intertwiner: Optional[Mat]


def isomorphic(p1: ParamTriple, p2: ParamTriple, d: int) -> IsoResult:
    """Are R_d(p1) and R_d(p2) isomorphic?  Criterion: same flip orbit.
    Oracle: the space of module maps, i.e. matrices intertwining both A and
    B (A and B generate, together with the central scalars; for the scalars
    to match, eta must agree, and unequal eta forces the zero map)."""
    if not (in_P(p1, d)[0] and in_P(p2, d)[0]):
        raise ValueError(
            "isomorphism testing is defined here for irreducible modules only"
        )
    basis = module_maps(build_R(p1, d, "v"), build_R(p2, d, "v"))
    same_orbit, iso = orbit_check(p1, p2, d, basis)
    return IsoResult(d, p1, p2, same_orbit, len(basis), iso, basis[0] if iso else None)


def module_maps(r1: ModuleRep, r2: ModuleRep) -> list[Mat]:
    """Basis of the module maps from r1 to r2, in any pair of bases.  The
    central eta acts on each module as a scalar, so unequal eta forces the
    zero map and skips intertwiner_space()."""
    if r1.scalars.eta != r2.scalars.eta:
        return []
    return intertwiner_space(r1.A, r1.B, r2.A, r2.B)


def orbit_check(p1: ParamTriple, p2: ParamTriple, d: int, maps: list[Mat]) -> tuple[bool, bool]:
    """(same_orbit, iso) for irreducible R_d(p1), R_d(p2), given a basis of
    the module maps between them, in any pair of bases; raises
    ConsistencyError when that basis has more than one map (Schur's lemma)
    or when the orbit criterion and the intertwiner oracle disagree."""
    if len(maps) > 1:
        raise ConsistencyError(
            f"hom space between irreducible modules has dimension {len(maps)}"
        )
    same_orbit = canonical(p1)[0] == canonical(p2)[0]
    iso = len(maps) == 1 and invertible(maps[0])
    if iso != same_orbit:
        raise ConsistencyError(
            f"orbit criterion ({same_orbit}) disagrees with intertwiner oracle "
            f"({iso}) at {p1} vs {p2}, d={d}"
        )
    return same_orbit, iso


class AnalysisReport(NamedTuple):
    params: ParamTriple
    d: int
    scalars: Scalars
    canonical_params: ParamTriple
    flip: SignFlip
    irreducible: bool
    witnesses: tuple[Witness, ...]
    reducible_subspace: Optional[Subspace]
    traces: dict
    minimal_polynomials: dict  # generator -> Poly
    diagonalizable: dict  # generator -> bool (oracle verdict)
    l_diagonal: tuple
    l_det_nonzero: bool
    identification: IdentifyResult


def analyze(p: ParamTriple, d: int) -> AnalysisReport:
    """Full classification report for one parameter point, with every
    criterion checked against its oracle on the spot.

    A, B and C come as integer rows over q from build_bands(), and every
    oracle reads those rows: the irreducibility oracle, the traces (the
    diagonal over q), the integer minimal polynomials, diagonalizability
    (see _diagonalizable()) and the identification from the traces.  No
    D and no Mat is formed; only the reported minimal polynomials become
    rational."""
    crit, witnesses = in_P(p, d)
    bands = build_bands(p, d, "v")
    q = bands.q
    gens = {"A": bands.A, "B": bands.B, "C": bands.C}
    oracle, bad_subspace = _irreducible_rows(bands.A, bands.B)
    if crit != oracle:
        raise ConsistencyError(
            f"irreducibility criterion ({crit}) disagrees with spin oracle "
            f"({oracle}) at {p}, d={d}"
        )

    traces = {
        name: Rat(sum([row.get(i, 0) for i, row in enumerate(m)]), q) for name, m in gens.items()
    }
    formula = trace_formula(p, d)
    if traces != formula:
        raise ConsistencyError(
            f"trace formula {formula} disagrees with matrix traces {traces} "
            f"at {p}, d={d}"
        )

    minpolys = {name: minimal_polynomial_integer(m) for name, m in gens.items()}
    # the oracle's verdict; the criterion classifies irreducible modules only
    diag = {name: _diagonalizable(m, minpolys[name]) for name, m in gens.items()}
    for name, verdict in diag.items():
        if crit and _coordinate_criterion(p, d, name) != verdict:
            raise ConsistencyError(
                f"diagonalizability of {name} at {p}, d={d}: "
                f"criterion {not verdict}, oracle {verdict}"
            )

    l_diag = _l_diagonal(d, bands.sequences)
    det_nonzero = all(x != 0 for x in l_diag)
    if det_nonzero != crit:
        raise ConsistencyError(
            f"invertibility of L ({det_nonzero}) disagrees with irreducibility "
            f"({crit}) at {p}, d={d}"
        )

    ident = _identify_traces(d, traces)
    canon, flip = canonical(p)
    if not ident.all_rational or ident.candidate != canon:
        raise ConsistencyError(
            f"trace identification {ident.candidate} missed the canonical "
            f"representative {canon} at {p}, d={d}"
        )

    return AnalysisReport(
        params=p,
        d=d,
        scalars=bands.scalars,
        canonical_params=canon,
        flip=flip,
        irreducible=crit,
        witnesses=tuple(witnesses),
        reducible_subspace=bad_subspace,
        traces=traces,
        minimal_polynomials={name: monic_scaled(mp, q) for name, mp in minpolys.items()},
        diagonalizable=diag,
        l_diagonal=l_diag,
        l_det_nonzero=det_nonzero,
        identification=ident,
    )
