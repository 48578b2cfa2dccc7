"""Classification of the finite-dimensional modules: irreducibility,
diagonalizability of the generators, the triangular transition matrix L,
parameter identification from traces, and isomorphism testing.

Everything here comes in two routes: a closed-form criterion in the
parameters, and a structural oracle that only touches the matrices.  The
two must agree; analyze() raises ConsistencyError when they do not, which
is the package's standing cross-check of the formulas against the linear
algebra.

The irreducibility oracle reads A in an eigenbasis of B: when B is upper
bidiagonal with distinct diagonal entries, the module is irreducible iff
the nonzero entries y_j A x_i (i != j) form a strongly connected directed
graph (for Leonard pairs A acts tridiagonally there, Terwilliger 2001,
Linear Algebra Appl. 330; the oracle assumes no such shape).  Entries that
are nonzero mod 2^61 - 1 certify irreducibility.  When B's diagonal repeats
or the graph is not certified connected, the same certificate runs on the
transposed pair, B^T read in an eigenbasis of the upper bidiagonal A^T:
{A, B} and {A^T, B^T} have the same invariant subspaces up to taking
annihilators, so either certifies the module.  A zero superdiagonal of B,
or a point neither certificate settles, goes to the exact route, which
spins eigenlines of B.

analyze() reads A, B and C as the integer bands they are built from
(racah.modules.build_bands(): q times each matrix, for the common
denominator q of racah.params.sequences), so it forms no D, no Mat and no
cleared copy.  Each public function it would otherwise call is a thin
wrapper over the integer core it calls instead: irreducible_oracle() over
_irreducible_rows(), racah.linalg.minimal_polynomial() over
minimal_polynomial_integer(), and identify() over _identify_traces(),
which takes the traces analyze() already holds.  Diagonalizability is read
off the diagonal when the generator is bidiagonal with a nonzero
off-diagonal throughout (A always, B unless a varphi_i vanishes), and is
otherwise the squarefreeness of the minimal polynomial,
racah.poly.squarefree_integer(), the core of racah.poly.squarefree().
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

from .errors import ConsistencyError
from .intmat import Rows, clear, columns, combine, mul, scalar
from .linalg import (
    Subspace,
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
from .poly import PRIME, Poly, monic_scaled, squarefree_integer
from .rational import ONE, Rat, format_rat, is_square


def irreducible_oracle(rep: ModuleRep) -> tuple[bool, Optional[Subspace]]:
    """Matrix-side irreducibility test; returns a proper nonzero invariant
    subspace as witness when reducible.

    A vanishing superdiagonal entry varphi_i of B hands us the invariant
    tail span(v_i..v_d) directly.  Otherwise B is nonderogatory with all
    eigenvalues on its diagonal, so every nonzero invariant subspace
    contains one of its (one-dimensional) eigenlines; the module is
    irreducible iff each eigenline generates everything under {A, B}.

    A and B are cleared of denominators together once.  When B is upper
    bidiagonal with distinct diagonal entries, its invariant subspaces are
    the spans of sets S of its eigenvectors x_i, and such a span is
    A-invariant iff no entry of A in that eigenbasis leads from S to
    outside S.  So the module is irreducible iff the directed graph with an
    edge i -> j whenever y_j A x_i != 0 (y_j the left eigenvectors, i != j)
    is strongly connected.  _eigenbasis_certificate() computes those
    entries mod the prime q = 2^61 - 1 and returns True only when the
    nonzero ones already form a strongly connected graph: a nonzero residue
    proves a nonzero exact entry, so True proves irreducibility.  It
    returns False, and the exact loop below decides, when B leaves the
    bidiagonal band, has a repeated diagonal entry, or has two diagonal
    entries congruent mod q (a denominator or an eigenvalue gap divisible
    by q), and when the certified edges miss strong connectivity.

    Then, if B is upper bidiagonal, the certificate runs once more on the
    transposed pair, with B^T in the role of A and the upper bidiagonal
    A^T, whose diagonal is theta, in the role of B.  A subspace U is
    invariant under A and B iff its annihilator is invariant under A^T and
    B^T, so the two pairs are irreducible together, and this settles the
    irreducible points where only theta* repeats.  A reducible point is
    never certified either way.  The exact loop spins the eigenline of
    each distinct eigenvalue of B, in index order, and returns the first
    proper span as the witness.
    """
    if rep.basis != "v":
        raise ValueError("the oracle walks the v-basis; build the module with basis='v'")
    _, (a_rows, b_rows), _ = clear([rep.A, rep.B])
    return _irreducible_rows(a_rows, b_rows)


def _irreducible_rows(a_rows: Rows, b_rows: Rows) -> tuple[bool, Optional[Subspace]]:
    """irreducible_oracle() on A and B cleared together (den*A, den*B for
    any common den > 0, as sparse integer rows)."""
    n = len(b_rows)
    for i in range(1, n):
        if i not in b_rows[i - 1]:
            return False, subspace_of_rows(n, [{h: 1} for h in range(i, n)])
    if _eigenbasis_certificate(a_rows, b_rows):
        return True, None
    # the columns of a square matrix are its transpose as rows; a B off
    # its band goes to the spin, whose eigenlines report it
    ops = [columns(a_rows), columns(b_rows)]
    if _upper_bidiagonal(b_rows) and _eigenbasis_certificate(ops[1], ops[0]):
        return True, None
    seen = set()
    for i, row in enumerate(b_rows):
        lam = row.get(i, 0)
        if lam in seen:
            continue
        seen.add(lam)
        generated = spin_integer(n, [_eigenline(b_rows, i)], ops)
        if len(generated) < n:
            return False, subspace_of_rows(n, generated)
    return True, None


def _eigenbasis_certificate(a_rows: Rows, b_rows: Rows) -> bool:
    """True only if the integer B is upper bidiagonal with distinct
    diagonal entries mod PRIME, and the entries y_j A x_i (i != j) that are
    nonzero mod PRIME form a strongly connected directed graph i -> j.

    With lam_k the diagonal and s_k = -B[k][k+1], the integer vectors
        x_i[k] = prod_(m=k..i-1) s_m * prod_(m<k) (lam_m - lam_i),   k <= i,
        y_j[k] = prod_(m=j..k-1) s_m * prod_(m>k) (lam_m - lam_j),   k >= j,
    are right and left eigenvectors of B for lam_i and lam_j (back- and
    forward substitution, scaled to need no division), nonzero since the
    diagonal is distinct.  Only their residues are computed."""
    n = len(b_rows)
    if not _upper_bidiagonal(b_rows):
        return False
    lam = [row.get(i, 0) % PRIME for i, row in enumerate(b_rows)]
    if len(set(lam)) < n:
        return False
    s = [-b_rows[k].get(k + 1, 0) % PRIME for k in range(n - 1)]
    xs, ys = [], []
    for i in range(n):
        before = [1] * n  # before[k] = prod_(m<k) (lam_m - lam_i)
        for k in range(1, i + 1):
            before[k] = before[k - 1] * (lam[k - 1] - lam[i]) % PRIME
        x, t = [0] * n, 1
        for k in range(i, -1, -1):
            x[k] = t * before[k] % PRIME
            if k:
                t = t * s[k - 1] % PRIME
        after = [1] * n  # after[k] = prod_(m>k) (lam_m - lam_i)
        for k in range(n - 2, i - 1, -1):
            after[k] = after[k + 1] * (lam[k + 1] - lam[i]) % PRIME
        y, t = [0] * n, 1
        for k in range(i, n):
            y[k] = t * after[k] % PRIME
            if k < n - 1:
                t = t * s[k] % PRIME
        xs.append(x)
        ys.append(y)
    # z_i = A x_i, with A read as stored
    zs = [
        [sum([c * x[col] for col, c in row.items()]) % PRIME for row in a_rows] for x in xs
    ]
    out = [
        [j for j, y in enumerate(ys) if j != i and sum(map(operator.mul, y, z)) % PRIME]
        for i, z in enumerate(zs)
    ]
    into = [[] for _ in range(n)]
    for i, js in enumerate(out):
        for j in js:
            into[j].append(i)
    return _reaches_all(out) and _reaches_all(into)


def _upper_bidiagonal(rows: Rows) -> bool:
    """Is the square matrix zero off its diagonal and first superdiagonal?"""
    return not any(row.keys() - {i, i + 1} for i, row in enumerate(rows))


def _reaches_all(edges: list[list[int]]) -> bool:
    """Does every node of the directed graph lie on a path from node 0?"""
    seen = {0}
    stack = [0]
    while stack:
        for j in edges[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(edges)


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
    """Lower-triangular transition matrix between the w-basis and the
    v-basis, in three independently computable ways.

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
                A-products, straight from the v-basis matrices (products
                of their cleared integer rows), row i at den^(2d-i) for the
                den that clears A, B and the shifts, lifted to den^(2d).

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
        # the direct route reads the sequences build_R evaluated for its module
        rep = build_R(p, d, "v")
        q, th, ts, _, _ = rep._sequences
        # on A and B cleared together with the theta_h and theta*_h, so
        # that a product of k factors (A - theta_h) or (B - theta*_h) sits
        # at den^k
        den, (a, b), shifts = clear((rep.A, rep.B), [Rat(x, q) for x in th + ts])
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
        rows = []  # row i of L at den^(2d - i), brought up to den^(2d)
        for i in range(n):
            m = mul(prod_b, partials[i])
            scale = den ** (2 * d - i)
            below = next(((r, min(row)) for r, row in enumerate(m) if r and row), None)
            if below is not None:
                r, j = below
                raise ConsistencyError(
                    f"B-annihilator product must land in the top row at {p}, d={d}: "
                    f"for partial product i={i} it has {format_rat(Rat(m[r][j], scale))} "
                    f"at row {r}, column {j}"
                )
            lift = den**i
            rows.append({j: x * lift for j, x in m[0].items()})
        return Mat.from_cleared(den ** (2 * d), rows, n)

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

    A bidiagonal matrix whose off-diagonal is nonzero throughout is an
    unreduced Hessenberg matrix, or the transpose of one, so it is
    nonderogatory: its minimal polynomial is prod (x - lambda_i) over its
    diagonal, squarefree iff the diagonal entries are distinct.  A of the
    modules always has this shape, and B whenever no varphi_i vanishes.
    Any other matrix is decided by the squarefreeness of minpoly."""
    if _unreduced_bidiagonal(rows):
        return len({row.get(i, 0) for i, row in enumerate(rows)}) == len(rows)
    return squarefree_integer(minpoly)


def _unreduced_bidiagonal(rows: Rows) -> bool:
    """Is the square matrix zero off its diagonal and one of its two
    neighbouring diagonals, and nonzero on the whole of that neighbour?"""
    return _lower_bidiagonal(rows) or (
        _upper_bidiagonal(rows) and all(i + 1 in rows[i] for i in range(len(rows) - 1))
    )


@dataclass(frozen=True)
class GeneratorIdentification:
    trace: Rat
    quadratic: Poly
    roots: Optional[tuple[Rat, Rat]]  # (canonical root >= -1/2, its partner)


@dataclass(frozen=True)
class IdentifyResult:
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


@dataclass(frozen=True)
class IsoResult:
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
    ok1, _ = in_P(p1, d)
    ok2, _ = in_P(p2, d)
    if not (ok1 and ok2):
        raise ValueError(
            "isomorphism testing is defined here for irreducible modules only"
        )
    basis = module_maps(build_R(p1, d, "v"), build_R(p2, d, "v"))
    same_orbit, iso = orbit_check(p1, p2, d, basis)
    return IsoResult(d, p1, p2, same_orbit, len(basis), iso, basis[0] if iso else None)


def module_maps(r1: ModuleRep, r2: ModuleRep) -> list[Mat]:
    """Basis of the module maps from r1 to r2, in any pair of bases.  The
    central eta acts on each module as a scalar, so unequal eta forces the
    zero map and skips the linear solve."""
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


@dataclass(frozen=True)
class AnalysisReport:
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
