"""Exact linear algebra: canonical subspaces, kernels, minimal polynomials,
eigenspaces, spinning a set of vectors under operators, and intertwiner
spaces, each map built from its image of e_0.

All elimination is fraction-free and sparse.  Rational vectors enter it
once, cleared together as the rows of one Mat (racah.intmat.clear): each
an integer row, held as a dict {column: int} of its nonzero entries.  An
eigenvalue is cleared with its matrix the same way.  Rows are combined
by cross-multiplication (Bareiss 1968, Math. Comp. 22) and kept with their
content divided out, so the loop does integer arithmetic on nonzero
entries only.  The back pass that reduces the basis stays in integers
too: a Subspace keeps each RREF row as primitive integers with a positive
pivot, kernels are read off those rows in integers, and
intertwiner_space() builds each map in integers and hands its canonical
basis to Mat.from_cleared with the pivot as den.  Entries become Fractions
only when rref() or Subspace.basis is read.

spin() and minimal_polynomial() also act with integer operators: a matrix
is cleared once (racah.intmat) to sparse integer columns, den*M, and
applied to integer rows, so their loops build no rational at all.  Each is
a thin wrapper over an integer core that takes matrices already cleared:
spin() clears its operators and seeds and hands them to spin_integer();
minimal_polynomial() clears its matrix, calls minimal_polynomial_integer()
for the primitive integer polynomial P of den*M, and turns P into the
monic rational polynomial once.  racah.analyzer clears a module's A, B and
C once and calls both cores on those integer rows.

minimal_polynomial_integer() has three routes.  A tridiagonal matrix whose
subdiagonal or superdiagonal is nonzero throughout is, or transposes to, an
unreduced Hessenberg matrix, which is nonderogatory: its minimal
polynomial is its characteristic polynomial, read off the band in O(n^2)
by the continuant recurrence.  A and C of the modules always qualify, and
B does whenever all its varphi or all its phi are nonzero.  A bidiagonal
matrix split by zeros on its off-diagonal, as B is when a varphi_i
vanishes, is the direct sum of unreduced blocks, and its minimal
polynomial is read off their diagonals.  Any other matrix falls back to
Krylov sequences of unit vectors through the reducer.

_is_cyclic() decides in O(n^2) whether a vector is cyclic for a lower
bidiagonal matrix with a nonzero subdiagonal, A in every basis of the
modules, by evaluating the vector's Newton-basis polynomial at A's
diagonal; racah.analyzer reads it as a certificate of irreducibility.

intertwiner_space() builds each X with A2 X = X A1, B2 X = X B1 from
x = X e_0.  A1 and A2 must be lower bidiagonal with a nonzero subdiagonal
(the shape of A in every basis of the modules; any other A raises
ShapeError), so e_0 generates Q^n under A1 and X e_(j+1) follows from
X e_j through A2.  When B1 e_0 = lam e_0, as for the upper bidiagonal B,
x lies in ker(B2 - lam), and only the residual equations on its
coefficients in a basis of that kernel, usually one, reach the reducer.
It is a thin wrapper, like spin() and minimal_polynomial(): it checks
the shapes, clears the Mats, and calls the integer core
_intertwiner_rows(), which runs each candidate x's ladder as one dense
integer column per step, read straight off A2's diagonal and
subdiagonal, with no matrix product.  racah.analyzer.module_maps() calls
the core on a module's integer bands.

Subspaces are stored with their reduced-row-echelon basis, each row scaled
to primitive integers with a positive pivot.  RREF of a given row space is
unique, and so is that scaling, so two Subspace values are equal iff they
hold the same integer rows; no extra canonicalization step is ever needed.
A Subspace pickles as those rows, which subspace_of_rows() takes back.
"""

from __future__ import annotations

from math import gcd, lcm

from .intmat import Rows, apply_columns, clear, columns, combine, scalar
from .matrix import Mat, ShapeError
from .poly import Poly, monic_scaled
from .rational import Rat, ZERO, rat


def rref(vectors) -> list[tuple[Rat, ...]]:
    """Reduced row echelon form of the span of the given vectors.

    Zero rows are dropped; the result is the canonical basis of the span
    (pivot columns strictly increasing, pivots 1, pivot columns cleared):
    the rows of _reduced() divided by their pivots.
    """
    ncols, rows = _integer_rows(vectors)
    return [_rational_row(row, ncols) for row in _reduced(ncols, rows)]


def _integer_rows(vectors) -> tuple[int, Rows]:
    """(length, sparse integer rows) of vectors of one length, cleared
    together as the rows of one Mat; 0 and no rows for no vectors."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return 0, []
    if len({len(v) for v in vectors}) > 1:
        raise ShapeError("vectors of mixed lengths cannot span a subspace")
    m = Mat(vectors)
    return m.cols, m._cleared[1]


def _reduced(ncols: int, rows: Rows) -> Rows:
    """The reduced row echelon form of the span of the sparse integer rows
    (consumed), each of its rows scaled to primitive integers with a
    positive pivot, pivots increasing.  These rows are unique for the span.
    A forward pass leaves a semi-echelon basis; last pivot first, each of
    its rows is reduced against the rows already done."""
    forward, back = _Reducer(ncols), _Reducer(ncols)
    for row in rows:
        forward.keep(forward.reduce(row))
    for t in sorted(range(forward.dim), key=forward.pivots.__getitem__, reverse=True):
        back.keep(back.reduce(forward.rows[t]))
    return [
        row if row[pcol] > 0 else {j: -x for j, x in row.items()}
        for row, pcol in zip(reversed(back.rows), reversed(back.pivots))
    ]


def _rational_row(row: dict[int, int], n: int) -> tuple[Rat, ...]:
    """The sparse integer row divided by its pivot, as n Rats."""
    lead = row[min(row)]
    dense = [ZERO] * n
    for j, x in row.items():
        dense[j] = Rat(x, lead)
    return tuple(dense)


class Subspace:
    """A subspace of Q^n held by its canonical (RREF) basis: each row is
    kept as primitive integers with a positive pivot (_reduced()), so
    equality and hashing compare integers.  The rational basis is derived
    on first read; racah.serialize prints from the integer rows."""

    __slots__ = ("ambient_dim", "pivots", "_rows", "_basis")

    def __init__(self, ambient_dim: int, vectors):
        ncols, rows = _integer_rows(vectors)
        rows = _reduced(ncols, rows)
        if rows and ncols != ambient_dim:
            raise ShapeError(f"vector of length {ncols} in ambient dimension {ambient_dim}")
        _fill(self, ambient_dim, rows)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):
        return (subspace_of_rows, (self.ambient_dim, [dict(row) for row in self._rows]))

    @property
    def basis(self) -> tuple[tuple[Rat, ...], ...]:
        """The RREF basis as rows of Rat, made on first read and kept."""
        try:
            return self._basis
        except AttributeError:
            pass
        value = tuple(_rational_row(row, self.ambient_dim) for row in self._rows)
        object.__setattr__(self, "_basis", value)
        return value

    @property
    def dim(self) -> int:
        return len(self._rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def _fill(s: Subspace, ambient_dim: int, rows: Rows) -> None:
    for name, value in (
        ("ambient_dim", ambient_dim), ("_rows", tuple(rows)), ("pivots", tuple(map(min, rows)))
    ):
        object.__setattr__(s, name, value)


def subspace_of_rows(ambient_dim: int, rows: Rows) -> Subspace:
    """The span of sparse integer rows (consumed) of length ambient_dim."""
    s = object.__new__(Subspace)
    _fill(s, ambient_dim, _reduced(ambient_dim, rows))
    return s


def rank(m: Mat) -> int:
    """The number of m's cleared rows that the elimination keeps."""
    red = _Reducer(m.cols)
    for row in clear([m])[1][0]:
        red.keep(red.reduce(row))
    return red.dim


def invertible(m: Mat) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def kernel(m: Mat) -> Subspace:
    """Right kernel {v : Mv = 0} as a subspace of Q^cols."""
    return _kernel(m.cols, clear([m])[1][0])


def eigenspace(m: Mat, lam) -> Subspace:
    """The kernel of M - lam I: M and lam are cleared together, and the
    cleared lam is subtracted down the diagonal."""
    if m.rows != m.cols:
        raise ShapeError(f"eigenspace needs a square matrix, got {m.rows}x{m.cols}")
    _, (rows,), (shift,) = clear([m], [rat(lam)])
    return _kernel(m.cols, combine((1, rows), (-1, scalar(m.rows, shift))))


def _kernel(n: int, rows: Rows) -> Subspace:
    """The right kernel of the integer matrix given by its sparse rows
    (consumed), n columns."""
    return subspace_of_rows(n, _kernel_rows(n, _reduced(n, rows)))


def _kernel_rows(n: int, rows: Rows) -> Rows:
    """A basis of the vectors orthogonal to the rows of an RREF given as in
    _reduced(), one per non-pivot column fj, as primitive sparse integer
    rows: fj at the lcm of the pivots of the rows nonzero there, each such
    pivot column at minus that row's entry brought to the same scale."""
    pivots = {min(row): row for row in rows}
    out = []
    for fj in range(n):
        if fj in pivots:
            continue
        hits = [(p, row) for p, row in pivots.items() if fj in row]
        scale = lcm(*[row[p] for p, row in hits])
        v = {fj: scale}
        for p, row in hits:
            v[p] = -row[fj] * (scale // row[p])
        g = gcd(*v.values())
        out.append(v if g == 1 else {j: x // g for j, x in v.items()})
    return out


class _Reducer:
    """Semi-echelon accumulator of sparse primitive integer rows.

    Each kept row is a dict {column: int} of its nonzero entries with their
    gcd divided out.  Its pivot is its smallest column, and it is zero at
    the pivots of the rows kept before it.  keep(reduce(v)) keeps the
    sparse integer row v if it is independent; rows are never normalized
    here.  The one elimination loop: it drives rref(), rank(),
    spin_integer(), minimal_polynomial(), and the residual equations on
    the coefficients of X e_0 in intertwiner_space()."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[dict[int, int]] = []
        self.pivots: list[int] = []

    def reduce(self, v: dict[int, int]) -> dict[int, int]:
        """A nonzero multiple of the sparse integer row v minus multiples of
        the kept rows, zero at every kept pivot; empty iff v lies in their
        span.  v is consumed.  Against each kept row r whose pivot p is
        nonzero in v, v becomes (r[p]/g) v - (v[p]/g) r with
        g = gcd(r[p], v[p]); besides scaling v this touches only the
        nonzero entries of r."""
        for row, pcol in zip(self.rows, self.pivots):
            a = v.get(pcol)
            if a is None:
                continue
            b = row[pcol]
            g = gcd(a, b)
            if g != 1:
                a //= g
                b //= g
            if b != 1:
                v = {j: b * x for j, x in v.items()}
            for j, x in row.items():
                y = v.get(j, 0) - a * x
                if y:
                    v[j] = y
                else:
                    del v[j]
        return v

    def keep(self, v: dict[int, int]) -> bool:
        """Keep a reduced row, content divided out, unless it is zero."""
        if not v:
            return False
        g = gcd(*v.values())
        if g != 1:
            v = {j: x // g for j, x in v.items()}
        self.rows.append(v)
        self.pivots.append(min(v))
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def spin(ambient_dim: int, seeds, operators) -> Subspace:
    """Smallest subspace containing the seed vectors and stable under every
    operator.  The seeds are cleared together as one Mat, and each operator
    once: a span does not change when its vectors are scaled, so
    spin_integer() runs on the integer seeds and operators alone."""
    for op in operators:
        if op.shape() != (ambient_dim, ambient_dim):
            raise ShapeError(
                f"operator {op.rows}x{op.cols} cannot act on dimension {ambient_dim}"
            )
    ops = [columns(clear([op])[1][0]) for op in operators]
    rows = spin_integer(ambient_dim, _integer_rows(seeds)[1], ops)
    return subspace_of_rows(ambient_dim, rows)


def spin_integer(ambient_dim: int, seeds, ops) -> Rows:
    """A basis, as sparse primitive integer rows, of the smallest subspace
    containing the sparse integer seed rows and stable under the integer
    operators given by their sparse columns (racah.intmat.columns).  Each
    new basis row is hit by each operator exactly once, and its integer
    image goes straight back into the reducer."""
    red = _Reducer(ambient_dim)
    for s in seeds:
        red.keep(red.reduce(s))
    done = 0  # rows before this one have been hit by every operator
    while done < red.dim < ambient_dim:
        v = red.rows[done]
        done += 1
        for cols in ops:
            red.keep(red.reduce(apply_columns(cols, v)))
    return red.rows


def minimal_polynomial(m: Mat) -> Poly:
    """Monic minimal polynomial of the square matrix m: m is cleared to
    the integer matrix N = den*M, and mu_M(x) = P(den x) made monic for the
    integer polynomial P of minimal_polynomial_integer()."""
    if m.rows != m.cols:
        raise ShapeError(
            f"minimal polynomial needs a square matrix, got {m.rows}x{m.cols}"
        )
    den, (rows,), _ = clear([m])
    return monic_scaled(minimal_polynomial_integer(rows), den)


def minimal_polynomial_integer(rows: Rows) -> list[int]:
    """The minimal polynomial of the square integer matrix N given by its
    sparse rows, as a primitive integer polynomial P with a positive
    leading coefficient, lowest degree first.

    Three routes, tried in order.  When N is tridiagonal and every entry
    of its subdiagonal, or every entry of its superdiagonal, is nonzero, N
    or its transpose is an unreduced Hessenberg matrix.  Such a matrix is
    nonderogatory (e_0 generates everything under it, or under its
    transpose), so P is the characteristic polynomial, monic with integer
    coefficients, and _continuant() computes it in O(n^2).  A and C of the
    modules take this route in every basis, since their subdiagonal is
    nonzero; B takes it whenever all its varphi or all its phi are
    nonzero.  An upper or lower bidiagonal N with zeros on its
    off-diagonal, B when a varphi_i vanishes, is the direct sum of the
    unreduced blocks of _bidiagonal_blocks(), each with the minimal
    polynomial prod (x - lambda) over its diagonal.  So P is
    prod_lambda (x - lambda)^k, for k the largest multiplicity of lambda on
    one block's diagonal, monic and so primitive.  Every other matrix, a
    tridiagonal one with zeros on both off-diagonals included, goes to
    _krylov_minimal_polynomial()."""
    if _unreduced_tridiagonal(rows):
        return _continuant(rows)
    blocks = _bidiagonal_blocks(rows)
    if blocks is not None:
        power = {}  # each eigenvalue -> its largest multiplicity in one block
        for block in blocks:
            for lam in block:
                power[lam] = max(power.get(lam, 0), block.count(lam))
        p = [1]
        for lam, k in power.items():
            for _ in range(k):
                p = [a - lam * b for a, b in zip([0, *p], [*p, 0])]
        return p
    return _krylov_minimal_polynomial(rows)


def _unreduced_tridiagonal(rows: Rows) -> bool:
    """Is the square matrix zero off its three central diagonals, and
    nonzero on the whole subdiagonal or on the whole superdiagonal?"""
    n = len(rows)
    if any(row.keys() - {i - 1, i, i + 1} for i, row in enumerate(rows)):
        return False
    return all(rows[i].get(i - 1) for i in range(1, n)) or all(
        rows[i].get(i + 1) for i in range(n - 1)
    )


def _continuant(rows: Rows) -> list[int]:
    """The characteristic polynomial of the integer tridiagonal matrix N,
    lowest degree first, by the continuant recurrence on its leading
    principal minors: p_k = (x - N[k][k]) p_(k-1) - N[k][k-1] N[k-1][k] p_(k-2)."""
    before, p = [], [1]  # p_(k-2) and p_(k-1); p_(-1) = 0
    for k, row in enumerate(rows):
        c = row.get(k, 0)
        nxt = [0, *p]  # x p_(k-1)
        if c:
            for i, x in enumerate(p):
                nxt[i] -= c * x
        if k:
            t = row.get(k - 1, 0) * rows[k - 1].get(k, 0)
            if t:
                for i, x in enumerate(before):
                    nxt[i] -= t * x
        before, p = p, nxt
    return p


def _krylov_minimal_polynomial(rows: Rows) -> list[int]:
    """minimal_polynomial_integer() for any square integer matrix N: P is
    the lcm of the local minimal polynomials of the unit vectors (Krylov
    sequences as in Wiedemann 1986, IEEE Trans. Inf. Theory 32).

    P starts at 1 and takes the seeds e_0, e_(n-1), e_1, ..., e_(n-2) until
    its degree is n.  Since mu of P(N)v is mu_v / gcd(mu_v, P), multiplying
    P by the local minimal polynomial of w = P(N)e_j keeps it the lcm of
    those seen so far, with no gcd taken; a seed with w = 0 adds nothing.
    That of w is the first dependency among w, Nw, N^2 w, ...: each is
    reduced with its combination of powers carried in marker columns, and
    the first row whose vector part vanishes holds it there."""
    n = len(rows)
    cols = columns(rows)
    p = [1]  # coefficients of P, lowest degree first
    for j in [0, n - 1, *range(1, n - 1)][:n]:  # [:n] keeps n = 1 to e_0
        if len(p) > n:
            break
        w = {j: p[-1]}  # P(N) e_j by Horner
        for c in reversed(p[:-1]):
            w = apply_columns(cols, w)
            if c:
                w[j] = w.get(j, 0) + c
                if not w[j]:
                    del w[j]
        if w:
            p = _poly_product(p, _local_minimal_polynomial(cols, w, n))
    return p


def _local_minimal_polynomial(cols, w: dict[int, int], n: int) -> list[int]:
    """Integer coefficients, lowest degree first, of a nonzero multiple of
    the minimal polynomial of the nonzero vector w under the matrix N with
    columns cols.  Each row holds q(N) w in columns 0..n-1 and the
    coefficients of q in the marker columns n, n+1, ...; the next row is N
    times the vector part of the last kept one, its markers shifted up by
    one."""
    red = _Reducer(2 * n + 1)  # the degree is at most n
    row = dict(w)
    row[n] = 1
    while True:
        red.keep(red.reduce(row))
        row = red.rows[-1]
        if red.pivots[-1] >= n:
            return [row.get(n + i, 0) for i in range(max(row) - n + 1)]
        nxt = apply_columns(cols, {j: x for j, x in row.items() if j < n})
        for j, x in row.items():
            if j >= n:
                nxt[j + 1] = x
        row = nxt


def _poly_product(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer polynomials, content divided out and the
    leading coefficient made positive."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    g = gcd(*out)
    if out[-1] < 0:
        g = -g
    return [x // g for x in out]


def intertwiner_space(a1: Mat, b1: Mat, a2: Mat, b2: Mat) -> list[Mat]:
    """All X with A2 X = X A1 and B2 X = X B1, as the canonical (RREF)
    basis of vec(X) (row-major) reshaped into matrices.

    X is m x n where the pair (A1,B1) acts on dimension n and (A2,B2) on m.
    A1 and A2 must be lower bidiagonal with a nonzero subdiagonal, as in
    every basis of the modules; anything else raises ShapeError.  B1 and B2
    may be any square matrices.  This wrapper checks the shapes, clears A1
    with A2 and B1 with B2 of denominators once, and hands the integer rows
    to _intertwiner_rows(), which builds each X from X e_0.
    """
    n, m = a1.rows, a2.rows
    for mat, dim, name in ((a1, n, "A1"), (b1, n, "B1"), (a2, m, "A2"), (b2, m, "B2")):
        if mat.shape() != (dim, dim):
            raise ShapeError(f"{name} must be square of the right size, got {mat.rows}x{mat.cols}")
    _, (ia1, ia2), _ = clear([a1, a2])
    _, (ib1, ib2), _ = clear([b1, b2])
    for rows, name in ((ia1, "A1"), (ia2, "A2")):
        if not _lower_bidiagonal(rows):  # X is built column by column through A
            raise ShapeError(f"{name} must be lower bidiagonal with a nonzero subdiagonal")
    return _intertwiner_rows(ia1, ib1, ia2, ib2)


def _intertwiner_rows(a1: Rows, b1: Rows, a2: Rows, b2: Rows) -> list[Mat]:
    """intertwiner_space() on integer rows: A1 and A2 at one scale, lower
    bidiagonal with a nonzero subdiagonal (not checked here), and B1 and B2
    at one scale, any square matrices.  The rows are not consumed.

    A1 e_j = a_j e_j + s_j e_(j+1) with s_j != 0, so X is fixed by X e_0:
    X e_(j+1) = (A2 - a_j) X e_j / s_j.  X e_0 lies in ker(B2 - lam) when
    B1 e_0 = lam e_0, as for the upper bidiagonal B of the modules, and
    anywhere in Q^m otherwise; a basis of that space gives the candidates.
    Each candidate's ladder runs as one dense integer column per step,
    read straight off A2's diagonal and subdiagonal.  The residuals
    (A2 - a_(n-1)) X e_(n-1) and B2 X - X B1 of the candidates' X, at one
    scale, are the equations on their coefficients, fed to the reducer
    one column of X at a time until they have full rank.  Each
    solution's vec(X) goes to _reduced(), in integers, and each row of the
    result becomes one Mat over its pivot.
    """
    n, m = len(a1), len(a2)
    if any(0 in row for row in b1[1:]):  # e_0 is no eigenvector of B1
        cands = [{i: 1} for i in range(m)]
    else:
        lam = b1[0].get(0, 0)
        cands = _kernel_rows(m, _reduced(m, combine((1, b2), (-lam, scalar(m, 1)))))
    r = len(cands)
    if not r:
        return []
    diag = [row.get(i, 0) for i, row in enumerate(a2)]
    sub = [a2[i][i - 1] for i in range(1, m)]
    # ladders[c][j] is candidate c's X e_j times s_0 ... s_(n-2), dense;
    # residual[c] is its (A2 - a_(n-1)) X e_(n-1) times s_0 ... s_(n-2)
    ladders, residual = [], []
    for v in cands:
        col = [v.get(i, 0) for i in range(m)]
        ladder = [col]  # X e_j times s_0 ... s_(j-1)
        for j in range(n):
            t = a1[j].get(j, 0)
            col = [(diag[0] - t) * col[0]] + [
                (x - t) * y + s * z for x, y, s, z in zip(diag[1:], col[1:], sub, col)
            ]
            ladder.append(col)
        residual.append(ladder.pop())
        scale = 1
        for j in range(n - 2, -1, -1):
            scale *= a1[j + 1][j]
            ladder[j] = [scale * x for x in ladder[j]]
        ladders.append(ladder)
    b_cols = columns(b1)
    b2_entries = [(i, k, x) for i, row in enumerate(b2) for k, x in row.items()]
    red = _Reducer(r)
    for j in range(-1, n):
        if j >= 0:  # (B2 X - X B1) e_j of each candidate
            residual = []
            for ladder in ladders:
                col, out = ladder[j], [0] * m
                for i, k, x in b2_entries:
                    out[i] += x * col[k]
                for k, x in b_cols[j].items():
                    out = [y - x * z for y, z in zip(out, ladder[k])]
                residual.append(out)
        if not any(map(any, residual)):  # every equation of this block is 0 = 0
            continue
        for i in range(m):
            eq = {c: col[i] for c, col in enumerate(residual) if col[i]}
            if eq and red.keep(red.reduce(eq)) and red.dim == r:
                return []
    vecs = []
    for y in _kernel_rows(r, _reduced(r, red.rows)):
        vec = {}
        for k, c in y.items():
            for j, col in enumerate(ladders[k]):
                for i, x in enumerate(col):
                    if x:
                        vec[i * n + j] = vec.get(i * n + j, 0) + c * x
        vecs.append({k: x for k, x in vec.items() if x})
    out = []
    for vec in _reduced(m * n, vecs):
        rows: Rows = [{} for _ in range(m)]
        for k, x in vec.items():
            rows[k // n][k % n] = x
        out.append(Mat.from_cleared(vec[min(vec)], rows, n))
    return out


def _lower_bidiagonal(rows: Rows) -> bool:
    """Is the square matrix zero off its diagonal and first subdiagonal,
    and nonzero on that subdiagonal?"""
    return all(
        row.keys() <= {i - 1, i} and (i == 0 or i - 1 in row) for i, row in enumerate(rows)
    )


def _is_cyclic(rows: Rows, x: dict[int, int]) -> bool:
    """Is the sparse integer vector x cyclic for the integer matrix A given
    by its rows, lower bidiagonal with a nonzero subdiagonal
    (_lower_bidiagonal())?  That is, do x, Ax, A^2 x, ... span Q^n?

    A e_j = theta_j e_j + s_j e_(j+1) with s_j != 0, so A is cyclic with
    cyclic vector e_0, and e_j = N_j(A) e_0 / (s_0 ... s_(j-1)) for the
    Newton basis N_j(t) = prod_(h<j) (t - theta_h).  So x = f(A) e_0 for
    f = sum_j x_j N_j / (s_0 ... s_(j-1)), and x is cyclic iff f is prime
    to the characteristic polynomial prod_i (t - theta_i): iff
    f(theta_i) != 0 at every distinct theta_i.  Times s_0 ... s_(i-1),
    f(theta_i) is the integer
    sum_(j<=i) x_j prod_(j<=h<i) s_h prod_(h<j) (theta_i - theta_h),
    which a Horner sweep from j = i down to 0 gives in O(i) products, so
    the test costs O(n^2)."""
    theta = [row.get(i, 0) for i, row in enumerate(rows)]
    seen = set()
    for i, t in enumerate(theta):
        if t in seen:
            continue
        seen.add(t)
        value, s = x.get(i, 0), 1
        for j in range(i - 1, -1, -1):
            s *= rows[j + 1][j]
            value = (t - theta[j]) * value + s * x.get(j, 0)
        if not value:
            return False
    return True


def _bidiagonal_blocks(rows: Rows) -> list[list[int]] | None:
    """The diagonals of the unreduced blocks, in order, of a square upper
    or lower bidiagonal matrix, split at each zero of its off-diagonal
    (a diagonal matrix splits into 1 x 1 blocks); None for any other
    matrix.  Such a matrix is the direct sum of its blocks, each
    nonderogatory with the characteristic polynomial prod (x - lambda) over
    its diagonal."""
    upper = any(i + 1 in row for i, row in enumerate(rows))
    off = 1 if upper else -1
    blocks = []
    for i, row in enumerate(rows):
        if not row.keys() <= {i, i + off}:
            return None
        if not i or (i not in rows[i - 1] if upper else i - 1 not in row):
            blocks.append([])
        blocks[-1].append(row.get(i, 0))
    return blocks
