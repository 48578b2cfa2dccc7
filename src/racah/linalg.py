"""Exact linear algebra: canonical subspaces, kernels, minimal polynomials,
eigenspaces, spinning a set of vectors under operators, and intertwiner
spaces.

All elimination is fraction-free and sparse.  A vector enters it once, as
an integer row: its nonzero entries times the lcm of their denominators,
held as a dict {column: int}.  Rows are combined by cross-multiplication
(Bareiss 1968, Math. Comp. 22) and kept with their content divided out, so
the loop does integer arithmetic on nonzero entries only.  Entries become
backend rationals again only at the Subspace boundary, when rref divides
each row of the reduced basis by its pivot.

spin() and minimal_polynomial() also act with integer operators: a matrix
is cleared once (racah.intmat) to sparse integer columns, den*M, and
applied to integer rows, so their loops build no rational at all.  Each is
a thin wrapper over an integer core that takes matrices already cleared:
spin() clears its operators and seeds and hands them to spin_integer();
minimal_polynomial() clears its matrix, calls minimal_polynomial_integer()
for the primitive integer polynomial P of den*M, and turns P into the
monic rational polynomial once.  racah.analyzer clears a module's A, B and
C once and calls both cores on those integer rows.

minimal_polynomial_integer() has two routes.  A tridiagonal matrix whose
subdiagonal or superdiagonal is nonzero throughout is, or transposes to, an
unreduced Hessenberg matrix, which is nonderogatory: its minimal
polynomial is its characteristic polynomial, read off the band in O(n^2)
by the continuant recurrence.  A and C of the modules always qualify, and
B does whenever all its varphi or all its phi are nonzero.  Any other
matrix falls back to Krylov sequences of unit vectors through the reducer.

intertwiner_space() solves A2 X = X A1, B2 X = X B1 by substitution
through A when both A are lower bidiagonal with a nonzero subdiagonal (the
shape of A in every basis of the modules): each row of X follows from the
row below it, so the unknowns are the n entries of the last row, and only
the row-0 A-equations and the B-equations reach the reducer.  Any other A
falls back to the full Sylvester system over the mn entries of X.

Subspaces are stored with their reduced-row-echelon basis.  RREF of a given
row space is unique, so two Subspace values are equal iff they are literally
the same tuple of vectors; no extra canonicalization step is ever needed.
"""

from __future__ import annotations

from math import gcd, lcm

from .intmat import Rows, apply_columns, clear, columns
from .matrix import Mat, ShapeError
from .poly import Poly, monic_scaled
from .rational import Rat, ZERO, ONE, rat


def rref(vectors) -> list[tuple[Rat, ...]]:
    """Reduced row echelon form of the span of the given vectors.

    Zero rows are dropped; the result is the canonical basis of the span
    (pivot columns strictly increasing, pivots 1, pivot columns cleared).
    A forward pass leaves a semi-echelon basis of integer rows.  Last pivot
    first, each of them is reduced against the rows already done, and the
    rows are divided by their pivots only on the way out.
    """
    rows = [list(v) for v in vectors]
    if not rows:
        return []
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise ShapeError("vectors of mixed lengths cannot span a subspace")
    forward, back = _Reducer(ncols), _Reducer(ncols)
    for row in rows:
        forward.add(row)
    for t in sorted(range(forward.dim), key=forward.pivots.__getitem__, reverse=True):
        back.keep(back.reduce(forward.rows[t]))
    out = []
    for row, pcol in zip(reversed(back.rows), reversed(back.pivots)):
        lead = row[pcol]
        dense = [ZERO] * ncols
        for j, x in row.items():
            dense[j] = Rat(x, lead)
        out.append(tuple(dense))
    return out


class Subspace:
    """A subspace of Q^n held by its canonical (RREF) basis of row vectors."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, vectors):
        basis = tuple(rref(vectors))
        for v in basis:
            if len(v) != ambient_dim:
                raise ShapeError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        pivots = tuple(next(j for j, x in enumerate(v) if x != 0) for v in basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):
        return (Subspace, (self.ambient_dim, self.basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, vec) -> bool:
        vec = list(vec)
        if len(vec) != self.ambient_dim:
            return False
        basis = _Reducer(self.ambient_dim, map(_integer_row, self.basis), self.pivots)
        return not basis.reduce(_integer_row(vec))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


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
    return Subspace(m.cols, _kernel_vectors(Subspace(m.cols, m.entries)))


def _kernel_vectors(row_space: Subspace) -> list[list[Rat]]:
    """A basis of the vectors orthogonal to every row of row_space: one per
    non-pivot column."""
    n = row_space.ambient_dim
    vectors = []
    for fj in range(n):
        if fj in row_space.pivots:
            continue
        v = [ZERO] * n
        v[fj] = ONE
        for row, pcol in zip(row_space.basis, row_space.pivots):
            v[pcol] = -row[fj]
        vectors.append(v)
    return vectors


def eigenspace(m: Mat, lam) -> Subspace:
    if m.rows != m.cols:
        raise ShapeError(f"eigenspace needs a square matrix, got {m.rows}x{m.cols}")
    lam = rat(lam)
    return kernel(
        Mat([[x - lam if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m.entries)])
    )


def _integer_row(vec) -> dict[int, int]:
    """The nonzero entries of vec times the lcm of their denominators, as a
    sparse row {column: int}.  Entries become rationals first, so a float
    is rejected by rat()."""
    row = {}
    for j, x in enumerate(vec):
        if x is ZERO:  # most entries, and cheaper than testing a Rat for zero
            continue
        if type(x) is not Rat and type(x) is not int:
            x = rat(x)
        if x:
            row[j] = x
    den = lcm(*[x.denominator for x in row.values()])
    return {j: x.numerator * (den // x.denominator) for j, x in row.items()}


class _Reducer:
    """Semi-echelon accumulator of sparse primitive integer rows.

    Each kept row is a dict {column: int} of its nonzero entries with their
    gcd divided out.  Its pivot is its smallest column, and it is zero at
    the pivots of the rows kept before it.  add() reduces a vector and keeps
    it if independent; rows are never normalized here.  The one elimination
    loop: it drives rref(), Subspace.contains(), spin_integer() and
    minimal_polynomial()."""

    def __init__(self, ncols: int, rows=(), pivots=()):
        self.ncols = ncols
        self.rows: list[dict[int, int]] = list(rows)
        self.pivots: list[int] = list(pivots)

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

    def add(self, vec) -> bool:
        return self.keep(self.reduce(_integer_row(vec)))

    @property
    def dim(self) -> int:
        return len(self.rows)


def spin(ambient_dim: int, seeds, operators) -> Subspace:
    """Smallest subspace containing the seed vectors and stable under every
    operator.  The operators are cleared of denominators once: a span does
    not change when its vectors are scaled, so spin_integer() runs on the
    integer seeds and operators alone."""
    for op in operators:
        if op.shape() != (ambient_dim, ambient_dim):
            raise ShapeError(
                f"operator {op.rows}x{op.cols} cannot act on dimension {ambient_dim}"
            )
    ops = [columns(clear([op])[1][0]) for op in operators]
    rows = spin_integer(ambient_dim, map(_integer_row, seeds), ops)
    return Subspace(ambient_dim, [dense_row(row, ambient_dim) for row in rows])


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


def dense_row(row: dict[int, int], n: int) -> list[int]:
    """The sparse integer row as a list of n ints."""
    out = [0] * n
    for j, x in row.items():
        out[j] = x
    return out


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

    Two routes.  When N is tridiagonal and every entry of its subdiagonal,
    or every entry of its superdiagonal, is nonzero, N or its transpose is
    an unreduced Hessenberg matrix.  Such a matrix is nonderogatory (e_0
    generates everything under it, or under its transpose), so P is the
    characteristic polynomial, monic with integer coefficients, and
    _continuant() computes it in O(n^2).  A and C of the modules take this
    route in every basis, since their subdiagonal is nonzero; B takes it
    whenever all its varphi or all its phi are nonzero.  Every other
    matrix, a tridiagonal one with zeros on both off-diagonals included,
    goes to _krylov_minimal_polynomial()."""
    if _unreduced_tridiagonal(rows):
        return _continuant(rows)
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
    The four matrices are cleared of denominators once, A1 with A2 and B1
    with B2.  When A1 and A2 are both lower bidiagonal with a nonzero
    subdiagonal, as in every basis of the modules, A2 X = X A1 gives row
    i-1 of X from row i, so each entry of X is an integer linear form in
    the n entries of the last row, and only the row-0 A-equations and the
    B-equations remain: n unknowns.  Otherwise the unknowns are the mn
    entries of X and every equation of the two Sylvester systems stays.

    Equations go to a _Reducer last row of X first.  Once one reduces to
    zero, X is assembled in integers for each solution of the kept
    equations, and every later equation these X satisfy is skipped.  The
    solutions are canonicalized as a Subspace of vec(X).
    """
    n = a1.rows
    m = a2.rows
    for mat, dim, name in ((a1, n, "A1"), (b1, n, "B1"), (a2, m, "A2"), (b2, m, "B2")):
        if mat.shape() != (dim, dim):
            raise ShapeError(f"{name} must be square of the right size, got {mat.rows}x{mat.cols}")
    _, (ia1, ia2), _ = clear([a1, a2])
    _, (ib1, ib2), _ = clear([b1, b2])
    if _lower_bidiagonal(ia1) and _lower_bidiagonal(ia2):
        nvars, a_rows = n, [0]
        forms, scales = _substituted_rows(ia1, ia2, [{j: 1} for j in range(n)])
        weights = [scales[0] // c for c in scales]  # X times scales[0], in integers

        def solution(y):
            rows, _ = _substituted_rows(ia1, ia2, [{0: y[j]} if j in y else {} for j in range(n)])
            return [[w * f.get(0, 0) for f in row] for row, w in zip(rows, weights)]

    else:
        nvars, a_rows = m * n, range(m)
        forms, scales = [[{i * n + j: 1} for j in range(n)] for i in range(m)], [1] * m

        def solution(y):
            return [[y.get(i * n + j, 0) for j in range(n)] for i in range(m)]

    # the last rows of X first: under substitution their forms are the
    # smallest, and they usually leave few candidate solutions
    b_cols, a_cols = columns(ib1), columns(ia1)
    conditions = [(ib2, b_cols, i) for i in reversed(range(m))]
    conditions += [(ia2, a_cols, i) for i in a_rows]
    red = _Reducer(nvars)
    xs = None  # X for each solution of the kept equations, once one reduced to zero
    for lhs, rhs_cols, i in conditions:
        left = list(lhs[i].items())
        top = scales[min([i] + [k for k, _ in left])]
        for j, right in enumerate(rhs_cols):
            if xs is not None and not any(
                sum([c * sol[k][j] for k, c in left])
                != sum([sol[i][k] * c for k, c in right.items()])
                for sol in xs
            ):
                continue
            # (LHS X - X RHS)[i][j] in the unknowns, times the scale of the
            # topmost row it involves (every lower row's scale divides it)
            terms = [(c * (top // scales[k]), forms[k][j]) for k, c in left]
            terms += [(-c * (top // scales[i]), forms[i][k]) for k, c in right.items()]
            eq: dict[int, int] = {}
            for c, f in terms:
                for k, x in f.items():
                    eq[k] = eq.get(k, 0) + c * x
            eq = {k: x for k, x in eq.items() if x}
            if not eq:  # holds for every X, and says nothing about the solutions
                continue
            if red.keep(red.reduce(eq)):
                xs = None
                if red.dim == nvars:
                    return []
            elif xs is None:
                xs = [solution(y) for y in _null_space(red)]
    if xs is None:
        xs = [solution(y) for y in _null_space(red)]
    space = Subspace(m * n, [[v for row in sol for v in row] for sol in xs])
    return [Mat([v[i * n : (i + 1) * n] for i in range(m)]) for v in space.basis]


def _lower_bidiagonal(rows: Rows) -> bool:
    """Is the square matrix zero off its diagonal and first subdiagonal,
    and nonzero on that subdiagonal?"""
    return all(
        row.keys() <= {i - 1, i} and (i == 0 or i - 1 in row) for i, row in enumerate(rows)
    )


def _substituted_rows(a1: Rows, a2: Rows, last: Rows):
    """(rows, scales) for the integer lower bidiagonal A1 (n x n) and A2
    (m x m), given the last row of X as n sparse integer forms: row i of X
    is rows[i] / scales[i] when A2 X = X A1.  Entry (i, j) of that
    equation reads t X[i-1][j] = (A1[j][j] - A2[i][i]) X[i][j] +
    A1[j+1][j] X[i][j+1] with t = A2[i][i-1], so each row carries the
    product of the A2 subdiagonal entries below it as its scale, and no
    division is needed.  With forms {j: 1} the rows are the forms of X in
    the last row's entries; with {0: y_j} they are X at that last row."""
    n, m = len(a1), len(a2)
    row = last
    rows, scales = [row], [1]
    for i in range(m - 1, 0, -1):
        beta = a2[i].get(i, 0)
        nxt = []
        for j in range(n):
            c = a1[j].get(j, 0) - beta
            f = {k: c * x for k, x in row[j].items()} if c else {}
            if j + 1 < n:
                s = a1[j + 1][j]
                for k, x in row[j + 1].items():
                    y = f.get(k, 0) + s * x
                    if y:
                        f[k] = y
                    else:
                        del f[k]
            nxt.append(f)
        row = nxt
        rows.append(row)
        scales.append(scales[-1] * a2[i][i - 1])
    return rows[::-1], scales[::-1]


def _null_space(red: _Reducer) -> list[dict[int, int]]:
    """An integer basis of the vectors orthogonal to the kept rows."""
    rows = Subspace(red.ncols, [dense_row(row, red.ncols) for row in red.rows])
    return [_integer_row(v) for v in _kernel_vectors(rows)]
