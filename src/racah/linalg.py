"""Exact linear algebra: canonical subspaces, kernels, minimal polynomials,
eigenspaces, spinning a set of vectors under operators, and intertwiner
spaces.

Subspaces are stored with their reduced-row-echelon basis.  RREF of a given
row space is unique, so two Subspace values are equal iff they are literally
the same tuple of vectors; no extra canonicalization step is ever needed.
"""

from __future__ import annotations

from .matrix import Mat, ShapeError
from .poly import Poly
from .rational import Rat, ZERO, ONE, rat


def rref(vectors) -> list[tuple[Rat, ...]]:
    """Reduced row echelon form of the span of the given vectors.

    Zero rows are dropped; the result is the canonical basis of the span
    (pivot columns strictly increasing, pivots 1, pivot columns cleared).
    A forward pass leaves a semi-echelon basis; each of its rows is scaled
    to pivot 1 and, last pivot first, reduced against the rows already done.
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
        row = forward.rows[t]
        inv = ONE / row[forward.pivots[t]]
        back.add([x * inv if x != 0 else x for x in row])
    return [tuple(r) for r in reversed(back.rows)]


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
        rest = _Reducer(self.ambient_dim, self.basis, self.pivots).reduce(vec)
        return all(x == 0 for x in rest)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

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
    return len(rref(m.entries))


def invertible(m: Mat) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def kernel(m: Mat) -> Subspace:
    """Right kernel {v : Mv = 0} as a subspace of Q^cols."""
    row_space = Subspace(m.cols, m.entries)
    free = [j for j in range(m.cols) if j not in row_space.pivots]
    vectors = []
    for fj in free:
        v = [ZERO] * m.cols
        v[fj] = ONE
        for row, pcol in zip(row_space.basis, row_space.pivots):
            v[pcol] = -row[fj]
        vectors.append(v)
    return Subspace(m.cols, vectors)


def eigenspace(m: Mat, lam) -> Subspace:
    if m.rows != m.cols:
        raise ShapeError(f"eigenspace needs a square matrix, got {m.rows}x{m.cols}")
    return kernel(m - Mat.identity(m.rows).scale(lam))


class _Reducer:
    """Semi-echelon accumulator: rows with remembered pivot columns (each
    row's first nonzero entry), not normalized or back-substituted.  add()
    reduces a vector and keeps it if independent.  The one elimination loop:
    it drives rref(), Subspace.contains(), spin() and the Krylov loop."""

    def __init__(self, ncols: int, rows=(), pivots=()):
        self.ncols = ncols
        self.rows: list = list(rows)
        self.pivots: list[int] = list(pivots)

    def reduce(self, vec, factors=None):
        """vec minus multiples of the kept rows.  When a list is given as
        factors, (t, f) is appended to it for each f * rows[t] subtracted.
        Entries become rationals first: int / int would be a float."""
        v = [x if type(x) is Rat else rat(x) for x in vec]
        for t, (row, pcol) in enumerate(zip(self.rows, self.pivots)):
            if v[pcol] != 0:
                f = v[pcol] / row[pcol]
                for j in range(pcol, self.ncols):
                    if row[j] != 0:
                        v[j] = v[j] - f * row[j]
                if factors is not None:
                    factors.append((t, f))
        return v

    def add(self, vec, factors=None) -> bool:
        v = self.reduce(vec, factors)
        lead = next((j for j, x in enumerate(v) if x != 0), None)
        if lead is None:
            return False
        self.rows.append(v)
        self.pivots.append(lead)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def spin(ambient_dim: int, seeds, operators) -> Subspace:
    """Smallest subspace containing the seed vectors and stable under every
    operator.  Each new basis vector is hit by each operator exactly once."""
    for op in operators:
        if op.shape() != (ambient_dim, ambient_dim):
            raise ShapeError(
                f"operator {op.rows}x{op.cols} cannot act on dimension {ambient_dim}"
            )
    red = _Reducer(ambient_dim)
    queue = []
    for s in seeds:
        if red.add(s):
            queue.append(red.rows[-1])
    while queue and red.dim < ambient_dim:
        v = queue.pop(0)
        for op in operators:
            if red.add(op.apply(v)):
                queue.append(red.rows[-1])
    return Subspace(ambient_dim, red.rows)


def minimal_polynomial(m: Mat) -> Poly:
    """Monic minimal polynomial via the first linear dependency among
    I, M, M^2, ... viewed as vectors of length n^2."""
    if m.rows != m.cols:
        raise ShapeError(
            f"minimal polynomial needs a square matrix, got {m.rows}x{m.cols}"
        )
    n = m.rows
    red = _Reducer(n * n)
    combos: list[list[Rat]] = []  # combos[t] expresses red.rows[t] in powers of m
    power = Mat.identity(n)
    k = 0
    while True:
        factors: list[tuple[int, Rat]] = []
        independent = red.add([x for row in power.entries for x in row], factors)
        combo = [ZERO] * (k + 1)
        combo[k] = ONE
        for t, f in factors:
            for i, c in enumerate(combos[t]):
                combo[i] = combo[i] - f * c
        if not independent:
            return Poly(combo)  # leading coefficient stayed 1: already monic
        combos.append(combo)
        power = power * m
        k += 1


def apply_poly(p: Poly, m: Mat) -> Mat:
    """p(M) by Horner."""
    if m.rows != m.cols:
        raise ShapeError(f"cannot evaluate a polynomial at a {m.rows}x{m.cols} matrix")
    acc = Mat.zero(m.rows)
    for c in reversed(p.coeffs):
        acc = acc * m + Mat.identity(m.rows).scale(c)
    return acc


def intertwiner_space(a1: Mat, b1: Mat, a2: Mat, b2: Mat) -> list[Mat]:
    """All X with A2 X = X A1 and B2 X = X B1, as a list of basis matrices.

    X is m x n where the pair (A1,B1) acts on dimension n and (A2,B2) on m.
    The two Sylvester conditions are stacked into one homogeneous system on
    vec(X) (row-major); the kernel basis is reshaped back into matrices.
    """
    n = a1.rows
    m = a2.rows
    for mat, dim, name in ((a1, n, "A1"), (b1, n, "B1"), (a2, m, "A2"), (b2, m, "B2")):
        if mat.shape() != (dim, dim):
            raise ShapeError(f"{name} must be square of the right size, got {mat.rows}x{mat.cols}")
    nvars = m * n

    def var(i: int, j: int) -> int:
        return i * n + j

    rows = []
    for lhs, rhs in ((a2, a1), (b2, b1)):
        # (LHS X - X RHS)[i][j] = sum_k LHS[i][k] X[k][j] - sum_k X[i][k] RHS[k][j]
        for i in range(m):
            for j in range(n):
                row = [ZERO] * nvars
                for k in range(m):
                    if lhs.entries[i][k] != 0:
                        row[var(k, j)] = row[var(k, j)] + lhs.entries[i][k]
                for k in range(n):
                    if rhs.entries[k][j] != 0:
                        row[var(i, k)] = row[var(i, k)] - rhs.entries[k][j]
                rows.append(row)
    null = kernel(Mat(rows)) if rows else Subspace(nvars, [])
    basis = []
    for v in null.basis:
        basis.append(Mat([[v[var(i, j)] for j in range(n)] for i in range(m)]))
    return basis
