"""Dense matrices over the exact rationals.

Mat is immutable, with two forms: its entries, a tuple of row tuples, and
its cleared form (den, rows), den*M as sparse integer rows {column: int}
with no zero and gcd(den, every entry) = 1, so den is the lcm of the
denominators.  A Mat keeps the form it was built from and derives the
other on first use.  Arithmetic is schoolbook and skips zeros: products
add no term with a zero factor, and sums, differences and scalings pass a
zero operand's partner through (its negation, or ZERO) without
arithmetic.  Shape mismatches raise ShapeError naming both shapes.
"""

from __future__ import annotations

from math import gcd, lcm

from .rational import Rat, ZERO, ONE, rat


class ShapeError(ValueError):
    pass


class Mat:
    __slots__ = ("entries", "rows", "cols", "_cleared")

    def __init__(self, entries):
        rows = tuple(tuple(x if type(x) is Rat else rat(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ShapeError("matrix needs at least one row and one column")
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ShapeError(
                    f"ragged rows: expected {ncols} columns, found {len(r)}"
                )
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    @classmethod
    def from_cleared(cls, den: int, rows: list, ncols: int) -> "Mat":
        """The Mat rows/den for den > 0 and sparse integer rows storing no
        zero, gcd(den, every entry) divided out; the rows are taken, not copied."""
        g = gcd(den, *[x for row in rows for x in row.values()])
        if g != 1:
            den, rows = den // g, [{j: x // g for j, x in row.items()} for row in rows]
        m = object.__new__(cls)
        for name, value in (("_cleared", (den, rows)), ("rows", len(rows)), ("cols", ncols)):
            object.__setattr__(m, name, value)
        return m

    def __getattr__(self, name):
        """Derive the form the Mat was not built from, once."""
        if name == "entries":
            den, rows = self._cleared
            span = range(self.cols)
            value = tuple(tuple(Rat(r[j], den) if j in r else ZERO for j in span) for r in rows)
        elif name == "_cleared":
            den = lcm(*[x.denominator for row in self.entries for x in row if x])
            rows = [
                {j: x.numerator * (den // x.denominator) for j, x in enumerate(row) if x}
                for row in self.entries
            ]
            value = (den, rows)
        else:
            raise AttributeError(f"'Mat' object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    def __reduce__(self):
        return (Mat, (self.entries,))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int | None = None) -> "Mat":
        cols = rows if cols is None else cols
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, diag) -> "Mat":
        diag = list(diag)
        n = len(diag)
        return cls(
            [[diag[i] if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij) -> Rat:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        """Equal shapes and canonical cleared forms: no entry is made."""
        if not isinstance(other, Mat) or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return self._cleared == other._cleared

    def __hash__(self):
        den, rows = self._cleared
        return hash((self.rows, self.cols, den, tuple(frozenset(r.items()) for r in rows)))

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape() != other.shape():
            raise ShapeError(f"cannot add {self.rows}x{self.cols} to {other.rows}x{other.cols}")
        return Mat(
            [
                [(a + b if a else b) if b else a for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape() != other.shape():
            raise ShapeError(f"cannot subtract {other.rows}x{other.cols} from {self.rows}x{self.cols}")
        return Mat(
            [
                [(a - b if a else -b) if b else a for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def scale(self, c) -> "Mat":
        c = rat(c)
        if not c:
            return Mat.zero(self.rows, self.cols)
        return Mat([[c * x if x else ZERO for x in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ShapeError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
            out = [[ZERO] * other.cols for _ in range(self.rows)]
            for acc, arow in zip(out, self.entries):
                for a, bterms in zip(arow, nonzero):
                    if a:
                        for j, b in bterms:
                            acc[j] += a * b
            return Mat(out)
        return self.scale(other)

    def trace(self) -> Rat:
        if self.rows != self.cols:
            raise ShapeError(f"trace needs a square matrix, got {self.rows}x{self.cols}")
        return sum((self.entries[i][i] for i in range(self.rows)), ZERO)

    def apply(self, vec):
        """Matrix times column vector (a sequence of Rat or int), adding only
        products of nonzero entries."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ShapeError(
                f"cannot apply {self.rows}x{self.cols} to a vector of length {len(vec)}"
            )
        nonzero = [(j, b) for j, b in enumerate(vec) if b]
        return tuple(
            sum([row[j] * b for j, b in nonzero if row[j]]) or ZERO for row in self.entries
        )

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"

