"""Dense matrices over the exact rationals, held cleared of denominators.

A Mat is immutable and holds one form: its cleared form (den, rows), den*M
as sparse integer rows {column: int} with no zero and gcd(den, every
entry) = 1, so den is the lcm of the denominators, and its number of
columns.  Mat(entries) clears its entries at construction, and
Mat.from_cleared takes the form directly.  The entries, a tuple of row
tuples of Rat, are derived on first read; only tests and the benchmark's
tracer read them, and racah.serialize prints from the cleared form.
Arithmetic runs on the integer rows (racah.intmat), over nonzero entries
only; apply() is the product with a one-column Mat.  Shape mismatches
raise ShapeError naming both shapes.
"""

from __future__ import annotations

from math import gcd, lcm

from .intmat import combine, mul
from .rational import Rat, ZERO, rat


class ShapeError(ValueError):
    pass


def _set(m: "Mat", den: int, rows: list, ncols: int) -> None:
    for name, value in (("_cleared", (den, rows)), ("rows", len(rows)), ("cols", ncols)):
        object.__setattr__(m, name, value)


class Mat:
    __slots__ = ("rows", "cols", "_cleared", "_entries")

    def __init__(self, entries):
        values = [[x if type(x) is Rat else rat(x) for x in row] for row in entries]
        if not values or not values[0]:
            raise ShapeError("matrix needs at least one row and one column")
        ncols = len(values[0])
        for r in values:
            if len(r) != ncols:
                raise ShapeError(
                    f"ragged rows: expected {ncols} columns, found {len(r)}"
                )
        den = lcm(*[x.denominator for row in values for x in row if x])
        rows = [
            {j: x.numerator * (den // x.denominator) for j, x in enumerate(row) if x}
            for row in values
        ]
        _set(self, den, rows, ncols)

    @classmethod
    def from_cleared(cls, den: int, rows: list, ncols: int) -> "Mat":
        """The Mat rows/den for den > 0 and sparse integer rows storing no
        zero, gcd(den, every entry) divided out; the rows are taken, not copied."""
        g = gcd(den, *[x for row in rows for x in row.values()])
        if g != 1:
            den, rows = den // g, [{j: x // g for j, x in row.items()} for row in rows]
        m = object.__new__(cls)
        _set(m, den, rows, ncols)
        return m

    @property
    def entries(self) -> tuple:
        """The entries as row tuples of Rat (ZERO at zeros), made on first
        read and kept."""
        try:
            return self._entries
        except AttributeError:
            pass
        den, rows = self._cleared
        span = range(self.cols)
        value = tuple(tuple(Rat(r[j], den) if j in r else ZERO for j in span) for r in rows)
        object.__setattr__(self, "_entries", value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    def __reduce__(self):
        den, rows = self._cleared
        return (Mat.from_cleared, (den, [dict(sorted(r.items())) for r in rows], self.cols))

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

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
        return _sum(self, other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape() != other.shape():
            raise ShapeError(f"cannot subtract {other.rows}x{other.cols} from {self.rows}x{self.cols}")
        return _sum(self, other, -1)

    def scale(self, c) -> "Mat":
        c = rat(c)
        if not c:
            return Mat.from_cleared(1, [{} for _ in range(self.rows)], self.cols)
        den, rows = self._cleared
        num = c.numerator
        return Mat.from_cleared(
            den * c.denominator, [{j: num * x for j, x in row.items()} for row in rows], self.cols
        )

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ShapeError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            (dx, x), (dy, y) = self._cleared, other._cleared
            return Mat.from_cleared(dx * dy, mul(x, y), other.cols)
        return self.scale(other)

    def trace(self) -> Rat:
        if self.rows != self.cols:
            raise ShapeError(f"trace needs a square matrix, got {self.rows}x{self.cols}")
        den, rows = self._cleared
        return Rat(sum([row.get(i, 0) for i, row in enumerate(rows)]), den)

    def apply(self, vec):
        """Matrix times column vector (a sequence of Rat or int): the
        product with vec as a one-column Mat, read back as a tuple of Rat."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ShapeError(
                f"cannot apply {self.rows}x{self.cols} to a vector of length {len(vec)}"
            )
        return tuple(row[0] for row in (self * Mat([[x] for x in vec])).entries)

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"


def _sum(x: Mat, y: Mat, sign: int) -> Mat:
    """x + sign*y, both brought to the lcm of their dens."""
    (dx, rx), (dy, ry) = x._cleared, y._cleared
    den = lcm(dx, dy)
    return Mat.from_cleared(den, combine((den // dx, rx), (sign * (den // dy), ry)), x.cols)
