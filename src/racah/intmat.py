"""Sparse integer matrices: rational matrices cleared of denominators.

Several Mat values (and scalars) are cleared together: each is multiplied
by den, the lcm of all their denominators, and held as sparse rows, one
dict {column: int} of the nonzero entries per row: the cleared form each
Mat carries (racah.matrix), rescaled to the common den.  Products and
linear combinations run on Python ints over nonzero entries only.  Input
rows store no zero, and mul and combine rely on it: a product of nonzero
ints is never zero, so each kernel drops only a sum that cancels, as it
adds.  Results store no zero either, so two matrices at the same scale
are equal iff their row lists are.  A product of k cleared factors sits at scale
den^k; a caller comparing two sides brings each term to a common power of
den.
"""

from __future__ import annotations

from math import lcm

Rows = list[dict[int, int]]  # the sparse integer rows of a matrix


def clear(mats, scalars=()) -> tuple[int, list[Rows], list[int]]:
    """(den, rows, ints): den is the lcm of the denominators of every entry
    of the matrices and of the scalars, rows[k] is den*mats[k] as sparse
    integer rows and ints[k] is den*scalars[k].  The rows are new dicts,
    free for the caller to consume."""
    forms = [m._cleared for m in mats]
    den = lcm(*[d for d, _ in forms], *[x.denominator for x in scalars])
    scales = [den // d for d, _ in forms]
    rows = [[{j: x * f for j, x in row.items()} for row in r] for f, (_, r) in zip(scales, forms)]
    return den, rows, [x.numerator * (den // x.denominator) for x in scalars]


def scalar(n: int, c: int) -> Rows:
    """c times the n x n identity."""
    return [{i: c} if c else {} for i in range(n)]


def mul(x: Rows, y: Rows) -> Rows:
    """The product x*y, adding only products of nonzero entries and
    dropping a sum where it cancels."""
    out = []
    for row in x:
        acc: dict[int, int] = {}
        for k, a in row.items():
            for j, b in y[k].items():
                if j in acc:
                    v = acc[j] + a * b
                    if v:
                        acc[j] = v
                    else:
                        del acc[j]
                else:
                    acc[j] = a * b
        out.append(acc)
    return out


def combine(*terms: tuple[int, Rows]) -> Rows:
    """The sum of c*m over the (c, m) terms, all of one shape.  It starts
    from the first term with c != 0, skips the others with c = 0 and drops
    a sum that cancels."""
    out = None
    for c, m in terms:
        if not c:
            continue
        if out is None:
            out = [row.copy() if c == 1 else {j: c * x for j, x in row.items()} for row in m]
            continue
        for acc, row in zip(out, m):
            for j, x in row.items():
                v = acc.get(j, 0) + c * x
                if v:
                    acc[j] = v
                else:
                    del acc[j]
    return [{} for _ in terms[0][1]] if out is None else out


def columns(rows: Rows) -> list[dict[int, int]]:
    """The sparse columns {row: int} of a square matrix given by its rows."""
    cols: list[dict[int, int]] = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    return cols


def apply_columns(cols: list[dict[int, int]], v: dict[int, int]) -> dict[int, int]:
    """The integer matrix with columns cols times the sparse integer
    vector v, as a sparse dict."""
    out: dict[int, int] = {}
    for j, y in v.items():
        for i, x in cols[j].items():
            out[i] = out.get(i, 0) + x * y
    return {i: x for i, x in out.items() if x}
