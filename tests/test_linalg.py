import math
import pickle
from itertools import count

import pytest
from hypothesis import assume, given, strategies as st

import racah.linalg as linalg
from racah import (
    ALL_FLIPS,
    Mat,
    ParamTriple,
    Poly,
    ShapeError,
    Subspace,
    act,
    build_R,
    eigenspace,
    in_P,
    intertwiner_space,
    invertible,
    kernel,
    minimal_polynomial,
    rank,
    rat,
    rref,
    spin,
)
from racah.modules import BASES
from racah.poly import monic_scaled
from racah.rational import Rat, parse_rat

from conftest import (
    diagonal_mat,
    identity_mat,
    in_span,
    lower_bidiagonal,
    poly_divmod,
    poly_gcd,
    poly_minimal_polynomial,
    poly_monic,
    poly_mul,
    rationals,
    reducer_add,
    substitution_intertwiners,
    triples,
    zero_mat,
)


def mats(n, m=None):
    m = n if m is None else m
    return st.lists(
        st.lists(rationals(max_num=5, max_den=3), min_size=m, max_size=m),
        min_size=n,
        max_size=n,
    ).map(Mat)


# ------------------------------------------------------------------- rref

def test_rref_hand_example():
    got = rref([[2, 4, 6], [1, 2, 3], [0, 1, 5]])
    assert got == [
        (rat(1), rat(0), rat(-7)),
        (rat(0), rat(1), rat(5)),
    ]


def test_rref_of_ints_is_exact():
    got = rref([[3, 1], [1, 1]])
    assert got == [(rat(1), rat(0)), (rat(0), rat(1))]
    assert all(type(x) is type(rat(1)) for row in got for x in row)


def test_rref_empty_and_zero():
    assert rref([]) == []
    assert rref([[0, 0], [0, 0]]) == []


@given(
    st.lists(st.lists(rationals(), min_size=3, max_size=3), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
def test_rref_canonical_under_shuffle_and_scale(vectors, rnd):
    base = rref(vectors)
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    scaled = []
    for v in shuffled:
        c = rat(rnd.randint(1, 7))
        scaled.append([c * x for x in v])
    # also throw in sums of pairs: same span
    if len(shuffled) >= 2:
        scaled.append([a + b for a, b in zip(shuffled[0], shuffled[1])])
    assert rref(scaled) == base


# --------------------------------------------------------------- subspace

def test_subspace_basics():
    s = Subspace(3, [[1, 1, 0], [0, 0, 2]])
    assert s.dim == 2 and s.dim != s.ambient_dim and s.basis
    assert in_span(s, (1, 1, 5))
    assert not in_span(s, (0, 1, 0))
    assert s == Subspace(3, [[2, 2, 2], [0, 0, 1]])
    assert not Subspace(2, []).basis
    assert Subspace(2, [[1, 0], [0, 1]]).dim == 2


def test_subspace_pickle_round_trip():
    for s in (Subspace(3, [[1, 1, 0], [0, 0, 2]]), Subspace(2, [])):
        back = pickle.loads(pickle.dumps(s))
        assert back == s and back.pivots == s.pivots


def test_rational_vectors_are_cleared_as_one_mat():
    # rref, Subspace and spin clear their vectors as the rows of one Mat
    assert rref([]) == [] and Subspace(3, []).dim == 0
    assert Subspace(2, [[rat(1, 2), rat(1, 3)], [rat(2, 5), 0]]).dim == 2
    for call in (rref, lambda v: Subspace(2, v), lambda v: spin(2, v, [])):
        with pytest.raises(ShapeError, match="mixed lengths"):
            call([[1, 2], [1]])
        with pytest.raises(TypeError, match="only exact rationals"):
            call([[1, 0.5]])
    with pytest.raises(TypeError, match="only exact rationals"):
        Mat([[1, 2]]).apply([1, 0.5])
    with pytest.raises(TypeError, match="only exact rationals"):
        eigenspace(Mat([[1]]), 0.5)


def contains_space(big: Subspace, small: Subspace) -> bool:
    return all(in_span(big, v) for v in small.basis)


def test_subspace_containment_order():
    big = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    small = Subspace(3, [[1, 1, 0]])
    assert contains_space(big, small)
    assert not contains_space(small, big)


# ----------------------------------------------------------------- kernel

def test_kernel_hand_example():
    m = Mat([[2, 4, 6], [1, 2, 3], [0, 1, 5]])
    k = kernel(m)
    assert k.dim == 1
    assert in_span(k, (7, -5, 1))
    assert k.basis == ((rat(1), rat(-5, 7), rat(1, 7)),)


def test_kernel_of_identity_and_zero():
    assert not kernel(identity_mat(3)).basis
    assert kernel(zero_mat(2, 4)).dim == 4


@given(mats(3, 4))
def test_kernel_vectors_annihilate_and_rank_nullity(m):
    k = kernel(m)
    for v in k.basis:
        assert all(x == 0 for x in m.apply(v))
    assert rank(m) + k.dim == m.cols


@given(mats(3))
def test_invertible_iff_trivial_kernel(m):
    assert invertible(m) == (kernel(m).dim == 0)


# -------------------------------------------------------------- eigenspace

def test_eigenspace_known():
    m = Mat([[2, 1], [0, 2]])
    s = eigenspace(m, 2)
    assert s.dim == 1 and s.basis == ((rat(1), rat(0)),)
    assert not eigenspace(m, 3).basis
    d = diagonal_mat([1, 1, 5])
    assert eigenspace(d, 1).dim == 2
    with pytest.raises(ShapeError):
        eigenspace(Mat([[1, 2]]), 1)


# ------------------------------------------------------ minimal polynomial

def apply_poly(p: Poly, m: Mat) -> Mat:
    """p(M) by Horner."""
    acc = zero_mat(m.rows)
    for c in reversed(p.coeffs):
        acc = acc * m + identity_mat(m.rows).scale(c)
    return acc


def companion(poly: Poly) -> Mat:
    """Companion matrix; its minimal polynomial is the (monic) polynomial
    itself, which makes an independent oracle for the Krylov computation."""
    p = Poly(poly_monic(poly.coeffs))
    n = p.degree
    cols = []
    for j in range(n):
        col = [rat(0)] * n
        if j < n - 1:
            col[j + 1] = rat(1)
        else:
            for i in range(n):
                col[i] = -p.coeffs[i]
        cols.append(col)
    return Mat(list(map(list, zip(*cols))))


def block_diag(*blocks: Mat) -> Mat:
    n = sum(b.rows for b in blocks)
    out = [[rat(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[off + i][off + j] = b.entries[i][j]
        off += b.rows
    return Mat(out)


def test_minpoly_known_cases():
    assert minimal_polynomial(identity_mat(3)) == Poly([-1, 1])
    assert minimal_polynomial(diagonal_mat([2, 2, 3])) == Poly.from_roots([2, 3])
    assert minimal_polynomial(Mat([[2, 1], [0, 2]])) == Poly.from_roots([2, 2])
    assert minimal_polynomial(Mat([[0, 1], [0, 0]])) == Poly([0, 0, 1])
    assert minimal_polynomial(Mat([[0]])) == Poly([0, 1])
    with pytest.raises(ShapeError):
        minimal_polynomial(Mat([[1, 2]]))


@given(
    st.lists(rationals(max_num=4, max_den=2), min_size=1, max_size=3),
    st.lists(rationals(max_num=4, max_den=2), min_size=1, max_size=2),
)
def test_minpoly_against_companion_oracle(c1, c2):
    p1 = Poly(c1 + [rat(1)])  # monic by construction
    p2 = Poly(c2 + [rat(1)])
    m = block_diag(companion(p1), companion(p2))
    got = minimal_polynomial(m)
    # oracle: lcm of the two minimal polynomials = p1*p2/gcd
    g = poly_gcd(p1, p2)
    expect = Poly(poly_monic(poly_divmod(poly_mul(p1.coeffs, p2.coeffs), g.coeffs)[0]))
    assert got == expect


@given(mats(3))
def test_minpoly_annihilates_and_is_monic(m):
    p = minimal_polynomial(m)
    assert p.coeffs[-1] == 1
    assert 1 <= p.degree <= 3
    assert apply_poly(p, m) == zero_mat(3)


@given(mats(3))
def test_minpoly_minimality(m):
    # I, M, ..., M^(deg-1) are linearly independent, so no nonzero polynomial
    # of smaller degree (in particular no proper divisor) annihilates M
    p = minimal_polynomial(m)
    powers = [identity_mat(3)]
    while len(powers) < p.degree:
        powers.append(powers[-1] * m)
    assert rank(Mat([[x for row in q.entries for x in row] for q in powers])) == p.degree


# ------------------------------------------------------------------- spin

def test_spin_shift_matrix_reaches_everything():
    n = 4
    shift = Mat([[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)])
    seed = [1, 0, 0, 0]
    assert spin(n, [seed], [shift]).dim == n
    # without the shift the seed spans only itself
    assert spin(n, [seed], [identity_mat(n)]).dim == 1


def test_spin_respects_block_structure():
    m = diagonal_mat([1, 2, 3])
    s = spin(3, [[0, 1, 0]], [m])
    assert s.dim == 1 and s.basis == ((rat(0), rat(1), rat(0)),)


def test_spin_of_int_seeds_is_exact():
    s = spin(3, [[3, 1, 1], [1, 1, 2]], [identity_mat(3)])
    assert s.basis == ((rat(1), rat(0), rat(-1, 2)), (rat(0), rat(1), rat(5, 2)))


def test_spin_shape_check():
    with pytest.raises(ShapeError):
        spin(3, [[1, 0, 0]], [identity_mat(2)])


@given(mats(4), mats(4), st.lists(rationals(), min_size=4, max_size=4))
def test_spin_is_invariant_and_contains_seed(m1, m2, seed):
    s = spin(4, [seed], [m1, m2])
    assert in_span(s, seed)
    for v in s.basis:
        assert in_span(s, m1.apply(v))
        assert in_span(s, m2.apply(v))


# ------------------------------------------------------------ intertwiners

NOT_LOWER_BIDIAGONAL = "must be lower bidiagonal with a nonzero subdiagonal"


def test_intertwiner_rejects_a_jordan_block():
    # upper bidiagonal: the nonzero entry is above the diagonal
    j = Mat([[2, 1], [0, 2]])
    with pytest.raises(ShapeError, match="A1 " + NOT_LOWER_BIDIAGONAL):
        intertwiner_space(j, j, j, j)
    lower = Mat([[2, 0], [1, 2]])
    with pytest.raises(ShapeError, match="A2 " + NOT_LOWER_BIDIAGONAL):
        intertwiner_space(lower, lower, j, j)


def test_intertwiner_rejects_distinct_diagonals():
    # a diagonal A: its subdiagonal is zero
    a1 = diagonal_mat([1, 2])
    a2 = diagonal_mat([1, 3])
    z = zero_mat(2)
    with pytest.raises(ShapeError, match="A1 " + NOT_LOWER_BIDIAGONAL):
        intertwiner_space(a1, z, a2, z)


def test_intertwiner_rejects_rectangular_diagonals():
    a1 = diagonal_mat([1, 2, 3])
    a2 = diagonal_mat([2, 3])
    z3, z2 = zero_mat(3), zero_mat(2)
    for args in ((a1, z3, a2, z2), (a2, z2, a1, z3)):
        with pytest.raises(ShapeError, match="A1 " + NOT_LOWER_BIDIAGONAL):
            intertwiner_space(*args)


@given(mats(3), mats(3), mats(2), mats(2))
def test_intertwiner_defining_property(a1, b1, a2, b2):
    # random A is almost never a module's shape and is rejected; on a
    # lower bidiagonal pair the retired Sylvester solve is the oracle
    if not (lower_bidiagonal_shape(a1) and lower_bidiagonal_shape(a2)):
        with pytest.raises(ShapeError, match=NOT_LOWER_BIDIAGONAL):
            intertwiner_space(a1, b1, a2, b2)
        return
    for x in check_against_sylvester(a1, b1, a2, b2):
        assert a2 * x == x * a1
        assert b2 * x == x * b1


# ------------------------------------- differential: Gauss-Jordan oracle

def gauss_jordan_rref(vectors):
    """The retired rref: Gauss-Jordan, clearing each new pivot column above
    and keeping the rows sorted by pivot.  Oracle for the elimination that
    rref and kernel now share."""
    rows = [list(v) for v in vectors]
    if not rows:
        return []
    ncols = len(rows[0])
    out, pivots = [], []
    for row in rows:
        for prow, pcol in zip(out, pivots):
            if row[pcol] != 0:
                f = row[pcol]
                for j in range(pcol, ncols):
                    row[j] = row[j] - f * prow[j]
        lead = next((j for j in range(ncols) if row[j] != 0), None)
        if lead is None:
            continue
        inv = rat(1) / row[lead]
        for j in range(lead, ncols):
            row[j] = row[j] * inv
        for prow in out:
            if prow[lead] != 0:
                f = prow[lead]
                for j in range(lead, ncols):
                    prow[j] = prow[j] - f * row[j]
        pos = next((k for k, pc in enumerate(pivots) if pc > lead), len(pivots))
        out.insert(pos, row)
        pivots.insert(pos, lead)
    return [tuple(r) for r in out]


def gauss_jordan_kernel(rows, ncols):
    """The retired kernel, on the oracle rref: one vector per free column."""
    reduced = gauss_jordan_rref(rows)
    pivots = [next(j for j, x in enumerate(r) if x != 0) for r in reduced]
    vectors = []
    for fj in (j for j in range(ncols) if j not in pivots):
        v = [rat(0)] * ncols
        v[fj] = rat(1)
        for r, pcol in zip(reduced, pivots):
            v[pcol] = -r[fj]
        vectors.append(v)
    return gauss_jordan_rref(vectors)


class FractionReducer:
    """The retired _Reducer: dense rows of rationals with remembered pivot
    columns, reduced by rational multiples.  When a list is given as
    factors, reduce() appends (t, f) to it for each f * rows[t] subtracted.
    Oracle for the sparse integer _Reducer behind rref, spin and
    minimal_polynomial."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def reduce(self, vec, factors=None):
        v = [rat(x) for x in vec]
        for t, (row, pcol) in enumerate(zip(self.rows, self.pivots)):
            if v[pcol] != 0:
                f = v[pcol] / row[pcol]
                for j in range(pcol, self.ncols):
                    if row[j] != 0:
                        v[j] = v[j] - f * row[j]
                if factors is not None:
                    factors.append((t, f))
        return v

    def add(self, vec, factors=None):
        v = self.reduce(vec, factors)
        lead = next((j for j, x in enumerate(v) if x != 0), None)
        if lead is None:
            return False
        self.rows.append(v)
        self.pivots.append(lead)
        return True


def fraction_rref(vectors):
    """The retired rref: a forward pass through the Fraction reducer, then
    each row scaled to pivot 1 and reduced, last pivot first."""
    rows = [list(v) for v in vectors]
    if not rows:
        return []
    forward, back = FractionReducer(len(rows[0])), FractionReducer(len(rows[0]))
    for row in rows:
        forward.add(row)
    for t in sorted(range(len(forward.rows)), key=forward.pivots.__getitem__, reverse=True):
        row = forward.rows[t]
        inv = rat(1) / row[forward.pivots[t]]
        back.add([x * inv for x in row])
    return [tuple(r) for r in reversed(back.rows)]


def fraction_spin(ambient_dim, seeds, operators):
    """The retired spin's basis (not canonical): the Fraction reducer's
    rows, each new one hit by every operator once."""
    red = FractionReducer(ambient_dim)
    queue = []
    for s in seeds:
        if red.add(s):
            queue.append(red.rows[-1])
    while queue and len(red.rows) < ambient_dim:
        v = queue.pop(0)
        for op in operators:
            if red.add(op.apply(v)):
                queue.append(red.rows[-1])
    return red.rows


def fraction_minimal_polynomial(m):
    """The retired Krylov loop: each row of the Fraction reducer carries
    its combination of powers of m, updated from the reported factors."""
    n = m.rows
    red = FractionReducer(n * n)
    combos = []
    power = identity_mat(n)
    k = 0
    while True:
        factors = []
        independent = red.add([x for row in power.entries for x in row], factors)
        combo = [rat(0)] * (k + 1)
        combo[k] = rat(1)
        for t, f in factors:
            for i, c in enumerate(combos[t]):
                combo[i] = combo[i] - f * c
        if not independent:
            return Poly(combo)
        combos.append(combo)
        power = power * m
        k += 1


def all_rat(rows):
    return all(type(x) is Rat for row in rows for x in row)


# mostly zero, otherwise a small rational or int
sparse_entries = st.one_of(
    st.just(rat(0)), st.just(rat(0)), rationals(max_num=5, max_den=3), st.integers(-4, 4)
)


@st.composite
def planted_rows(draw):
    """(ncols, rows): up to 8 mostly-zero rows of length up to 9, some of
    them combinations of the others."""
    ncols = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(sparse_entries, min_size=ncols, max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        cx, cy = draw(rationals(3, 2)), draw(rationals(3, 2))
        planted = [cx * a + cy * b for a, b in zip(x, y)]
        rows.insert(draw(st.integers(0, len(rows))), planted)
    return ncols, rows


@given(planted_rows())
def test_rref_matches_gauss_jordan(case):
    _, rows = case
    got = rref(rows)
    assert got == gauss_jordan_rref(rows) == fraction_rref(rows)
    assert all_rat(got)


@given(planted_rows())
def test_kernel_matches_gauss_jordan(case):
    ncols, rows = case
    assume(rows)
    got = kernel(Mat(rows)).basis
    assert list(got) == gauss_jordan_kernel(rows, ncols)
    assert all_rat(got)


@given(triples(5, 3), triples(5, 3), st.booleans(), st.integers(0, 3),
       st.sampled_from(["v", "w", "u"]))
def test_elimination_matches_gauss_jordan_on_sylvester_systems(p1, p2, same, d, basis2):
    # the stacked Sylvester system of a module pair, as the retired
    # intertwiner_space built it for kernel
    r1, r2 = build_R(p1, d, "v"), build_R(p1 if same else p2, d, basis2)
    m = sylvester_system(r1.A, r1.B, r2.A, r2.B)
    got = rref(m.entries)
    assert got == gauss_jordan_rref(m.entries) == fraction_rref(m.entries)
    null = kernel(m).basis
    assert list(null) == gauss_jordan_kernel(m.entries, m.cols)
    assert all_rat(got) and all_rat(null)


def rref_rank(m):
    """rank as the length of the full RREF of m's rows, before it counted
    the forward elimination's kept rows; kept as its oracle."""
    return len(rref(m.entries))


@given(planted_rows())
def test_rank_matches_rref_on_planted_rows(case):
    ncols, rows = case
    if rows:  # a Mat needs a row
        m = Mat(rows)
        assert rank(m) == rref_rank(m) <= min(m.rows, ncols)


@given(mats(4, 3), st.integers(0, 3))
def test_rank_matches_rref_on_random_and_singular_matrices(m, k):
    assert rank(m) == rref_rank(m)
    # column k of the square part made a combination of the others
    square = [list(row[:3]) for row in m.entries[:3]]
    for row in square:
        row[k % 3] = 2 * row[(k + 1) % 3] - row[(k + 2) % 3] / 3
    singular = Mat(square)
    assert rank(singular) == rref_rank(singular) < 3
    doubled = Mat([*m.entries, *m.entries])  # rank deficient by construction
    assert rank(doubled) == rref_rank(doubled) == rank(m)


@given(triples(5, 3), st.integers(0, 6), st.sampled_from(["v", "w", "u"]))
def test_rank_matches_rref_on_generators(p, d, basis):
    rep = build_R(p, d, basis)
    for m in (rep.A, rep.B, rep.C, rep.D):
        assert rank(m) == rref_rank(m)


def sparse_square(n):
    row = st.lists(sparse_entries, min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(Mat)


@given(st.integers(1, 6).flatmap(sparse_square))
def test_minpoly_matches_fraction_reducer(m):
    got = minimal_polynomial(m)
    assert got == fraction_minimal_polynomial(m)
    assert all_rat([got.coeffs])


@given(st.integers(1, 7), st.data())
def test_spin_matches_fraction_reducer(n, data):
    ops = data.draw(st.lists(sparse_square(n), min_size=1, max_size=2))
    seeds = data.draw(
        st.lists(st.lists(sparse_entries, min_size=n, max_size=n), min_size=1, max_size=2)
    )
    got = spin(n, seeds, ops).basis
    assert list(got) == gauss_jordan_rref(fraction_spin(n, seeds, ops))
    assert all_rat(got)


@given(triples(5, 3), st.integers(0, 6), st.sampled_from(["v", "w", "u"]))
def test_elimination_matches_fraction_reducer_on_generators(p, d, basis):
    rep = build_R(p, d, basis)
    n = d + 1
    gens = [rep.generator(name) for name in ("A", "B", "C", "D")]
    for g in gens:
        assert minimal_polynomial(g) == fraction_minimal_polynomial(g)
        got = rref(g.entries)
        assert got == fraction_rref(g.entries) and all_rat(got)
        shifted = g - identity_mat(n).scale(g.entries[0][0])
        assert list(kernel(shifted).basis) == gauss_jordan_kernel(shifted.entries, n)
    seed = [[1] + [0] * d]
    got = spin(n, seed, gens[:2]).basis
    assert list(got) == gauss_jordan_rref(fraction_spin(n, seed, gens[:2]))
    assert all_rat(got)


# --------------------------- differential: power Krylov and Mat.apply spin

def power_krylov_minimal_polynomial(m):
    """The retired minimal_polynomial: the first dependency among I, M,
    M^2, ... viewed as vectors of length n^2.  Each power is reduced with a
    marker e_k appended; once the power part reduces to zero, the marker
    columns hold the dependency.  Oracle for the vector Krylov sequences."""
    n = m.rows
    width = n * n
    red = linalg._Reducer(width + n + 1)
    power = identity_mat(n)
    for k in count():
        marker = [0] * (n + 1)
        marker[k] = 1
        reducer_add(red, [x for row in power.entries for x in row] + marker)
        if red.pivots[-1] >= width:
            row = red.rows[-1]
            lead = row[width + k]
            return Poly([rat(row.get(width + i, 0), lead) for i in range(k + 1)])
        power = power * m


def dense_row(row, n):
    """The sparse integer row as a list of n ints."""
    out = [0] * n
    for j, x in row.items():
        out[j] = x
    return out


def apply_spin(ambient_dim, seeds, operators):
    """The retired spin: each kept row, made dense, is hit by every
    rational operator through Mat.apply.  Oracle for the integer spin."""
    red = linalg._Reducer(ambient_dim)
    for s in seeds:
        reducer_add(red, s)
    done = 0
    while done < red.dim < ambient_dim:
        v = dense_row(red.rows[done], ambient_dim)
        done += 1
        for op in operators:
            reducer_add(red, op.apply(v))
    return Subspace(ambient_dim, [dense_row(row, ambient_dim) for row in red.rows])


def unit_triangular(n, entries, lower):
    """Ones on the diagonal, entries below it (lower) or above it."""
    return Mat([
        [1 if i == j else entries[i * n + j] if (i > j) == lower else 0 for j in range(n)]
        for i in range(n)
    ])


def inverse(m):
    n = m.rows
    aug = rref([list(row) + [1 if i == j else 0 for j in range(n)]
                for i, row in enumerate(m.entries)])
    return Mat([row[n:] for row in aug])


@st.composite
def conjugated_jordan(draw):
    """(M, expected minimal polynomial): a block diagonal of Jordan blocks
    whose eigenvalues repeat across blocks, so M is often derogatory,
    conjugated by a product of unit triangular matrices."""
    eigenvalues = draw(st.lists(rationals(3, 2), min_size=1, max_size=2, unique=True))
    blocks = draw(st.lists(
        st.tuples(st.sampled_from(eigenvalues), st.integers(1, 3)), min_size=1, max_size=4
    ))
    n = sum(size for _, size in blocks)
    jordan = [[rat(0)] * n for _ in range(n)]
    off = 0
    for lam, size in blocks:
        for i in range(off, off + size):
            jordan[i][i] = lam
            if i > off:
                jordan[i - 1][i] = rat(1)
        off += size
    coeffs = st.lists(sparse_entries, min_size=n * n, max_size=n * n)
    s = (unit_triangular(n, draw(coeffs), lower=True)
         * unit_triangular(n, draw(coeffs), lower=False))
    largest = {}
    for lam, size in blocks:
        largest[lam] = max(largest.get(lam, 0), size)
    expect = Poly.from_roots([lam for lam, k in largest.items() for _ in range(k)])
    return s * Mat(jordan) * inverse(s), expect


@given(st.integers(1, 6).flatmap(sparse_square))
def test_minpoly_matches_power_krylov(m):
    assert minimal_polynomial(m) == power_krylov_minimal_polynomial(m)


@given(conjugated_jordan())
def test_minpoly_matches_power_krylov_on_derogatory_matrices(case):
    m, expect = case
    got = minimal_polynomial(m)
    assert got == power_krylov_minimal_polynomial(m) == expect
    assert all_rat([got.coeffs])


def integer_square(n):
    """Square integer matrices as sparse rows, mostly zero, small entries
    often repeated on the diagonal so that derogatory matrices and
    repeated eigenvalues come up."""
    entry = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))
    dense = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return dense.map(lambda rows: [{j: x for j, x in enumerate(row) if x} for row in rows])


@given(st.integers(1, 6).flatmap(integer_square))
def test_minimal_polynomial_integer_matches_the_oracles(rows):
    n = len(rows)
    m = Mat([dense_row(row, n) for row in rows])
    got = linalg.minimal_polynomial_integer(rows)
    assert all(type(c) is int for c in got) and got[-1] > 0
    assert math.gcd(*got) == 1
    assert monic_scaled(got, 1) == fraction_minimal_polynomial(m) == poly_minimal_polynomial(m)


@given(conjugated_jordan(), st.integers(1, 12))
def test_minimal_polynomial_integer_on_cleared_derogatory_matrices(case, scale):
    # den*M for a den beyond the lcm of M's denominators: the monic
    # polynomial P(den x)/lead does not depend on the den that cleared M
    m, expect = case
    den, (rows,), _ = linalg.clear([m])
    den *= scale
    rows = [{j: x * scale for j, x in row.items()} for row in rows]
    assert monic_scaled(linalg.minimal_polynomial_integer(rows), den) == expect
    assert minimal_polynomial(m) == poly_minimal_polynomial(m) == expect


@st.composite
def integer_tridiagonal(draw, n):
    """Square integer tridiagonal matrices as sparse rows, small and
    12-digit entries.  Each off-diagonal either is nonzero throughout or
    is zero at half its entries, drawn independently, so both routes of
    minimal_polynomial_integer come up at every size."""
    big = st.integers(-10**12, 10**12)
    entry = st.one_of(st.integers(-4, 4), big)
    nonzero = st.one_of(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), big.filter(bool))
    sub, sup = (st.one_of(st.just(0), entry) if draw(st.booleans()) else nonzero for _ in range(2))
    rows = []
    for i in range(n):
        row = {i: draw(entry)}
        if i:
            row[i - 1] = draw(sub)
        if i < n - 1:
            row[i + 1] = draw(sup)
        rows.append({j: x for j, x in row.items() if x})
    return rows


@given(st.integers(1, 12).flatmap(integer_tridiagonal))
def test_continuant_matches_krylov_on_tridiagonal_matrices(rows):
    n = len(rows)
    fast = all(i - 1 in rows[i] for i in range(1, n)) or all(i + 1 in rows[i] for i in range(n - 1))
    assert linalg._unreduced_tridiagonal(rows) == fast
    got = linalg.minimal_polynomial_integer(rows)
    assert got == linalg._krylov_minimal_polynomial(rows)
    if fast:  # nonderogatory: the minimal polynomial is the characteristic one
        assert len(got) == n + 1 and got[-1] == 1


@given(triples(5, 3), st.integers(0, 12), st.sampled_from(BASES))
def test_continuant_matches_krylov_on_generators(p, d, basis):
    rep = build_R(p, d, basis)
    for name in ("A", "B", "C", "D"):
        _, (rows,), _ = linalg.clear([rep.generator(name)])
        if name in "AC":  # a nonzero subdiagonal in every basis
            assert linalg._unreduced_tridiagonal(rows), (name, basis)
        assert linalg.minimal_polynomial_integer(rows) == linalg._krylov_minimal_polynomial(rows)


def test_dense_and_gapped_matrices_take_the_krylov_route(monkeypatch):
    calls = []
    real = linalg._krylov_minimal_polynomial

    def counting(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(linalg, "_krylov_minimal_polynomial", counting)
    dense = [{0: 2, 1: 1, 2: 1}, {0: 1, 1: 2, 2: 1}, {0: 1, 1: 1, 2: 2}]  # (x-1)(x-4)
    assert linalg.minimal_polynomial_integer(dense) == [4, -5, 1]
    # gaps on both off-diagonals, and derogatory: (x-1)^2, not (x-1)^3
    gapped = [{0: 1, 1: 1}, {1: 1}, {1: 1, 2: 1}]
    assert linalg.minimal_polynomial_integer(gapped) == [1, -2, 1]
    assert calls == [dense, gapped]
    # one gap on each side, but not on the same side: the continuant route
    one_side = [{0: 1, 1: 1}, {1: 1, 2: 1}, {1: 1, 2: 1}]
    assert linalg.minimal_polynomial_integer(one_side) == real(one_side)
    assert len(calls) == 2


def reducible_triple(form, d, x, y, i):
    """A triple whose named linear form equals the forbidden value d/2 - i."""
    v = rat(d, 2) - i
    if form == "a+b+c+1":
        return ParamTriple(v - 1 - x - y, x, y)
    if form == "-a+b+c":
        return ParamTriple(x + y - v, x, y)
    if form == "a-b+c":
        return ParamTriple(x, x + y - v, y)
    return ParamTriple(x, y, x + y - v)


@given(st.sampled_from(["a+b+c+1", "-a+b+c", "a-b+c", "a+b-c"]), st.integers(1, 8),
       rationals(5, 3), rationals(5, 3), st.data())
def test_oracles_match_at_reducible_points(form, d, x, y, data):
    p = reducible_triple(form, d, x, y, data.draw(st.integers(1, d)))
    assert not in_P(p, d)[0]
    n = d + 1
    for basis in ("v", "w", "u"):
        rep = build_R(p, d, basis)
        gens = [rep.generator(name) for name in ("A", "B", "C", "D")]
        for g in gens:
            assert minimal_polynomial(g) == power_krylov_minimal_polynomial(g)
        for lam in set(rep.B.entries[i][i] for i in range(n)):
            seeds = eigenspace(rep.B, lam).basis
            assert spin(n, seeds, gens[:2]) == apply_spin(n, seeds, gens[:2])


@given(st.integers(1, 7), st.data())
def test_spin_matches_apply_spin(n, data):
    ops = data.draw(st.lists(sparse_square(n), min_size=1, max_size=3))
    seeds = data.draw(
        st.lists(st.lists(sparse_entries, min_size=n, max_size=n), min_size=1, max_size=2)
    )
    assert spin(n, seeds, ops) == apply_spin(n, seeds, ops)


# ------------------------- differential: the Sylvester intertwiner system

def sylvester_system(a1, b1, a2, b2):
    """The retired intertwiner system: the entries of A2 X - X A1 and
    B2 X - X B1 as dense rows over vec(X) (row-major), 2mn x mn.  Oracle
    for the route from e_0."""
    n, m = a1.rows, a2.rows
    nvars = m * n

    def var(i, j):
        return i * n + j

    rows = []
    for lhs, rhs in ((a2, a1), (b2, b1)):
        for i in range(m):
            for j in range(n):
                row = [rat(0)] * nvars
                for k in range(m):
                    if lhs.entries[i][k] != 0:
                        row[var(k, j)] = row[var(k, j)] + lhs.entries[i][k]
                for k in range(n):
                    if rhs.entries[k][j] != 0:
                        row[var(i, k)] = row[var(i, k)] - rhs.entries[k][j]
                rows.append(row)
    return Mat(rows)


def sylvester_intertwiners(a1, b1, a2, b2):
    n, m = a1.rows, a2.rows
    null = kernel(sylvester_system(a1, b1, a2, b2))
    return [Mat([v[i * n : (i + 1) * n] for i in range(m)]) for v in null.basis]


def check_against_sylvester(a1, b1, a2, b2):
    """intertwiner_space equals the retired Sylvester and substitution
    solves."""
    got = intertwiner_space(a1, b1, a2, b2)
    assert got == sylvester_intertwiners(a1, b1, a2, b2)
    assert got == substitution_intertwiners(a1, b1, a2, b2)
    assert all(all_rat(x.entries) for x in got)
    for x in got:
        assert a2 * x == x * a1 and b2 * x == x * b1
    return got


@given(triples(5, 3), st.integers(0, 5), st.sampled_from(ALL_FLIPS),
       st.sampled_from(BASES), st.sampled_from(BASES))
def test_intertwiner_matches_sylvester_across_bases(p, d, flip, basis1, basis2):
    # a flip partner in another basis, and two permutations of the triple:
    # the same eta, usually not isomorphic
    r1 = build_R(p, d, basis1)
    for q in (act(p, flip), ParamTriple(p.b, p.a, p.c), ParamTriple(p.c, p.b, p.a)):
        r2 = build_R(q, d, basis2)
        assert r2.scalars.eta == r1.scalars.eta
        check_against_sylvester(r1.A, r1.B, r2.A, r2.B)


@given(st.sampled_from(["a+b+c+1", "-a+b+c", "a-b+c", "a+b-c"]), st.integers(1, 5),
       rationals(5, 3), rationals(5, 3), st.sampled_from(BASES), st.sampled_from(BASES),
       st.data())
def test_intertwiner_matches_sylvester_at_reducible_points(form, d, x, y, basis1, basis2, data):
    p = reducible_triple(form, d, x, y, data.draw(st.integers(1, d)))
    r1, r2 = build_R(p, d, basis1), build_R(p, d, basis2)
    check_against_sylvester(r1.A, r1.B, r2.A, r2.B)


@pytest.mark.parametrize(
    "form, d, x, y, i",
    [("-a+b+c", 5, "-1/2", "-4", 4), ("a+b-c", 3, "5/2", "-1/2", 3),
     ("a-b+c", 2, "-1", "-1/2", 2), ("a+b+c+1", 1, "-1/2", "-5/2", 1)],
)
def test_intertwiners_of_reducible_modules_with_two_dimensional_hom(form, d, x, y, i):
    p = reducible_triple(form, d, parse_rat(x), parse_rat(y), i)
    for basis1 in BASES:
        for basis2 in BASES:
            r1, r2 = build_R(p, d, basis1), build_R(p, d, basis2)
            assert len(check_against_sylvester(r1.A, r1.B, r2.A, r2.B)) == 2


nonzero = rationals(5, 3).filter(bool)


@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_intertwiner_matches_sylvester_on_rectangular_pairs(n, k, data):
    # A1 lower bidiagonal with a non-unit subdiagonal and B1 lower
    # triangular keep the span of the last k < n + k unit vectors, so the
    # inclusion of the trailing k x k blocks is a map from (A2, B2) to
    # (A1, B1): m = k unknowns rows against n + k columns and back
    size = n + k
    diag = data.draw(st.lists(rationals(5, 3), min_size=size, max_size=size))
    sub = data.draw(st.lists(nonzero, min_size=size - 1, max_size=size - 1))
    a1 = lower_bidiagonal(diag, sub)
    b1 = Mat([
        [data.draw(sparse_entries) if j <= i else 0 for j in range(size)] for i in range(size)
    ])
    a2 = Mat([row[n:] for row in a1.entries[n:]])
    b2 = Mat([row[n:] for row in b1.entries[n:]])
    into = check_against_sylvester(a2, b2, a1, b1)
    assert into and (into[0].rows, into[0].cols) == (size, k)
    check_against_sylvester(a1, b1, a2, b2)


def lower_bidiagonal_shape(a):
    """Zero off the diagonal and first subdiagonal, nonzero on that
    subdiagonal: the shape intertwiner_space and substitution_intertwiners
    need."""
    return all(
        (x != 0) if j == i - 1 else (j == i or x == 0)
        for i, row in enumerate(a.entries)
        for j, x in enumerate(row)
    )


@given(triples(5, 3), st.integers(1, 4), st.sampled_from(BASES), st.data())
def test_intertwiner_matches_sylvester_under_conjugation(p, d, basis, data):
    # a diagonal conjugation keeps A lower bidiagonal with a non-unit
    # subdiagonal
    n = d + 1
    rep = build_R(p, d, basis)
    s = diagonal_mat(data.draw(st.lists(nonzero, min_size=n, max_size=n)))
    a, b = s * rep.A * inverse(s), s * rep.B * inverse(s)
    assert len(check_against_sylvester(rep.A, rep.B, a, b)) >= 1
    assert len(check_against_sylvester(a, b, rep.A, rep.B)) >= 1
