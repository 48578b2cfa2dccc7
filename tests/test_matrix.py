import pickle

import pytest
from hypothesis import given, strategies as st

from racah import Mat, ParamTriple, ShapeError, build_R, rat
from racah.modules import BASES
from racah.rational import Rat

from conftest import (
    commutator,
    diagonal_mat,
    identity_mat,
    lower_bidiagonal,
    rationals,
    tridiagonal,
    upper_bidiagonal,
    zero_mat,
)


def mats(n, m=None):
    m = n if m is None else m
    return st.lists(
        st.lists(rationals(), min_size=m, max_size=m), min_size=n, max_size=n
    ).map(Mat)


def test_known_product():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[5, 6], [7, 8]])
    assert all(type(x) is Rat for row in a.entries for x in row)
    assert a * b == Mat([[19, 22], [43, 50]])
    assert b * a == Mat([[23, 34], [31, 46]])


def test_add_sub_scale():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[rat(1, 2), 0], [0, rat(1, 2)]])
    assert a + b == Mat([[rat(3, 2), 2], [3, rat(9, 2)]])
    assert a - a == zero_mat(2)
    assert a.scale(rat(1, 2)) == Mat([[rat(1, 2), 1], [rat(3, 2), 2]])
    assert a * rat(2) == Mat([[2, 4], [6, 8]])


def test_identity_zero_diagonal():
    assert identity_mat(2) == Mat([[1, 0], [0, 1]])
    assert zero_mat(2, 3) == Mat([[0, 0, 0], [0, 0, 0]]) == Mat([[1, 2, 3], [4, 5, 6]]).scale(0)
    assert diagonal_mat([1, 2]) == Mat([[1, 0], [0, 2]])


def test_shape_errors_name_both_shapes():
    a = Mat([[1, 2, 3], [4, 5, 6]])  # 2x3
    b = Mat([[1, 2], [3, 4], [5, 6], [7, 8]])  # 4x2
    with pytest.raises(ShapeError, match="2x3.*4x2"):
        a * b
    with pytest.raises(ShapeError, match="2x3"):
        a + Mat([[1]])
    with pytest.raises(ShapeError):
        a.trace()
    with pytest.raises(ShapeError):
        a.apply([1, 2])
    with pytest.raises(ShapeError):
        Mat([[1, 2], [3]])
    with pytest.raises(ShapeError):
        Mat([])


def test_trace():
    assert Mat([[1, 2], [3, 4]]).trace() == 5


def test_apply_and_accessors():
    a = Mat([[1, 2], [3, 4]])
    assert a.apply((1, 1)) == (3, 7)
    assert a.entries[0][1] == 2


def test_bidiagonal_builders():
    m = lower_bidiagonal([1, 2, 3], [7, 8])
    assert m == Mat([[1, 0, 0], [7, 2, 0], [0, 8, 3]])
    u = upper_bidiagonal([1, 2, 3], [7, 8])
    assert u == Mat([[1, 7, 0], [0, 2, 8], [0, 0, 3]])
    t = tridiagonal([1, 2, 3], [7, 8], [4, 5])
    assert t == Mat([[1, 4, 0], [7, 2, 5], [0, 8, 3]])
    assert tridiagonal([6], [], []) == Mat([[6]])
    with pytest.raises(ShapeError, match="3 diagonal entries need 2"):
        tridiagonal([1, 2, 3], [7, 8], [4])
    with pytest.raises(ShapeError, match="3 diagonal entries need 2"):
        upper_bidiagonal([1, 2, 3], [7])


def band_entries(m):
    """(diagonal, subdiagonal, superdiagonal) of a square Mat."""
    n = m.rows
    return (
        [m.entries[i][i] for i in range(n)],
        [m.entries[i + 1][i] for i in range(n - 1)],
        [m.entries[i][i + 1] for i in range(n - 1)],
    )


def dense_tridiagonal(diag, sub, sup):
    """tridiagonal through Mat(), entry by entry; its oracle."""
    n = len(diag)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
    for i in range(n - 1):
        rows[i + 1][i], rows[i][i + 1] = sub[i], sup[i]
    return Mat(rows)


def test_tridiagonal_of_rats_matches_mat_on_every_basis():
    p = ParamTriple.of("1/3", "-2/5", "7/4")
    for d in (0, 1, 2, 7):
        for basis in BASES:
            rep = build_R(p, d, basis)
            for g in "ABCD":
                band = band_entries(rep.generator(g))
                got = tridiagonal(*band)
                assert got == dense_tridiagonal(*band) == rep.generator(g)
                assert got.shape() == (d + 1, d + 1)
                assert all(type(row) is tuple for row in got.entries)


@given(st.integers(1, 7), st.data())
def test_tridiagonal_matches_mat(n, data):
    entries = st.lists(rationals(), min_size=n - 1, max_size=n - 1)
    diag = data.draw(st.lists(rationals(), min_size=n, max_size=n))
    sub, sup = data.draw(entries), data.draw(entries)
    assert tridiagonal(diag, sub, sup) == dense_tridiagonal(diag, sub, sup)


def test_tridiagonal_still_coerces_and_rejects():
    t = tridiagonal([rat(1), 2, rat(3)], [rat(7), rat(8)], [rat(4), True])
    assert t == Mat([[1, 4, 0], [7, 2, 1], [0, 8, 3]])
    assert all(type(x) is Rat for row in t.entries for x in row)
    with pytest.raises(TypeError):
        tridiagonal([rat(1), 0.5], [rat(0)], [rat(0)])
    with pytest.raises(ShapeError):  # the shape is checked before the entries
        tridiagonal([rat(1), 0.5], [rat(0)], [])
    with pytest.raises(ShapeError):
        tridiagonal([], [], [])


@given(mats(3), mats(3), mats(3))
def test_mul_associative_add_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(mats(3), mats(3))
def test_trace_and_commutator_identities(a, b):
    assert (a * b).trace() == (b * a).trace()
    assert commutator(a, b) + commutator(b, a) == zero_mat(3)
    assert commutator(a, b).trace() == 0


@given(mats(3))
def test_immutability(a):
    with pytest.raises(AttributeError):
        a.entries = ()


def test_pickle_round_trip():
    m = Mat([[1, rat(-2, 3)], [0, 5]])
    back = pickle.loads(pickle.dumps(m))
    assert back == m and back.shape() == (2, 2)


def test_float_entries_are_rejected_by_name():
    with pytest.raises(TypeError, match="only exact rationals are accepted, got 0.5"):
        Mat([[0.5]])


def dense_product(a, b):
    """The schoolbook product over every term, kept as the oracle for the
    zero-skipping Mat.__mul__."""
    bt = list(zip(*b.entries))
    return Mat([[sum(x * y for x, y in zip(arow, bcol)) for bcol in bt] for arow in a.entries])


def sparse_mats(n, m):
    """n x m matrices with most entries zero, like the bidiagonal generators."""
    entry = st.one_of(st.just(rat(0)), st.just(rat(0)), rationals())
    return st.lists(
        st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n
    ).map(Mat)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
def test_mul_matches_dense_product(n, k, m, data):
    a = data.draw(sparse_mats(n, k))
    b = data.draw(sparse_mats(k, m))
    product = a * b
    assert product == dense_product(a, b)
    assert product.shape() == (n, m)
    assert all(type(x) is Rat for row in product.entries for x in row)


def dense_apply(a, vec):
    """The apply over every term, kept as the oracle for the zero-skipping
    Mat.apply."""
    return tuple(sum(x * y for x, y in zip(row, vec)) for row in a.entries)


@given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.data())
def test_apply_matches_dense_apply(n, m, int_vector, data):
    a = data.draw(sparse_mats(n, m))
    entry = st.integers(-3, 3) if int_vector else st.one_of(st.just(rat(0)), rationals())
    vec = data.draw(st.lists(entry, min_size=m, max_size=m))
    got = a.apply(vec)
    assert got == dense_apply(a, vec)
    assert all(type(x) is Rat for x in got)


def dense_add(a, b):
    """Entrywise a + b with no zero skipped: the oracle for Mat.__add__."""
    return Mat([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)])


def dense_sub(a, b):
    """Entrywise a - b with no zero skipped: the oracle for Mat.__sub__."""
    return Mat([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)])


def dense_scale(a, c):
    """c times every entry: the oracle for Mat.scale."""
    return Mat([[c * x for x in row] for row in a.entries])


@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_elementwise_ops_match_dense_ops(n, m, data):
    a = data.draw(sparse_mats(n, m))
    b = data.draw(sparse_mats(n, m))
    c = data.draw(st.one_of(st.just(0), st.integers(-3, 3), rationals()))
    pairs = [
        (a + b, dense_add(a, b)),
        (a - b, dense_sub(a, b)),
        (b - a, dense_sub(b, a)),
        (a.scale(c), dense_scale(a, rat(c))),
        (a * c, dense_scale(a, rat(c))),
    ]
    for got, want in pairs:
        assert got == want and got.shape() == (n, m)
        assert all(type(x) is Rat for row in got.entries for x in row)
