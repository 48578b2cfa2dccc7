"""The cleared form a Mat carries (den, sparse integer rows), the modules
built from it, and racah.intmat.clear reading it."""

import copy
import pickle
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

import racah.analyzer as analyzer
import racah.modules as modules
from racah import (
    Mat,
    ParamTriple,
    analyze,
    build_R,
    build_verma,
    evaluate,
    intertwiner_space,
    isomorphic,
    l_matrix,
    minimal_polynomial,
    parse,
    rank,
    rat,
    spin,
    verify_relations,
    verma_checks,
)
from racah.intmat import clear, combine, mul
from racah.modules import BASES
from racah.rational import ONE, ZERO, Rat

from conftest import (
    ONTO_FORM,
    combine_oracle,
    entry_walk_clear,
    identity_mat,
    module_points,
    mul_oracle,
    rationals,
    zero_mat,
)

P = ParamTriple.of("1/3", "-2/5", "7/4")
SIX_DIGITS = ParamTriple.of("999983/999979", "-999961/999959", "999953/999931")


def boundary_points(d):
    """P moved onto each of the four reducibility forms at d/2 - 1."""
    t = rat(d, 2) - 1
    return [ParamTriple(P.a, P.b, form(P.a, P.b, t)) for form in ONTO_FORM]


def generators(rep):
    return [rep.A, rep.B, rep.C, rep.D]


def assert_canonical(m):
    """m's cleared form is den * m with zeros dropped, and den is the lcm
    of the entries' denominators."""
    den, rows = m._cleared
    assert den == lcm(*[x.denominator for row in m.entries for x in row if x])
    assert gcd(den, *[x for row in rows for x in row.values()]) == 1
    assert len(rows) == m.rows
    for row, entries in zip(rows, m.entries):
        assert 0 not in row.values()
        assert {j: Rat(x, den) for j, x in row.items()} == {
            j: x for j, x in enumerate(entries) if x
        }


# ------------------------------------------------------- the two forms

@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_mat_of_entries_has_the_canonical_form(n, m, data):
    entry = st.one_of(st.just(rat(0)), rationals(30, 30))
    entries = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    assert_canonical(Mat(entries))


def test_zero_mat_clears_over_one():
    assert zero_mat(2, 3)._cleared == (1, [{}, {}])
    assert Mat.from_cleared(6, [{}, {}], 2) == zero_mat(2)
    assert Mat.from_cleared(6, [{}, {}], 2)._cleared == (1, [{}, {}])


def test_from_cleared_divides_out_the_common_factor():
    m = Mat.from_cleared(12, [{0: 4, 1: -2}, {}, {2: 6}], 3)
    assert m._cleared == (6, [{0: 2, 1: -1}, {}, {2: 3}])
    assert m == Mat([[rat(1, 3), rat(-1, 6), 0], [0, 0, 0], [0, 0, rat(1, 2)]])
    assert m.shape() == (3, 3)
    assert all(type(x) is Rat for row in m.entries for x in row)
    assert m.entries[1][0] is ZERO and m.entries[0][0] == rat(1, 3)
    assert Mat.from_cleared(3, [{0: 3}], 2).entries == ((ONE, ZERO),)


def entries_equal(x, y):
    """Mat.__eq__ before it compared the cleared forms: the entries
    compared one by one; kept as its oracle."""
    return x.entries == y.entries


def entries_unmade(m):
    """True while m holds no entries: they are made only when read."""
    try:
        Mat._entries.__get__(m, Mat)
    except AttributeError:
        return True
    return False


def rebuilt(m, k):
    """m again through from_cleared, with den and every entry times k."""
    den, rows = m._cleared
    return Mat.from_cleared(den * k, [{j: x * k for j, x in row.items()} for row in rows], m.cols)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_mat_equality_and_hash_match_the_entries(n, m, data):
    entry = st.one_of(st.just(rat(0)), rationals(30, 30))
    rows = st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)
    x = Mat(data.draw(rows))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))
    nudged = [list(row) for row in x.entries]
    nudged[i][j] += data.draw(st.sampled_from([rat(1), rat(-1, 7), rat(1, 10**6)]))
    k = data.draw(st.integers(1, 12))
    for y in (Mat(x.entries), rebuilt(x, k), Mat(nudged), rebuilt(Mat(nudged), k), Mat(data.draw(rows))):
        for a, b in ((x, y), (y, x), (rebuilt(x, k), y)):
            assert (a == b) == entries_equal(a, b)
            assert (a != b) == (not entries_equal(a, b))
            if a == b:
                assert hash(a) == hash(b)
    assert x != Mat(nudged) and hash(rebuilt(x, k)) == hash(x)


def test_mats_from_integers_compare_without_their_entries():
    x, y = rebuilt(Mat([[rat(1, 3), 0], [2, rat(-5, 6)]]), 4), Mat.from_cleared(6, [{0: 2}, {0: 12, 1: -5}], 2)
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != Mat.from_cleared(6, [{0: 2}, {0: 12, 1: 5}], 2)
    assert entries_unmade(x) and entries_unmade(y)
    assert x == Mat(x.entries) and not entries_unmade(x)


def test_zero_mats_of_different_shapes_differ():
    zeros = [zero_mat(2), zero_mat(2, 3), zero_mat(3, 2), zero_mat(1), zero_mat(1, 4)]
    for a in zeros:
        for b in zeros:
            assert (a == b) == (a is b) == entries_equal(a, b)
    assert Mat.from_cleared(5, [{}, {}], 3) == zero_mat(2, 3) != Mat.from_cleared(5, [{}, {}], 2)
    assert hash(Mat.from_cleared(5, [{}, {}], 3)) == hash(zero_mat(2, 3))
    assert zero_mat(2) != identity_mat(2) and zero_mat(2) != "Mat(2x2)"


def integer_built(p, d):
    """Every Mat the library builds from integers at (p, d)."""
    mats = [m for basis in BASES for m in generators(build_R(p, d, basis))]
    vt = build_verma(p, d)
    mats += [vt.A, vt.B, l_matrix(p, d, "direct")]
    mats.append(evaluate(parse("1/3*A*B - [C, D] + 2*alpha*A"), build_R(p, d, "w")))
    return mats


@pytest.mark.parametrize("p, d", [(P, 0), (P, 4), (SIX_DIGITS, 6), *[(q, 5) for q in boundary_points(5)]])
def test_integer_built_mats_behave_like_mats_of_their_entries(p, d):
    for m in integer_built(p, d):
        cleared = copy.deepcopy(m._cleared)
        twin = Mat(m.entries)
        assert m == twin and twin == m
        assert hash(m) == hash(twin)
        back = pickle.loads(pickle.dumps(m))
        assert back == twin and pickle.dumps(back) == pickle.dumps(twin)
        assert twin._cleared == cleared  # derived from the entries by the walk
        assert clear([m]) == clear([twin]) == entry_walk_clear([twin])
        assert_canonical(m)


# --------------------------------------------------- intmat.clear oracle

def assert_clear_matches_the_entry_walk(p, d):
    for basis in BASES:
        rep = build_R(p, d, basis)
        mats = generators(rep)
        assert clear(mats, rep.scalars) == entry_walk_clear(mats, rep.scalars)
        # mixed with Mats built from entries, and a Mat given twice
        mixed = [Mat(rep.A.entries), rep.B, rep.D, rep.B]
        assert clear(mixed, (rat(1, 7),)) == entry_walk_clear(mixed, (rat(1, 7),))


@given(module_points(max_d=10))
def test_clear_matches_the_entry_walk(point):
    assert_clear_matches_the_entry_walk(*point)


@pytest.mark.parametrize("d", [1, 4, 9])
def test_clear_matches_the_entry_walk_at_six_digits_and_on_each_boundary(d):
    for p in [SIX_DIGITS, *boundary_points(d)]:
        assert_clear_matches_the_entry_walk(p, d)


def test_clear_hands_out_new_rows():
    rep = build_R(P, 3)
    _, (a, b), _ = clear([rep.A, rep.B])
    for row in a + b:
        row.clear()
    assert clear([rep.A, rep.B]) == entry_walk_clear([rep.A, rep.B])


# ------------------------------------ intmat.mul and combine oracles

def sparse_rows(n, m):
    """n sparse integer rows over m columns storing no zero; entries are
    small, so that sums often cancel, and rows are often empty."""
    entry = st.integers(-3, 3).filter(bool)
    row = st.dictionaries(st.integers(0, m - 1), entry, max_size=m) if m else st.just({})
    return st.lists(row, min_size=n, max_size=n)


def assert_stores_no_zero(rows):
    assert all(x for row in rows for x in row.values())


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_mul_matches_the_oracle(n, k, m, data):
    x, y = data.draw(sparse_rows(n, k)), data.draw(sparse_rows(k, m))
    before = copy.deepcopy((x, y))
    got = mul(x, y)
    assert got == mul_oracle(x, y)
    assert_stores_no_zero(got)
    assert (x, y) == before


@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_combine_matches_the_oracle(n, m, data):
    # one to four terms; coefficients are often zero, and sometimes all are
    mats = data.draw(st.lists(sparse_rows(n, m), min_size=1, max_size=4))
    coefficients = st.one_of(st.just(0), st.integers(-3, 3))
    terms = [(data.draw(coefficients), rows) for rows in mats]
    before = copy.deepcopy(terms)
    got = combine(*terms)
    assert got == combine_oracle(*terms)
    assert_stores_no_zero(got)
    assert terms == before


def test_mul_and_combine_drop_the_sums_that_cancel():
    x, y = [{0: 1, 1: -1}, {}, {1: 2}], [{0: 2, 1: 3}, {0: 2, 1: 1}]
    assert mul(x, y) == mul_oracle(x, y) == [{1: 2}, {}, {0: 4, 1: 2}]
    m = [{0: 5, 2: -1}, {1: 7}]
    n = [{0: 5}, {1: 7, 2: 1}]
    assert combine((1, m), (-1, m)) == combine_oracle((1, m), (-1, m)) == [{}, {}]
    assert combine((1, m), (-1, n)) == [{2: -1}, {2: -1}]
    assert combine((0, m), (0, n)) == [{}, {}]
    assert combine((0, m), (2, n), (0, m)) == [{0: 10}, {1: 14, 2: 2}]
    single = combine((1, m))
    assert single == m and all(a is not b for a, b in zip(single, m))


# ------------------------------------- consumers leave their inputs alone

def snapshot(mats):
    return [copy.deepcopy(m._cleared) for m in mats]


def recording_bands(monkeypatch):
    """Patch build_bands, where racah.modules and racah.analyzer read it,
    to record the bands of each module built, analyze's and build_R's,
    with a copy of their rows taken on the way out."""
    built = []
    real = modules.build_bands

    def build(p, d, basis="v"):
        bands = real(p, d, basis)
        built.append((bands, copy.deepcopy(abc_rows(bands))))
        return bands

    monkeypatch.setattr(modules, "build_bands", build)
    monkeypatch.setattr(analyzer, "build_bands", build)
    return built


def abc_rows(bands):
    return [bands.A, bands.B, bands.C]


@pytest.mark.parametrize("p, d", [(P, 4), (SIX_DIGITS, 3), (boundary_points(3)[1], 3)])
def test_consumers_keep_the_cleared_form_of_their_inputs(p, d, monkeypatch):
    reps = [build_R(p, d, basis) for basis in BASES]
    mats = [m for rep in reps for m in generators(rep)]
    vt = build_verma(p, d)
    mats += [vt.A, vt.B]
    before = snapshot(mats)
    v, w, _ = reps
    for rep in reps:
        verify_relations(rep)
        evaluate(parse("A*B*C - 1/2*D^2 + gamma*C"), rep)
        for m in generators(rep):
            rank(m)
            minimal_polynomial(m)
    intertwiner_space(v.A, v.B, w.A, w.B)
    spin(d + 1, [[ONE] + [ZERO] * d], [v.A, v.B])
    verma_checks(vt, d)
    assert snapshot(mats) == before

    built = recording_bands(monkeypatch)
    analyze(p, d)
    l_matrix(p, d, "direct")
    q = ParamTriple(-p.a - 1, p.b, p.c)
    if analyzer.in_P(p, d)[0]:
        isomorphic(p, q, d)
    assert len(built) == (4 if analyzer.in_P(p, d)[0] else 2)
    for bands, taken in built:
        assert abc_rows(bands) == taken


@pytest.fixture
def sequence_calls(monkeypatch):
    """The arguments of each params.sequences call through racah.modules or racah.analyzer."""
    calls, real = [], modules.sequences

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(modules, "sequences", counting)
    monkeypatch.setattr(analyzer, "sequences", counting)
    return calls


def test_direct_l_matrix_evaluates_the_sequences_once(sequence_calls):
    for p, d in [(P, 0), (P, 6), (SIX_DIGITS, 3)]:
        sequence_calls.clear()
        got = l_matrix(p, d, "direct")
        assert len(sequence_calls) == 1 and got == l_matrix(p, d, "closed"), (p, d)


def test_analyze_evaluates_the_sequences_once_per_point(sequence_calls):
    for p, d in [(P, 0), (P, 4), (SIX_DIGITS, 3), *[(q, 5) for q in boundary_points(5)]]:
        sequence_calls.clear()
        report = analyze(p, d)
        assert len(sequence_calls) == 1, (p, d)
        m = l_matrix(p, d, "closed")
        assert report.l_diagonal == tuple(m.entries[i][i] for i in range(d + 1))
