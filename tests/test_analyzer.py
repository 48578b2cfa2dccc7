import math
import random
import subprocess
import sys
import time
import types

import pytest
from hypothesis import given, strategies as st

import racah.analyzer as analyzer
import racah.modules as modules
from racah import (
    ConsistencyError,
    IDENTITY_FLIP,
    Mat,
    ParamTriple,
    Poly,
    act,
    analyze,
    build_R,
    canonical,
    eigenspace,
    identify,
    in_P,
    irreducible_oracle,
    isomorphic,
    l_matrix,
    minimal_polynomial,
    phi,
    rat,
    spin,
    squarefree,
    theta,
    theta_star,
    varphi,
)
from racah import ALL_FLIPS
from racah.intmat import clear, columns
from racah.linalg import Subspace, _lower_bidiagonal, minimal_polynomial_integer, spin_integer
from racah.modules import BASES
from racah.params import sequences, trace_formula
from racah.rational import HALF, ONE, ZERO, Rat, format_rat, is_square

from conftest import (
    ONTO_FORM,
    first_nonzero,
    fraction_in_P,
    squarefree_diagonalizable,
    identity_mat,
    in_span,
    l_matrix_fraction_oracle,
    module_points,
    nudged,
    poly_minimal_polynomial,
    poly_squarefree,
    random_triple,
    rationals,
    triples,
)

P = ParamTriple.of("1/3", "-2/5", "7/4")

# constructed so that exactly one linear form lands in the forbidden set
TAIL_REDUCIBLE = ParamTriple.of("1/5", "1/5", "-7/5")  # a+b+c+1 = 0 = 2/2 - 1
SPIN_REDUCIBLE = ParamTriple.of("1/3", "4/3", 1)  # a-b+c = 0 = 2/2 - 1


# ---------------------------------------------------------- irreducibility

def test_generic_point_is_irreducible_both_ways():
    ok, wit = in_P(P, 3)
    assert ok and wit == []
    oracle_ok, sub = irreducible_oracle(build_R(P, 3))
    assert oracle_ok and sub is None


def test_tail_reducible_point():
    ok, wit = in_P(TAIL_REDUCIBLE, 2)
    assert not ok
    assert [w.form for w in wit] == ["a+b+c+1"]
    rep = build_R(TAIL_REDUCIBLE, 2)
    # the violated form zeroes a superdiagonal entry of B
    assert rep.B.entries[1][2] == 0
    oracle_ok, sub = irreducible_oracle(rep)
    assert not oracle_ok
    assert sub.dim == 1 and in_span(sub, (0, 0, 1))


def test_spin_reducible_point():
    ok, wit = in_P(SPIN_REDUCIBLE, 2)
    assert not ok
    assert [w.form for w in wit] == ["a-b+c"]
    rep = build_R(SPIN_REDUCIBLE, 2)
    # B keeps its superdiagonal here; only the spin route sees the problem
    assert rep.B.entries[0][1] != 0 and rep.B.entries[1][2] != 0
    oracle_ok, sub = irreducible_oracle(rep)
    assert not oracle_ok
    assert 0 < sub.dim < 3


def test_reducible_witness_is_invariant():
    for p in (TAIL_REDUCIBLE, SPIN_REDUCIBLE):
        rep = build_R(p, 2)
        _, sub = irreducible_oracle(rep)
        for v in sub.basis:
            assert in_span(sub, rep.A.apply(v))
            assert in_span(sub, rep.B.apply(v))


def test_integer_reducible_point():
    p = ParamTriple.of(1, 1, 2)
    ok, wit = in_P(p, 2)
    assert not ok
    assert [(w.form, w.i) for w in wit] == [("a+b-c", 1)]
    oracle_ok, sub = irreducible_oracle(build_R(p, 2))
    assert not oracle_ok and 0 < sub.dim < 3


@given(triples(max_num=5, max_den=3), st.integers(0, 4), st.sampled_from(BASES))
def test_criterion_matches_oracle(p, d, basis):
    # a w or u module is the v module of a flipped triple, with the same verdict
    ok, _ = in_P(p, d)
    rep = build_R(p, d, basis)
    oracle_ok, sub = irreducible_oracle(rep)
    assert ok == oracle_ok
    if not ok:
        assert 0 < sub.dim < d + 1
        for v in sub.basis:
            assert in_span(sub, rep.A.apply(v))
            assert in_span(sub, rep.B.apply(v))


# ------------------ differential: Norton's spin and the witness loop vs eigenline spins

Q = 2**61 - 1


def spin_irreducible_oracle(rep):
    """The retired irreducible_oracle: after the tail check, spin the
    eigenline of each distinct diagonal entry of B (a dense Fraction kernel)
    under A and B, and return the first proper span.  Oracle for Norton's
    one spin and the witness loop behind it."""
    n = rep.dim
    b = rep.B
    for i in range(1, n):
        if b.entries[i - 1][i] == 0:
            tail = [
                tuple(ONE if j == h else ZERO for j in range(n)) for h in range(i, n)
            ]
            return False, Subspace(n, tail)
    seen = []
    for i in range(n):
        lam = b.entries[i][i]
        if lam in seen:
            continue
        seen.append(lam)
        line = eigenspace(b, lam)
        if line.dim != 1:
            raise ConsistencyError("nonzero superdiagonal must leave 1-dim eigenspaces")
        generated = spin(n, line.basis, [rep.A, rep.B])
        if generated.dim != n:
            return False, generated
    return True, None


def exact_spins(rep, monkeypatch):
    """(oracle result, number of exact spins) for rep."""
    calls = []
    real = analyzer.spin_integer

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analyzer, "spin_integer", counting)
    return irreducible_oracle(rep), len(calls)


def loop_spins(rep):
    """The exact spins irreducible_oracle makes at a reducible point with
    no gap in B: one per distinct eigenvalue of B that the witness loop
    visits in index order up to its first proper span (the spans of
    spin_irreducible_oracle), and Norton's spin of the lambda_d eigenline,
    which the loop reuses when it visits lambda_d rather than spinning it
    again.  An eigenline that A alone spins to V is certified cyclic and
    not spun."""
    n, b = rep.dim, rep.B
    visited = []
    for i in range(n):
        lam = b.entries[i][i]
        if lam in visited:
            continue
        visited.append(lam)
        if spin(n, eigenspace(b, lam).basis, [rep.A, rep.B]).dim < n:
            break
    return sum(
        spin(n, eigenspace(b, lam).basis, [rep.A]).dim < n
        for lam in {*visited, b.entries[n - 1][n - 1]}
    )


def has_gap(rep):
    """Does a superdiagonal entry varphi_i of B vanish?"""
    return any(rep.B.entries[i - 1][i] == 0 for i in range(1, rep.dim))


def boundary_point(rng, d, form):
    """A random triple with the given reducibility form at d/2 - i for a
    random i in 1..d."""
    p = random_triple(rng)
    t = rat(d, 2) - rng.randint(1, d)
    return ParamTriple(p.a, p.b, ONTO_FORM[form](p.a, p.b, t))


def test_oracle_matches_eigenline_spins_on_random_points():
    rng = random.Random(2718)
    verdicts = []
    for _ in range(120):
        d = rng.randint(0, 12)
        rep = build_R(random_triple(rng), d)
        got = irreducible_oracle(rep)
        assert got == spin_irreducible_oracle(rep)
        verdicts.append(got[0])
    assert verdicts.count(True) >= 80


def test_oracle_matches_eigenline_spins_on_each_boundary_form():
    rng = random.Random(31337)
    for form in range(4):
        for _ in range(12):
            d = rng.randint(1, 10)
            p = boundary_point(rng, d, form)
            rep = build_R(p, d)
            got = irreducible_oracle(rep)
            assert got == spin_irreducible_oracle(rep), (p, d)
            assert not got[0] and 0 < got[1].dim <= d
            assert in_P(p, d)[0] is False


@given(triples(max_num=5, max_den=3), st.integers(0, 8))
def test_oracle_matches_eigenline_spins_on_small_triples(p, d):
    # small numerators land on the boundary forms often, tail included
    rep = build_R(p, d)
    assert irreducible_oracle(rep) == spin_irreducible_oracle(rep)


@st.composite
def half_integer_modules(draw):
    """build_R at coordinates k/2 with |k| <= 2d, where theta and theta*
    both repeat, and sometimes one entry moved: anywhere in A (its
    subdiagonal zeroed included), or on B's band, where the oracle's
    eigenlines are defined."""
    d = draw(st.integers(0, 16))
    coords = [rat(draw(st.integers(-2 * d, 2 * d)), 2) for _ in range(3)]
    rep = build_R(ParamTriple(*coords), d)
    if d and draw(st.booleans()):
        gen = draw(st.sampled_from("AB"))
        i = draw(st.integers(0, d))
        j = draw(st.integers(0, d) if gen == "A" else st.integers(i, min(i + 1, d)))
        m = rep.generator(gen)
        delta = draw(st.sampled_from([-m.entries[i][j], HALF, rat(-3)]))
        rep = rep._replace(**{gen: nudged(m, i, j, delta)})
    return rep


@given(half_integer_modules())
def test_oracle_matches_eigenline_spins_on_half_integer_grids(rep):
    assert irreducible_oracle(rep) == spin_irreducible_oracle(rep)
    # Norton's premise: with A lower bidiagonal and its subdiagonal nonzero,
    # e_d spins to all of V* under A^T and B^T, whose columns are the rows
    # of A and B
    _, (a, b), _ = clear([rep.A, rep.B])
    if _lower_bidiagonal(a) and analyzer._upper_bidiagonal(b):
        assert len(spin_integer(rep.dim, [{rep.d: 1}], [a, b])) == rep.dim


def split_a(p, d, k):
    """build_R(p, d) with A's subdiagonal entry at row k zeroed, so that
    span(v_0..v_(k-1)) is invariant under A and B."""
    rep = build_R(p, d)
    return rep._replace(A=nudged(rep.A, k, k - 1, -rep.A.entries[k][k - 1]))


def test_split_a_skips_the_norton_spin(monkeypatch):
    rep = split_a(P, 5, 3)
    # the lambda_d eigenline still spins to V here: only the band check on
    # A keeps this reducible module from being called irreducible
    _, (a, b), _ = clear([rep.A, rep.B])
    assert len(spin_integer(6, [analyzer._eigenline(b, 5)], [columns(a), columns(b)])) == 6
    (ok, sub), spins = exact_spins(rep, monkeypatch)
    assert (ok, sub) == spin_irreducible_oracle(rep)
    assert not ok and spins == 1
    assert sub == Subspace(6, [[ONE if j == h else ZERO for j in range(6)] for h in range(3)])


def test_analyze_catches_a_split_graph(monkeypatch):
    assert in_P(P, 5)[0]
    tamper(monkeypatch, ("A", 3, 2, rat(-1)))
    assert 2 not in analyzer.build_bands(P, 5).A[3]
    assert analyzer.build_R(P, 5).A.entries[3][2] == 0
    with pytest.raises(ConsistencyError, match="irreducibility criterion"):
        analyze(P, 5)


FALLBACKS = {
    # theta*_0 = theta*_2 = 3/4
    "repeated theta*": (ParamTriple.of("1/3", "-1/2", "2/7"), 4),
    # the large prime Q in the denominators of A's diagonal
    "denominator q": (ParamTriple(rat(1, Q), rat(1, 3), rat(2, 5)), 3),
    # theta*_0 - theta*_1 = -(2b + d) = -Q
    "gap q": (ParamTriple(rat(1, 3), rat(Q - 2, 2), rat(2, 5)), 2),
    # theta_1 = theta_3 and theta*_0 = theta*_2
    "repeated theta and theta*": (ParamTriple.of("-1/2", "-1/2", "2/7"), 4),
    # theta_0 - theta_1 = 2a + d = Q and theta*_0 - theta*_1 = -Q
    "gap q twice": (ParamTriple(rat(Q - 2, 2), rat(Q - 2, 2), rat(2, 5)), 2),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_each_fallback_matches_eigenline_spins(name, monkeypatch):
    p, d = FALLBACKS[name]
    rep = build_R(p, d)
    # the lambda_d eigenline is cyclic for A, so no spin runs
    assert exact_spins(rep, monkeypatch) == ((True, None), 0)
    assert spin_irreducible_oracle(rep) == (True, None)
    # the same point moved onto a boundary form gives the witness loop's span
    q = ParamTriple(p.a, p.b, ONTO_FORM[2](p.a, p.b, rat(d, 2) - 1))
    rep = build_R(q, d)
    got, spins = exact_spins(rep, monkeypatch)
    assert got == spin_irreducible_oracle(rep)
    assert not got[0] and spins == (0 if has_gap(rep) else loop_spins(rep))


def repeated_point(rng, d, coords):
    """A random irreducible triple whose coordinates among a and b sit in
    {(k - d - 1)/2 : k = 1..2d-1}, where theta (for a) or theta* (for b)
    takes one value at two indices, exactly when named in coords."""
    forbidden = {rat(k - d - 1, 2) for k in range(1, 2 * d)}
    while True:
        p = random_triple(rng)
        fixed = {x: rat(rng.randint(1, 2 * d - 1) - d - 1, 2) for x in coords}
        p = ParamTriple(fixed.get("a", p.a), fixed.get("b", p.b), p.c)
        if in_P(p, d)[0] and (p.a in forbidden) == ("a" in coords) and (
            p.b in forbidden
        ) == ("b" in coords):
            return p


@pytest.mark.parametrize("coords", ["", "a", "b", "ab"])
def test_one_spin_settles_each_irreducible_point(coords, monkeypatch):
    # the lambda_d eigenline decides alone, whether theta, theta* or both
    # repeat: it is cyclic for A, so the certificate settles the point
    # and no spin runs
    rng = random.Random(coords)
    for _ in range(30):
        d = rng.randint(2, 10)
        rep = build_R(repeated_point(rng, d, coords), d)
        assert exact_spins(rep, monkeypatch) == ((True, None), 0)
        assert spin_irreducible_oracle(rep) == (True, None)


def test_reducible_points_return_the_witness_loops_span(monkeypatch):
    # the Norton spin only proves irreducibility; the witness is the first
    # proper span in index order, and a gap in B needs no spin at all
    rng = random.Random(1731)
    for form in range(4):
        for _ in range(15):
            d = rng.randint(1, 10)
            rep = build_R(boundary_point(rng, d, form), d)
            got, spins = exact_spins(rep, monkeypatch)
            assert got == spin_irreducible_oracle(rep)
            assert not got[0]
            assert spins == (0 if has_gap(rep) else loop_spins(rep))


def test_tail_fallback_matches_eigenline_spins(monkeypatch):
    rep = build_R(TAIL_REDUCIBLE, 2)
    got, spins = exact_spins(rep, monkeypatch)
    assert got == spin_irreducible_oracle(rep)
    assert spins == 0 and got[1].dim == 1


def test_b_off_its_band_raises(monkeypatch):
    rep = build_R(P, 2)
    rep = rep._replace(B=nudged(rep.B, 1, 0, rat(1, 3)))
    # the witness loop reports it at its first eigenline, index 0: the
    # Norton spin, whose eigenline sits at index 2, is skipped
    with pytest.raises(ConsistencyError, match="B is not upper bidiagonal.* diagonal entry 0$"):
        exact_spins(rep, monkeypatch)
    with pytest.raises(ConsistencyError):
        spin_irreducible_oracle(rep)


# ------------------ differential: the cyclic certificate on random band pairs

def rows_oracle(a_rows, b_rows):
    """spin_irreducible_oracle on the pair given by sparse integer rows."""
    n = len(a_rows)
    a, b = (Mat.from_cleared(1, [dict(row) for row in rows], n) for rows in (a_rows, b_rows))
    return spin_irreducible_oracle(types.SimpleNamespace(dim=n, A=a, B=b))


@st.composite
def band_pairs(draw, min_n=1):
    """(A, B) as sparse integer rows: A lower bidiagonal with a nonzero
    subdiagonal, B upper bidiagonal with a nonzero superdiagonal, both
    diagonals drawn from a few values so that they repeat."""
    n = draw(st.integers(min_n, 6))
    a, b = (
        [{i: x} if x else {} for i, x in enumerate(
            draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        )]
        for _ in range(2)
    )
    nonzero = st.integers(-3, 3).filter(bool)
    for i in range(n - 1):
        a[i + 1][i] = draw(nonzero)
        b[i][i + 1] = draw(nonzero)
    return a, b


@given(band_pairs())
def test_certified_eigenlines_spin_to_v_on_random_band_pairs(pair):
    a, b = pair
    n = len(a)
    ops = [columns(a), columns(b)]
    firsts = {}  # each eigenvalue of B -> the first index holding it
    for i, row in enumerate(b):
        firsts.setdefault(row.get(i, 0), i)
    for i in firsts.values():
        x = analyzer._eigenline(b, i)
        if analyzer._is_cyclic(a, x):
            assert len(spin_integer(n, [x], ops)) == n
    assert analyzer._irreducible_rows(a, b) == rows_oracle(a, b)


@given(band_pairs(min_n=2), st.data())
def test_a_off_its_band_never_reaches_the_certificate(pair, data):
    # a zero on A's subdiagonal leaves span(e_0..e_(k-1)) A-invariant, and
    # _is_cyclic's premise false
    a, b = pair
    k = data.draw(st.integers(1, len(a) - 1))
    del a[k][k - 1]

    def refuse(*args):
        raise AssertionError("the cyclic certificate ran on A off its band")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analyzer, "_is_cyclic", refuse)
        assert analyzer._irreducible_rows(a, b) == rows_oracle(a, b)


def test_uncertified_eigenline_falls_back_to_the_norton_spin(monkeypatch):
    # A's diagonal (-1, 0, -1) repeats.  The lambda_d eigenline of B,
    # x = e_0 - 2 e_1, is f(A) e_0 for f(t) = 1 - (t + 1), and f(0) = 0, so
    # x is not cyclic for A; B moves it out of its A-cyclic span, and
    # Norton's one spin reaches V
    a = [{0: -1}, {0: 2}, {1: 2, 2: -1}]
    b = [{0: -1, 1: -1}, {1: 1, 2: -2}, {2: 1}]
    x = analyzer._eigenline(b, 1)
    assert x == {0: 1, 1: -2}
    assert not analyzer._is_cyclic(a, x)
    assert len(spin_integer(3, [x], [columns(a)])) < 3
    calls = []
    real = analyzer.spin_integer
    monkeypatch.setattr(analyzer, "spin_integer", lambda *args: calls.append(args) or real(*args))
    assert analyzer._irreducible_rows(a, b) == rows_oracle(a, b) == (True, None)
    assert len(calls) == 1


# ---------------------------------------------------------------- l_matrix

def test_l_matrix_d1_frozen():
    expect = Mat(
        [
            [rat(16289, 3600), 0],
            [rat(1, 5), rat(15089, 3600)],
        ]
    )
    for method in ("closed", "recurrence", "direct"):
        assert l_matrix(P, 1, method) == expect


def test_l_matrix_d0():
    for method in ("closed", "recurrence", "direct"):
        assert l_matrix(P, 0, method) == Mat([[1]])


def test_l_matrix_validation():
    with pytest.raises(ValueError):
        l_matrix(P, 2, "fast")
    with pytest.raises(ValueError):
        l_matrix(P, -1)


@given(triples(max_num=5, max_den=3), st.integers(0, 4))
def test_l_matrix_methods_agree(p, d):
    closed = l_matrix(p, d, "closed")
    assert l_matrix(p, d, "recurrence") == closed
    assert l_matrix(p, d, "direct") == closed
    # lower triangular, and invertible exactly on the irreducible locus
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            assert closed.entries[i][j] == 0
    diag_nonzero = all(closed.entries[i][i] != 0 for i in range(d + 1))
    assert diag_nonzero == in_P(p, d)[0]
    # every route is a module map from the v basis to the u basis
    v, u = build_R(p, d, "v"), build_R(p, d, "u")
    for method in ("closed", "recurrence", "direct"):
        lm = l_matrix(p, d, method)
        assert lm * v.A == u.A * lm
        assert lm * v.B == u.B * lm
    # and at an irreducible point the only one, up to scale (Schur's lemma)
    if diag_nonzero:
        assert analyzer.module_maps(v, u) == [closed.scale(1 / closed.entries[0][0])]


@given(triples(max_num=5, max_den=3), st.integers(0, 4))
def test_l_matrix_diagonal_product(p, d):
    closed = l_matrix(p, d, "closed")
    for i in range(d + 1):
        expect = rat(1)
        for h in range(1, d - i + 1):
            expect = expect * phi(p, d, h)
        for h in range(1, i + 1):
            expect = expect * varphi(p, d, h)
        assert closed.entries[i][i] == expect


def test_l_diagonal_is_the_diagonal_of_every_l_matrix():
    rng = random.Random(7919)
    reducible = 0
    for _ in range(80):
        d = rng.randint(0, 10)
        p = random_triple(rng)
        if d and rng.random() < 0.4:
            t = rat(d, 2) - rng.randint(1, d)
            p = ParamTriple(p.a, p.b, rng.choice(ONTO_FORM)(p.a, p.b, t))
        reducible += not in_P(p, d)[0]
        got = analyzer._l_diagonal(d, sequences(p, d, d + 1))
        for method in ("closed", "recurrence", "direct"):
            m = l_matrix(p, d, method)
            assert got == tuple(m.entries[i][i] for i in range(d + 1)), (p, d, method)
    assert reducible >= 15


def assert_same_as_the_fraction_oracle(p, d):
    for method in ("closed", "recurrence"):
        got, expect = l_matrix(p, d, method), l_matrix_fraction_oracle(p, d, method)
        assert got == expect, (p, d, method)
        assert got._cleared == expect._cleared, (p, d, method)


@given(module_points(max_d=12))
def test_closed_and_recurrence_l_matrix_match_the_fraction_oracle(point):
    # random triples, small or 6-digit, half of them on a reducibility
    # boundary, where a phi_h or varphi_h and so whole entries vanish
    assert_same_as_the_fraction_oracle(*point)


@pytest.mark.parametrize("d", [0, 16, 24])
def test_closed_and_recurrence_l_matrix_at_six_digits(d):
    p = ParamTriple.of("999983/999979", "-999961/999959", "999953/999931")
    assert_same_as_the_fraction_oracle(p, d)


def fraction_l_diagonal(p, d):
    """analyzer._l_diagonal as running Fraction products of the per-index
    phi and varphi, before it ran on the integer sequences; kept as its
    oracle."""
    phi_tail = [ONE]
    varphi_head = [ONE]
    for h in range(1, d + 1):
        phi_tail.append(phi_tail[-1] * phi(p, d, h))
        varphi_head.append(varphi_head[-1] * varphi(p, d, h))
    return tuple(phi_tail[d - i] * varphi_head[i] for i in range(d + 1))


@given(module_points())
def test_l_diagonal_matches_the_fraction_product(point):
    p, d = point
    assert analyzer._l_diagonal(d, sequences(p, d, d + 1)) == fraction_l_diagonal(p, d)


def direct_l_matrix_oracle(rep, p, d):
    """l_matrix's direct route as dense Fraction Mat products, before it
    ran on cleared integer rows.  Returns the matrix, or, where the route
    raises, (i, r, c, value): the partial product i whose B-annihilator
    product leaves the top row, and its first nonzero entry below row 0."""
    n = d + 1
    th = [theta(p, d, i) for i in range(n)]
    ts = [theta_star(p, d, i) for i in range(n)]
    prod_b = identity_mat(n)
    for h in range(1, n):
        prod_b = prod_b * (rep.B - identity_mat(n).scale(ts[h]))
    partial = identity_mat(n)
    partials = [None] * n
    partials[d] = partial
    for i in range(d - 1, -1, -1):
        partial = partial * (rep.A - identity_mat(n).scale(th[i + 1]))
        partials[i] = partial
    rows = []
    for i in range(n):
        m = prod_b * partials[i]
        hit = first_nonzero(Mat(m.entries[1:])) if n > 1 else None
        if hit is not None:
            r, c, value = hit
            return (i, r + 1, c, value)
        rows.append(list(m.entries[0]))
    return Mat(rows)


def direct_route_failure(oracle, p, d):
    i, r, c, value = oracle
    return (
        f"B-annihilator product must land in the top row at {p}, d={d}: "
        f"for partial product i={i} it has {format_rat(value)} at row {r}, column {c}"
    )


@given(triples(max_num=9, max_den=6), st.integers(0, 12))
def test_direct_l_matrix_matches_the_mat_product_oracle(p, d):
    got = l_matrix(p, d, "direct")
    assert got == direct_l_matrix_oracle(build_R(p, d, "v"), p, d)
    assert all(type(x) is Rat for row in got.entries for x in row)


def test_direct_l_matrix_at_a_large_six_digit_point():
    p = ParamTriple.of("999983/999979", "-999961/999959", "999953/999931")
    assert l_matrix(p, 12, "direct") == direct_l_matrix_oracle(build_R(p, 12, "v"), p, 12)


def tampered_bands(*nudges):
    """build_bands with delta added to entry (i, j) of generator gen, for
    each (gen, i, j, delta) in nudges: the rows are first brought to q
    times the lcm of the deltas' denominators, so that each delta is an
    integer there.  build_R wraps the same rows, so the Mats of the module
    carry the same nudges."""
    real = modules.build_bands

    def build(p, d, basis="v"):
        bands = real(p, d, basis)
        k = math.lcm(*(delta.denominator for *_, delta in nudges))
        q = bands.q * k
        gens = {g: [{j: x * k for j, x in row.items()} for row in getattr(bands, g)] for g in "ABC"}
        for gen, i, j, delta in nudges:
            row = gens[gen][i]
            row[j] = row.get(j, 0) + delta.numerator * (q // delta.denominator)
            if not row[j]:
                del row[j]
        return bands._replace(q=q, **gens)

    return build


def tamper(monkeypatch, *nudges):
    """Make build_bands, wherever racah.modules and racah.analyzer read it,
    carry the nudges: analyze, l_matrix's direct route and every module
    build_R builds see them."""
    build = tampered_bands(*nudges)
    monkeypatch.setattr(modules, "build_bands", build)
    monkeypatch.setattr(analyzer, "build_bands", build)


@given(triples(max_num=9, max_den=6), st.integers(1, 8), st.sampled_from("AB"),
       rationals(9, 6).filter(bool), st.data())
def test_tampered_direct_l_matrix_matches_the_oracle(p, d, gen, delta, data):
    # one entry of A or B moved, anywhere, off the band included
    i, j = data.draw(st.integers(0, d)), data.draw(st.integers(0, d))
    with pytest.MonkeyPatch.context() as mp:
        tamper(mp, (gen, i, j, delta))
        expect = direct_l_matrix_oracle(build_R(p, d), p, d)
        if isinstance(expect, Mat):
            assert l_matrix(p, d, "direct") == expect
        else:
            with pytest.raises(ConsistencyError) as err:
                l_matrix(p, d, "direct")
            assert str(err.value) == direct_route_failure(expect, p, d)


def test_direct_l_matrix_failure_names_the_point_and_entry(monkeypatch):
    # B(1, 0) != 0 moves the B-annihilator product off the top row, and
    # A(0, 2) != 0 fills row 1 of the product in columns 0 to 2
    tamper(monkeypatch, ("B", 1, 0, rat(1, 3)), ("A", 0, 2, rat(2, 5)))
    with pytest.raises(ConsistencyError) as err:
        l_matrix(P, 3, "direct")
    message = str(err.value)
    assert message.startswith(f"B-annihilator product must land in the top row at {P}, d=3: ")
    assert "partial product i=0" in message and "at row 1, column 0" in message
    expect = direct_l_matrix_oracle(analyzer.build_R(P, 3), P, 3)
    assert expect[:3] == (0, 1, 0)
    assert message == direct_route_failure(expect, P, 3)


# -------------------------------------------------------- diagonalizability

def test_diagonalizable_generic_point():
    assert analyze(P, 3).diagonalizable == {"A": True, "B": True, "C": True}


def test_not_diagonalizable_at_half_integer_point():
    p = ParamTriple.of("-1/2", "-1/2", "-1/2")
    for g in ("A", "B", "C"):
        assert analyzer._coordinate_criterion(p, 4, g) is False
    assert analyze(p, 4).diagonalizable == {"A": False, "B": False, "C": False}


def test_diagonalizable_d0():
    assert analyze(P, 0).diagonalizable["A"]


@st.composite
def integer_bands(draw):
    """A square integer matrix as sparse rows, lower or upper bidiagonal,
    its diagonal drawn from a few values so that entries often repeat, its
    off-diagonal nonzero; in some draws one off-diagonal entry is zeroed,
    and in some one entry is placed off the band."""
    n = draw(st.integers(1, 7))
    lower = draw(st.booleans())
    diagonal = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    rows = [{i: x} if x else {} for i, x in enumerate(diagonal)]
    nonzero = st.integers(-4, 4).filter(bool)
    place = (lambda i: (i + 1, i)) if lower else (lambda i: (i, i + 1))
    for i in range(n - 1):
        r, c = place(i)
        rows[r][c] = draw(nonzero)
    if n > 1 and draw(st.booleans()):
        r, c = place(draw(st.integers(0, n - 2)))
        del rows[r][c]
    if n > 1 and draw(st.booleans()):
        band = (-1, 0) if lower else (0, 1)
        off = [(i, j) for i in range(n) for j in range(n) if j - i not in band]
        i, j = draw(st.sampled_from(off))
        rows[i][j] = draw(nonzero)
    return rows


@given(integer_bands())
def test_band_verdict_matches_the_squarefree_oracle(rows):
    minpoly = minimal_polynomial_integer(rows)
    assert analyzer._diagonalizable(rows, minpoly) == squarefree_diagonalizable(rows)


@pytest.mark.parametrize(
    "rows, expect",
    [
        ([{0: 1}, {0: 1, 1: 1}], False),  # a Jordan block: unreduced, diagonal repeats
        ([{0: 1, 1: 2}, {1: 3}], True),  # unreduced upper, distinct diagonal
        ([{0: 1}, {1: 1}], True),  # a zero off-diagonal and a repeated diagonal: x - 1
        ([{1: 1}, {0: -1, 1: -2}], False),  # off the band, distinct diagonal: (x + 1)^2
    ],
    ids=["jordan", "distinct", "identity", "off-band"],
)
def test_band_verdict_reads_the_diagonal_only_on_unreduced_bands(rows, expect):
    minpoly = minimal_polynomial_integer(rows)
    assert analyzer._diagonalizable(rows, minpoly) == squarefree_diagonalizable(rows) == expect


def test_analyze_takes_the_gcd_only_off_the_unreduced_bands(monkeypatch):
    calls = []
    real = analyzer.squarefree_integer
    monkeypatch.setattr(analyzer, "squarefree_integer", lambda ints: calls.append(ints) or real(ints))
    analyze(P, 4)  # A and B are unreduced bidiagonal: only C goes to the gcd
    assert len(calls) == 1
    calls.clear()
    analyze(TAIL_REDUCIBLE, 2)  # varphi_2 = 0 splits B, whose blocks decide it
    assert len(calls) == 1


@pytest.mark.parametrize(
    "p, d",
    [(TAIL_REDUCIBLE, 2), (SPIN_REDUCIBLE, 2), (ParamTriple.of(1, 1, 2), 2),
     (ParamTriple.of(0, 0, 0), 2), (ParamTriple.of("1/2", "-1/2", 1), 2)],
    ids=["tail", "spin", "integer", "zero", "half-integer"],
)
def test_diagonalizable_at_reducible_points_is_the_oracle_verdict(p, d):
    # the coordinate criterion classifies only irreducible modules: at
    # (0, 0, 0) and (1/2, -1/2, 1) it calls B not diagonalizable, and B is
    assert not in_P(p, d)[0]
    report = analyze(p, d)
    for g in ("A", "B", "C"):
        expect = squarefree(minimal_polynomial(build_R(p, d).generator(g)))
        assert report.diagonalizable[g] == expect


@given(triples(max_num=5, max_den=2), st.integers(0, 4))
def test_diagonalizable_agreement_on_irreducibles(p, d):
    if not in_P(p, d)[0]:
        return
    # analyze raises on disagreement, and reports the verdict both share
    report = analyze(p, d)
    for g in ("A", "B", "C"):
        assert report.diagonalizable[g] == analyzer._coordinate_criterion(p, d, g)


# ---------------------------------------------------------------- identify

def test_identify_roundtrip_frozen():
    rep = build_R(P, 3)
    res = identify(rep.A, rep.B, rep.C)
    assert res.d == 3
    assert res.all_rational
    assert res.candidate == P  # P is already canonical
    ga = res.per_generator["A"]
    assert ga.trace == rep.A.trace()
    assert ga.roots[0] == P.a
    assert ga.roots[1] == -1 - P.a


def test_identify_flipped_input_gives_canonical():
    p = ParamTriple.of(-3, "-2/5", "7/4")
    rep = build_R(p, 2)
    res = identify(rep.A, rep.B, rep.C)
    assert res.candidate == canonical(p)[0]
    assert res.candidate.a == rat(2)


def test_identify_irrational_traces():
    one = Mat([[1]])
    res = identify(one, one, one)
    # x^2 + x - 1 has no rational roots
    assert not res.all_rational
    assert res.candidate is None
    assert res.per_generator["A"].roots is None
    assert res.per_generator["A"].quadratic == Poly([-1, 1, 1])


def test_identify_size_mismatch():
    with pytest.raises(ValueError):
        identify(identity_mat(2), identity_mat(3), identity_mat(2))


@given(triples(max_num=5, max_den=3), st.integers(0, 4))
def test_identify_recovers_orbit(p, d):
    rep = build_R(p, d)
    res = identify(rep.A, rep.B, rep.C)
    assert res.all_rational
    assert res.candidate == canonical(p)[0]


# -------------------------------------------------------------- isomorphism

def test_isomorphic_across_all_flips():
    for flip in ALL_FLIPS:
        res = isomorphic(P, act(P, flip), 2)
        assert res.same_orbit and res.iso
        assert res.hom_dim == 1
        r1 = build_R(P, 2)
        r2 = build_R(act(P, flip), 2)
        x = res.intertwiner
        assert r2.A * x == x * r1.A
        assert r2.B * x == x * r1.B


def test_not_isomorphic_different_orbit():
    q = ParamTriple.of("1/2", "1/2", "1/2")
    res = isomorphic(P, q, 2)
    assert not res.same_orbit and not res.iso
    assert res.hom_dim == 0
    assert res.intertwiner is None


def test_not_isomorphic_with_equal_eta():
    # same eta, different orbit: the intertwiner system itself must rule it out
    p1 = ParamTriple.of(0, 0, 1)
    p2 = ParamTriple.of(0, 1, 0)
    r1 = build_R(p1, 1)
    r2 = build_R(p2, 1)
    assert r1.scalars.eta == r2.scalars.eta
    res = isomorphic(p1, p2, 1)
    assert not res.same_orbit and not res.iso and res.hom_dim == 0


def test_isomorphic_rejects_reducible():
    with pytest.raises(ValueError):
        isomorphic(TAIL_REDUCIBLE, P, 2)


def test_isomorphic_dimension_zero():
    # 1x1 modules with different eta are told apart by the scalar action
    res = isomorphic(ParamTriple.of(0, 0, 0), ParamTriple.of(0, 0, 1), 0)
    assert not res.iso and res.hom_dim == 0
    res = isomorphic(ParamTriple.of(0, 0, 0), ParamTriple.of(-1, 0, 0), 0)
    assert res.iso and res.hom_dim == 1


# ------------------------------------------------------------------ analyze

def test_analyze_generic_point():
    report = analyze(P, 2)
    assert report.irreducible
    assert report.witnesses == ()
    assert report.reducible_subspace is None
    assert report.l_det_nonzero
    assert report.canonical_params == P
    th = [theta(P, 2, i) for i in range(3)]
    assert report.minimal_polynomials["A"] == Poly.from_roots(th)
    assert report.diagonalizable == {"A": True, "B": True, "C": True}
    assert report.identification.candidate == P


def test_analyze_reducible_point():
    report = analyze(TAIL_REDUCIBLE, 2)
    assert not report.irreducible
    assert len(report.witnesses) == 1
    assert report.reducible_subspace is not None
    assert not report.l_det_nonzero


def test_analyze_deterministic():
    assert analyze(P, 3) == analyze(P, 3)


@given(triples(max_num=5, max_den=3), st.integers(0, 3))
def test_analyze_internal_cross_checks(p, d):
    # analyze() raises ConsistencyError if any criterion and oracle split
    report = analyze(p, d)
    assert report.irreducible == report.l_det_nonzero


def test_analyze_at_d48_on_a_six_digit_triple_is_fast():
    # a size guard: spinning each of the 49 eigenlines takes about 6 s here
    p = ParamTriple.of("999983/999979", "-999961/999959", "999953/999931")
    start = time.perf_counter()
    report = analyze(p, 48)
    assert time.perf_counter() - start < 2.0
    assert report.irreducible and report.reducible_subspace is None


# ------------------------------------------------------ injected disagreements

def _negate_criterion(monkeypatch):
    real = analyzer._coordinate_criterion
    monkeypatch.setattr(analyzer, "_coordinate_criterion", lambda *args: not real(*args))


def test_analyze_catches_diagonalizability_split(monkeypatch):
    _negate_criterion(monkeypatch)
    with pytest.raises(ConsistencyError, match="diagonalizability of A"):
        analyze(P, 2)


def test_isomorphic_catches_orbit_split(monkeypatch):
    # every triple becomes its own orbit, so a flip partner looks distinct
    monkeypatch.setattr(analyzer, "canonical", lambda p: (p, IDENTITY_FLIP))
    with pytest.raises(ConsistencyError, match="orbit criterion"):
        isomorphic(P, act(P, ALL_FLIPS[1]), 2)


_OPTIMIZED_PROBE = """
import sys
import racah.analyzer as analyzer
from racah import ConsistencyError, Mat, ParamTriple, ShapeError, analyze

try:
    Mat([[1, 2, 3], [7]])
except ShapeError:
    print("shape")
analyzer.in_P = lambda p, d: (True, [])
try:
    analyze(ParamTriple.of("1/5", "1/5", "-7/5"), 2)
except ConsistencyError:
    print("consistency")
print("optimize", sys.flags.optimize)
"""


def test_runtime_checks_survive_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_PROBE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["shape", "consistency", "optimize", "1"]


# ------------------- differential: the integer bands of A, B, C vs the Mat route

def fraction_coordinate_criterion(p, d, generator):
    """The coordinate criterion as d - 1 comparisons of Fractions, before
    it ran on the numerator and denominator; kept as its oracle."""
    x = p["ABC".index(generator)]
    return all(x != rat(i - d - 1, 2) for i in range(1, 2 * d))


def fraction_identify(a_mat, b_mat, c_mat):
    """identify() on Fraction traces and Fraction arithmetic, before it ran
    on integers over one denominator; kept as its oracle."""
    mats = {"A": a_mat, "B": b_mat, "C": c_mat}
    d = a_mat.rows - 1
    shift = rat(d * (d + 2), 12)
    per = {}
    coords = {}
    all_rational = True
    for name, m in mats.items():
        tr = m.trace()
        const = shift - tr / (d + 1)
        quad = Poly([const, ONE, ONE])
        rational, s = is_square(1 - 4 * const)
        root = ((-1 + s) * HALF, (-1 - s) * HALF) if rational else None
        per[name] = analyzer.GeneratorIdentification(tr, quad, root)
        if rational:
            coords[name] = root[0]
        else:
            all_rational = False
    candidate = ParamTriple(coords["A"], coords["B"], coords["C"]) if all_rational else None
    return analyzer.IdentifyResult(d, per, candidate, all_rational)


def mat_analyze(p, d):
    """analyze() as it ran before it cleared A, B and C once: each oracle
    reads the module's Mats, the minimal polynomials are Polys of
    Fractions and their squarefreeness is the diagonalizability verdict,
    the traces are Fraction sums, and the linear forms are Fractions.
    Kept as its oracle."""
    crit, witnesses = fraction_in_P(p, d)
    rep = analyzer.build_R(p, d, "v")
    oracle, bad_subspace = irreducible_oracle(rep)
    if crit != oracle:
        raise ConsistencyError(
            f"irreducibility criterion ({crit}) disagrees with spin oracle "
            f"({oracle}) at {p}, d={d}"
        )
    traces = {name: rep.generator(name).trace() for name in ("A", "B", "C")}
    formula = trace_formula(p, d)
    if traces != formula:
        raise ConsistencyError(
            f"trace formula {formula} disagrees with matrix traces {traces} "
            f"at {p}, d={d}"
        )
    minpolys = {name: poly_minimal_polynomial(rep.generator(name)) for name in ("A", "B", "C")}
    diag = {}
    for name, mp in minpolys.items():
        diag[name] = verdict_o = poly_squarefree(mp)
        verdict_c = fraction_coordinate_criterion(p, d, name)
        if crit and verdict_c != verdict_o:
            raise ConsistencyError(
                f"diagonalizability of {name} at {p}, d={d}: "
                f"criterion {verdict_c}, oracle {verdict_o}"
            )
    l_diag = fraction_l_diagonal(p, d)
    det_nonzero = all(x != 0 for x in l_diag)
    if det_nonzero != crit:
        raise ConsistencyError(
            f"invertibility of L ({det_nonzero}) disagrees with irreducibility "
            f"({crit}) at {p}, d={d}"
        )
    ident = fraction_identify(rep.A, rep.B, rep.C)
    canon, flip = canonical(p)
    if not ident.all_rational or ident.candidate != canon:
        raise ConsistencyError(
            f"trace identification {ident.candidate} missed the canonical "
            f"representative {canon} at {p}, d={d}"
        )
    return analyzer.AnalysisReport(
        params=p,
        d=d,
        scalars=rep.scalars,
        canonical_params=canon,
        flip=flip,
        irreducible=crit,
        witnesses=tuple(witnesses),
        reducible_subspace=bad_subspace,
        traces=traces,
        minimal_polynomials=minpolys,
        diagonalizable=diag,
        l_diagonal=l_diag,
        l_det_nonzero=det_nonzero,
        identification=ident,
    )


def outcome(route, p, d):
    """The report of route(p, d), or the type and text of what it raised."""
    try:
        return route(p, d)
    except Exception as err:
        return type(err), str(err)


def assert_same_report(p, d):
    got = analyze(p, d)
    assert got == mat_analyze(p, d), (p, d)
    for poly in got.minimal_polynomials.values():
        assert all(type(c) is Rat for c in poly.coeffs)
    assert all(type(t) is Rat for t in got.traces.values())


@given(module_points(max_d=10))
def test_analyze_matches_the_mat_route(point):
    assert_same_report(*point)


@given(st.one_of(module_points(max_d=12), st.tuples(triples(max_num=4, max_den=2), st.integers(0, 12))))
def test_analyze_matches_the_mat_route_at_random_points(point):
    # half-integer triples repeat diagonal entries and zero a varphi often
    assert_same_report(*point)


@given(st.integers(0, 12), st.data())
def test_in_P_matches_the_fraction_oracle(d, data):
    coordinate = st.one_of(rationals(9, 6), st.just(-HALF), rationals(10**6, 10**6))
    a, b, c = (data.draw(coordinate) for _ in range(3))
    if data.draw(st.booleans()):
        # a form at d/2 - i for i = 0..d+1: on the forbidden set and just off it
        t = rat(d, 2) - data.draw(st.integers(0, d + 1))
        c = data.draw(st.sampled_from(ONTO_FORM))(a, b, t)
    p = ParamTriple(a, b, c)
    got = in_P(p, d)
    assert got == fraction_in_P(p, d)
    assert all(type(w.value) is Rat and type(w.i) is int for w in got[1])


def test_analyze_matches_the_mat_route_on_each_boundary_form():
    rng = random.Random(4242)
    for form in range(4):
        for d in range(1, 11):
            p = boundary_point(rng, d, form)
            assert not in_P(p, d)[0]
            assert_same_report(p, d)


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_analyze_matches_the_mat_route_on_each_fallback(name):
    p, d = FALLBACKS[name]
    assert_same_report(p, d)
    assert_same_report(ParamTriple(p.a, p.b, ONTO_FORM[2](p.a, p.b, rat(d, 2) - 1)), d)


@given(triples(max_num=9, max_den=6), st.integers(1, 6), st.sampled_from("ABC"),
       rationals(9, 6).filter(bool), st.data())
def test_tampered_analyze_matches_the_mat_route(p, d, gen, delta, data):
    # one entry of A, B or C moved, anywhere, off the band included
    i, j = data.draw(st.integers(0, d)), data.draw(st.integers(0, d))
    with pytest.MonkeyPatch.context() as mp:
        tamper(mp, (gen, i, j, delta))
        assert outcome(analyze, p, d) == outcome(mat_analyze, p, d)


@pytest.mark.parametrize(
    "nudge, message",
    [
        (("A", 2, 2, rat(1, 3)), "trace formula"),
        (("C", 0, 0, rat(-2, 7)), "trace formula"),
        (("B", 2, 0, rat(1, 3)), "B is not upper bidiagonal"),
        (("A", 3, 2, rat(-1)), "irreducibility criterion"),
        (("C", 0, 3, rat(5, 2)), None),
    ],
)
def test_tampered_analyze_raises_the_mat_route_error(nudge, message, monkeypatch):
    tamper(monkeypatch, nudge)
    got, expect = outcome(analyze, P, 5), outcome(mat_analyze, P, 5)
    assert got == expect
    if message is not None:
        assert got[0] is ConsistencyError and message in got[1]


def test_analyze_reads_the_bands_once(monkeypatch):
    calls = []
    real = analyzer.build_bands

    def counting(*args):
        calls.append(args)
        return real(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("analyze forms no Mat and clears nothing")

    monkeypatch.setattr(analyzer, "build_bands", counting)
    for name in ("build_R", "clear"):
        monkeypatch.setattr(analyzer, name, refuse)
    monkeypatch.setattr(Mat, "from_cleared", classmethod(refuse))
    for p, d in [(P, 4), (TAIL_REDUCIBLE, 2), (SPIN_REDUCIBLE, 2), FALLBACKS["repeated theta*"]]:
        calls.clear()
        analyze(p, d)
        assert calls == [(p, d, "v")], (p, d)


def test_identify_matches_the_fraction_route():
    rng = random.Random(1729)
    irrational = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        mats = [
            Mat([[random_triple(rng)[0] for _ in range(n)] for _ in range(n)]) for _ in range(3)
        ]
        got = identify(*mats)
        assert got == fraction_identify(*mats)
        irrational += not got.all_rational
    assert irrational >= 30


@given(module_points(max_d=10))
def test_identify_matches_the_fraction_route_on_modules(point):
    rep = build_R(*point)
    assert identify(rep.A, rep.B, rep.C) == fraction_identify(rep.A, rep.B, rep.C)


def test_coordinate_criterion_matches_the_fraction_comparisons():
    other = rat(0)  # excluded for d >= 2, so a misread coordinate shows
    for d in range(25):
        for den in (1, 2, 3):
            for k in range(-60, 61):
                x = rat(k, den)
                expect = fraction_coordinate_criterion(ParamTriple(x, x, x), d, "A")
                for g, p in zip("ABC", ([x, other, other], [other, x, other], [other, other, x])):
                    assert analyzer._coordinate_criterion(ParamTriple(*p), d, g) == expect, (x, d, g)
