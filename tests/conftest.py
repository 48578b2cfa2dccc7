import math
import random
from math import lcm

from hypothesis import HealthCheck, settings, strategies as st

from racah import Mat, ParamTriple, Poly, Scalars, ShapeError, Subspace, Witness, rat
from racah.intmat import apply_columns, clear, columns
from racah.linalg import (
    _integer_rows,
    _local_minimal_polynomial,
    _poly_product,
    minimal_polynomial_integer,
)
from racah.params import sequences
from racah.poly import PRIME, _degree_of_gcd_mod_q, _integer_gcd, _integers, squarefree_integer
from racah.rational import HALF, ONE, ZERO, Rat, format_rat
from racah.rewriter import NormalElement

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    deadline=None,
    max_examples=400,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


def rationals(max_num=9, max_den=9):
    return st.builds(
        lambda n, d: rat(n, d),
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def triples(max_num=9, max_den=9):
    r = rationals(max_num, max_den)
    return st.builds(ParamTriple, r, r, r)


# c as a function of (a, b, t) that puts each reducibility form at t
ONTO_FORM = (
    lambda a, b, t: t - a - b - 1,  # a+b+c+1
    lambda a, b, t: t + a - b,  # -a+b+c
    lambda a, b, t: t - a + b,  # a-b+c
    lambda a, b, t: a + b - t,  # a+b-c
)


@st.composite
def module_points(draw, max_d=16):
    """(p, d) with small or 6-digit coordinates; half of the draws with
    d > 0 move c onto one of the four reducibility forms at d/2 - i for
    some i in 1..d, where a phi_i or varphi_i vanishes."""
    d = draw(st.integers(0, max_d))
    p = draw(st.one_of(triples(), triples(max_num=10**6, max_den=10**6)))
    if d and draw(st.booleans()):
        t = rat(d, 2) - draw(st.integers(1, d))
        p = ParamTriple(p.a, p.b, draw(st.sampled_from(ONTO_FORM))(p.a, p.b, t))
    return p, d


def tridiagonal(diag, sub, sup):
    """Square Mat with the given diagonal, first subdiagonal (entries
    [i+1][i]) and first superdiagonal (entries [i][i+1]), each row cut from
    the band padded by one column on each side.  racah.matrix built the
    modules with it before they were built from integers; kept here as
    the oracles' band builder."""
    diag, sub, sup = list(diag), list(sub), list(sup)
    n = len(diag)
    for off in (sub, sup):
        if len(off) != n - 1:
            raise ShapeError(f"{n} diagonal entries need {n - 1} off-diagonal ones, got {len(off)}")
    sub, sup = [ZERO, *sub], [*sup, ZERO]
    zeros = [ZERO] * n
    return Mat([(zeros[:i] + [sub[i], diag[i], sup[i]] + zeros[i + 1 :])[1:-1] for i in range(n)])


def lower_bidiagonal(diag, sub):
    """Square Mat with the given diagonal and first subdiagonal."""
    sub = list(sub)
    return tridiagonal(diag, sub, [ZERO] * len(sub))


def upper_bidiagonal(diag, sup):
    """Square Mat with the given diagonal and first superdiagonal."""
    sup = list(sup)
    return tridiagonal(diag, [ZERO] * len(sup), sup)


def diagonal_mat(diag):
    """Square Mat with the given diagonal."""
    diag = list(diag)
    n = len(diag)
    return Mat([[diag[i] if i == j else ZERO for j in range(n)] for i in range(n)])


def identity_mat(n):
    return diagonal_mat([ONE] * n)


def zero_mat(rows, cols=None):
    """The rows x cols zero Mat, square when cols is None."""
    cols = rows if cols is None else cols
    return Mat([[ZERO] * cols for _ in range(rows)])


def reducer_add(red, vec):
    """Reduce the rational vector vec into the linalg._Reducer red, and
    keep it if independent."""
    return red.keep(red.reduce(_integer_rows([vec])[1][0]))


def in_span(s, v):
    """Does the subspace s contain the vector v?  Through rref: v adds
    nothing to the canonical basis of s."""
    return Subspace(s.ambient_dim, [*s.basis, v]) == s


def entry_walk_clear(mats, scalars=()):
    """racah.intmat.clear as a walk over every entry of every matrix, before
    each Mat carried its cleared form; kept as its oracle."""
    den = lcm(
        *[x.denominator for m in mats for row in m.entries for x in row if x],
        *[x.denominator for x in scalars],
    )
    rows = [
        [
            {j: x.numerator * (den // x.denominator) for j, x in enumerate(row) if x}
            for row in m.entries
        ]
        for m in mats
    ]
    return den, rows, [x.numerator * (den // x.denominator) for x in scalars]


def mul_oracle(x, y):
    """racah.intmat.mul as it was before it dropped a sum where it cancels:
    every sum accumulated, then the zeros filtered out.  Oracle for the
    kernel."""
    out = []
    for row in x:
        acc = {}
        for k, a in row.items():
            for j, b in y[k].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append({j: v for j, v in acc.items() if v})
    return out


def combine_oracle(*terms):
    """racah.intmat.combine as it was before it seeded from its first term
    and skipped zero coefficients: every term accumulated, then the zeros
    filtered out.  Oracle for the kernel."""
    out = [{} for _ in terms[0][1]]
    for c, m in terms:
        for acc, row in zip(out, m):
            for j, x in row.items():
                acc[j] = acc.get(j, 0) + c * x
    return [{j: v for j, v in acc.items() if v} for acc in out]


def fraction_scalars(p, nu):
    """params.scalars as per-term Fraction arithmetic, before it ran on
    integers over a common denominator; kept as its oracle."""
    nu = rat(nu)
    a, b, c = p
    half_nu = nu * HALF
    zeta = (c - b) * (c + b + 1) * (a - half_nu) * (a + half_nu + 1)
    zeta_star = (a - c) * (a + c + 1) * (b - half_nu) * (b + half_nu + 1)
    eta = half_nu * (half_nu + 1) + a * (a + 1) + b * (b + 1) + c * (c + 1)
    return Scalars(zeta, zeta_star, eta, -zeta - zeta_star)


_FRACTION_FORMS = (
    ("a+b+c+1", lambda a, b, c: a + b + c + 1),
    ("-a+b+c", lambda a, b, c: -a + b + c),
    ("a-b+c", lambda a, b, c: a - b + c),
    ("a+b-c", lambda a, b, c: a + b - c),
)


def fraction_in_P(p, d):
    """params.in_P with each linear form evaluated on Fractions, before it
    ran on integers over lcm(den a, den b, den c); kept as its oracle."""
    if d < 0:
        raise ValueError(f"d must be a nonnegative integer, got {d}")
    half_d = rat(d) * HALF
    witnesses = []
    for name, form in _FRACTION_FORMS:
        value = form(p.a, p.b, p.c)
        diff = half_d - value  # forbidden iff diff is an integer in 1..d
        if diff.denominator == 1 and 1 <= diff <= d:
            witnesses.append(Witness(name, value, int(diff)))
    return (not witnesses), witnesses


def squarefree_diagonalizable(rows):
    """analyze's diagonalizability verdict before it was read off the band:
    the squarefreeness of the integer minimal polynomial, for any square
    integer matrix; kept as the oracle of the band verdict."""
    return squarefree_integer(minimal_polynomial_integer(rows))


def random_rat(rng: random.Random, max_num=9, max_den=9):
    return rat(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_triple(rng: random.Random, max_num=9, max_den=9) -> ParamTriple:
    return ParamTriple(
        random_rat(rng, max_num, max_den),
        random_rat(rng, max_num, max_den),
        random_rat(rng, max_num, max_den),
    )


def presentation_identities_oracle(a, b, ab, ba, ident, sc):
    """(name, lhs, rhs) of the AAB and ABB presentation identities as dense
    Fraction Mat products: the routine modules.presentation_identities
    replaced with cleared integer rows, kept as the oracle of
    verify_relations and verma_checks."""
    zeta, zeta_star, eta, _ = sc
    a2, b2 = a * a, b * b
    lhs_aab = a2 * b - (a * ba).scale(2) + ba * a - ab.scale(2) - ba.scale(2)
    rhs_aab = a2.scale(2) - a.scale(2 * eta) + ident.scale(2 * zeta)
    lhs_abb = a * b2 - (b * ab).scale(2) + b2 * a - ab.scale(2) - ba.scale(2)
    rhs_abb = b2.scale(2) - b.scale(2 * eta) - ident.scale(2 * zeta_star)
    return (("AAB", lhs_aab, rhs_aab), ("ABB", lhs_abb, rhs_abb))


def l_matrix_fraction_oracle(p, d, method):
    """l_matrix's closed and recurrence routes as Fraction arithmetic on
    the sequence values, before they ran on the integer sequences; kept as
    their oracle."""
    n = d + 1
    q, *seqs = sequences(p, d, n)
    th, ts, ph, vp = ([Rat(x, q) for x in seq] for seq in seqs)  # ph[0] unused

    if method == "closed":
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if j > i:
                    row.append(ZERO)
                    continue
                val = rat(math.comb(d - i + j, j) * math.comb(i, j), math.comb(d, j))
                for h in range(1, i - j + 1):
                    val = val * (ts[0] - ts[d - h + 1])
                for h in range(1, d - i + 1):
                    val = val * ph[h]
                for h in range(1, j + 1):
                    val = val * vp[h]
                row.append(val)
            rows.append(row)
        return Mat(rows)

    if method == "recurrence":
        grid = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            val = ONE
            for h in range(1, i + 1):
                val = val * (ts[0] - ts[d - h + 1])
            for h in range(1, d - i + 1):
                val = val * ph[h]
            grid[i][0] = val
        for j in range(1, n):
            for i in range(j, n):
                grid[i][j] = (th[i] - th[j - 1]) * grid[i][j - 1] + grid[i - 1][j - 1]
        return Mat(grid)

    raise ValueError(f"no Fraction oracle for method {method!r}")


def commutator(x, y):
    """[x, y] = x*y - y*x of two Mats."""
    return x * y - y * x


def nudged(m, i, j, delta):
    """The Mat m with delta added to entry (i, j)."""
    rows = [list(row) for row in m.entries]
    rows[i][j] += delta
    return Mat(rows)


def poly_minimal_polynomial(m):
    """linalg.minimal_polynomial as a self-contained Mat -> Poly routine,
    before it became a wrapper over minimal_polynomial_integer; kept as the
    oracle of the integer core and of analyze, which clears A, B and C
    together where this clears each matrix alone."""
    if m.rows != m.cols:
        raise ShapeError(
            f"minimal polynomial needs a square matrix, got {m.rows}x{m.cols}"
        )
    n = m.rows
    den, (rows,), _ = clear([m])
    cols = columns(rows)
    p = [1]
    for j in [0, n - 1, *range(1, n - 1)][:n]:
        if len(p) > n:
            break
        w = {j: p[-1]}
        for c in reversed(p[:-1]):
            w = apply_columns(cols, w)
            if c:
                w[j] = w.get(j, 0) + c
                if not w[j]:
                    del w[j]
        if w:
            p = _poly_product(p, _local_minimal_polynomial(cols, w, n))
    lead = p[-1] * den ** (len(p) - 1)
    return Poly([Rat(c * den**i, lead) for i, c in enumerate(p)])


def poly_gcd(p, q):
    """Monic gcd of two Polys over Q: both cleared to integers, the
    primitive remainder sequence of racah.poly on them, and the last
    nonzero remainder made monic.  It left the package when it had no
    library caller; squarefree runs the same sequence on integers."""
    a = _integer_gcd(_integers(p), _integers(q))
    if not a:
        return Poly([])
    return Poly([Rat(c, a[-1]) for c in a])


def poly_squarefree(p):
    """poly.squarefree on a Poly of Fractions, before it became a wrapper
    over squarefree_integer: the modular certificate, then the exact
    fallback poly_gcd(p, p') on Polys."""
    if p.is_zero():
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if p.degree == 0:
        return True
    ints = _integers(p)
    if ints[-1] % PRIME:
        f = [c % PRIME for c in ints]
        df = [i * c % PRIME for i, c in enumerate(ints)][1:]
        if _degree_of_gcd_mod_q(f, df) == 0:
            return True
    return poly_gcd(p, Poly(poly_derivative(p.coeffs))).degree == 0


def first_nonzero(m):
    """(i, j, value) of the first nonzero entry of the Mat m, row by row, or None."""
    return next(((i, j, x) for i, row in enumerate(m.entries) for j, x in enumerate(row) if x), None)


# Poly's arithmetic before Poly became a plain value, on coefficient lists
# lowest degree first; each result is a tuple of Rat without trailing zeros,
# the coefficients of a Poly.

def poly_mul(*factors):
    out = [ONE]
    for f in factors:
        acc = [ZERO] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                acc[i + j] += a * b
        out = acc
    return Poly(out).coeffs


def poly_divmod(f, g):
    """(quotient, remainder) of f by the nonzero g: exact division when g divides f."""
    f, g = Poly(f).coeffs, Poly(g).coeffs
    q = [ZERO] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g):
        shift = len(f) - len(g)
        q[shift] = c = f[-1] / g[-1]
        f = Poly([x - c * g[i - shift] if i >= shift else x for i, x in enumerate(f)]).coeffs
    return Poly(q).coeffs, f


def poly_monic(cs):
    return tuple(rat(c, cs[-1]) for c in cs)


def poly_derivative(cs):
    return Poly([i * c for i, c in enumerate(cs)][1:]).coeffs


def euclid_gcd(f, g):
    """Monic gcd by Euclid's algorithm over Q, poly_gcd before it ran on
    integers; () when f and g are both zero."""
    f, g = Poly(f).coeffs, Poly(g).coeffs
    while g:
        f, g = g, poly_divmod(f, g)[1]
    return poly_monic(f) if f else f


# Sums, products and powers of rewriter elements as Fraction arithmetic on
# the terms: the oracle of the parser's expansion on cleared sums, and how
# the tests combine elements, which have no operators.  x and y are
# FreeElements or NormalElements, and each result is built by the
# element's constructor, which drops zero coefficients.

def fraction_add(x, y):
    out = dict(x.terms)
    for k, v in y.terms.items():
        out[k] = out.get(k, ZERO) + v
    return type(x)(out)


def fraction_neg(x):
    return type(x)({k: -v for k, v in x.terms.items()})


def fraction_sub(x, y):
    return fraction_add(x, fraction_neg(y))


def fraction_scale(x, c):
    c = rat(c)
    return type(x)({k: c * v for k, v in x.terms.items()})


def fraction_mul(x, y):
    out: dict = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            w = w1 + w2
            out[w] = out.get(w, ZERO) + c1 * c2
    return type(x)(out)


def fraction_pow(x, k):
    acc = type(x)({(): ONE})
    for _ in range(k):
        acc = fraction_mul(acc, x)
    return acc


def fraction_render(pieces):
    """Sum text of (word text, Fraction) pairs, in order."""
    out = []
    for body, coeff in pieces:
        num, den = coeff.numerator, coeff.denominator
        if body and den == 1 and abs(num) == 1:
            text = body
        else:
            mag = format_rat(abs(coeff))
            text = f"{mag}*{body}" if body else mag
        if not out:
            out.append(text if num > 0 else f"-{text}")
        else:
            out.append(f"+ {text}" if num > 0 else f"- {text}")
    return " ".join(out) if out else "0"


def fraction_format_words(items):
    """Text of (word tuple, Fraction) pairs: longest words first, then
    alphabetically, powers collapsed."""
    def render_word(word):
        parts, idx = [], 0
        while idx < len(word):
            run = 1
            while idx + run < len(word) and word[idx + run] == word[idx]:
                run += 1
            parts.append(word[idx] if run == 1 else f"{word[idx]}^{run}")
            idx += run
        return "*".join(parts)

    ordered = sorted(items, key=lambda wc: (-len(wc[0]), wc[0]))
    return fraction_render([(render_word(w), c) for w, c in ordered])


NAMES = ("A", "D", "B", "alpha", "delta", "beta")


def fraction_format_element(x):
    """format_element as it was, from the Fraction terms: a normal element
    is written as the words of its monomials."""
    if isinstance(x, NormalElement):
        items = [
            (tuple(name for name, e in zip(NAMES, key) for _ in range(e)), c)
            for key, c in x.terms.items()
        ]
        return fraction_format_words(items)
    return fraction_format_words(x.terms.items())
