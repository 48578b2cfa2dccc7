"""Values stay cleared from the kernels to the printer.

Mat, Subspace and the rewriter's elements hold integer forms, and
racah.serialize and format_element print from them.  The rational views
(Mat.entries, Subspace.basis, terms) are derived on first read.  Here the
printing and elimination they replaced are kept as oracles and compared
byte for byte with the new code, serialize.dumps is compared with
json.dumps, and every subcommand runs with the three views, Mat.trace and
the Fraction-facing wrappers over analyze's integer cores made to raise.
"""

import json
import random
import sys
from argparse import Namespace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import racah.analyzer as analyzer
import racah.linalg as linalg
import racah.poly as poly
import racah.rewriter as rw
from racah import (
    FreeElement,
    Mat,
    Subspace,
    build_R,
    eigenspace,
    evaluate,
    format_element,
    intertwiner_space,
    kernel,
    l_matrix,
    normal_form,
    parse,
    rref,
)
from racah.cli import _cmd_reduce
from racah.modules import BASES
from racah.rational import ZERO, ONE, Rat, format_rat, rat
from racah.serialize import dumps, mat_to_rows, mat_to_text, subspace_to_doc

from conftest import (
    NAMES, fraction_format_element, identity_mat, module_points, rationals, reducer_add,
)
from test_cli_pins import (  # noqa: F401  (fixed_width is a fixture)
    CUBE, FORMATS, GENERIC, PINNED, TRIPLES, _id, digest, fixed_width,
)

# ------------------------------------------------- the Fraction-era oracles


def fraction_rref(vectors):
    """rref as it was before its result stayed in integers: the rows of
    the back pass divided by their pivots, as Fractions."""
    rows = [list(v) for v in vectors]
    if not rows:
        return []
    ncols = len(rows[0])
    forward, back = linalg._Reducer(ncols), linalg._Reducer(ncols)
    for row in rows:
        reducer_add(forward, row)
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


class FractionSubspace:
    """Subspace as it was: its RREF basis of Fractions, compared and hashed
    as that tuple."""

    def __init__(self, ambient_dim, vectors):
        self.ambient_dim = ambient_dim
        self.basis = tuple(fraction_rref(vectors))
        self.pivots = tuple(next(j for j, x in enumerate(v) if x) for v in self.basis)

    def __eq__(self, other):
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))


def fraction_kernel(m):
    """kernel as it was: one vector per non-pivot column of the Fraction
    RREF of the entries."""
    rows = FractionSubspace(m.cols, m.entries)
    vectors = []
    for fj in range(m.cols):
        if fj in rows.pivots:
            continue
        v = [ZERO] * m.cols
        v[fj] = ONE
        for row, pcol in zip(rows.basis, rows.pivots):
            v[pcol] = -row[fj]
        vectors.append(v)
    return FractionSubspace(m.cols, vectors)


def fraction_mat_to_rows(m):
    return [[format_rat(x) for x in row] for row in m.entries]


def fraction_subspace_to_doc(s):
    return {
        "ambient_dim": s.ambient_dim,
        "dim": len(s.basis),
        "basis": [[format_rat(x) for x in v] for v in s.basis],
    }


def fraction_reduce_terms(normal):
    return [
        {**dict(zip(NAMES, key)), "coeff": format_rat(c)} for key, c in sorted(normal.terms.items())
    ]


# ------------------------------------------------------- matrices printed


def printed_mats(p, d):
    """Every kind of Mat the library prints at (p, d)."""
    reps = [build_R(p, d, basis) for basis in BASES]
    mats = [rep.generator(g) for rep in reps for g in ("A", "B", "C", "D")]
    mats += intertwiner_space(reps[0].A, reps[0].B, reps[1].A, reps[1].B)
    mats += intertwiner_space(reps[1].A, reps[1].B, reps[2].A, reps[2].B)
    mats.append(l_matrix(p, d, "closed"))
    mats.append(evaluate(parse("1/3*A*B - [C, D] + 2*alpha*A"), reps[2]))
    return mats


@given(module_points(max_d=8))
def test_matrices_print_as_the_fraction_oracle(point):
    for m in printed_mats(*point):
        rows = mat_to_rows(m)
        assert rows == fraction_mat_to_rows(m)
        assert mat_to_text(m) == "\n".join(" ".join(r) for r in rows)


def test_an_absent_entry_prints_zero():
    m = Mat.from_cleared(6, [{}, {1: -4}], 2)
    assert mat_to_rows(m) == [["0", "0"], ["0", "-2/3"]] == fraction_mat_to_rows(m)


# ------------------------------------------------------------ subspaces


@st.composite
def spans(draw):
    """(n, vectors): a few random rational vectors, their scaled
    duplicates and zero rows, shuffled."""
    n = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(rationals(max_num=6, max_den=4), min_size=n, max_size=n), max_size=4))
    vectors = list(base)
    for v in base:
        if draw(st.booleans()):
            c = draw(rationals(max_num=5, max_den=7).filter(bool))
            vectors.append([c * x for x in v])
    vectors += [[ZERO] * n] * draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rng.shuffle(vectors)
    return n, vectors


def rescaled(vectors, rng):
    """The same span: every vector times a nonzero rational, shuffled."""
    out = []
    for v in vectors:
        c = rat(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        out.append([c * x for x in v])
    rng.shuffle(out)
    return out


@given(spans(), st.integers(0, 2**32))
def test_subspaces_match_the_fraction_oracle(span, seed):
    n, vectors = span
    s, o = Subspace(n, vectors), FractionSubspace(n, vectors)
    assert rref(vectors) == fraction_rref(vectors) == list(s.basis) == list(o.basis)
    assert s.pivots == o.pivots and s.dim == len(o.basis)
    assert subspace_to_doc(s) == fraction_subspace_to_doc(o)
    assert dumps(subspace_to_doc(s)) == json.dumps(fraction_subspace_to_doc(o), indent=2, sort_keys=True) + "\n"
    # equal spans give equal subspaces and hashes
    twin = Subspace(n, rescaled(vectors, random.Random(seed)))
    assert twin == s and hash(twin) == hash(s)


@given(spans(), spans())
def test_subspace_equality_matches_the_fraction_oracle(x, y):
    (n, u), (m, v) = x, y
    assert (Subspace(n, u) == Subspace(m, v)) == (FractionSubspace(n, u) == FractionSubspace(m, v))


def test_subspaces_keep_primitive_integer_rows_with_positive_pivots():
    s = Subspace(3, [[0, rat(-2, 3), rat(4, 9)], [0, 1, 0], [0, 0, 0]])
    assert s._rows == ({1: 1}, {2: 1})
    t = Subspace(3, [[rat(-1, 2), rat(1, 3), 0]])
    assert t._rows == ({0: 3, 1: -2},) and t.basis == ((ONE, rat(-2, 3), ZERO),)
    assert subspace_to_doc(t)["basis"] == [["1", "-2/3", "0"]]


mats = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(rationals(max_num=3, max_den=2), min_size=n, max_size=n), min_size=1, max_size=5
    )
).map(Mat)


@given(mats)
def test_kernel_matches_the_fraction_oracle(m):
    assert kernel(m).basis == fraction_kernel(m).basis


@given(mats.filter(lambda m: m.rows == m.cols), rationals(max_num=3, max_den=2))
def test_eigenspace_matches_the_fraction_oracle(m, lam):
    shifted = Mat([[x - lam if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m.entries)])
    assert eigenspace(m, lam).basis == fraction_kernel(shifted).basis
    # on an eigenvalue of the matrix the kernel is not trivial
    diagonal = m.entries[0][0]
    assert eigenspace(identity_mat(m.rows).scale(diagonal), diagonal).dim == m.rows


# --------------------------------------------------------- normal forms


words = st.lists(st.sampled_from(rw.SYMBOLS), max_size=4).map(tuple)
sums = st.lists(st.tuples(words, rationals(max_num=12, max_den=7)), max_size=5)


@given(sums)
def test_normal_forms_print_as_the_fraction_oracle(items):
    free = FreeElement(dict(items))
    normal = normal_form(free)
    assert format_element(normal) == fraction_format_element(normal)
    text = fraction_format_element(free)
    doc = _cmd_reduce(Namespace(expr=text))[0]
    assert doc["normal"] == format_element(normal)
    assert doc["terms"] == fraction_reduce_terms(normal)


def test_elements_built_from_terms_clear_them():
    x = FreeElement({("A",): rat(2, 3), ("B",): 0, (): -2})
    assert x._cleared == (3, {("A",): 2, (): -6})
    assert x == parse("2/3*A - 2") and hash(x) == hash(parse("2/3*A - 2"))
    assert FreeElement({}) == parse("0") and format_element(normal_form(FreeElement({}))) == "0"
    with pytest.raises(TypeError, match="only exact rationals"):
        FreeElement({("A",): 0.5})


# ------------------------------------------------------------------ dumps


def oracle_dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@given(documents)
def test_dumps_matches_json_dumps(doc):
    assert dumps(doc) == oracle_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        "",
        {"": [], "e": {}, "l": [[], {}], "z": None},
        ["\x00\x1f\x7f", "é  ", "\U0001f600", '"\\/\b\f\n\r\t'],
        {"é": 1, "\x01": -(10**30), "a": [True, False, None]},
    ],
)
def test_dumps_matches_json_dumps_on_edge_cases(doc):
    assert dumps(doc) == oracle_dumps(doc)


@pytest.mark.parametrize(
    "doc", [0.5, (1, 2), {1: "x"}, {"a": [Fraction(1, 2)]}, [{"b": {1, 2}}], object()]
)
def test_dumps_rejects_what_is_not_a_document(doc):
    with pytest.raises(TypeError):
        dumps(doc)


# ------------------------------------------- the views no subcommand reads

JSON, TEXT = FORMATS

# rows of the pinned battery, one or more per subcommand
GUARDED = [
    ["construct", *GENERIC, "--d", "3", "--basis", "v", *JSON],
    ["construct", *GENERIC, "--d", "3", "--basis", "w", *JSON],
    ["construct", *GENERIC, "--d", "3", "--basis", "u", *JSON],
    ["construct", *GENERIC, "--d", "3", "--basis", "w", *TEXT],
    ["verify", *GENERIC, "--d", "3", "--basis", "u", *JSON],
    # irreducible
    ["analyze", *GENERIC, "--d", "3", *JSON],
    # a zero superdiagonal entry of B: the invariant tail is the witness
    ["analyze", "--a=-2", "--b=-2", "--c", "2", "--d", "2"],
    # B's superdiagonal is nonzero: the witness is a spun eigenline
    ["analyze", "--a=-2", "--b=-2", "--c=-1/2", "--d", "3"],
    ["analyze", "--a=-2", "--b=-2", "--c=-1/2", "--d", "3", *TEXT],
    ["intertwine", *GENERIC, "--d", "2", "--basis", "w", "--basis2", "u", *JSON],
    ["intertwine", *GENERIC, "--d", "2", "--a2", "-4/3", "--b2", "-2/5", "--c2", "7/4"],
    ["intertwine", *TRIPLES["reducible"], "--d", "2", "--basis", "v", "--basis2", "u", *JSON],
    ["eval", "--expr", "D^2*A + alpha", *TRIPLES["symmetric"], "--d", "3", "--basis", "u", *JSON],
    ["eval", "--expr", "D^2*A + alpha", *TRIPLES["symmetric"], "--d", "3", "--basis", "u", *TEXT],
    ["reduce", "--expr", CUBE],
    ["reduce", "--expr", CUBE, *TEXT],
    ["sweep", "--grid", "a=1/5;b=1/5;c=-7/5,-1/2;d=0..3:1", "--jobs", "1"],
    ["verma", *GENERIC, "--nu", "3", *JSON],
    ["golden", *JSON],
]


class ViewRead(Exception):
    pass


def _refuse(self):
    raise ViewRead(type(self).__name__)


# the Fraction-facing wrappers over the integer cores that analyze runs
WRAPPERS = (
    analyzer.irreducible_oracle, analyzer.identify, linalg.minimal_polynomial, poly.squarefree,
)


def _refuse_everywhere(monkeypatch, original):
    """Make original raise wherever a loaded racah module binds it."""
    def refuse(*args, **kwargs):
        raise ViewRead(original.__name__)

    for name, module in list(sys.modules.items()):
        if name == "racah" or name.startswith("racah."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)


@pytest.mark.parametrize("argv", GUARDED, ids=[_id(argv) for argv in GUARDED])
def test_subcommands_read_no_rational_view(fixed_width, monkeypatch, argv):
    monkeypatch.setattr(Mat, "entries", property(_refuse))
    monkeypatch.setattr(Subspace, "basis", property(_refuse))
    monkeypatch.setattr(rw._Element, "terms", property(_refuse))
    monkeypatch.setattr(Mat, "trace", _refuse)
    for original in WRAPPERS:
        _refuse_everywhere(monkeypatch, original)
    assert digest(argv) == PINNED[_id(argv)]
