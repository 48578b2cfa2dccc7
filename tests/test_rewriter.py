import functools
import importlib.util
import math
import pickle
import random
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from racah import (
    FreeElement,
    Mat,
    NormalElement,
    ParamTriple,
    ParseError,
    RewriteLimitError,
    build_R,
    evaluate,
    format_element,
    format_rat,
    normal_form,
    parse,
    rat,
)
import racah.rewriter as rw
from racah.rational import Rat
from racah.rewriter import (
    DEPTH_LIMIT,
    EXPONENT_LIMIT,
    LETTER_LIMIT,
    REWRITE_LIMIT,
    SYMBOLS,
    WORD_LIMIT,
    _REWRITE_RULES,
    _accumulate,
    _eliminate,
    _format_terms,
    _run,
)

from conftest import (
    fraction_add,
    fraction_mul,
    fraction_neg,
    fraction_pow,
    fraction_scale,
    fraction_sub,
    rationals,
)

P = ParamTriple.of("1/3", "-2/5", "7/4")
REP = build_R(P, 2)


# ---------------------------------------------------------------- parsing

def test_parse_words():
    assert parse("A*B").terms == {("A", "B"): rat(1)}
    assert parse("A * B * A").terms == {("A", "B", "A"): rat(1)}
    assert parse("alpha*delta").terms == {("alpha", "delta"): rat(1)}


def test_parse_commutator():
    assert parse("[A,B]").terms == {("A", "B"): rat(1), ("B", "A"): rat(-1)}
    assert parse("[A,[B,C]]") == parse("A*(B*C-C*B) - (B*C-C*B)*A")


def test_parse_precedence_and_signs():
    assert parse("A+B*C") == FreeElement({("A",): rat(1), ("B", "C"): rat(1)})
    assert parse("-A^2").terms == {("A", "A"): rat(-1)}
    assert parse("(A+B)^2") == parse("A*A + A*B + B*A + B*B")
    assert parse("+A - -B") == parse("A + B")


def test_parse_scalars():
    assert parse("3/2*D").terms == {("D",): rat(3, 2)}
    assert parse("A^0") == FreeElement({(): rat(1)})
    assert parse("2^3").terms == {(): rat(8)}
    assert parse("A - A") == parse("0") == FreeElement({})


@pytest.mark.parametrize(
    "text,position",
    [
        ("A**B", 3),
        ("(A", 1),
        ("[A,B", 1),
        ("[A B]", 4),
        ("[A,B,C]", 5),
        ("[A,[B,C],D,E]", 9),
        ("E", 1),
        ("A + Q", 5),
        ("A^-2", 3),
        ("A^1/2", 3),
        ("A^65", 3),
        ("A B", 3),
        ("", 1),
        ("@", 1),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == position
    assert f"at position {position}" in str(exc.value)


def test_commutator_bracket_takes_two_arguments():
    with pytest.raises(ParseError, match="^commutator bracket takes exactly two arguments at position 5$"):
        parse("[A,B,C]")


def test_exponent_limit_boundary():
    assert parse(f"A^{EXPONENT_LIMIT}").terms == {("A",) * EXPONENT_LIMIT: rat(1)}
    with pytest.raises(ParseError):
        parse(f"A^{EXPONENT_LIMIT + 1}")


@pytest.mark.parametrize(
    "text,position",
    [
        ("(A+B)^17", 6),
        ("(A+B)^30", 6),
        ("(A+B)^8*(A+B)^9", 8),
        ("D + [(A+B)^8,(A+B)^9]", 5),
        ("((A+B+C+D)^4)^3", 14),
    ],
)
def test_word_limit_rejects_at_the_operator(text, position):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == position
    assert f"exceeds the limit of {WORD_LIMIT} words" in str(exc.value)


def test_word_limit_boundary(monkeypatch):
    monkeypatch.setattr(rw, "WORD_LIMIT", 8)
    assert len(parse("(A+B)^3").terms) == 8
    assert len(parse("(A+B)*(A+B+C+D)").terms) == 8
    assert parse("(A+A)^20") == parse("2^20*A^20")
    for text in ("(A+B)^4", "(A+B)^2*(A+B+C)", "[(A+B)^2,A+B+C]"):
        with pytest.raises(ParseError):
            parse(text)


def test_letter_limit_rejects_nested_powers():
    # one word, under the word limit, but of 64^4 = 16.7M letters
    with pytest.raises(ParseError) as exc:
        parse("(((A^64)^64)^64)^64")
    assert exc.value.position == 17
    assert f"exceeds the limit of {LETTER_LIMIT} letters" in str(exc.value)


def test_letter_limit_boundary(monkeypatch):
    monkeypatch.setattr(rw, "LETTER_LIMIT", 12)
    assert parse("A^12") == parse("A^6*A^6")
    assert len(parse("(A+B)^2*C").terms) == 4
    for text, position in (("A^13", 2), ("(A+B)^2*C*D", 10), ("[A^6,B^7]", 1)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.position == position


@pytest.mark.parametrize(
    "text,position",
    [
        ("(A+B)^16+(A+C)^16+(A+D)^16+(B+C)^16", 9),
        ("A-(A+B)^16", 2),
    ],
)
def test_sum_word_limit_rejects_at_the_operator(text, position):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == position
    assert f"sum exceeds the limit of {WORD_LIMIT} words" in str(exc.value)


def test_sum_word_limit_boundary(monkeypatch):
    monkeypatch.setattr(rw, "WORD_LIMIT", 8)
    assert len(parse("(A+B)^2 + (C+D)^2").terms) == 8
    assert len(parse("A+B+C+D+A*B+A*C+A*D+B*C").terms) == 8
    # summands are counted before like words merge
    cases = (("(A+B)^3+C", 8), ("A+B+C+D+A*B+A*C+A*D+B*C+1", 24), ("A^2 + (A+B)^3 - A^2", 5))
    for text, position in cases:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.position == position


def test_sum_letter_limit_boundary(monkeypatch):
    monkeypatch.setattr(rw, "LETTER_LIMIT", 12)
    assert len(parse("A^6 + B^6").terms) == 2
    assert len(parse("A^4 - (B+C)^2 + 7").terms) == 6
    with pytest.raises(ParseError) as exc:
        parse("A^6 + B^6 + C")
    assert exc.value.position == 11
    assert "sum exceeds the limit of 12 letters" in str(exc.value)


def _nested(kind: str, depth: int) -> str:
    if kind == "(":
        return "(" * depth + "A" + ")" * depth
    if kind == "[":
        return "[" * depth + "A" + ",A]" * depth
    return kind * depth + "A"


@pytest.mark.parametrize("kind,value", [("(", "A"), ("[", "0"), ("-", "A"), ("+", "A")])
def test_depth_limit_boundary(kind, value):
    assert parse(_nested(kind, DEPTH_LIMIT)) == parse(value)
    with pytest.raises(ParseError) as exc:
        parse(_nested(kind, DEPTH_LIMIT + 1))
    assert exc.value.position == DEPTH_LIMIT + 1
    assert f"nesting exceeds the limit of {DEPTH_LIMIT} levels" in str(exc.value)


def test_depth_counts_every_kind_of_nesting():
    mixed = "(-[" * (DEPTH_LIMIT // 3) + "A" + ",B])" * (DEPTH_LIMIT // 3)
    parse(mixed)
    parse("-" * (DEPTH_LIMIT - 1) + "(A)")
    with pytest.raises(ParseError) as exc:
        parse("-" * DEPTH_LIMIT + "(A)")
    assert exc.value.position == DEPTH_LIMIT + 1
    # levels close again: siblings at the limit do not add up
    parse("*".join([_nested("(", DEPTH_LIMIT)] * 3))


@pytest.mark.parametrize(
    "text",
    ["(" * 250 + "A" + ")" * 250, "-" * 1000 + "A", "[" * 10**5],
    ids=["parens", "signs", "brackets"],
)
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == DEPTH_LIMIT + 1


# ------------------------------------------------- parsing, differentially
#
# An expression tree is ("sym", name), ("num", p, q) for the literal p/q,
# (op, x, y) for op in + - * and the commutator "[]", ("^", x, e), and
# ("neg", x) or ("pos", x) for a unary sign.


def render(tree, level: str = "expr") -> str:
    """Text of tree in a context that takes an expr, term, factor or atom;
    parentheses only where the grammar needs them."""
    kind = tree[0]
    if kind == "sym":
        return tree[1]
    if kind == "num":
        return str(tree[1]) if tree[2] == 1 else f"{tree[1]}/{tree[2]}"
    if kind == "[]":
        return f"[{render(tree[1])},{render(tree[2])}]"
    if kind in ("+", "-"):
        text, wrap = f"{render(tree[1])} {kind} {render(tree[2], 'term')}", level != "expr"
    elif kind == "*":
        text, wrap = f"{render(tree[1], 'term')}*{render(tree[2], 'factor')}", level in ("factor", "atom")
    elif kind == "^":
        text, wrap = f"{render(tree[1], 'atom')}^{tree[2]}", level == "atom"
    else:  # a sign takes a factor, and a power binds tighter than the sign
        text, wrap = ("-" if kind == "neg" else "+") + render(tree[1], "factor"), level == "atom"
    return f"({text})" if wrap else text


def oracle_value(tree) -> FreeElement:
    """The tree multiplied out by the Fraction oracle of the operators."""
    kind = tree[0]
    if kind == "sym":
        return FreeElement({(tree[1],): rat(1)})
    if kind == "num":
        return FreeElement({(): rat(tree[1], tree[2])})
    if kind == "^":
        return fraction_pow(oracle_value(tree[1]), tree[2])
    if kind == "neg":
        return fraction_neg(oracle_value(tree[1]))
    if kind == "pos":
        return oracle_value(tree[1])
    x, y = oracle_value(tree[1]), oracle_value(tree[2])
    if kind == "[]":
        return fraction_sub(fraction_mul(x, y), fraction_mul(y, x))
    return {"+": fraction_add, "-": fraction_sub, "*": fraction_mul}[kind](x, y)


def size_bound(tree) -> tuple[int, int]:
    """Upper bounds on the words and the longest word of the tree's value."""
    kind = tree[0]
    if kind in ("sym", "num"):
        return 1, int(kind == "sym")
    if kind in ("neg", "pos"):
        return size_bound(tree[1])
    if kind == "^":
        words, longest = size_bound(tree[1])
        return words ** tree[2], longest * tree[2]
    (wx, lx), (wy, ly) = size_bound(tree[1]), size_bound(tree[2])
    if kind in ("+", "-"):
        return wx + wy, max(lx, ly)
    return (2 if kind == "[]" else 1) * wx * wy, lx + ly


def element(items) -> FreeElement:
    """The sum of FreeElement({word: coeff}) over items, by the Fraction oracle."""
    return functools.reduce(fraction_add, (FreeElement({w: c}) for w, c in items), FreeElement({}))


def assert_same_element(got, want) -> None:
    """Equal, with the oracle's words in the oracle's order, and every
    coefficient a nonzero Fraction."""
    assert type(got) is type(want)
    assert got == want
    assert list(got.terms) == list(want.terms)
    assert all(type(c) is Rat and c for c in got.terms.values())


literals = st.builds(
    lambda p, q: ("num", p, q), st.integers(0, 10**6), st.integers(1, 10**6)
) | st.sampled_from([("num", 0, 1), ("num", 1, 1), ("num", 2, 1), ("num", 3, 2)])


generators = st.sampled_from(SYMBOLS).map(lambda g: ("sym", g))
# a sum that cancels to zero, and 0 times a generator, are rarer leaves
leaves = st.sampled_from(["sym"] * 6 + ["num"] * 2 + ["cancel", "zero"]).flatmap(
    lambda kind: {
        "sym": generators,
        "num": literals,
        "cancel": generators.map(lambda g: ("-", g, g)),
        "zero": generators.map(lambda g: ("*", ("num", 0, 1), g)),
    }[kind]
)


@st.composite
def trees(draw, size=None):
    """A tree of size leaves, 2-8 if not given; powers and signs are not
    counted."""
    n = draw(st.integers(2, 8)) if size is None else size
    binary = ["+", "+", "-", "*", "*", "*", "[]"] if n > 1 else ["leaf"] * 7
    kind = draw(st.sampled_from(binary + ["^", "^", "neg", "pos"]))
    if kind == "leaf":
        return draw(leaves)
    if kind == "^":
        return "^", draw(trees(n)), draw(st.integers(0, 3))
    if kind in ("neg", "pos"):
        return kind, draw(trees(n))
    k = draw(st.integers(1, n - 1))
    return kind, draw(trees(k)), draw(trees(n - k))


expression_trees = trees().filter(
    lambda t: size_bound(t)[0] <= 1000 and math.prod(size_bound(t)) <= 10**4
)


def check_parse(tree) -> FreeElement:
    text = render(tree)
    got = parse(text)
    assert_same_element(got, oracle_value(tree))
    # the parser's cleared sum is in lowest terms: den is the lcm of the
    # coefficients' denominators, as when it is derived from them
    assert got._cleared == rw._Parser(text).expr() == FreeElement(got.terms)._cleared
    return got


@given(expression_trees)
def test_parse_matches_fraction_oracle(tree):
    check_parse(tree)


A_, B_, C_, D_ = (("sym", g) for g in "ABCD")


@pytest.mark.parametrize(
    "tree,text",
    [
        # the word A*B*C of the product cancels
        (("*", ("+", A_, ("*", A_, B_)), ("-", ("*", B_, C_), C_)), "(A + A*B)*(B*C - C)"),
        (("^", ("-", ("*", ("num", 2, 3), A_), ("*", ("num", 5, 7), C_)), 4), "(2/3*A - 5/7*C)^4"),
        (
            ("^", ("^", ("+", ("*", ("num", 1, 2), A_), ("*", ("num", 999983, 999979), B_)), 2), 3),
            "((1/2*A + 999983/999979*B)^2)^3",
        ),
        (("[]", ("*", ("num", 3, 1), D_), ("^", ("+", ("*", ("num", 1, 2), A_), B_), 4)), "[3*D,(1/2*A + B)^4]"),
        (("neg", ("neg", ("pos", ("^", ("-", ("num", 4, 6), D_), 0)))), "--+(4/6 - D)^0"),
        (("num", 0, 1), "0"),
        # a power binds tighter than a sign, and a literal p/q is one token
        (("^", ("neg", A_), 2), "(-A)^2"),
        (("neg", ("^", A_, 2)), "-A^2"),
        (("^", ("num", 1, 2), 3), "1/2^3"),
        (("-", A_, ("-", A_, B_)), "A - (A - B)"),
        (("neg", ("^", ("num", 0, 1), 3)), "-0^3"),
        (("+", ("num", 0, 5), ("*", ("num", 0, 1), A_)), "0/5 + 0*A"),
    ],
)
def test_parse_matches_fraction_oracle_on_fixed_trees(tree, text):
    assert render(tree) == text
    check_parse(tree)


def test_parsed_elements_make_their_fractions_on_first_read():
    x = parse("3/2*A*B - 1/3*(A+C)^2")
    normal_form(x)
    evaluate(x, REP)
    with pytest.raises(AttributeError):
        rw._Element.terms.__get__(x)
    assert x.terms[("A", "B")] == rat(3, 2)
    assert rw._Element.terms.__get__(x) is x.terms


def big_denominator_sum(seed: int = 20):
    """20 six-letter words with distinct 200-digit denominators, as a tree."""
    rng = random.Random(seed)
    tree = None
    for _ in range(20):
        word = ("num", rng.randrange(1, 10**6), rng.randrange(10**199, 10**200))
        for _ in range(6):
            word = ("*", word, ("sym", rng.choice(SYMBOLS)))
        tree = word if tree is None else ("+", tree, word)
    return tree


def test_square_of_big_denominators_matches_fraction_oracle():
    assert len(check_parse(("^", big_denominator_sum(), 2)).terms) == 400


# ------------------------------------------------------------- formatting

def test_format_examples():
    assert format_element(parse("[A,B]")) == "A*B - B*A"
    assert format_element(parse("A*A*A")) == "A^3"
    assert format_element(parse("3/2")) == "3/2"
    assert format_element(FreeElement({})) == "0"
    assert format_element(parse("-A + 2*B")) == "-A + 2*B"
    assert format_element(normal_form(parse("[A,B]"))) == "2*D"
    assert format_element(normal_form(parse("B*A"))) == "A*B - 2*D"


def test_format_normal_form_of_da():
    got = format_element(normal_form(parse("D*A")))
    assert got == "-A^2 - 2*A*B + A*D + A*delta + 2*D - alpha"


@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(SYMBOLS), max_size=4).map(tuple),
            rationals(max_num=3, max_den=2),
        ),
        max_size=3,
    )
)
def test_format_parse_round_trip(items):
    elem = element(items)
    assert parse(format_element(elem)) == elem


exponents = st.tuples(*[st.sampled_from((0, 0, 1, 2, 12))] * 6)
signed_units = st.sampled_from((rat(1), rat(-1)))


@given(
    st.dictionaries(
        exponents, st.one_of(signed_units, rationals(max_num=12, max_den=5)), max_size=6
    )
)
def test_format_normal_element_matches_its_words(terms):
    x = NormalElement(terms)
    assert format_element(x) == _format_terms(x.to_free().terms.items())


@pytest.mark.parametrize(
    "terms,text",
    [
        ({}, "0"),
        ({(0,) * 6: rat(-3, 2)}, "-3/2"),
        ({(0,) * 6: rat(1), (1, 0, 0, 0, 0, 0): rat(-1)}, "-A + 1"),
        ({(0, 0, 0, 1, 0, 0): rat(1), (0, 0, 0, 0, 0, 1): rat(-1)}, "alpha - beta"),
        ({(0, 2, 1, 0, 0, 0): rat(-5, 3), (1, 0, 2, 0, 0, 0): rat(1)}, "A*B^2 - 5/3*D^2*B"),
        ({(0, 0, 0, 3, 4, 3): rat(-2), (10, 0, 0, 0, 0, 0): rat(1)}, "A^10 - 2*alpha^3*delta^4*beta^3"),
    ],
)
def test_format_normal_element_examples(terms, text):
    x = NormalElement(terms)
    assert format_element(x) == text == _format_terms(x.to_free().terms.items())


# ------------------------------------------------------------- elimination

def eliminate(x: FreeElement) -> FreeElement:
    return FreeElement(_eliminate(x.terms))


def test_eliminate_expansions():
    assert eliminate(parse("C")) == parse("delta - A - B")
    assert eliminate(parse("gamma")) == parse("-alpha - beta")
    assert eliminate(parse("A*C*B")) == parse("A*(delta - A - B)*B")
    assert eliminate(parse("A*D")) == parse("A*D")


def test_eliminate_preserves_evaluation():
    for text in ("C", "gamma", "A*C*B*gamma", "[C,D]", "C^3"):
        x = parse(text)
        assert evaluate(eliminate(x), REP) == evaluate(x, REP)


# ----------------------------------------------------------- normal forms

def test_normal_form_orders_letters():
    nf = normal_form(parse("A*D*B*alpha*delta*beta"))
    assert nf.terms == {(1, 1, 1, 1, 1, 1): rat(1)}
    assert normal_form(parse("B*A")) == normal_form(parse("A*B - 2*D"))


def test_normal_form_idempotent():
    for text in ("B*A", "D*A*B*D", "C^2", "[D,[B,A]]"):
        nf = normal_form(parse(text))
        assert normal_form(nf.to_free()) == nf


def test_normal_form_linear():
    x, y = parse("D*A"), parse("B*D*A")
    assert normal_form(fraction_add(x, y)) == fraction_add(normal_form(x), normal_form(y))
    c = rat(-7, 3)
    assert normal_form(fraction_scale(x, c)) == fraction_scale(normal_form(x), c)


DEFINING_RELATIONS = [
    "[A,B] - 2*D",
    "[B,C] - 2*D",
    "[C,A] - 2*D",
    "[A,D] + A*C - B*A - alpha",
    "[B,D] + B*A - C*B - beta",
    "[C,D] + C*B - A*C - gamma",
    "alpha + beta + gamma",
    "A + B + C - delta",
    # the two degree-3 presentation identities
    "A^2*B - 2*A*B*A + B*A^2 - 2*A*B - 2*B*A - (2*A^2 - 2*A*delta + 2*alpha)",
    "A*B^2 - 2*B*A*B + B^2*A - 2*A*B - 2*B*A - (2*B^2 - 2*B*delta - 2*beta)",
]


@pytest.mark.parametrize("text", DEFINING_RELATIONS)
def test_defining_relations_normalize_to_zero(text):
    assert normal_form(parse(text)) == NormalElement({})


@pytest.mark.parametrize("central", ["alpha", "beta", "delta", "gamma"])
@pytest.mark.parametrize("gen", ["A", "B", "C", "D"])
def test_central_elements_commute(central, gen):
    assert normal_form(parse(f"[{central},{gen}]")) == NormalElement({})


def eliminate_by_products(x: FreeElement) -> FreeElement:
    """The retired eliminate: one FreeElement product per letter."""
    expansions = {"C": parse("delta - A - B"), "gamma": parse("-alpha - beta")}
    out = FreeElement({})
    for word, coeff in x.terms.items():
        acc = FreeElement({(): coeff})
        for sym in word:
            acc = fraction_mul(acc, expansions.get(sym, FreeElement({(sym,): rat(1)})))
        out = fraction_add(out, acc)
    return out


def straighten(x: FreeElement) -> NormalElement:
    """Normal ordering by straightening each word, leftmost out-of-order
    pair first: the loop normal_form ran before it multiplied in the
    ordered-monomial basis, kept as the differential oracle."""
    rank = {"A": 0, "D": 1, "B": 2}
    work: dict = {}
    for word, coeff in eliminate_by_products(x).terms.items():
        r = sum(1 for sym in word if sym == "alpha")
        s = sum(1 for sym in word if sym == "delta")
        t = sum(1 for sym in word if sym == "beta")
        core = tuple(sym for sym in word if sym in rank)
        key = (core, r, s, t)
        work[key] = work.get(key, rat(0)) + coeff
    done: dict = {}
    steps = 0
    while work:
        (core, r, s, t), coeff = work.popitem()
        if coeff == 0:
            continue
        bad = next(
            (idx for idx in range(len(core) - 1) if rank[core[idx]] > rank[core[idx + 1]]),
            None,
        )
        if bad is None:
            key = (core.count("A"), core.count("D"), core.count("B"), r, s, t)
            done[key] = done.get(key, rat(0)) + coeff
            continue
        steps += 1
        if steps > REWRITE_LIMIT:
            raise RewriteLimitError(f"normal ordering exceeded {REWRITE_LIMIT} rewrite steps")
        head, tail = core[:bad], core[bad + 2 :]
        for letters, factor, dr, ds, dt in _REWRITE_RULES[core[bad], core[bad + 1]]:
            nkey = (head + letters + tail, r + dr, s + ds, t + dt)
            work[nkey] = work.get(nkey, rat(0)) + coeff * factor
    return NormalElement(done)


long_words = st.lists(st.sampled_from(SYMBOLS), max_size=7).map(tuple)


@given(st.lists(st.tuples(long_words, rationals(max_num=5, max_den=4)), max_size=4))
def test_normal_form_matches_straightening_oracle(items):
    elem = element(items)
    assert eliminate(elem) == eliminate_by_products(elem)
    nf = normal_form(elem)
    assert nf == straighten(elem)
    assert all(type(c) is Rat for c in nf.terms.values())


# pairwise coprime, up to about 10^6: their lcm grows with every new one drawn
COPRIME_DENOMINATORS = (2**19, 3**12, 5**8, 7**7, 999953, 999959, 999961, 999979, 999983)


def check_against_straightening(items) -> None:
    elem = element((word, rat(num, den)) for word, num, den in items)
    nf = normal_form(elem)
    assert nf == straighten(elem)
    assert all(type(c) is Rat and c != 0 for c in nf.terms.values())


large_numerators = st.integers(-(10**6), 10**6)


@given(
    st.lists(
        st.tuples(long_words, large_numerators, st.sampled_from(COPRIME_DENOMINATORS)),
        max_size=4,
    )
)
def test_large_coprime_denominators_match_straightening_oracle(items):
    check_against_straightening(items)


@given(st.lists(st.tuples(long_words, large_numerators, st.just(1)), max_size=4))
def test_integer_inputs_match_straightening_oracle(items):
    check_against_straightening(items)


@pytest.mark.parametrize(
    "text",
    [
        "(A+B)^6",
        "(2*A - 3/2*B)^5",
        "(A+D)^4",
        "(A+C)^4",
        "[3*D, (1/2*A + B)^4]",
        "(alpha*A + gamma*B)^4",
        # meets sums memoized up to a non-integer ratio
        "(A+B)^3*(2*A+3*B)^3",
    ],
)
def test_repeated_sums_match_straightening_oracle(text):
    x = parse(text)
    assert normal_form(x) == straighten(x)


@pytest.mark.parametrize(
    "text,steps",
    [
        ("(-2*A + -1*C)^6", 159),
        ("(2*A + 1*B)^7", 281),
        ("[1/2*A + 1*D, (B + D)^4]", 282),
        ("(2/3*A - 5/7*C + 1/2*gamma)^4", 40),
    ],
)
def test_rewrite_limit_is_reached_at_the_pinned_step_count(monkeypatch, text, steps):
    x = parse(text)
    monkeypatch.setattr(rw, "REWRITE_LIMIT", steps)
    assert normal_form(x) == straighten(x)
    monkeypatch.setattr(rw, "REWRITE_LIMIT", steps - 1)
    with pytest.raises(RewriteLimitError):
        normal_form(x)


class TupleOrderer:
    """normal_form's multiplication before monomials were packed into ints,
    kept as the differential oracle: monomials are (i, j, k, r, s, t)
    tuples, one product is memoized per full monomial and letter, and each
    rule term is multiplied into the prefix on its own."""

    CENTRAL_SLOT = {"alpha": 3, "delta": 4, "beta": 5}

    def __init__(self):
        self.products: dict = {}  # (monomial, letter) -> element
        self.sums: dict = {}  # frozenset of words -> (word coefficients, element)
        self.steps = 0

    def times(self, elem: dict, letter: str):
        slot = self.CENTRAL_SLOT.get(letter)
        if slot is not None:
            return {m[:slot] + (m[slot] + 1,) + m[slot + 1 :]: c for m, c in elem.items()}
        out: dict = {}
        for m, c in elem.items():
            i, j, k, r, s, t = m
            if letter == "B":
                key = (i, j, k + 1, r, s, t)
            elif letter == "D" and not k:
                key = (i, j + 1, 0, r, s, t)
            elif letter == "A" and not (j or k):
                key = (i + 1, 0, 0, r, s, t)
            else:
                self.steps += 1
                prod = self.products.get((m, letter))
                if prod is None:
                    prod = yield self.product(m, letter)
                for key, f in prod.items():
                    out[key] = out[key] + c * f if key in out else c * f
                continue
            if key in out:
                out[key] += c
            else:
                out[key] = c
        return out

    def product(self, m: tuple, letter: str):
        i, j, k, r, s, t = m
        last, prefix = ("B", (i, j, k - 1)) if k else ("D", (i, j - 1, 0))
        out: dict = {}
        for letters, coeff, dr, ds, dt in _REWRITE_RULES[last, letter]:
            acc = {prefix + (r + dr, s + ds, t + dt): coeff}
            for x in letters:
                acc = yield from self.times(acc, x)
            _accumulate(out, acc.items())
        out = {key: c for key, c in out.items() if c}
        self.products[m, letter] = out
        return out

    def normal(self, x: dict):
        if len(x) == 1:
            ((word, c),) = x.items()
            acc = {(0, 0, 0, 0, 0, 0): c}
            for letter in word:
                acc = yield from self.times(acc, letter)
            return acc
        key = frozenset(x)
        seen = self.sums.get(key)
        if seen is not None:
            old, value = seen
            w = next(iter(old))
            a, b = x[w], old[w]
            if all(x[v] * b == a * c for v, c in old.items()):
                return value if a == b else {m: a * c // b for m, c in value.items()}
        groups: dict = {}
        out: dict = {}
        for word, c in x.items():
            if word:
                groups.setdefault(word[-1], {})[word[:-1]] = c
            else:
                out[(0, 0, 0, 0, 0, 0)] = c
        for letter, sub in groups.items():
            part = yield self.normal(sub)
            part = yield from self.times(part, letter)
            _accumulate(out, part.items())
        out = {m: c for m, c in out.items() if c}
        self.sums[key] = (x, out)
        return out


def tuple_normal_form(x: FreeElement) -> tuple[NormalElement, int]:
    """normal_form on tuple-keyed monomials, and its rewrite steps."""
    den = math.lcm(*(c.denominator for c in x.terms.values()))
    cleared = {w: c.numerator * (den // c.denominator) for w, c in x.terms.items()}
    orderer = TupleOrderer()
    out = _run(orderer.normal(_eliminate(cleared)))
    return NormalElement({m: Rat(c, den) for m, c in out.items()}), orderer.steps


def check_against_tuple_oracle(x: FreeElement) -> None:
    """normal_form equals the tuple oracle's, in no more rewrite steps:
    no input that finished under REWRITE_LIMIT there raises here."""
    nf, steps = rw._ordered(x)
    want, oracle_steps = tuple_normal_form(x)
    assert nf == want == normal_form(x)
    assert all(type(c) is Rat for c in nf.terms.values())
    assert steps <= oracle_steps


def _rewrite_tail() -> tuple:
    """The benchmark's degree 5-7 rewrite templates, read from bench/."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tuple(sorted(set(module.REWRITE_TAIL)))


REWRITE_TAIL = _rewrite_tail()

coefficients = st.one_of(
    rationals(max_num=5, max_den=4),
    st.builds(rat, large_numerators.filter(bool), st.sampled_from(COPRIME_DENOMINATORS)),
)


@given(st.lists(st.tuples(long_words, coefficients), max_size=4))
def test_normal_form_matches_tuple_oracle(items):
    elem = element(items)
    check_against_tuple_oracle(elem)


tail_coefficients = st.builds(rat, st.integers(-3, 3).filter(bool), st.integers(1, 2))


@given(st.sampled_from(REWRITE_TAIL), tail_coefficients, tail_coefficients)
def test_rewrite_tail_matches_tuple_oracle(template, x, y):
    check_against_tuple_oracle(parse(template.format(x=format_rat(x), y=format_rat(y))))


# The product tables outlive a call; steps count as on empty tables.

def fresh_ordered(x: FreeElement) -> tuple[NormalElement, int]:
    """_ordered(x) on empty product tables."""
    rw._packing.cache_clear()
    return rw._ordered(x)


def warm_with_rewrite_tail() -> None:
    for template in REWRITE_TAIL:
        normal_form(parse(template.format(x="2", y="-1")))


def table_size(w: int) -> int:
    return sum(map(len, rw._packing(w).table.values()))


sums = st.lists(st.tuples(long_words, coefficients), max_size=6).map(element)


@given(sums, sums)
def test_ordering_does_not_depend_on_earlier_calls(x, y):
    want = fresh_ordered(x)
    rw._ordered(y)
    assert rw._ordered(x) == want


@pytest.mark.parametrize(
    "text,steps",
    [
        ("(-2*A + -1*C)^6", 159),
        ("(2*A + 1*B)^7", 281),
        ("[1/2*A + 1*D, (B + D)^4]", 282),
        ("(2/3*A - 5/7*C + 1/2*gamma)^4", 40),
    ],
)
def test_pinned_step_counts_hold_on_a_warm_table(monkeypatch, text, steps):
    warm_with_rewrite_tail()
    test_rewrite_limit_is_reached_at_the_pinned_step_count(monkeypatch, text, steps)


def test_products_are_kept_across_calls():
    x = parse("(2*A + 1*B)^7")  # words of 7 letters: 4-bit fields
    want = fresh_ordered(x)
    table = rw._packing(4).table
    size = table_size(4)
    assert size > 0
    assert rw._ordered(x) == want
    assert rw._packing(4).table is table and table_size(4) == size


def test_rewrite_limit_inside_a_product_leaves_the_table_usable(monkeypatch):
    x = parse("(2*A + 1*B)^7")
    want = fresh_ordered(x)
    rw._packing.cache_clear()
    monkeypatch.setattr(rw, "REWRITE_LIMIT", 100)  # of 281
    with pytest.raises(RewriteLimitError) as raised:
        rw._ordered(x)
    assert any(entry.name == "_product" for entry in raised.traceback)
    assert table_size(4) > 0  # the products completed before the limit
    monkeypatch.undo()
    assert rw._ordered(x) == want
    warm_with_rewrite_tail()
    assert rw._ordered(x) == want


def test_tables_are_dropped_past_table_terms(monkeypatch):
    texts = ("(2*A + 1*B)^7", "[1/2*A + 1*D, (B + D)^4]", "(-2*A + -1*C)^6")
    xs = [parse(text) for text in texts]
    want = [fresh_ordered(x) for x in xs]
    rw._packing.cache_clear()
    monkeypatch.setattr(rw, "TABLE_TERMS", 100)
    packing = rw._packing(4)
    assert rw._ordered(xs[0]) == want[0]
    # the call filled the table it started with, then dropped it
    assert sum(map(len, packing.table.values())) > 0
    assert rw._packing(4) is not packing and table_size(4) == 0
    for _ in range(2):
        assert [rw._ordered(x) for x in xs] == want


def test_threads_share_the_tables(monkeypatch):
    """Threads store into, read and drop the tables (about 1,750 terms for
    the four inputs) under one another: every call still gives its
    fresh-table result and steps."""
    texts = ("(2*A + 1*B)^6", "[1/2*A + 1*D, (B + D)^4]", "(-2*A + -1*C)^5", "(A + D)^4")
    xs = [parse(text) for text in texts]
    want = [fresh_ordered(x) for x in xs]
    monkeypatch.setattr(rw, "TABLE_TERMS", 1000)
    got, errors = [], []

    def work(seed):
        try:
            for i in random.Random(seed).sample(range(len(xs)), len(xs)) * 3:
                got.append((i, rw._ordered(xs[i])))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(got) == 4 * 3 * len(xs)
    assert all(result == want[i] for i, result in got)


# longest words of 2^w - 2, 2^w - 1, 2^w and 2^w + 1 letters for w = 3 and 4,
# with exponents near the top of their fields: a carry into the next field
# changes the monomial
@pytest.mark.parametrize(
    "text,straightened",
    [
        ("B^5*A", True),
        ("B^6*A", True),
        ("B^7*A", True),
        ("B^8*A", True),
        ("A^7 + beta^14*A", True),
        ("B^6*A*alpha^8", True),
        ("B^7*A*alpha^8", True),
        ("alpha^8*B^7*A*delta", True),
        ("D^3*A*beta^11", True),
        ("D^3*A*beta^12", True),
        ("delta^7*beta^8*B*A", True),
        ("(A+D)*(B^50)^30", True),
        # straightening D^n*A takes time exponential in n
        ("D^6*A*alpha^8", False),
        ("D^7*A*alpha^8", False),
    ],
)
def test_exponents_fill_their_fields(text, straightened):
    x = parse(text)
    check_against_tuple_oracle(x)
    nf = normal_form(x)
    assert evaluate(nf, REP) == evaluate(x, REP)
    if straightened:
        assert nf == straighten(x)


@pytest.mark.parametrize("d,basis", [(2, "v"), (2, "w"), (3, "v"), (3, "w")])
def test_ninth_power_reduces_and_evaluates(d, basis):
    x = parse("(A+B)^9")
    nf = normal_form(x)
    assert len(nf.terms) == 450
    rep = build_R(P, d, basis)
    assert evaluate(nf, rep) == evaluate(x, rep)


def test_long_words_do_not_exhaust_the_call_stack():
    # 1500 letters: a recursive descent over the words would overflow
    nf = normal_form(parse("(A+D)*(B^50)^30"))
    assert nf.terms == {(1, 0, 1500, 0, 0, 0): rat(1), (0, 1, 1500, 0, 0, 0): rat(1)}


def test_run_unwinds_deep_recursion():
    def depth(n):
        if n == 0:
            return 0
        return (yield depth(n - 1)) + 1

    assert _run(depth(20000)) == 20000


def test_rewrite_limit_guard(monkeypatch):
    import racah.rewriter as rw

    monkeypatch.setattr(rw, "REWRITE_LIMIT", 0)
    with pytest.raises(RewriteLimitError):
        normal_form(parse("B*A"))


# -------------------------------------------------------------- evaluation

def test_evaluate_symbols():
    assert evaluate(parse("A"), REP) == REP.A
    assert evaluate(parse("C"), REP) == REP.C
    sc = REP.scalars
    ident = evaluate(parse("1"), REP)
    assert evaluate(parse("alpha"), REP) == ident.scale(sc.zeta)
    assert evaluate(parse("gamma"), REP) == ident.scale(sc.gamma)
    assert evaluate(parse("3"), REP) == ident.scale(3)


def test_evaluate_accepts_normal_elements():
    x = parse("D*A*B")
    assert evaluate(normal_form(x), REP) == evaluate(x, REP)


words = st.lists(st.sampled_from(SYMBOLS), max_size=5).map(tuple)


@given(st.lists(st.tuples(words, rationals(max_num=3, max_den=2)), max_size=3))
def test_normal_form_preserves_evaluation(items):
    elem = element(items)
    nf = normal_form(elem)
    assert evaluate(nf, REP) == evaluate(elem, REP)
    # and on a second basis of the same module
    rep_w = build_R(P, 2, "w")
    assert evaluate(nf, rep_w) == evaluate(elem, rep_w)


def dense_evaluate(x, rep):
    """evaluate as it was before it moved to cleared integer rows: every word
    multiplied out as dense Fraction Mat products.  Oracle for evaluate."""
    if isinstance(x, NormalElement):
        x = x.to_free()
    ident = Mat.identity(rep.dim)
    sc = rep.scalars
    table = {
        "A": rep.A,
        "B": rep.B,
        "C": rep.C,
        "D": rep.D,
        "alpha": ident.scale(sc.zeta),
        "beta": ident.scale(sc.zeta_star),
        "gamma": ident.scale(sc.gamma),
        "delta": ident.scale(sc.eta),
    }
    total = Mat.zero(rep.dim)
    for word, coeff in x.terms.items():
        acc = ident
        for sym in word:
            acc = acc * table[sym]
        total = total + acc.scale(coeff)
    return total


# every central letter is drawn as often as every generator
central_heavy_words = st.lists(
    st.sampled_from(SYMBOLS + ("alpha", "beta", "gamma", "delta")), max_size=6
).map(tuple)


@given(
    st.lists(st.tuples(central_heavy_words, coefficients), max_size=4),
    st.integers(0, 6),
    st.sampled_from("vwu"),
    st.booleans(),
)
def test_evaluate_matches_dense_oracle(items, d, basis, normal):
    elem = element(items)
    x = normal_form(elem) if normal else elem
    rep = build_R(P, d, basis)
    got = evaluate(x, rep)
    assert got == dense_evaluate(x, rep)
    assert got.shape() == (d + 1, d + 1)
    assert all(type(e) is Rat for row in got.entries for e in row)


@pytest.mark.parametrize("basis", "vwu")
@pytest.mark.parametrize("letter", SYMBOLS)
def test_evaluate_each_letter_and_zero_match_dense_oracle(letter, basis):
    rep = build_R(ParamTriple.of("999983/999979", "-999961/999959", "999953/999931"), 4, basis)
    for x in (parse(letter), parse(f"999983/999979*{letter}^3 - 7/5"), FreeElement({})):
        assert evaluate(x, rep) == dense_evaluate(x, rep)
    assert evaluate(NormalElement({}), rep) == Mat.zero(5)


def test_normal_element_to_free():
    nf = NormalElement({(2, 0, 1, 0, 0, 0): rat(5)})
    assert nf.to_free().terms == {("A", "A", "B"): rat(5)}


def test_elements_pickle_round_trip():
    free = parse("3/2*A*B - C + 2")
    for elem in (free, normal_form(free), FreeElement({})):
        back = pickle.loads(pickle.dumps(elem))
        assert type(back) is type(elem) and back == elem


def test_elements_carry_no_instance_dict():
    free = parse("A*B")
    for elem in (free, normal_form(free)):
        assert not hasattr(elem, "__dict__")
        back = pickle.loads(pickle.dumps(elem))
        assert type(back) is type(elem) and back == elem and hash(back) == hash(elem)
        assert not hasattr(back, "__dict__")
    assert free == FreeElement({("A", "B"): Rat(1)})
    assert hash(free) == hash(FreeElement({("A", "B"): Rat(1)}))
    assert normal_form(free) == NormalElement({(1, 0, 1, 0, 0, 0): Rat(1)})
    assert free != normal_form(free)
