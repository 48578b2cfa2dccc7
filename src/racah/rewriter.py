"""Noncommutative words in the generators and their normal ordering.

Expressions over A, B, C, D, alpha, beta, gamma, delta are parsed into
formal sums of words.  Normal ordering first eliminates C = delta - A - B
and gamma = -alpha - beta, then multiplies the remaining letters out in the
basis of ordered monomials A^i D^j B^k alpha^r delta^s beta^t, using

    B A -> A B - 2 D
    D A -> A D + A delta - A^2 - 2 A B + 2 D - alpha
    B D -> D B + B delta - B^2 - 2 A B + 2 D + beta

(alpha, beta, delta are central and commute with everything).  By
Bergman's diamond lemma the ordered monomials form a basis, so the normal
form is unique however the rules are applied.

A monomial is one int with a w-bit field per exponent, w set from the
longest input word: no rule raises the total degree, so no exponent
exceeds it.  Appending an in-order letter is one addition, the order test
one mask test.  A monomial times a letter that is out of order is its core
A^i D^j B^k times the letter, shifted by its central part; the core
product splits off the core's last letter, applies the rule for the pair
and multiplies the replacement into the shorter prefix, once per first
letter of the replacement terms.  A sum of words is normalized by grouping
on its last letters.  Each rule drops the measure (total degree, inversion
count), so the recursion ends.  A rewrite step is one out-of-order
monomial times letter product met, memo hits included, and REWRITE_LIMIT
caps their number.

Sums are memoized for one call.  Core products depend only on the core,
the letter and the rules, so each packing width keeps a table of them for
the life of the process; a product is stored once complete, with the
steps its body took and the products it met.  A call counts the steps it
would take on an empty table: a stored product met for the first time in
the call charges its body's steps, and those of the stored products below
it not yet met in the call.  So the normal form, the step count and
whether RewriteLimitError is raised depend only on the input.  A call
that leaves more than TABLE_TERMS terms in the tables drops them all.

Elements are immutable values without arithmetic: an expression is built
with parse, or from its terms as FreeElement({word: coefficient}).
Coefficients are ints wherever they are computed on.  The parser expands
on cleared sums (den, {word: int}): a product multiplies the dens and a
sum brings both sides to the lcm of theirs.  An element keeps the cleared
sum it was built from (an element built from its terms clears them), and
its coefficients become Fractions only if terms is read.  The rules have
integer coefficients and normal ordering is linear, so normal_form reads
its input's cleared sum, all ordering runs on ints, and the result is the
cleared sum over the input's den with the common factor divided out.
format_element and the reduce document print from that sum, one gcd per
coefficient.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import TYPE_CHECKING

from .errors import ParseError, RewriteLimitError
from .intmat import clear, combine, mul, scalar
from .matrix import Mat
from .rational import Rat, format_sum, parse_rat, rat

if TYPE_CHECKING:
    from .modules import ModuleRep

SYMBOLS = ("A", "B", "C", "D", "alpha", "beta", "gamma", "delta")
EXPONENT_LIMIT = 64
# most words and letters a parsed product, power or commutator may expand
# to (letters: words times the longest word), or a parsed sum may hold
# (summed over its summands, before like words merge)
WORD_LIMIT = 2**16
LETTER_LIMIT = 2**20
DEPTH_LIMIT = 64  # most nested parentheses, brackets and unary signs
REWRITE_LIMIT = 10**6
# most terms the product tables of all widths keep after a normal_form call
TABLE_TERMS = 2**16


# A cleared sum (den, terms) is the sum of c/den * key over terms, a dict
# key -> nonzero int, with den > 0 and gcd(den, every coefficient) = 1, so
# den is the lcm of the reduced denominators.  The parser expands on these,
# so all its arithmetic is on ints.

def _lowest(den: int, terms: dict) -> tuple:
    """(den, terms) with zero coefficients dropped and gcd(den, every
    coefficient) divided out."""
    terms = {k: c for k, c in terms.items() if c}
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    return den, terms


def _scalar(c: Rat) -> tuple:
    """The rational c as a cleared sum on the empty word."""
    return c.denominator, {(): c.numerator} if c else {}


def _plus(x: tuple, y: tuple, sign: int = 1) -> tuple:
    """x + sign*y, both brought to the lcm of their dens."""
    (dx, tx), (dy, ty) = x, y
    den = math.lcm(dx, dy)
    fx, fy = den // dx, sign * (den // dy)
    out = dict(tx) if fx == 1 else {k: c * fx for k, c in tx.items()}
    for k, c in ty.items():
        c *= fy
        out[k] = out[k] + c if k in out else c
    return _lowest(den, out)


def _negate(x: tuple) -> tuple:
    den, terms = x
    return den, {k: -c for k, c in terms.items()}


def _times(x: tuple, y: tuple) -> tuple:
    """x*y, keys (tuples) multiplied by concatenation.  The content (gcd of
    the coefficients) of a product is the product of the contents, because
    the free algebra over Z/p has no zero divisors; so with x and y in
    lowest terms, gcd(dx*dy, every coefficient) is gcd(dx, content(y)) *
    gcd(dy, content(x)), gcds over the operands and not the product."""
    (dx, tx), (dy, ty) = x, y
    out: dict = {}
    for w1, c1 in tx.items():
        for w2, c2 in ty.items():
            w = w1 + w2
            c = c1 * c2
            out[w] = out[w] + c if w in out else c
    out = {w: c for w, c in out.items() if c}
    g = math.gcd(dx, *ty.values()) * math.gcd(dy, *tx.values())
    if g == 1:
        return dx * dy, out
    return dx * dy // g, {w: c // g for w, c in out.items()}


def _power(x: tuple, k: int) -> tuple:
    acc = (1, {(): 1})
    for _ in range(k):
        acc = _times(acc, x)
    return acc


class _Element:
    """Formal linear combination of keys with rational coefficients: an
    immutable value without arithmetic.  Like a Mat, it holds one form,
    its cleared sum (_cleared).  An element built from its terms clears
    them at construction; terms, key -> nonzero Rat, is derived on first
    read, and only tests and the benchmark's tracer read it."""

    __slots__ = ("_cleared", "_terms")

    def __init__(self, terms: dict):
        values = {k: v if type(v) is Rat or type(v) is int else rat(v) for k, v in terms.items() if v}
        den = math.lcm(*[c.denominator for c in values.values()])
        cleared = {k: c.numerator * (den // c.denominator) for k, c in values.items()}
        object.__setattr__(self, "_cleared", (den, cleared))

    @classmethod
    def _from_cleared(cls, x: tuple):
        elem = object.__new__(cls)
        object.__setattr__(elem, "_cleared", x)
        return elem

    @property
    def terms(self) -> dict:
        """key -> nonzero Rat coefficient, made on first read and kept."""
        try:
            return self._terms
        except AttributeError:
            pass
        den, terms = self._cleared
        value = {k: Rat(c, den) for k, c in terms.items()}
        object.__setattr__(self, "_terms", value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self)._from_cleared, (self._cleared,))

    def __eq__(self, other):
        return type(self) is type(other) and self._cleared == other._cleared

    def __hash__(self):
        den, terms = self._cleared
        return hash((den, frozenset(terms.items())))


class FreeElement(_Element):
    """Sum of plain words (tuples over SYMBOLS) with rational coefficients."""

    __slots__ = ()


class NormalElement(_Element):
    """Sum of ordered monomials keyed (i, j, k, r, s, t) for
    A^i D^j B^k alpha^r delta^s beta^t."""

    __slots__ = ()

    def to_free(self) -> FreeElement:
        den, terms = self._cleared
        out = {}
        for (i, j, k, r, s, t), c in terms.items():
            word = (
                ("A",) * i
                + ("D",) * j
                + ("B",) * k
                + ("alpha",) * r
                + ("delta",) * s
                + ("beta",) * t
            )
            out[word] = c
        return FreeElement._from_cleared((den, out))


# ---------------------------------------------------------------- parsing

_SINGLE = set("+-*^()[],")
# only ASCII digits: str.isdigit() also holds for superscripts such as "²",
# which int() rejects
_DIGITS = set("0123456789")


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1  # 1-based for messages
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            if j < len(text) and text[j] == "/" and j + 1 < len(text) and text[j + 1] in _DIGITS:
                j += 1
                while j < len(text) and text[j] in _DIGITS:
                    j += 1
            toks.append(("num", text[i:j], pos))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            toks.append(("name", text[i:j], pos))
            i = j
        elif ch in _SINGLE:
            toks.append((ch, ch, pos))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    toks.append(("end", "", len(text) + 1))
    return toks


class _Parser:
    """Recursive descent; every value is a cleared sum of words."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str, opened_at: int | None = None):
        tok = self.peek()
        if tok[0] != kind:
            pos = opened_at if opened_at is not None else tok[2]
            raise ParseError(what, pos)
        return self.take()

    def nest(self) -> None:
        """Take an opening "(", "[" or unary sign, one level deeper."""
        pos = self.take()[2]
        self.depth += 1
        if self.depth > DEPTH_LIMIT:
            raise ParseError(f"nesting exceeds the limit of {DEPTH_LIMIT} levels", pos)

    def parse(self) -> FreeElement:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return FreeElement._from_cleared(value)

    def expr(self) -> tuple:
        value = self.term()
        words = letters = None  # of the summands so far, counted at the first "+" or "-"
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.take()
            rhs = self.term()
            if words is None:
                words, letters = len(value[1]), _letters(value[1])
            words += len(rhs[1])
            letters += _letters(rhs[1])
            _check_size("sum", words, letters, pos)
            value = _plus(value, rhs, 1 if op == "+" else -1)
        return value

    def term(self) -> tuple:
        value = self.factor()
        longest = None  # of value's words, computed at the first "*"
        while self.peek()[0] == "*":
            pos = self.take()[2]
            rhs = self.factor()
            if longest is None:
                longest = _longest(value[1])
            longest += _longest(rhs[1])
            words = len(value[1]) * len(rhs[1])
            _check_size("expansion", words, words * longest, pos)
            value = _times(value, rhs)
        return value

    def factor(self) -> tuple:
        value = self.atom()
        if self.peek()[0] == "^":
            caret = self.take()[2]
            tok = self.peek()
            if tok[0] != "num" or "/" in tok[1]:
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            self.take()
            # compare the digits before int(), which refuses over 4300 of them
            digits = tok[1].lstrip("0") or "0"
            if len(digits) > len(str(EXPONENT_LIMIT)) or int(digits) > EXPONENT_LIMIT:
                raise ParseError(
                    f"exponent {digits} exceeds the limit {EXPONENT_LIMIT}", tok[2]
                )
            e = int(digits)
            words = len(value[1]) ** e
            _check_size("expansion", words, words * e * _longest(value[1]), caret)
            value = _power(value, e)
        return value

    def atom(self) -> tuple:
        tok = self.peek()
        kind, text, pos = tok
        if kind == "num":
            self.take()
            try:
                return _scalar(parse_rat(text))
            except ValueError as exc:
                raise ParseError(str(exc), pos) from None
        if kind == "name":
            self.take()
            if text not in SYMBOLS:
                raise ParseError(f"unknown generator {text!r}", pos)
            return 1, {(text,): 1}
        if kind not in ("(", "[", "-", "+"):
            raise ParseError("expected a number, generator, parenthesis or bracket", pos)
        self.nest()
        if kind == "(":
            value = self.expr()
            self.expect(")", "unclosed parenthesis", opened_at=pos)
        elif kind == "[":
            left = self.expr()
            self.expect(",", "commutator bracket needs two comma-separated arguments")
            right = self.expr()
            if self.peek()[0] == ",":
                raise ParseError("commutator bracket takes exactly two arguments", self.peek()[2])
            self.expect("]", "unclosed commutator bracket", opened_at=pos)
            words = len(left[1]) * len(right[1])
            _check_size("expansion", words, words * (_longest(left[1]) + _longest(right[1])), pos)
            value = _plus(_times(left, right), _times(right, left), -1)
        else:
            value = _negate(self.factor()) if kind == "-" else self.factor()
        self.depth -= 1
        return value


def _check_size(what: str, words: int, letters: int, position: int) -> None:
    """Reject an expansion or a sum of more than WORD_LIMIT words or
    LETTER_LIMIT letters."""
    if words > WORD_LIMIT:
        raise ParseError(f"{what} exceeds the limit of {WORD_LIMIT} words", position)
    if letters > LETTER_LIMIT:
        raise ParseError(f"{what} exceeds the limit of {LETTER_LIMIT} letters", position)


def _longest(terms: dict) -> int:
    return max(map(len, terms), default=0)


def _letters(terms: dict) -> int:
    return sum(map(len, terms))


def parse(text: str) -> FreeElement:
    """Parse an expression in + - * ^ ( ) and commutator brackets [x,y]
    over the eight generator names and integer/rational literals,
    expanded on one cleared denominator."""
    return _Parser(text).parse()


# ------------------------------------------------------------ elimination

def _accumulate(out: dict, items) -> None:
    """Add (key, coeff) pairs into out."""
    for key, c in items:
        out[key] = out[key] + c if key in out else c


_EXPANSIONS = {
    "C": (("delta", 1), ("A", -1), ("B", -1)),
    "gamma": (("alpha", -1), ("beta", -1)),
}


def _eliminate(terms: dict) -> dict:
    """C and gamma rewritten away from a dict word -> coefficient, zero
    coefficients dropped.  The expansions have coefficients +-1, so int
    coefficients stay ints and rational ones stay rationals."""
    out: dict = {}
    for word, coeff in terms.items():
        if "C" not in word and "gamma" not in word:
            out[word] = out[word] + coeff if word in out else coeff
            continue
        acc = {(): coeff}
        for sym in word:
            expansion = _EXPANSIONS.get(sym)
            if expansion is None:
                acc = {w + (sym,): c for w, c in acc.items()}
            else:
                acc = {w + (e,): c * f for w, c in acc.items() for e, f in expansion}
        _accumulate(out, acc.items())
    return {w: c for w, c in out.items() if c}


# --------------------------------------------------------- normal ordering

# Replacement terms for each out-of-order pair left*right:
# (core letters, coeff, extra alpha, extra delta, extra beta).  Each core
# word is itself in order (A's, then D's, then B's).  The coefficients
# are ints, so on a cleared input every product and sum stays in int
# arithmetic.
_REWRITE_RULES = {
    ("B", "A"): (
        (("A", "B"), 1, 0, 0, 0),
        (("D",), -2, 0, 0, 0),
    ),
    ("D", "A"): (
        (("A", "D"), 1, 0, 0, 0),
        (("A",), 1, 0, 1, 0),
        (("A", "A"), -1, 0, 0, 0),
        (("A", "B"), -2, 0, 0, 0),
        (("D",), 2, 0, 0, 0),
        ((), -1, 1, 0, 0),
    ),
    ("B", "D"): (
        (("D", "B"), 1, 0, 0, 0),
        (("B",), 1, 0, 1, 0),
        (("B", "B"), -1, 0, 0, 0),
        (("A", "B"), -2, 0, 0, 0),
        (("D",), 2, 0, 0, 0),
        ((), 1, 0, 0, 1),
    ),
}

# The exponent fields of a packed monomial, most significant first.
_FIELDS = ("A", "D", "B", "alpha", "delta", "beta")


class _Packing:
    """Monomials A^i D^j B^k alpha^r delta^s beta^t as one int with a w-bit
    field per exponent, A's the most significant.  Appending an in-order
    letter adds its unit.  A is in order after a monomial without D and B,
    D after one without B: one mask test each (blocks).  B and the central
    letters are always in order.

    rules holds _REWRITE_RULES with each pair's terms grouped by their
    first A or D letter: pair -> ((first, ((rest, shift, coeff), ...)),
    ...), first and rest tuples of A and D letters.  A term is first, then
    rest, then the B and central letters packed into shift, which only
    ever append in order."""

    def __init__(self, w: int):
        self.w = w
        self.unit = unit = {x: 1 << (5 - p) * w for p, x in enumerate(_FIELDS)}
        self.central = (1 << 3 * w) - 1  # the alpha, delta and beta fields
        k_field = ((1 << w) - 1) << 3 * w
        self.blocks = {"A": k_field | k_field << w, "D": k_field}
        # letter -> core -> (element, body steps, products met by the body)
        self.table: dict = {"A": {}, "D": {}}
        self.rules = {}
        for pair, terms in _REWRITE_RULES.items():
            groups: dict = {}
            for core, coeff, dr, ds, dt in terms:
                k = core.count("B")
                head = core[: len(core) - k]
                shift = k * unit["B"] + dr * unit["alpha"] + ds * unit["delta"] + dt
                groups.setdefault(head[:1], []).append((head[1:], shift, coeff))
            self.rules[pair] = tuple((first, tuple(group)) for first, group in groups.items())

    def unpack(self, m: int) -> tuple:
        w = self.w
        f = (1 << w) - 1
        return (m >> 5 * w, m >> 4 * w & f, m >> 3 * w & f, m >> 2 * w & f, m >> w & f, m & f)


@functools.lru_cache(maxsize=None)
def _packing(w: int) -> _Packing:
    return _Packing(w)


_table_terms = 0  # terms in the tables of the packings _packing holds
_table_lock = threading.Lock()


def _keep_tables(stored: int) -> None:
    """Count the terms a call stored in the tables, and drop every table
    once they hold more than TABLE_TERMS.  Dropping gives the cache new
    packings with empty tables, so a call still running keeps its own."""
    global _table_terms
    with _table_lock:
        _table_terms += stored
        if _table_terms > TABLE_TERMS:
            _packing.cache_clear()
            _table_terms = 0


def _run(task):
    """Run a generator that yields sub-generators and is sent back their
    return values.  The explicit stack keeps deep recursion (long words,
    high degrees) off the interpreter's call stack."""
    stack = [task]
    value = None
    while True:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(sub)
            value = None


def _limit_error() -> RewriteLimitError:
    return RewriteLimitError(f"normal ordering exceeded {REWRITE_LIMIT} rewrite steps")


class _Orderer:
    """Multiplication in the ordered-monomial basis for one normal_form
    call.  An element is a dict packed monomial -> int coefficient.  The
    methods are generators for _run.  products holds the core products met
    in this call, formed here or taken from the packing's table; one taken
    from the table charges the steps forming it here would take
    (_charge)."""

    def __init__(self, packing: _Packing):
        self.packing = packing
        self.products: dict = {"A": {}, "D": {}}  # letter -> core monomial -> element
        self.sums: dict = {}  # frozenset of words -> (word coefficients, element)
        self.steps = 0
        self.stored = 0  # terms added to the table

    def times(self, elem: dict, letter: str, met: list | None = None):
        """elem * letter.  A letter in order is added to the monomial; any
        other monomial * letter product is one rewrite step, and met, if
        given, gets its (letter, core).  Its product is that of the
        monomial's core A^i D^j B^k, met before, stored or formed, with the
        central part added to each key."""
        packing = self.packing
        unit = packing.unit[letter]
        block = packing.blocks.get(letter)
        if block is None:
            return {m + unit: c for m, c in elem.items()}
        memo = self.products[letter]
        table = packing.table[letter]
        central = packing.central
        out: dict = {}
        for m, c in elem.items():
            if not m & block:
                m += unit
                out[m] = out[m] + c if m in out else c
                continue
            self.steps += 1
            if self.steps > REWRITE_LIMIT:
                raise _limit_error()
            shift = m & central
            core = m - shift
            if met is not None:
                met.append((letter, core))
            prod = memo.get(core)
            if prod is None:
                if core in table:
                    prod = self._charge(letter, core)
                else:
                    prod = yield self._product(core, letter)
            for key, f in prod.items():
                key += shift
                out[key] = out[key] + c * f if key in out else c * f
        return out

    def _charge(self, letter: str, core: int) -> dict:
        """The stored product core * letter, met for the first time in this
        call.  It and each product below it not yet met in this call count
        as met now, and the steps of their bodies are charged: on an empty
        table each of them would be formed here, its body run once."""
        table, memo = self.packing.table, self.products
        entry = table[letter][core]
        memo[letter][core] = entry[0]
        stack = [entry]
        while stack:
            _, steps, children = stack.pop()
            self.steps += steps
            for x, m in children:
                if m not in memo[x]:
                    entry = table[x][m]
                    memo[x][m] = entry[0]
                    stack.append(entry)
        if self.steps > REWRITE_LIMIT:
            raise _limit_error()
        return memo[letter][core]

    def _product(self, core: int, letter: str):
        """core * letter for an out-of-order pair: split off core's last
        letter and apply its rule with letter.  The prefix is multiplied
        by each first letter once, then by the rest of each term.  Stored
        in the table only once complete, with the steps its body took and
        the products it met."""
        packing = self.packing
        last = "B" if core & packing.blocks["D"] else "D"
        prefix = core - packing.unit[last]
        out: dict = {}
        met: list = []
        for first, group in packing.rules[last, letter]:
            head = {prefix: 1}
            for x in first:
                head = yield from self.times(head, x, met)
            for rest, shift, coeff in group:
                acc = head
                for x in rest:
                    acc = yield from self.times(acc, x, met)
                for key, c in acc.items():
                    key += shift
                    out[key] = out[key] + coeff * c if key in out else coeff * c
        out = {key: c for key, c in out.items() if c}
        self.products[letter][core] = out
        packing.table[letter][core] = (out, len(met), frozenset(met))
        self.stored += len(out)
        return out

    def normal(self, x: dict):
        """Normal form of a sum of words x (word -> nonzero coefficient) by
        its last letters: NF(x) = c*1 + sum over L of NF(x_L)*L, where x_L
        holds the words ending in L with that L removed.  A sum met before
        up to a scalar factor is not computed again."""
        if len(x) == 1:
            ((word, c),) = x.items()
            acc = {0: c}
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
                # x = (a/b) old, and both normal forms are integral
                return value if a == b else {m: a * c // b for m, c in value.items()}
        groups: dict = {}
        out: dict = {}
        for word, c in x.items():
            if word:
                groups.setdefault(word[-1], {})[word[:-1]] = c
            else:
                out[0] = c
        for letter, sub in groups.items():
            part = yield self.normal(sub)
            part = yield from self.times(part, letter)
            _accumulate(out, part.items())
        out = {m: c for m, c in out.items() if c}
        self.sums[key] = (x, out)
        return out


def _ordered(x: FreeElement) -> tuple[NormalElement, int]:
    """normal_form(x) and the rewrite steps it took."""
    den, terms = x._cleared
    cleared = _eliminate(terms)
    # no rule raises the total degree, so no exponent exceeds the longest word
    orderer = _Orderer(_packing((max(map(len, cleared), default=0) + 1).bit_length()))
    try:
        out = _run(orderer.normal(cleared))
    finally:
        _keep_tables(orderer.stored)
    unpack = orderer.packing.unpack
    normal = NormalElement._from_cleared(_lowest(den, {unpack(m): c for m, c in out.items()}))
    return normal, orderer.steps


def normal_form(x: FreeElement) -> NormalElement:
    """Normal-order a free expression: eliminate C and gamma, then multiply
    the words out in the ordered-monomial basis A^i D^j B^k alpha^r delta^s
    beta^t.  A monomial is packed into one int with w bits per exponent,
    w = (longest eliminated word + 1).bit_length(), and unpacked to its
    (i, j, k, r, s, t) key once at the end.  Central letters commute, so
    a monomial * letter product is formed once per core A^i D^j B^k and
    letter, kept in width w's table for later calls, and shifted by each
    monomial's central part.  Each out-of-order monomial * letter product
    met is one rewrite step, memo hits included, counted as on an empty
    table; more than REWRITE_LIMIT steps raise RewriteLimitError.  The
    ordering runs on the coefficients times the lcm of their denominators,
    as ints, and divides once at the end.  Soundness is checked elsewhere
    by evaluating both sides on concrete modules."""
    return _ordered(x)[0]


# -------------------------------------------------------------- evaluation

def evaluate(x, rep: ModuleRep) -> Mat:
    """Value of an expression on a concrete module; central symbols act by
    the module's scalars.  Each word is multiplied out on the generators
    cleared together (racah.intmat), brought up to the longest word's power
    of their den and, with the coefficients cleared by the lcm of their
    denominators, summed; the sum is the value's cleared form."""
    if isinstance(x, NormalElement):
        x = x.to_free()
    n = rep.dim
    sc = rep.scalars
    den, gens, ints = clear(
        (rep.A, rep.B, rep.C, rep.D), (sc.zeta, sc.zeta_star, sc.gamma, sc.eta)
    )
    # SYMBOLS lists A, B, C, D, then alpha, beta, gamma, delta, which act
    # by zeta, zeta_star, gamma and eta
    table = dict(zip(SYMBOLS, gens + [scalar(n, c) for c in ints]))
    cleared, terms = x._cleared
    top = _longest(terms)
    total = scalar(n, 0)
    for word, c in terms.items():
        acc = scalar(n, 1)
        for sym in word:
            acc = mul(acc, table[sym])
        total = combine((1, total), (c * den ** (top - len(word)), acc))
    return Mat.from_cleared(cleared * den**top, total, n)


# -------------------------------------------------------------- formatting

def format_element(x: NormalElement) -> str:
    """Canonical text for a normal element, written from its cleared sum
    with one gcd per coefficient; parse(format_element(x)) recovers x.
    Terms are sorted by word length descending, then alphabetically, and
    powers are collapsed.  The initials A, D, B, a, d, b sort as the names
    do (A < B < D < alpha < beta < delta), so a word sorts as its string of
    initials."""
    if not isinstance(x, NormalElement):
        raise TypeError(f"format_element takes a NormalElement, not {type(x).__name__}")
    den, terms = x._cleared
    rows = []
    for (i, j, k, r, s, t), coeff in terms.items():
        code = "A" * i + "D" * j + "B" * k + "a" * r + "d" * s + "b" * t
        parts = []
        if i:
            parts.append("A" if i == 1 else f"A^{i}")
        if j:
            parts.append("D" if j == 1 else f"D^{j}")
        if k:
            parts.append("B" if k == 1 else f"B^{k}")
        if r:
            parts.append("alpha" if r == 1 else f"alpha^{r}")
        if s:
            parts.append("delta" if s == 1 else f"delta^{s}")
        if t:
            parts.append("beta" if t == 1 else f"beta^{t}")
        rows.append((-len(code), code, "*".join(parts), coeff))
    rows.sort()
    return format_sum(den, [(body, coeff) for _, _, body, coeff in rows])
