"""The four benchmark workloads: seeded input rounds, the timed item, and
the untimed check that verifies each item by a second route.

A run is a number of rounds.  Every round of a workload has the same
composition (the same multiset of item kinds and sizes); the seed and the
round index choose only the parameters, coefficients and order.  Per-item
cost depends far more on the size `d` (or the rewrite template) than on the
parameters, so fixing the composition keeps throughput and percentiles
steady from seed to seed while every round still feeds the library inputs
it has not seen before.

The library is only called through module attributes looked up at call
time (`racah.build_R`, `cli.run_sweep`, ...), so the tracer can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "racah" / "__init__.py").is_file():
    raise ImportError(f"racah sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import racah  # noqa: E402
from racah import cli, serialize  # noqa: E402

WORKLOADS = ("classify", "verify", "intertwine", "rewrite")
DEFAULT_SEED = 1

# About the seconds one round takes at the reference machine speed on the
# commit that defined the benchmark (fractions backend).  A run does
# round(seconds / ROUND_S) rounds, at least MIN_ROUNDS, so its work is fixed
# for a given --seconds.
ROUND_S = {"classify": 3.0, "verify": 5.0, "intertwine": 2.4, "rewrite": 3.75}
MIN_ROUNDS = 3

# An item running longer than this is stopped and counted as failed.
ITEM_CAP_S = 30.0

FORMS = ("a+b+c+1", "-a+b+c", "a-b+c", "a+b-c")
L_METHODS = ("closed", "recurrence", "direct")


# The counts below place each round's p50 and p90 inside a group of items of
# like cost rather than on the edge between two groups, where a small change
# in the parameters would flip which group the percentile reads.


def _spread(counts: dict) -> list[int]:
    return [d for d, n in sorted(counts.items()) for _ in range(n)]


# classify: 6 boundary points per form (d = 1..6) plus random points with d
# weighted toward the middle of 0..10.
CLASSIFY_BOUNDARY_D = (1, 2, 3, 4, 5, 6)
CLASSIFY_RANDOM_D = _spread({0: 4, 1: 4, 2: 6, 3: 7, 4: 8, 5: 8, 6: 7, 7: 2, 8: 6, 9: 3, 10: 1})

# verify: mostly mid-sized d with a tail to d = 16.  A d = 32 item takes
# 4.5 s, longer than a whole round, so it would leave too few rounds.
VERIFY_RELATIONS_D = _spread({2: 3, 3: 4, 4: 6, 5: 9, 6: 4, 7: 3, 8: 3, 10: 1, 12: 1, 16: 1})
VERIFY_VERMA_D = _spread({1: 2, 2: 4})
VERIFY_LMATRIX_D = _spread({2: 1, 3: 1, 4: 2, 5: 1, 6: 1, 8: 1, 10: 1})

# intertwine: flip partners, same parameters across bases, and distinct
# orbits whose eta differs (these return before any elimination).
INTERTWINE_D = _spread({1: 1, 2: 1, 3: 1, 4: 1, 5: 3, 6: 3, 7: 3, 8: 3})
INTERTWINE_EARLY_D = tuple(range(1, 9))

# rewrite: 8 random words of each length 1-6 plus a fixed tail of degree 5-7
# templates, where {x} and {y} are seeded nonzero coefficients.  Degree stops
# at 7 because (A+B)^8 takes about 13 s and (A+B)^9 hits the rewrite limit.
REWRITE_WORD_LENGTHS = _spread({n: 8 for n in range(1, 7)})
REWRITE_TAIL = (
    "({x}*A + {y}*B)^6",
    "({x}*A + {y}*D)^5",
    "({x}*A + {y}*C)^6",
    "({x}*D + {y}*B)^5",
    *["[{x}*D, ({y}*A + B)^5]"] * 5,
    "[{x}*A + {y}*D, (B + D)^4]",
    "[{x}*A + {y}*B, (A + D)^4]",
    "({x}*A + {y}*B)^7",
)
REWRITE_CHECK_D = 2


class CheckFailed(Exception):
    """An item's output failed its second-route check."""


def n_rounds(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


def _rat(rng: random.Random):
    return racah.rat(rng.randint(-6, 6), rng.randint(1, 4))


def _triple(rng: random.Random):
    return racah.ParamTriple(_rat(rng), _rat(rng), _rat(rng))


def _irreducible_triple(rng: random.Random, d: int):
    while True:
        p = _triple(rng)
        if racah.in_P(p, d)[0]:
            return p


def _boundary_point(rng: random.Random, form: str, d: int):
    """A triple whose named linear form equals a forbidden value d/2 - i."""
    v = racah.rat(d, 2) - rng.randint(1, d)
    x, y = _rat(rng), _rat(rng)
    if form == "a+b+c+1":
        return racah.ParamTriple(v - 1 - x - y, x, y)
    if form == "-a+b+c":
        return racah.ParamTriple(x + y - v, x, y)
    if form == "a-b+c":
        return racah.ParamTriple(x, x + y - v, y)
    return racah.ParamTriple(x, y, x + y - v)


def _coeff_text(rng: random.Random) -> str:
    num = rng.choice((1, 2, 3)) * rng.choice((1, -1))
    den = rng.randint(1, 2)
    return racah.format_rat(racah.rat(num, den))


def _classify_round(rng):
    items = [
        ("analyze", _boundary_point(rng, form, d), d, form)
        for form in FORMS
        for d in CLASSIFY_BOUNDARY_D
    ]
    items += [("analyze", _triple(rng), d, None) for d in CLASSIFY_RANDOM_D]
    return items


def _verify_round(rng):
    items = [
        ("relations", _triple(rng), d, racah.modules.BASES[k % 3])
        for k, d in enumerate(VERIFY_RELATIONS_D)
    ]
    items += [("verma", _triple(rng), d) for d in VERIFY_VERMA_D]
    items += [("lmatrix", _triple(rng), d) for d in VERIFY_LMATRIX_D]
    return items


def _intertwine_round(rng):
    items = []
    for d in INTERTWINE_D:
        p = _irreducible_triple(rng, d)
        flip = rng.choice(racah.ALL_FLIPS[1:])
        items.append(("isomorphic", p, racah.act(p, flip), d, True))
    for k, d in enumerate(INTERTWINE_D):
        items.append(("intertwiner", _irreducible_triple(rng, d), d, "wu"[k % 2]))
    for d in INTERTWINE_EARLY_D:
        p = _irreducible_triple(rng, d)
        while True:
            q = _irreducible_triple(rng, d)
            if racah.scalars(q, d).eta != racah.scalars(p, d).eta:
                break
        items.append(("isomorphic", p, q, d, False))
    return items


def _rewrite_round(rng):
    check = _triple(rng)
    items = []
    for length in REWRITE_WORD_LENGTHS:
        word = [rng.choice(racah.rewriter.SYMBOLS) for _ in range(length)]
        text = "*".join([_coeff_text(rng)] + word)
        items.append(("reduce", text, check, False))
    for template in REWRITE_TAIL:
        text = template.format(x=_coeff_text(rng), y=_coeff_text(rng))
        items.append(("reduce", text, check, True))
    return items


_ROUNDS = {
    "classify": _classify_round,
    "verify": _verify_round,
    "intertwine": _intertwine_round,
    "rewrite": _rewrite_round,
}


def make_round(workload: str, seed: int, index: int) -> list[tuple]:
    """The items of one round, in seeded order.  Same arguments, same items."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    items = _ROUNDS[workload](rng)
    rng.shuffle(items)
    return items


def item_d(item) -> int | None:
    """The module size d of an item (None for rewrite items)."""
    if item[0] == "reduce":
        return None
    return item[3] if item[0] == "isomorphic" else item[2]


def describe(item) -> str:
    if item[0] == "reduce":
        return f"reduce {item[1]!r}"
    if item[0] == "relations":
        return f"relations d={item[2]} basis={item[3]} {tuple(map(str, item[1]))}"
    if item[0] == "intertwiner":
        return f"intertwiner d={item[2]} v->{item[3]} {tuple(map(str, item[1]))}"
    if item[0] == "isomorphic":
        return f"isomorphic d={item[3]} {tuple(map(str, item[1]))} vs {tuple(map(str, item[2]))}"
    return f"{item[0]} d={item[2]} {tuple(map(str, item[1]))}"


# ------------------------------------------------------------------ items

def run_item(item):
    """The timed work of one item: the library call, its document and the
    canonical JSON a CLI user would receive.  Returns (result, text)."""
    kind = item[0]
    if kind == "analyze":
        row = cli.run_sweep([(item[1], item[2])], jobs=1)["points"][0]
        return row, serialize.dumps(row)
    if kind == "relations":
        report = racah.verify_relations(racah.build_R(item[1], item[2], item[3]))
        return report, serialize.dumps(serialize.relation_report_to_doc(report))
    if kind == "verma":
        report = racah.verma_checks(racah.build_verma(item[1], item[2]), item[2])
        return report, serialize.dumps(serialize.verma_report_to_doc(report))
    if kind == "lmatrix":
        mats = [racah.l_matrix(item[1], item[2], m) for m in L_METHODS]
        return mats, serialize.dumps(serialize.mat_to_rows(mats[0]))
    if kind == "isomorphic":
        res = racah.isomorphic(item[1], item[2], item[3])
        return res, serialize.dumps(serialize.iso_to_doc(res))
    if kind == "intertwiner":
        r1 = racah.build_R(item[1], item[2], "v")
        r2 = racah.build_R(item[1], item[2], item[3])
        basis = racah.intertwiner_space(r1.A, r1.B, r2.A, r2.B)
        return (r1, r2, basis), serialize.dumps([serialize.mat_to_rows(m) for m in basis])
    if kind == "reduce":
        free = racah.parse(item[1])
        normal = racah.normal_form(free)
        text = racah.format_element(normal)
        return (free, normal), serialize.dumps({"expr": item[1], "normal": text})
    raise ValueError(f"unknown item kind {kind!r}")


def parallel_item(item) -> str | None:
    """run_item in a pool worker; returns the text, or None on any error
    (the parent counts the mismatch as a failure of that item)."""
    try:
        return run_item(item)[1]
    except Exception:
        return None


def _intertwines(x, r1, r2) -> bool:
    return r2.A * x == x * r1.A and r2.B * x == x * r1.B


def check_item(item, result) -> None:
    """Verify one output by the library's second route; raise CheckFailed."""
    kind = item[0]
    if kind == "analyze":
        if result["disagreement"]:
            raise CheckFailed(result["error"])
        form = item[3]
        if form is not None and (
            result["irreducible"] or form not in {w["form"] for w in result["witnesses"]}
        ):
            raise CheckFailed(f"boundary point of {form} not reported reducible by it")
    elif kind == "relations":
        if not result.all_pass:
            raise CheckFailed(f"failing relations {[c.name for c in result.failures]}")
    elif kind == "verma":
        # at nu = d every ladder check applies, so none may fail or skip
        bad = [c.name for c in result.checks if c.status != "pass"]
        if bad:
            raise CheckFailed(f"ladder checks not passing: {bad}")
    elif kind == "lmatrix":
        if not (result[0] == result[1] == result[2]):
            raise CheckFailed("closed, recurrence and direct L matrices differ")
    elif kind == "isomorphic":
        _, p, q, d, expected = item
        if result.iso != expected or result.hom_dim != int(expected):
            raise CheckFailed(f"iso {result.iso} hom_dim {result.hom_dim}, expected iso {expected}")
        if expected and not _intertwines(
            result.intertwiner, racah.build_R(p, d, "v"), racah.build_R(q, d, "v")
        ):
            raise CheckFailed("returned intertwiner does not commute with A and B")
    elif kind == "intertwiner":
        r1, r2, basis = result
        if len(basis) != 1 or not _intertwines(basis[0], r1, r2) or not racah.invertible(basis[0]):
            raise CheckFailed(f"expected one invertible intertwiner, got {len(basis)} maps")
    elif kind == "reduce":
        free, normal = result
        rep = racah.build_R(item[2], REWRITE_CHECK_D)
        if racah.evaluate(normal, rep) != racah.evaluate(free, rep):
            raise CheckFailed("normal form and expression differ on a module")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ------------------------------------------------------- input properties

def input_properties(workload: str, items, texts) -> dict:
    """Measured properties of the inputs a run fed the library.  `texts`
    maps an item's position to its output document, for properties read
    off the output (the reducible share)."""
    props: dict = {"items": len(items)}
    if workload != "rewrite":
        hist = Counter(item_d(it) for it in items)
        props["d_histogram"] = {str(d): hist[d] for d in sorted(hist)}
    if workload == "classify":
        rows = [json.loads(t) for t in texts.values()]
        props["reducible_share"] = sum(1 for r in rows if r.get("irreducible") is False) / max(1, len(rows))
    elif workload == "verify":
        props["kinds"] = dict(Counter(it[0] for it in items))
    elif workload == "intertwine":
        early = sum(
            1
            for it in items
            if it[0] == "isomorphic"
            and racah.scalars(it[1], it[3]).eta != racah.scalars(it[2], it[3]).eta
        )
        props["early_return_share"] = early / len(items)
    else:
        props["heavy_share"] = sum(1 for it in items if it[3]) / len(items)
    return props
