"""Span tracing around the public functions of racah, from outside.

install() rebinds each traced function wherever racah binds it (module
globals, and methods of Mat) to a wrapper that records a span: name, parent
span, item, start and end.  Spans live in flat arrays in memory and are
written out once, at the end of a run.  A layer's self time is its spans'
time minus the time of their direct child spans.

Counts that a span cannot show (multiply-adds, rows fed to elimination,
terms produced) are added up by small hooks at the same boundaries.  The
hooks run after the span has closed, so their cost is charged to the
parent span; it is part of the reported tracing overhead.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter


def _mul_counts(counters, args, result):
    a, b = args
    counters["matrix.mul.madds"] += a.rows * a.cols * b.cols
    col_nnz = [sum(1 for row in a.entries if row[k] != 0) for k in range(a.cols)]
    row_nnz = [sum(1 for x in row if x != 0) for row in b.entries]
    counters["matrix.mul.useful"] += sum(c * r for c, r in zip(col_nnz, row_nnz))


def _rref_counts(counters, args, result):
    vectors = args[0]
    counters["linalg.rref.rows_in"] += len(vectors) if hasattr(vectors, "__len__") else 0


def _minpoly_counts(counters, args, result):
    counters["linalg.minimal_polynomial.degree_sum"] += result.degree


def _intertwiner_counts(counters, args, result):
    counters["linalg.intertwiner_space.unknowns"] += args[0].rows * args[2].rows


def _normal_form_counts(counters, args, result):
    counters["rewriter.normal_form.terms_out"] += len(result.terms)


# (module, function, span name, count hook)
FUNCTIONS = (
    ("modules", "build_R", "modules.build_R", None),
    ("modules", "verify_relations", "modules.verify_relations", None),
    *(
        ("params", fn, "params", None)
        for fn in (
            "theta", "theta_star", "phi", "varphi", "scalars",
            "in_P", "canonical", "trace_formula",
        )
    ),
    ("linalg", "rref", "linalg.rref", _rref_counts),
    ("linalg", "kernel", "linalg.kernel", None),
    ("linalg", "eigenspace", "linalg.eigenspace", None),
    ("linalg", "spin", "linalg.spin", None),
    ("linalg", "minimal_polynomial", "linalg.minimal_polynomial", _minpoly_counts),
    ("linalg", "intertwiner_space", "linalg.intertwiner_space", _intertwiner_counts),
    ("poly", "squarefree", "poly.squarefree", None),
    ("analyzer", "analyze", "analyzer.analyze", None),
    ("analyzer", "irreducible_oracle", "analyzer.irreducible_oracle", None),
    ("analyzer", "l_matrix", "analyzer.l_matrix", None),
    ("analyzer", "isomorphic", "analyzer.isomorphic", None),
    ("analyzer", "identify", "analyzer.identify", None),
    ("rewriter", "parse", "rewriter.parse", None),
    ("rewriter", "normal_form", "rewriter.normal_form", _normal_form_counts),
    ("rewriter", "format_element", "rewriter.format_element", None),
    ("verma", "build_verma", "verma.build_verma", None),
    ("verma", "verma_checks", "verma.verma_checks", None),
    ("serialize", "dumps", "serialize.dumps", None),
    ("cli", "_sweep_point", "cli.sweep_point", None),
)

# (Mat method, span name); __mul__ is handled apart because a product by a
# scalar is elementwise work, not a matrix product.
MAT_METHODS = (
    ("__init__", "matrix.construct"),
    ("apply", "matrix.apply"),
    ("__add__", "matrix.elementwise"),
    ("__sub__", "matrix.elementwise"),
    ("scale", "matrix.elementwise"),
)

# Every metric a traced run reports (BENCHMARK.json lists the same names).
CALL_METRICS = ("matrix.mul", "matrix.apply", "matrix.construct", "linalg.rref")
SELF_METRICS = (
    "matrix.mul", "matrix.apply", "matrix.construct", "matrix.elementwise",
    "modules.build_R", "modules.verify_relations", "params",
    "linalg.rref", "linalg.kernel", "linalg.eigenspace", "linalg.spin",
    "linalg.minimal_polynomial", "linalg.intertwiner_space", "poly.squarefree",
    "analyzer.analyze", "analyzer.irreducible_oracle", "analyzer.l_matrix",
    "analyzer.isomorphic", "analyzer.identify",
    "rewriter.parse", "rewriter.normal_form", "rewriter.format_element",
    "verma.build_verma", "verma.verma_checks", "serialize.dumps", "cli.sweep_point",
)
COUNTERS = (
    "rational.rat.calls", "matrix.mul.madds", "linalg.rref.rows_in",
    "linalg.minimal_polynomial.degree_sum", "linalg.intertwiner_space.unknowns",
    "rewriter.normal_form.terms_out",
)
DERIVED = {
    "matrix.mul.useful_ratio": "ratio",
    "linalg.spin.applies": "count",
    "trace.overhead": "ratio",
}


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric."""
    units = {f"{n}.calls": "count" for n in CALL_METRICS}
    units.update({f"{n}.self_s": "s" for n in SELF_METRICS})
    units.update({n: "count" for n in COUNTERS})
    units.update(DERIVED)
    return units


class Tracer:
    """Records spans while `enabled`; wrappers pass straight through
    otherwise, so checks run between timed items are not traced."""

    def __init__(self):
        self.enabled = False
        self.item = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """fn, recording one span per call while enabled."""
        nid = self._id(name)
        stack, counters = self._stack, self.counters
        names, parents, items, starts, ends = (
            self.name, self.parent, self.item_of, self.start, self.end,
        )

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_calls(self, name: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            if self.enabled:
                counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function of the imported racah package."""
        modules = [
            m for n, m in sys.modules.items() if n == "racah" or n.startswith("racah.")
        ]
        pkg = sys.modules["racah"]
        for module, fn_name, span, count in FUNCTIONS:
            original = getattr(getattr(pkg, module), fn_name)
            self._rebind(modules, original, self.wrap(span, original, count))
        rat = pkg.rational.rat
        self._rebind(modules, rat, self._count_calls("rational.rat.calls", rat))

        mat = pkg.matrix.Mat
        for method, span in MAT_METHODS:
            self._patch(mat, method, self.wrap(span, mat.__dict__[method]))
        plain_mul = mat.__dict__["__mul__"]
        traced_mul = self.wrap("matrix.mul", plain_mul, _mul_counts)

        def mul(a, b):
            return traced_mul(a, b) if isinstance(b, mat) else plain_mul(a, b)

        self._patch(mat, "__mul__", mul)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def span_item(self, item: int, fn, *args):
        """Run fn(*args) as the root span of one benchmark item."""
        self.item = item
        return self.wrap("item", fn)(*args)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead."""
        agg = aggregate(self.names, self.name, self.parent, self.start, self.end)
        out: dict[str, float] = {}
        for n in CALL_METRICS:
            out[f"{n}.calls"] = agg.get(n, {}).get("calls", 0)
        for n in SELF_METRICS:
            out[f"{n}.self_s"] = agg.get(n, {}).get("self_s", 0.0)
        for n in COUNTERS:
            out[n] = self.counters[n]
        madds = self.counters["matrix.mul.madds"]
        out["matrix.mul.useful_ratio"] = self.counters["matrix.mul.useful"] / madds if madds else 0.0
        out["linalg.spin.applies"] = self.children_count("linalg.spin", "matrix.apply")
        return out

    def children_count(self, parent_name: str, child_name: str) -> int:
        """Spans named child_name whose direct parent is named parent_name."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        pid, cid = self._ids[parent_name], self._ids[child_name]
        name, parent = self.name, self.parent
        return sum(1 for i in range(len(name)) if name[i] == cid and parent[i] >= 0 and name[parent[i]] == pid)

    def write(self, path) -> int:
        """Write the spans as JSON lines: a header naming the span names,
        then [name, parent, item, start_s, end_s] per span, times relative
        to the first span.  Returns the number of spans."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "parent", "item", "start_s", "end_s"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{self.name[i]},{self.parent[i]},{self.item_of[i]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}]\n"
                )
        return len(self.start)


def aggregate(names, name, parent, start, end) -> dict[str, dict[str, float]]:
    """Calls, total time and self time per span name from flat span arrays;
    self time is a span's duration minus its direct children's durations."""
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    out: dict[str, dict[str, float]] = {}
    for i in range(n):
        rec = out.setdefault(names[name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += dur[i]
        rec["self_s"] += dur[i] - child[i]
    return out
