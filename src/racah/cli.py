"""Command-line interface.

Subcommands: construct, verify, analyze, sweep, intertwine, reduce, eval,
verma, golden.  Documents go to stdout (or --out) as canonical JSON;
--format text switches to a plain rendering.  Exit codes: 0 success /
all checks pass, 1 any check failure or an exceeded rewrite limit, 2 usage
or malformed input (an oversize sweep grid, d or verma cutoff included).
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor

# let option values like -1/2 through (argparse only recognizes -N and -N.N
# as negative numbers out of the box)
_NEGATIVE_RAT = re.compile(r"^-\d+(/\d+)?$")
# reduce and eval also let an expression like -A+B through: any argument
# that starts with a single '-' and names no option is a value there
_LEADING_MINUS = re.compile(r"^-[^-]")

from .analyzer import ConsistencyError, analyze, isomorphic, module_maps, orbit_check
from .golden import golden_example
from .modules import build_R, verify_relations
from .params import ParamTriple, in_P
from .rational import Rat, format_rat, parse_rat
from .rewriter import ParseError, RewriteLimitError, evaluate, format_element, normal_form, parse
from .serialize import (
    analysis_to_doc,
    dumps,
    iso_to_doc,
    mat_to_rows,
    mat_to_text,
    params_to_doc,
    relation_report_to_doc,
    rep_to_doc,
    verma_report_to_doc,
)
from .verma import build_verma, verma_checks


def _rat_arg(text: str) -> Rat:
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = _nonneg_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


# the largest module parameter d and verma truncation cutoff accepted; at
# these sizes every subcommand finishes within a minute
MAX_D = 24
MAX_CUTOFF = 128


def _int_at_most(limit: int):
    """argparse type: a nonnegative integer no larger than limit."""

    def parse(text: str) -> int:
        value = _nonneg_int(text)
        if value > limit:
            raise argparse.ArgumentTypeError(f"{value} exceeds the limit of {limit}")
        return value

    return parse


class _SubParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_RAT


def _add_params(sub, required=True):
    sub.add_argument("--a", type=_rat_arg, required=required, help="parameter a (p/q)")
    sub.add_argument("--b", type=_rat_arg, required=required, help="parameter b (p/q)")
    sub.add_argument("--c", type=_rat_arg, required=required, help="parameter c (p/q)")


def _add_common(sub):
    sub.add_argument("--out", help="write the document here instead of stdout")
    sub.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racah",
        description="exact construction and classification of the finite-dimensional modules",
    )
    parser._negative_number_matcher = _NEGATIVE_RAT
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_SubParser)

    p_construct = subs.add_parser("construct", help="build the module matrices")
    _add_params(p_construct)
    p_construct.add_argument("--d", type=_int_at_most(MAX_D), required=True)
    p_construct.add_argument("--basis", choices=("v", "w", "u"), default="v")
    _add_common(p_construct)

    p_verify = subs.add_parser("verify", help="check the defining relations")
    _add_params(p_verify)
    p_verify.add_argument("--d", type=_int_at_most(MAX_D), required=True)
    p_verify.add_argument("--basis", choices=("v", "w", "u"), default="v")
    _add_common(p_verify)

    p_analyze = subs.add_parser("analyze", help="full classification report")
    _add_params(p_analyze)
    p_analyze.add_argument("--d", type=_int_at_most(MAX_D), required=True)
    _add_common(p_analyze)

    p_sweep = subs.add_parser("sweep", help="analyze a parameter grid")
    p_sweep.add_argument(
        "--grid",
        required=True,
        help="grid spec like 'a=-1/2,0,1/2;b=0..1:1/2;c=1/4;d=1,2,3'",
    )
    p_sweep.add_argument("--jobs", type=_positive_int, default=1)
    _add_common(p_sweep)

    p_inter = subs.add_parser(
        "intertwine", help="basis of maps intertwining two modules"
    )
    _add_params(p_inter)
    p_inter.add_argument("--d", type=_int_at_most(MAX_D), required=True)
    p_inter.add_argument("--basis", choices=("v", "w", "u"), default="v")
    p_inter.add_argument("--a2", type=_rat_arg, help="second triple (defaults to the first)")
    p_inter.add_argument("--b2", type=_rat_arg)
    p_inter.add_argument("--c2", type=_rat_arg)
    p_inter.add_argument("--basis2", choices=("v", "w", "u"), default="v")
    _add_common(p_inter)

    p_reduce = subs.add_parser("reduce", help="normal-order an expression")
    p_reduce._negative_number_matcher = _LEADING_MINUS
    p_reduce.add_argument("--expr", required=True)
    _add_common(p_reduce)

    p_eval = subs.add_parser("eval", help="evaluate an expression on a module")
    p_eval._negative_number_matcher = _LEADING_MINUS
    p_eval.add_argument("--expr", required=True)
    _add_params(p_eval)
    p_eval.add_argument("--d", type=_int_at_most(MAX_D), required=True)
    p_eval.add_argument("--basis", choices=("v", "w", "u"), default="v")
    _add_common(p_eval)

    p_verma = subs.add_parser("verma", help="truncated ladder module checks")
    _add_params(p_verma)
    p_verma.add_argument("--nu", type=_rat_arg, required=True)
    p_verma.add_argument("--d", type=_int_at_most(MAX_D))
    p_verma.add_argument("--cutoff", type=_int_at_most(MAX_CUTOFF))
    _add_common(p_verma)

    p_golden = subs.add_parser("golden", help="run the pinned worked example")
    _add_common(p_golden)

    return parser


# ------------------------------------------------------------------ sweep

def _sweep_point(point) -> dict:
    p, d = point
    base = {"params": params_to_doc(p), "d": d}
    try:
        report = analyze(p, d)
    except ConsistencyError as exc:
        return {**base, "disagreement": True, "error": str(exc)}
    return {
        **base,
        "disagreement": False,
        "irreducible": report.irreducible,
        "canonical": params_to_doc(report.canonical_params),
        "diagonalizable": report.diagonalizable,
        "witnesses": [
            {"form": w.form, "value": format_rat(w.value), "index": w.i}
            for w in report.witnesses
        ],
    }


def run_sweep(points, jobs: int = 1) -> dict:
    """Analyze every (params, d) point; returns the full per-point list and
    the aggregate counts.  Output is independent of the job count."""
    points = list(points)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_point, points, chunksize=8))
    else:
        rows = [_sweep_point(pt) for pt in points]
    disagreements = sum(1 for r in rows if r["disagreement"])
    irre = sum(1 for r in rows if r.get("irreducible") is True)
    redu = sum(1 for r in rows if r.get("irreducible") is False)
    return {
        "summary": {
            "total": len(rows),
            "irreducible": irre,
            "reducible": redu,
            "disagreements": disagreements,
        },
        "points": rows,
    }


# a sweep grid with more points is rejected before any of it is built
MAX_GRID_POINTS = 100_000


def _parse_grid(spec: str) -> list[tuple[ParamTriple, int]]:
    values: dict[str, list] = {}
    size = 1
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"grid component {part!r} is not key=values")
        key, _, body = part.partition("=")
        key = key.strip()
        if key not in ("a", "b", "c", "d"):
            raise ValueError(f"grid key must be a, b, c or d, got {key!r}")
        if key in values:
            raise ValueError(f"grid key {key!r} given twice")
        body = body.strip()
        if ".." in body:
            head, _, step_text = body.partition(":")
            lo_text, _, hi_text = head.partition("..")
            if not step_text:
                raise ValueError(f"range {body!r} needs an explicit :step")
            lo, hi, step = parse_rat(lo_text), parse_rat(hi_text), parse_rat(step_text)
            if step <= 0:
                raise ValueError(f"range step must be positive in {body!r}")
            if hi < lo:
                raise ValueError(f"empty range {body!r}")
            count = (hi - lo) // step + 1
            vals = (lo + k * step for k in range(count))  # built after the size check
        else:
            vals = [parse_rat(v) for v in body.split(",") if v.strip()]
            count = len(vals)
        if not count:
            raise ValueError(f"no values for grid key {key!r}")
        size *= count
        if size > MAX_GRID_POINTS:
            raise ValueError(
                f"grid has at least {size} points, more than the limit of {MAX_GRID_POINTS}"
            )
        values[key] = list(vals)
    missing = [k for k in ("a", "b", "c", "d") if k not in values]
    if missing:
        raise ValueError(f"grid is missing keys: {', '.join(missing)}")
    ds = []
    for v in values["d"]:
        if v.denominator != 1 or v < 0:
            raise ValueError(f"d values must be nonnegative integers, got {format_rat(v)}")
        if v > MAX_D:
            raise ValueError(f"d value {format_rat(v)} exceeds the limit of {MAX_D}")
        ds.append(int(v))
    points = []
    for a in values["a"]:
        for b in values["b"]:
            for c in values["c"]:
                for d in ds:
                    points.append((ParamTriple(a, b, c), d))
    return points


# ----------------------------------------------------------------- output

def _emit(args, text: str):
    """Write to --out, or stdout.  An unwritable --out exits 2."""
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            raise SystemExit(2) from None
    else:
        sys.stdout.write(text)


def _render_checks_text(checks) -> str:
    lines = []
    for c in checks:
        status = c.get("status") if "status" in c else ("ok" if c["ok"] else "FAIL")
        if status is True or status == "pass":
            status = "ok"
        elif status is False or status == "fail":
            status = "FAIL"
        name = c.get("name", "")
        detail = c.get("detail", "") or ""
        extra = f"  ({detail})" if detail else ""
        lines.append(f"{status:>4}  {name}{extra}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- actions

def _cmd_construct(args) -> int:
    rep = build_R(ParamTriple(args.a, args.b, args.c), args.d, args.basis)
    if args.format == "json":
        _emit(args, dumps(rep_to_doc(rep)))
    else:
        blocks = [
            f"module d={rep.d} basis={rep.basis} "
            f"(a,b,c)=({format_rat(rep.params.a)},{format_rat(rep.params.b)},{format_rat(rep.params.c)})"
        ]
        for name in ("A", "B", "C", "D"):
            blocks.append(f"{name}:")
            blocks.append(mat_to_text(rep.generator(name)))
        _emit(args, "\n".join(blocks) + "\n")
    return 0


def _cmd_verify(args) -> int:
    rep = build_R(ParamTriple(args.a, args.b, args.c), args.d, args.basis)
    report = verify_relations(rep)
    doc = relation_report_to_doc(report)
    if args.format == "json":
        _emit(args, dumps(doc))
    else:
        body = _render_checks_text(doc["checks"])
        tail = "all relations hold\n" if report.all_pass else "RELATION FAILURES\n"
        _emit(args, body + tail)
    return 0 if report.all_pass else 1


def _cmd_analyze(args) -> int:
    try:
        report = analyze(ParamTriple(args.a, args.b, args.c), args.d)
    except ConsistencyError as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 1
    doc = analysis_to_doc(report)
    if args.format == "json":
        _emit(args, dumps(doc))
    else:
        lines = [
            f"params ({doc['params']['a']}, {doc['params']['b']}, {doc['params']['c']}), d={doc['d']}",
            f"canonical ({doc['canonical_params']['a']}, {doc['canonical_params']['b']}, {doc['canonical_params']['c']})",
            f"irreducible: {doc['irreducible']}",
            f"diagonalizable: {doc['diagonalizable']}",
            f"traces: {doc['traces']}",
        ]
        if doc["witnesses"]:
            lines.append(f"witnesses: {doc['witnesses']}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_sweep(args, parser) -> int:
    try:
        points = _parse_grid(args.grid)
    except ValueError as exc:
        parser.error(str(exc))
    if not points:
        parser.error("grid is empty")
    start = time.monotonic()
    doc = run_sweep(points, jobs=args.jobs)
    elapsed = time.monotonic() - start
    print(
        f"swept {doc['summary']['total']} points in {elapsed:.1f}s "
        f"(jobs={args.jobs})",
        file=sys.stderr,
    )
    full = {"grid": args.grid, **doc}
    if args.format == "json":
        _emit(args, dumps(full))
    else:
        s = doc["summary"]
        _emit(
            args,
            f"total {s['total']}  irreducible {s['irreducible']}  "
            f"reducible {s['reducible']}  disagreements {s['disagreements']}\n",
        )
    return 0 if doc["summary"]["disagreements"] == 0 else 1


def _cmd_intertwine(args) -> int:
    p1 = ParamTriple(args.a, args.b, args.c)
    second = [args.a2, args.b2, args.c2]
    if any(x is not None for x in second) and any(x is None for x in second):
        print("give all of --a2 --b2 --c2 or none", file=sys.stderr)
        return 2
    p2 = ParamTriple(*second) if second[0] is not None else p1
    d = args.d
    irr1, _ = in_P(p1, d)
    irr2, _ = in_P(p2, d)
    if args.basis == "v" and args.basis2 == "v":
        if irr1 and irr2:
            try:
                result = isomorphic(p1, p2, d)
            except ConsistencyError as exc:
                print(f"internal cross-check failed: {exc}", file=sys.stderr)
                return 1
            doc = iso_to_doc(result)
            doc["verdict"] = "isomorphic" if result.iso else "distinct"
            _emit_intertwine(args, doc)
            return 0
    basis = module_maps(build_R(p1, d, args.basis), build_R(p2, d, args.basis2))
    doc = {
        "d": d,
        "params_1": params_to_doc(p1),
        "basis_1": args.basis,
        "params_2": params_to_doc(p2),
        "basis_2": args.basis2,
        "hom_dim": len(basis),
        "intertwiners": [mat_to_rows(m) for m in basis],
        "verdict": "unclassified",
    }
    if irr1 and irr2:
        try:
            _, iso = orbit_check(p1, p2, d, basis)
        except ConsistencyError as exc:
            print(f"internal cross-check failed: {exc}", file=sys.stderr)
            return 1
        doc["verdict"] = "isomorphic" if iso else "distinct"
    _emit_intertwine(args, doc)
    return 0


def _emit_intertwine(args, doc) -> None:
    if args.format == "json":
        _emit(args, dumps(doc))
    else:
        _emit(args, f"hom_dim {doc['hom_dim']}  verdict {doc['verdict']}\n")


def _cmd_reduce(args, parser) -> int:
    try:
        element = parse(args.expr)
    except ParseError as exc:
        parser.error(str(exc))
    try:
        normal = normal_form(element)
    except RewriteLimitError as exc:
        print(f"rewrite limit exceeded: {exc}", file=sys.stderr)
        return 1
    text = format_element(normal)
    terms = [
        {
            "A": key[0],
            "D": key[1],
            "B": key[2],
            "alpha": key[3],
            "delta": key[4],
            "beta": key[5],
            "coeff": format_rat(coeff),
        }
        for key, coeff in sorted(normal.terms.items())
    ]
    if args.format == "json":
        _emit(args, dumps({"expr": args.expr, "normal": text, "terms": terms}))
    else:
        _emit(args, text + "\n")
    return 0


def _cmd_eval(args, parser) -> int:
    try:
        element = parse(args.expr)
    except ParseError as exc:
        parser.error(str(exc))
    rep = build_R(ParamTriple(args.a, args.b, args.c), args.d, args.basis)
    value = evaluate(element, rep)
    if args.format == "json":
        _emit(
            args,
            dumps(
                {
                    "expr": args.expr,
                    "params": params_to_doc(rep.params),
                    "d": rep.d,
                    "basis": rep.basis,
                    "value": mat_to_rows(value),
                }
            ),
        )
    else:
        _emit(args, mat_to_text(value) + "\n")
    return 0


def _cmd_verma(args, parser) -> int:
    p = ParamTriple(args.a, args.b, args.c)
    whole_nu = args.nu.denominator == 1 and args.nu >= 0
    if args.cutoff is None and whole_nu and args.nu + 10 > MAX_CUTOFF:
        parser.error(
            f"the default cutoff nu + 10 = {format_rat(args.nu + 10)} "
            f"exceeds the limit of {MAX_CUTOFF}"
        )
    d = args.d
    if d is None:
        if whole_nu:
            d = int(args.nu)
        else:
            parser.error("--d is required when --nu is not a nonnegative integer")
    try:
        vt = build_verma(p, args.nu, args.cutoff)
        report = verma_checks(vt, d)
    except ValueError as exc:
        parser.error(str(exc))
    doc = verma_report_to_doc(report)
    if args.format == "json":
        _emit(args, dumps(doc))
    else:
        head = (
            f"nu={doc['nu']} cutoff={doc['cutoff']} "
            f"safe_window={doc['safe_window']} d={doc['d']}\n"
        )
        _emit(args, head + _render_checks_text(doc["checks"]))
    return 0 if report.all_pass else 1


def _cmd_golden(args) -> int:
    doc = golden_example()
    if args.format == "json":
        _emit(args, dumps(doc))
    else:
        _emit(args, _render_checks_text(doc["claims"]))
    return 0 if doc["ok"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "construct":
        return _cmd_construct(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "sweep":
        return _cmd_sweep(args, parser)
    if args.command == "intertwine":
        return _cmd_intertwine(args)
    if args.command == "reduce":
        return _cmd_reduce(args, parser)
    if args.command == "eval":
        return _cmd_eval(args, parser)
    if args.command == "verma":
        return _cmd_verma(args, parser)
    if args.command == "golden":
        return _cmd_golden(args)
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
