"""Command-line interface.

Subcommands: construct, verify, analyze, sweep, intertwine, reduce, eval,
verma, golden.  Each returns its document, its text rendering and its exit
code; main writes the document to stdout (or --out) as canonical JSON, or
the text under --format text.  Exit codes: 0 success / all checks pass,
1 any check failure, a tripped cross-check, an exceeded rewrite limit, a
result too large to print or running out of memory, 2 usage or malformed
input (an oversize sweep grid, d, verma cutoff or --jobs included).

Importing this module loads only argument parsing, output and the
exceptions main maps to exit codes.  Each subcommand imports the modules
it runs when it runs, and sweep starts its process pool (and imports
concurrent.futures) only for --jobs above 1, so a call pays to import
what it uses and nothing else.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

# let option values like -1/2 through (argparse only recognizes -N and -N.N
# as negative numbers out of the box)
_NEGATIVE_RAT = re.compile(r"^-\d+(/\d+)?$")
# reduce and eval also let an expression like -A+B through: any argument
# that starts with a single '-' and names no option is a value there
_LEADING_MINUS = re.compile(r"^-[^-]")

from .errors import ConsistencyError, ParseError, RewriteLimitError
from .params import ParamTriple, in_P
from .rational import Rat, RationalTooLargeError, format_rat, format_ratio, parse_rat
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
    witnesses_to_doc,
)


def _rat_arg(text: str) -> Rat:
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonneg_int(text: str) -> int:
    # ASCII digits only, as parse_rat takes them: int() also reads other
    # scripts' digits ("٣") and digit-group underscores ("1_0")
    s = text.strip()
    try:
        if not re.fullmatch(r"[+-]?[0-9]+", s):
            raise ValueError
        value = int(s)
    except ValueError:  # also more digits than int() converts
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


# the largest module parameter d and verma truncation cutoff accepted: they
# bound the size of every matrix built, not eval's work on an expression,
# which multiplies out each expanded word ("(A+B)^12" at d = 24 on
# 1/3, -2/5, 7/4 takes 4-10 s on a 2-core Xeon VM; ROADMAP item 6)
MAX_D = 24
MAX_CUTOFF = 128
# the most sweep worker processes; under the fork start method the pool
# starts all of them up front
MAX_JOBS = 64


def _int_at_most(limit: int):
    """argparse type: a nonnegative integer no larger than limit."""

    def parse(text: str) -> int:
        value = _nonneg_int(text)
        if value > limit:
            raise argparse.ArgumentTypeError(f"{value} exceeds the limit of {limit}")
        return value

    return parse


def _jobs_arg(text: str) -> int:
    value = _int_at_most(MAX_JOBS)(text)
    if value == 0:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


class _SubParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_RAT


def _add_params(sub):
    sub.add_argument("--a", type=_rat_arg, required=True, help="parameter a (p/q)")
    sub.add_argument("--b", type=_rat_arg, required=True, help="parameter b (p/q)")
    sub.add_argument("--c", type=_rat_arg, required=True, help="parameter c (p/q)")


def _add_module(sub, basis=True):
    """The triple, --d and (unless basis is False) --basis of one module."""
    _add_params(sub)
    sub.add_argument("--d", type=_int_at_most(MAX_D), required=True)
    if basis:
        sub.add_argument("--basis", choices=("v", "w", "u"), default="v")


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
    _add_module(p_construct)
    _add_common(p_construct)

    p_verify = subs.add_parser("verify", help="check the defining relations")
    _add_module(p_verify)
    _add_common(p_verify)

    p_analyze = subs.add_parser("analyze", help="full classification report")
    _add_module(p_analyze, basis=False)
    _add_common(p_analyze)

    p_sweep = subs.add_parser("sweep", help="analyze a parameter grid")
    p_sweep.add_argument(
        "--grid",
        required=True,
        help="grid spec like 'a=-1/2,0,1/2;b=0..1:1/2;c=1/4;d=1,2,3'",
    )
    p_sweep.add_argument("--jobs", type=_jobs_arg, default=1)
    _add_common(p_sweep)

    p_inter = subs.add_parser(
        "intertwine", help="basis of maps intertwining two modules"
    )
    _add_module(p_inter)
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
    _add_module(p_eval)
    _add_common(p_eval)

    p_verma = subs.add_parser("verma", help="truncated ladder module checks")
    _add_params(p_verma)
    p_verma.add_argument("--nu", type=_rat_arg, required=True)
    p_verma.add_argument("--d", type=_int_at_most(MAX_D))
    p_verma.add_argument("--cutoff", type=_int_at_most(MAX_CUTOFF))
    _add_common(p_verma)

    p_golden = subs.add_parser("golden", help="run the pinned worked example")
    _add_common(p_golden)

    # The top-level usage line, which every package-worded usage error
    # prints, in one fixed layout: argparse wraps it by the terminal width,
    # and from Python 3.13 on it no longer breaks "{...} ..." apart.  Set
    # after the subparsers exist, whose prog argparse derives from it.
    indent = " " * len("usage: racah ")
    parser.usage = f"%(prog)s [-h]\n{indent}{{{','.join(subs.choices)}}}\n{indent}..."
    return parser


# ------------------------------------------------------------------ sweep

def _sweep_point(point) -> dict:
    from .analyzer import analyze

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
        "witnesses": witnesses_to_doc(report.witnesses),
    }


def run_sweep(points, jobs: int = 1) -> dict:
    """Analyze every (params, d) point; returns the full per-point list and
    the aggregate counts.  Output is independent of the job count.  A pool
    of min(jobs, number of points) workers starts only when that is two or
    more; otherwise, one point or jobs = 1, the points run in this
    process, with no fork and no worker import."""
    points = list(points)
    workers = min(jobs, len(points))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
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
        status = c["status"] if "status" in c else ("ok" if c["ok"] else "FAIL")
        status = {"pass": "ok", "fail": "FAIL"}.get(status, status)
        extra = f"  ({c['detail']})" if c.get("detail") else ""
        lines.append(f"{status:>4}  {c['name']}{extra}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- actions
#
# Each action returns (document, text rendering, exit code).  It refuses
# input that argparse cannot judge by raising _UsageError (reported with
# the usage line) or _Refused (the bare message); both exit 2.


class _UsageError(Exception):
    pass


class _Refused(Exception):
    pass


def _triple(args) -> ParamTriple:
    return ParamTriple(args.a, args.b, args.c)


def _cmd_construct(args) -> tuple[dict, str, int]:
    from .modules import build_R

    rep = build_R(_triple(args), args.d, args.basis)
    blocks = [
        f"module d={rep.d} basis={rep.basis} "
        f"(a,b,c)=({format_rat(rep.params.a)},{format_rat(rep.params.b)},{format_rat(rep.params.c)})"
    ]
    for name in ("A", "B", "C", "D"):
        blocks.append(f"{name}:")
        blocks.append(mat_to_text(rep.generator(name)))
    return rep_to_doc(rep), "\n".join(blocks) + "\n", 0


def _cmd_verify(args) -> tuple[dict, str, int]:
    from .modules import build_R, verify_relations

    report = verify_relations(build_R(_triple(args), args.d, args.basis))
    doc = relation_report_to_doc(report)
    tail = "all relations hold\n" if report.all_pass else "RELATION FAILURES\n"
    return doc, _render_checks_text(doc["checks"]) + tail, 0 if report.all_pass else 1


def _cmd_analyze(args) -> tuple[dict, str, int]:
    from .analyzer import analyze

    doc = analysis_to_doc(analyze(_triple(args), args.d))
    p, canon = doc["params"], doc["canonical_params"]
    lines = [
        f"params ({p['a']}, {p['b']}, {p['c']}), d={doc['d']}",
        f"canonical ({canon['a']}, {canon['b']}, {canon['c']})",
        f"irreducible: {doc['irreducible']}",
        f"diagonalizable: {doc['diagonalizable']}",
        f"traces: {doc['traces']}",
    ]
    if doc["witnesses"]:
        lines.append(f"witnesses: {doc['witnesses']}")
    return doc, "\n".join(lines) + "\n", 0


def _cmd_sweep(args) -> tuple[dict, str, int]:
    try:
        points = _parse_grid(args.grid)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    start = time.monotonic()
    doc = run_sweep(points, jobs=args.jobs)
    elapsed = time.monotonic() - start
    s = doc["summary"]
    print(f"swept {s['total']} points in {elapsed:.1f}s (jobs={args.jobs})", file=sys.stderr)
    text = (
        f"total {s['total']}  irreducible {s['irreducible']}  "
        f"reducible {s['reducible']}  disagreements {s['disagreements']}\n"
    )
    return {"grid": args.grid, **doc}, text, 0 if s["disagreements"] == 0 else 1


def _cmd_intertwine(args) -> tuple[dict, str, int]:
    from .analyzer import IsoResult, module_maps, orbit_check
    from .modules import build_bands

    p1 = _triple(args)
    second = [args.a2, args.b2, args.c2]
    if any(x is not None for x in second) and any(x is None for x in second):
        raise _Refused("give all of --a2 --b2 --c2 or none")
    p2 = ParamTriple(*second) if second[0] is not None else p1
    d = args.d
    irreducible = all(in_P(p, d)[0] for p in {p1, p2})
    target = build_bands(p2, d, args.basis2)
    maps = module_maps(build_bands(p1, d, args.basis), target)
    verdict = "unclassified"
    if irreducible:
        same_orbit, iso = orbit_check(p1, p2, d, maps, target.A)
        verdict = "isomorphic" if iso else "distinct"
    if args.basis == args.basis2 == "v" and irreducible:
        result = IsoResult(d, p1, p2, same_orbit, len(maps), iso, maps[0] if iso else None)
        doc = iso_to_doc(result)
    else:
        doc = {
            "d": d,
            "params_1": params_to_doc(p1),
            "basis_1": args.basis,
            "params_2": params_to_doc(p2),
            "basis_2": args.basis2,
            "hom_dim": len(maps),
            "intertwiners": [mat_to_rows(m) for m in maps],
        }
    doc["verdict"] = verdict
    return doc, f"hom_dim {doc['hom_dim']}  verdict {doc['verdict']}\n", 0


def _cmd_reduce(args) -> tuple[dict, str, int]:
    from .rewriter import format_element, normal_form, parse

    normal = normal_form(parse(args.expr))
    text = format_element(normal)
    den, cleared = normal._cleared
    terms = [
        {**dict(zip(("A", "D", "B", "alpha", "delta", "beta"), key)), "coeff": format_ratio(c, den)}
        for key, c in sorted(cleared.items())
    ]
    return {"expr": args.expr, "normal": text, "terms": terms}, text + "\n", 0


def _cmd_eval(args) -> tuple[dict, str, int]:
    from .modules import build_R
    from .rewriter import evaluate, parse

    element = parse(args.expr)
    rep = build_R(_triple(args), args.d, args.basis)
    value = evaluate(element, rep)
    doc = {
        "expr": args.expr,
        "params": params_to_doc(rep.params),
        "d": rep.d,
        "basis": rep.basis,
        "value": mat_to_rows(value),
    }
    return doc, mat_to_text(value) + "\n", 0


def _cmd_verma(args) -> tuple[dict, str, int]:
    from .verma import build_verma, verma_checks

    whole_nu = args.nu.denominator == 1 and args.nu >= 0
    if args.cutoff is None and whole_nu and args.nu + 10 > MAX_CUTOFF:
        raise _UsageError(
            f"the default cutoff nu + 10 = {format_rat(args.nu + 10)} "
            f"exceeds the limit of {MAX_CUTOFF}"
        )
    d = args.d
    if d is None:
        if not whole_nu:
            raise _UsageError("--d is required when --nu is not a nonnegative integer")
        d = int(args.nu)
    try:
        report = verma_checks(build_verma(_triple(args), args.nu, args.cutoff), d)
    except RationalTooLargeError:  # a check's detail, not the input, is at fault
        raise
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    doc = verma_report_to_doc(report)
    head = (
        f"nu={doc['nu']} cutoff={doc['cutoff']} "
        f"safe_window={doc['safe_window']} d={doc['d']}\n"
    )
    return doc, head + _render_checks_text(doc["checks"]), 0 if report.all_pass else 1


def _cmd_golden(args) -> tuple[dict, str, int]:
    from .golden import golden_example

    doc = golden_example()
    return doc, _render_checks_text(doc["claims"]), 0 if doc["ok"] else 1


_COMMANDS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "intertwine": _cmd_intertwine,
    "reduce": _cmd_reduce,
    "eval": _cmd_eval,
    "verma": _cmd_verma,
    "golden": _cmd_golden,
}


def main(argv=None) -> int:
    """Run one subcommand: write its document or text, and map every
    failure it raises to one line on stderr and an exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, text, code = _COMMANDS[args.command](args)
    except (ParseError, _UsageError) as exc:
        parser.error(str(exc))
    except _Refused as exc:
        message, code = str(exc), 2
    except ConsistencyError as exc:
        message, code = f"internal cross-check failed: {exc}", 1
    except RewriteLimitError as exc:
        message, code = f"rewrite limit exceeded: {exc}", 1
    except RationalTooLargeError as exc:
        message, code = f"result too large to print: {exc}", 1
    except MemoryError:
        message, code = "out of memory", 1
    else:
        _emit(args, dumps(doc) if args.format == "json" else text)
        return code
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
