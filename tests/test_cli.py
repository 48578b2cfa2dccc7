import concurrent.futures
import json
import subprocess
import sys

import pytest

from racah import ConsistencyError, Mat, ParamTriple, build_R, rat
import racah.analyzer
import racah.cli
import racah.golden
import racah.modules
import racah.rewriter
from racah.cli import MAX_CUTOFF, MAX_D, MAX_GRID_POINTS, MAX_JOBS, main, _parse_grid
from racah.rational import parse_rat
from racah.serialize import mat_to_text, rep_to_doc

GENERIC = ["--a", "1/3", "--b", "-2/5", "--c", "7/4"]
SYMMETRIC = ["--a", "-1/2", "--b", "-1/2", "--c", "-1/2"]
REDUCIBLE = ["--a", "1/5", "--b", "1/5", "--c", "-7/5"]


def mat_from_text(text):
    """Read the text matrix format: rows split by ';' or newline, entries
    split by spaces."""
    rows = [line.split() for line in text.replace(";", "\n").splitlines() if line.strip()]
    if not rows:
        raise ValueError("no matrix rows found")
    return Mat([[parse_rat(x) for x in row] for row in rows])


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out), err


# ------------------------------------------------------------ construct

def test_construct_matches_library(capsys):
    code, doc, _ = run_json(capsys, ["construct", *SYMMETRIC, "--d", "4"])
    assert code == 0
    rep = build_R(ParamTriple.of("-1/2", "-1/2", "-1/2"), 4)
    assert doc == rep_to_doc(rep)


def test_construct_deterministic_output(capsys):
    argv = ["construct", *GENERIC, "--d", "3", "--basis", "w"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2
    assert out1.endswith("\n")


def test_construct_text_format(capsys):
    code, out, _ = run_cli(
        capsys, ["construct", *GENERIC, "--d", "1", "--format", "text"]
    )
    assert code == 0
    assert "A:" in out and "B:" in out
    assert "55/36" in out


def test_construct_out_file(tmp_path, capsys):
    target = tmp_path / "rep.json"
    code, out, _ = run_cli(
        capsys, ["construct", *GENERIC, "--d", "2", "--out", str(target)]
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["d"] == 2


def test_negative_rational_option_values(capsys):
    # plain argparse would reject -1/2 as an unknown option
    code, doc, _ = run_json(capsys, ["construct", *SYMMETRIC, "--d", "0"])
    assert code == 0
    assert doc["params"] == {"a": "-1/2", "b": "-1/2", "c": "-1/2"}


@pytest.mark.parametrize(
    "bad",
    [
        ["construct", "--a", "0.5", "--b", "0", "--c", "0", "--d", "1"],
        ["construct", "--a", "1 / 2", "--b", "0", "--c", "0", "--d", "1"],
        ["construct", *GENERIC, "--d", "-1"],
        ["construct", *GENERIC, "--d", "1", "--basis", "q"],
        ["construct", *GENERIC],  # missing --d
        [],
    ],
)
def test_usage_errors_exit_2(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2


# --------------------------------------------------------------- verify

def test_verify_passes(capsys):
    code, doc, _ = run_json(capsys, ["verify", *GENERIC, "--d", "3"])
    assert code == 0
    assert doc["all_pass"] is True
    assert len(doc["checks"]) == 21


def test_verify_other_basis_text(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", *GENERIC, "--d", "2", "--basis", "u", "--format", "text"]
    )
    assert code == 0
    assert "all relations hold" in out


def test_verify_failure_names_the_first_mismatch(capsys, monkeypatch):
    # D replaced by 2D: every check that reads D fails at its first entry
    real = racah.modules.build_R

    def doubled_d(*args):
        rep = real(*args)
        return rep._replace(D=rep.D.scale(2))

    monkeypatch.setattr(racah.modules, "build_R", doubled_d)
    argv = ["verify", *GENERIC, "--d", "2"]
    code, doc, _ = run_json(capsys, argv)
    checks = {c["name"]: c for c in doc["checks"]}
    assert code == 1 and doc["all_pass"] is False
    mismatch = {"row": 0, "col": 0, "lhs": "-10829/1800", "rhs": "-10829/900"}
    assert checks["[A,B] = 2D"]["first_mismatch"] == checks["[C,A] = 2D"]["first_mismatch"] == mismatch
    assert all(("first_mismatch" in c) != c["ok"] for c in checks.values())
    failed = [name for name, c in checks.items() if not c["ok"]]
    assert len(failed) == 18 and "A + B + C = eta I" not in failed
    code, out, _ = run_cli(capsys, [*argv, "--format", "text"])
    lines = out.splitlines()
    assert code == 1 and lines[-1] == "RELATION FAILURES" and lines[0] == "FAIL  [A,B] = 2D"
    assert [line[6:] for line in lines if line.startswith("FAIL  ")] == failed
    assert "  ok  A + B + C = eta I" in lines


# -------------------------------------------------------------- analyze

def test_analyze_irreducible(capsys):
    code, doc, _ = run_json(capsys, ["analyze", *GENERIC, "--d", "2"])
    assert code == 0
    assert doc["irreducible"] is True
    assert doc["canonical_params"] == {"a": "1/3", "b": "-2/5", "c": "7/4"}
    assert doc["l_det_nonzero"] is True
    assert doc["identification"]["candidate"] == doc["canonical_params"]


def test_analyze_reducible(capsys):
    code, doc, _ = run_json(capsys, ["analyze", *REDUCIBLE, "--d", "2"])
    assert code == 0
    assert doc["irreducible"] is False
    assert doc["witnesses"] == [{"form": "a+b+c+1", "value": "0", "index": 1}]
    assert doc["reducible_subspace"]["dim"] == 1
    assert doc["l_det_nonzero"] is False


# ---------------------------------------------------------------- sweep

def test_parse_grid_points():
    points = _parse_grid("a=-1/2,0;b=0..1:1/2;c=1/4;d=1,2")
    assert len(points) == 2 * 3 * 1 * 2
    assert points[0] == (ParamTriple(rat(-1, 2), rat(0), rat(1, 4)), 1)
    bs = {p.b for p, _ in points}
    assert bs == {rat(0), rat(1, 2), rat(1)}


@pytest.mark.parametrize(
    "spec",
    [
        "a=0;b=0;c=0",  # missing d
        "a=0;b=0;c=0;d=1/2",  # fractional d
        "a=0;a=1;b=0;c=0;d=1",  # duplicate key
        "a=0..1;b=0;c=0;d=1",  # range without step
        "a=1..0:1;b=0;c=0;d=1",  # empty range
        "a=0..1:-1;b=0;c=0;d=1",  # bad step
        "a=;b=0;c=0;d=1",  # no values
        "q=0;a=0;b=0;c=0;d=1",  # unknown key
        "a 0;b=0;c=0;d=1",  # not key=values
    ],
)
def test_sweep_rejects_malformed_grids(spec, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--grid", spec])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "spec",
    [
        "a=0..1000:1/1000000;b=0;c=0;d=1",  # 10^9 values in one range
        "a=0..99:1;b=0..99:1;c=0..10:1;d=1",  # each key small, product too big
    ],
)
def test_sweep_rejects_oversize_grid(spec, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--grid", spec])
    assert exc.value.code == 2
    assert f"limit of {MAX_GRID_POINTS}" in capsys.readouterr().err


def test_sweep_summary(capsys):
    code, doc, err = run_json(
        capsys, ["sweep", "--grid", "a=1/3,1/5;b=1/3;c=1;d=2"]
    )
    assert code == 0
    assert doc["summary"]["total"] == 2
    assert doc["summary"]["disagreements"] == 0
    assert doc["summary"]["irreducible"] + doc["summary"]["reducible"] == 2
    assert "swept 2 points" in err  # timing goes to stderr, not the document
    assert len(doc["points"]) == 2


def test_sweep_parallel_output_identical(capsys):
    argv = ["sweep", "--grid", "a=-1/2,0,1/3;b=0;c=1/4;d=1,2"]
    code1, out1, _ = run_cli(capsys, [*argv, "--jobs", "1"])
    code2, out2, _ = run_cli(capsys, [*argv, "--jobs", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_disagreement_is_a_row_and_exits_1(capsys, monkeypatch):
    argv = ["sweep", "--grid", "a=1/3;b=1/3;c=1;d=1..3:1"]
    _, before, _ = run_json(capsys, argv)
    real = racah.analyzer.analyze

    def analyze(p, d):
        if d == 2:
            raise ConsistencyError("planted")
        return real(p, d)

    monkeypatch.setattr(racah.analyzer, "analyze", analyze)
    code, doc, _ = run_json(capsys, argv)
    assert code == 1 and doc["summary"]["disagreements"] == 1
    row = {"params": before["points"][1]["params"], "d": 2, "disagreement": True, "error": "planted"}
    assert doc["points"] == [before["points"][0], row, before["points"][2]]


def test_jobs_above_the_limit_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--grid", "a=0;b=0;c=0;d=1", "--jobs", str(MAX_JOBS + 1)])
    assert exc.value.code == 2
    assert f"--jobs: {MAX_JOBS + 1} exceeds the limit of {MAX_JOBS}" in capsys.readouterr().err


def test_sweep_starts_no_more_workers_than_points(capsys, monkeypatch):
    workers = []

    class RecordingPool:
        """Records the pool size it is asked for and maps in process."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    code, doc, _ = run_json(capsys, ["sweep", "--grid", "a=0;b=0;c=0;d=1,2", "--jobs", str(MAX_JOBS)])
    assert code == 0 and doc["summary"]["total"] == 2
    assert workers == [2]
    # one point runs in process: no pool, and the bytes of --jobs 1
    argv = ["sweep", "--grid", "a=0;b=0;c=0;d=1"]
    code2, out2, _ = run_cli(capsys, [*argv, "--jobs", "2"])
    code1, out1, _ = run_cli(capsys, [*argv, "--jobs", "1"])
    assert code2 == code1 == 0 and out2 == out1
    assert workers == [2]


# ------------------------------------------------------------ intertwine

def test_intertwine_self_is_isomorphic(capsys):
    code, doc, _ = run_json(capsys, ["intertwine", *GENERIC, "--d", "2"])
    assert code == 0
    assert doc["verdict"] == "isomorphic"
    assert doc["hom_dim"] == 1


@pytest.mark.parametrize(
    "partner", [("-4/3", "-2/5", "7/4"), ("1/3", "-2/5", "-11/4")], ids=["a-flip", "c-flip"]
)
def test_intertwine_flip_partner(capsys, partner):
    a2, b2, c2 = partner
    argv = ["intertwine", *GENERIC, "--d", "2", "--a2", a2, "--b2", b2, "--c2", c2]
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    assert doc["verdict"] == "isomorphic"
    if c2 == "-11/4":
        # the c flip leaves the v basis as it is, so the map is the identity
        assert doc["intertwiner"] == [["1" if i == j else "0" for j in range(3)] for i in range(3)]


def test_intertwine_distinct(capsys):
    code, doc, _ = run_json(
        capsys,
        [
            "intertwine",
            *GENERIC,
            "--d",
            "2",
            "--a2",
            "1/2",
            "--b2",
            "1/2",
            "--c2",
            "1/2",
        ],
    )
    assert code == 0
    assert doc["verdict"] == "distinct"
    assert doc["hom_dim"] == 0


def test_intertwine_across_bases(capsys):
    code, doc, _ = run_json(
        capsys, ["intertwine", *GENERIC, "--d", "2", "--basis2", "w"]
    )
    assert code == 0
    assert doc["hom_dim"] == 1
    assert doc["verdict"] == "isomorphic"
    # the reported matrix really intertwines the two presentations
    p = ParamTriple.of("1/3", "-2/5", "7/4")
    r1 = build_R(p, 2, "v")
    r2 = build_R(p, 2, "w")
    x = Mat([[parse_rat(v) for v in row] for row in doc["intertwiners"][0]])
    assert r2.A * x == x * r1.A
    assert r2.B * x == x * r1.B


def test_intertwine_reducible_is_unclassified(capsys):
    code, doc, _ = run_json(capsys, ["intertwine", *REDUCIBLE, "--d", "2"])
    assert code == 0
    assert doc["verdict"] == "unclassified"
    assert doc["hom_dim"] >= 1


def test_intertwine_across_bases_catches_orbit_split(capsys, monkeypatch):
    import racah.analyzer as analyzer

    # a triple and its flip partner stop sharing an orbit
    monkeypatch.setattr(analyzer, "canonical", lambda p: (p, None))
    argv = ["intertwine", *GENERIC, "--a2", "-4/3", "--b2", "-2/5", "--c2", "7/4"]
    code, out, err = run_cli(capsys, [*argv, "--d", "2", "--basis2", "w"])
    assert code == 1
    assert out == ""
    assert "internal cross-check failed" in err


def test_intertwine_across_bases_checks_schur(capsys, monkeypatch):
    # two maps between irreducible modules break Schur's lemma in any pair of bases
    one = Mat([[1 if i == j else 0 for j in range(3)] for i in range(3)])
    monkeypatch.setattr(racah.analyzer, "module_maps", lambda r1, r2: [one, one.scale(2)])
    argv = ["intertwine", *GENERIC, "--a2", "1/2", "--b2", "1/2", "--c2", "1/2", "--d", "2"]
    code, out, err = run_cli(capsys, [*argv, "--basis", "w", "--basis2", "u"])
    assert (code, out) == (1, "")
    assert err == (
        "internal cross-check failed: hom space between irreducible modules has dimension 2\n"
    )


def test_intertwine_partial_second_triple(capsys):
    code, out, err = run_cli(
        capsys, ["intertwine", *GENERIC, "--d", "2", "--a2", "0"]
    )
    assert code == 2
    assert "all of --a2 --b2 --c2" in err


# ------------------------------------------------------------ reduce/eval

def test_reduce(capsys):
    code, doc, _ = run_json(capsys, ["reduce", "--expr", "B*A"])
    assert code == 0
    assert doc["normal"] == "A*B - 2*D"
    assert doc["terms"] == [
        {"A": 0, "D": 1, "B": 0, "alpha": 0, "delta": 0, "beta": 0, "coeff": "-2"},
        {"A": 1, "D": 0, "B": 1, "alpha": 0, "delta": 0, "beta": 0, "coeff": "1"},
    ]


def test_reduce_text(capsys):
    code, out, _ = run_cli(
        capsys, ["reduce", "--expr", "[A,B]", "--format", "text"]
    )
    assert code == 0
    assert out == "2*D\n"


@pytest.mark.parametrize("command", [["reduce"], ["eval", *GENERIC, "--d", "2"]])
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("expr", ["-A+B", "-1/2*A", "-[A,B]"])
def test_expression_may_start_with_a_minus(capsys, command, fmt, expr):
    # a separate value that starts with '-' is read as the expression,
    # exactly as the --expr=VALUE form is
    tail = [*command[1:], "--format", fmt]
    joined = run_cli(capsys, [command[0], f"--expr={expr}", *tail])
    separate = run_cli(capsys, [command[0], "--expr", expr, *tail])
    assert separate == joined
    assert joined[0] == 0 and joined[1] and not joined[2]


def test_reduce_bad_expression(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--expr", "A**B"])
    assert exc.value.code == 2
    assert "position 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["reduce"], ["eval", *GENERIC, "--d", "2"]], ids=["reduce", "eval"]
)
@pytest.mark.parametrize(
    "expr, position",
    [("A^²", 3), ("٣A", 1), ("A^\uff13", 3)],  # superscript, Arabic-Indic, full-width
)
def test_non_ascii_digits_are_a_parse_error(capsys, command, expr, position):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--expr", expr])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unexpected character {expr[position - 1]!r} at position {position}" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (["verify", *GENERIC, "--d", "٣"], "racah verify: error: argument --d: expected an integer"),
        (["verify", "--a", "٣", *GENERIC[2:], "--d", "1"], "racah verify: error: argument --a: rationals"),
        (["sweep", "--grid", "a=٣;b=0;c=0;d=1"], "racah: error: rationals"),
    ],
)
def test_non_ascii_digits_in_options_exit_2(capsys, argv, line):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [row for row in captured.err.splitlines() if "error" in row]
    assert len(errors) == 1 and errors[0].startswith(line) and errors[0].endswith("got '٣'")


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["verify", *GENERIC, "--d", "1_0"], "--d", "1_0"),
        (["sweep", "--grid", "a=0;b=0;c=0;d=1", "--jobs", "0_2"], "--jobs", "0_2"),
        (["verma", *GENERIC, "--nu", "3", "--cutoff", " 1_2"], "--cutoff", " 1_2"),
    ],
)
def test_digit_group_underscores_in_integer_options_exit_2(capsys, argv, option, value):
    # int() reads "1_0" as 10; the integer options take ASCII digits only
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [row for row in captured.err.splitlines() if "error" in row]
    assert errors == [
        f"racah {argv[0]}: error: argument {option}: expected an integer, got {value!r}"
    ]


def test_memory_error_is_one_line_and_exits_1(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(racah.cli._COMMANDS, "reduce", exhausted)
    code, out, err = run_cli(capsys, ["reduce", "--expr", "A"])
    assert code == 1 and out == ""
    assert err == "out of memory\n"


def test_reduce_rewrite_limit_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(racah.rewriter, "REWRITE_LIMIT", 5)
    code, out, err = run_cli(capsys, ["reduce", "--expr", "(A+B)^6"])
    assert code == 1
    assert out == ""
    assert err.startswith("rewrite limit exceeded: normal ordering exceeded 5")


def test_reduce_ninth_power(capsys):
    code, doc, err = run_json(capsys, ["reduce", "--expr", "(A+B)^9"])
    assert code == 0 and err == ""
    assert len(doc["terms"]) == 450


@pytest.mark.parametrize("command", [["reduce"], ["eval", *GENERIC, "--d", "2"]])
def test_oversize_expression_exits_2(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command[0], "--expr", "(A+B)^30", *command[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expansion exceeds the limit of {racah.rewriter.WORD_LIMIT} words at position 6" in captured.err


@pytest.mark.parametrize("command", [["reduce"], ["eval", *GENERIC, "--d", "2"]])
def test_oversize_sum_exits_2(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command[0], "--expr", "(A+B)^16-A", *command[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    limit = racah.rewriter.WORD_LIMIT
    assert f"sum exceeds the limit of {limit} words at position 9" in captured.err


def test_overlong_word_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--expr", "(((A^64)^64)^64)^64"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    limit = racah.rewriter.LETTER_LIMIT
    assert f"expansion exceeds the limit of {limit} letters at position 17" in captured.err


def test_eval_relation_vanishes(capsys):
    code, doc, _ = run_json(
        capsys, ["eval", "--expr", "[A,B] - 2*D", *GENERIC, "--d", "2"]
    )
    assert code == 0
    assert doc["value"] == [["0"] * 3] * 3


def test_eval_text(capsys):
    code, out, _ = run_cli(
        capsys,
        ["eval", "--expr", "A", *GENERIC, "--d", "1", "--format", "text"],
    )
    assert code == 0
    assert mat_from_text(out) == build_R(ParamTriple.of("1/3", "-2/5", "7/4"), 1).A


# ----------------------------------------------------------------- verma

def test_verma_specialized(capsys):
    code, doc, _ = run_json(capsys, ["verma", *GENERIC, "--nu", "3"])
    assert code == 0
    assert doc["all_pass"] is True
    assert doc["d"] == 3 and doc["cutoff"] == 13


def test_verma_generic_nu_fails(capsys):
    code, doc, _ = run_json(
        capsys, ["verma", *GENERIC, "--nu", "9/2", "--d", "4", "--cutoff", "8"]
    )
    assert code == 1
    assert doc["all_pass"] is False
    details = [c["detail"] for c in doc["checks"] if c["status"] == "fail"]
    assert any("not a submodule" in t for t in details)


def test_verma_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verma", *GENERIC, "--nu", "9/2", "--cutoff", "8"])  # no --d
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verma", *GENERIC, "--nu", "3", "--cutoff", "2"])  # cutoff < 3
    assert exc.value.code == 2


# ------------------------------------------------------------- size caps

TOO_BIG = str(MAX_D + 1)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["construct", *GENERIC, "--d", "2000"], f"--d: 2000 exceeds the limit of {MAX_D}"),
        (["verify", *GENERIC, "--d", TOO_BIG], f"--d: {TOO_BIG} exceeds the limit of {MAX_D}"),
        (["analyze", *GENERIC, "--d", TOO_BIG], f"--d: {TOO_BIG} exceeds the limit of {MAX_D}"),
        (["intertwine", *GENERIC, "--d", TOO_BIG], f"--d: {TOO_BIG} exceeds the limit"),
        (["eval", "--expr", "A", *GENERIC, "--d", TOO_BIG], f"--d: {TOO_BIG} exceeds the limit"),
        (["verma", *GENERIC, "--nu", "1/2", "--d", TOO_BIG], f"--d: {TOO_BIG} exceeds the limit"),
        (
            ["sweep", "--grid", f"a=0;b=0;c=0;d=1,{TOO_BIG}"],
            f"d value {TOO_BIG} exceeds the limit of {MAX_D}",
        ),
        (
            ["verma", *GENERIC, "--nu", "1/2", "--d", "2", "--cutoff", str(MAX_CUTOFF + 1)],
            f"--cutoff: {MAX_CUTOFF + 1} exceeds the limit of {MAX_CUTOFF}",
        ),
        (
            ["verma", *GENERIC, "--nu", str(MAX_CUTOFF - 9)],
            f"default cutoff nu + 10 = {MAX_CUTOFF + 1} exceeds the limit of {MAX_CUTOFF}",
        ),
    ],
)
def test_oversize_module_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_largest_d_is_accepted(capsys):
    code, doc, _ = run_json(capsys, ["construct", *GENERIC, "--d", str(MAX_D)])
    assert code == 0 and doc["d"] == MAX_D


@pytest.mark.parametrize("command", [["reduce"], ["eval", *GENERIC, "--d", "2"]])
@pytest.mark.parametrize(
    "expr", ["(" * 250 + "A" + ")" * 250, "-" * 1000 + "A"], ids=["parens", "signs"]
)
def test_deep_nesting_exits_2(command, expr):
    proc = subprocess.run(
        [sys.executable, "-m", "racah", command[0], f"--expr={expr}", *command[1:]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    limit = racah.rewriter.DEPTH_LIMIT
    assert f"nesting exceeds the limit of {limit} levels at position {limit + 1}" in proc.stderr


@pytest.mark.parametrize("command", [["reduce"], ["eval", *GENERIC, "--d", "2"]], ids=["reduce", "eval"])
def test_huge_exponent_exits_2(command):
    # more digits than int() reads: rejected as over the limit, not converted
    proc = subprocess.run(
        [sys.executable, "-m", "racah", command[0], "--expr", "A^" + "9" * 5000, *command[1:]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [row for row in proc.stderr.splitlines() if "error" in row]
    limit = racah.rewriter.EXPONENT_LIMIT
    assert len(errors) == 1 and errors[0].endswith(f"exceeds the limit {limit} at position 3")


# --------------------------------------------------- too large to print

NINES = "9" * 4000


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--expr", "(((2*A)^64)^64)^4"],
        ["construct", "--a", NINES, "--b", "0", "--c", "0", "--d", "1"],
        # nu fits the digit limit but a check's detail does not: exit 1, not 2
        ["verma", "--a", "0", "--b", "0", "--c", "0", "--nu", "7" * 2500, "--d", "3", "--cutoff", "8"],
    ],
    ids=["reduce", "construct", "verma"],
)
def test_result_too_large_to_print_exits_1(argv):
    # a rational of more than sys.get_int_max_str_digits() digits
    proc = subprocess.run(
        [sys.executable, "-m", "racah", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("result too large to print: ")


def test_result_too_large_in_a_sweep_worker_exits_1(capsys):
    # a = 1/P + k/Q for k = 0, 1: the second value has a 6000-digit
    # denominator, so its row fails to print inside a pool worker
    n = 10**3000
    grid = f"a=1/{n + 1}..3/{n}:1/{n - 1};b=0;c=0;d=0"
    assert len(_parse_grid(grid)) == 2
    code, out, err = run_cli(capsys, ["sweep", "--grid", grid, "--jobs", "2"])
    assert code == 1
    assert out == ""
    assert err.startswith("result too large to print: ")


# ------------------------------------------------------------------ --out

@pytest.mark.parametrize(
    "command", [["golden"], ["sweep", "--grid", "a=0;b=0;c=0;d=1"]]
)
@pytest.mark.parametrize(
    "target,reason", [("missing/x.json", "No such file or directory"), (".", "Is a directory")]
)
def test_unwritable_out_exits_2(tmp_path, capsys, command, target, reason):
    path = str(tmp_path / target)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--out", path])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write {path}: {reason}\n" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()


# ---------------------------------------------------------------- golden

def test_golden_passes(capsys):
    code, doc, _ = run_json(capsys, ["golden"])
    assert code == 0
    assert doc["ok"] is True
    assert all(claim["ok"] for claim in doc["claims"])


@pytest.mark.parametrize(
    "tamper, detail",
    [
        # a fixture a row short
        (lambda doc: doc["D"].pop(), "first mismatch D[4][0] = 0, fixture has nothing"),
        # an entry too many: a changed value first, then a row one longer
        (lambda doc: doc["B"][1].insert(2, "-3/4"), "first mismatch B[1][2] = -3/2, fixture has -3/4"),
    ],
    ids=["row-short", "entry-inserted"],
)
def test_golden_reports_the_first_mismatch_with_the_fixture(monkeypatch, tamper, detail):
    real = racah.golden._load_fixture

    def tampered():
        doc = real()
        tamper(doc)
        return doc

    monkeypatch.setattr(racah.golden, "_load_fixture", tampered)
    doc = racah.golden.golden_example()
    assert doc["ok"] is False
    first, *rest = doc["claims"]
    assert first == {
        "name": "construction reproduces the stored matrices", "ok": False, "detail": detail,
    }
    assert all(claim["ok"] for claim in rest)


def test_golden_split_exits_like_every_subcommand(capsys, monkeypatch):
    real = racah.analyzer._coordinate_criterion
    monkeypatch.setattr(racah.analyzer, "_coordinate_criterion", lambda *args: not real(*args))
    code, out, err = run_cli(capsys, ["golden"])
    assert (code, out) == (1, "")
    assert err.startswith("internal cross-check failed: diagonalizability of A at ")
    assert err.count("\n") == 1 and "Traceback" not in err


# ---------------------------------------------------------- module runner

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "racah", "golden", "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_runs_without_sympy():
    probe = (
        "import sys; sys.modules['sympy'] = None;"
        "from racah import ParamTriple, analyze, golden_example;"
        "assert golden_example()['ok'];"
        "print(analyze(ParamTriple.of('1/3', '-2/5', '7/4'), 3).irreducible)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_module_entry_point_usage():
    proc = subprocess.run(
        [sys.executable, "-m", "racah"], capture_output=True, text=True
    )
    assert proc.returncode == 2


# ------------------------------------------- no dense matrix arithmetic

NO_MAT_ARITHMETIC_ARGV = [
    ["construct", *GENERIC, "--d", "3"],
    *(["verify", *GENERIC, "--d", "3", "--basis", basis] for basis in "vwu"),
    ["analyze", *REDUCIBLE, "--d", "2"],
    ["analyze", *GENERIC, "--d", "3"],
    ["sweep", "--grid", "a=1/5,1/3;b=1/5;c=-7/5;d=0..3:1"],
    ["intertwine", *GENERIC, "--d", "3", "--a2", "-4/3", "--b2", "-2/5", "--c2", "7/4"],
    ["intertwine", *GENERIC, "--d", "3", "--basis", "w", "--basis2", "u"],
    ["reduce", "--expr", "(1/2*A + C)^3 - [B,D]"],
    ["eval", "--expr", "(1/2*A + C)^3 - gamma*[B,D]", *GENERIC, "--d", "3", "--basis", "u"],
    ["verma", *GENERIC, "--nu", "3"],
    ["verma", *GENERIC, "--nu", "9/2", "--d", "4", "--cutoff", "8"],
    ["golden"],
]


def test_subcommands_run_without_dense_matrix_arithmetic(capsys, monkeypatch):
    # the library routes run on racah.intmat; Mat's arithmetic is left to
    # the tests and the benchmark as their dense reference
    want = [run_cli(capsys, argv) for argv in NO_MAT_ARITHMETIC_ARGV]

    def refuse(*args, **kwargs):
        raise AssertionError("dense Mat arithmetic on a library route")

    for name in ("__add__", "__sub__", "__mul__", "scale", "apply"):
        monkeypatch.setattr(Mat, name, refuse)
    got = [run_cli(capsys, argv) for argv in NO_MAT_ARITHMETIC_ARGV]
    assert got == want
    assert [code for code, _, _ in want] == [0] * 12 + [1, 0]
    assert [json.loads(want[k][1])["irreducible"] for k in (4, 5)] == [False, True]


# ------------------------------------------------------------- serialize

def test_matrix_text_round_trip():
    m = Mat([[rat(1, 2), rat(-3)], [rat(0), rat(7, 5)]])
    assert mat_from_text(mat_to_text(m)) == m
    assert mat_from_text("1/2 -3; 0 7/5") == m
    assert mat_to_text(m) == "1/2 -3\n0 7/5"
    with pytest.raises(ValueError):
        mat_from_text("  ")
