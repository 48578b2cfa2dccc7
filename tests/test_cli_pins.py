"""The CLI surface, pinned: a fixed battery of invocations of main(), run in
process, each checked against the sha256 of (exit code, stdout, stderr).
The one figure that varies from run to run, the sweep's elapsed time on
stderr, is masked before hashing.

cli_pins.json next to this file is the one table of output digests: no
other test and no CI step holds a digest of its own.  CI runs this file a
second time against the installed package, from outside the checkout, so
the table also covers the package data and the sweep's forked workers as
installed.

The table only grows.  Add a row to battery(), take its digest on the
parent commit (the command below, with the new battery and the parent's
src on PYTHONPATH), and leave every other entry as it is.  To print the
table, run

    PYTHONPATH=src python tests/test_cli_pins.py > tests/cli_pins.json

A digest that changes is a deliberate change of output: list each one in
CHANGES.md.

Usage errors in the battery are the ones whose message the package words
itself; argparse's own texts (invalid choice, --help) differ between
Python versions and are left out.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from racah.cli import MAX_CUTOFF, MAX_D, main

PINS = Path(__file__).with_name("cli_pins.json")
PINNED = json.loads(PINS.read_text()) if PINS.is_file() else {}

TRIPLES = {
    "generic": ["--a", "1/3", "--b", "-2/5", "--c", "7/4"],
    "symmetric": ["--a", "-1/2", "--b", "-1/2", "--c", "-1/2"],
    "reducible": ["--a", "1/5", "--b", "1/5", "--c", "-7/5"],
}
GENERIC = TRIPLES["generic"]
# six-digit parameters at d = 24
SIX = ["--a", "999983/999979", "--b=-999961/999959", "--c", "999953/999931", "--d", "24"]
CUBE = "(2/3*A - 5/7*C + 1/2*gamma)^4"
FORMATS = (["--format", "json"], ["--format", "text"])
BASES = ("v", "w", "u")
TOO_BIG = str(MAX_D + 1)


def battery() -> list[list[str]]:
    rows = []
    for triple in TRIPLES.values():
        for d in ("0", "1", "3"):
            for fmt in FORMATS:
                for basis in BASES:
                    rows.append(["construct", *triple, "--d", d, "--basis", basis, *fmt])
                    rows.append(["verify", *triple, "--d", d, "--basis", basis, *fmt])
                rows.append(["analyze", *triple, "--d", d, *fmt])
    seconds = {
        "self": [],
        "flip": ["--a2", "-4/3", "--b2", "-2/5", "--c2", "7/4"],
        "distinct": ["--a2", "1/2", "--b2", "1/2", "--c2", "1/2"],
    }
    for b1 in BASES:
        for b2 in BASES:
            for fmt in FORMATS:
                for second in seconds.values():
                    rows.append(
                        ["intertwine", *GENERIC, "--d", "2", *second,
                         "--basis", b1, "--basis2", b2, *fmt]
                    )
                rows.append(
                    ["intertwine", *TRIPLES["reducible"], "--d", "2",
                     "--basis", b1, "--basis2", b2, *fmt]
                )
    for d in ("0", "1", "3"):
        rows.append(["intertwine", *TRIPLES["symmetric"], "--d", d, *seconds["flip"]])
    for fmt in FORMATS:
        for grid in (
            "a=1/3,1/5;b=1/3;c=1;d=2",
            "a=-1/2,0,1/3;b=0;c=1/4;d=0,1,3",
            "a=1/5;b=1/5;c=-7/5,-1/2;d=0..3:1",
        ):
            rows.append(["sweep", "--grid", grid, *fmt])
        for expr in ("B*A", "[A,B]", "(A+B)^3", "D*C*B*A", "alpha*A - gamma", "2/3*A^2 - 1/2"):
            rows.append(["reduce", "--expr", expr, *fmt])
        for expr in ("-A+B", "-1/2*A", "-[A,B]"):
            rows.append(["reduce", f"--expr={expr}", *fmt])
            rows.append(["reduce", "--expr", expr, *fmt])
        for expr, triple, d, basis in (
            ("[A,B] - 2*D", GENERIC, "2", "v"),
            ("A", GENERIC, "1", "w"),
            ("D^2*A + alpha", TRIPLES["symmetric"], "3", "u"),
            ("-A+B", TRIPLES["reducible"], "0", "v"),
        ):
            rows.append(["eval", "--expr", expr, *triple, "--d", d, "--basis", basis, *fmt])
        rows.append(["verma", *GENERIC, "--nu", "3", *fmt])
        rows.append(["verma", *GENERIC, "--nu", "9/2", "--d", "4", "--cutoff", "8", *fmt])
        rows.append(["verma", *TRIPLES["symmetric"], "--nu", "2", *fmt])
        rows.append(["verma", *TRIPLES["reducible"], "--nu", "1", "--cutoff", "5", *fmt])
        rows.append(["verma", *GENERIC, "--nu", "0", "--d", "0", "--cutoff", "3", *fmt])
        rows.append(["golden", *fmt])
    # six-digit entries at the largest accepted d: the relations and the
    # module in each basis, minimal polynomials by the continuant
    # recurrence, intertwiners from the image of e_0
    for basis in BASES:
        rows.append(["verify", *SIX, "--basis", basis])
        rows.append(["construct", *SIX, "--basis", basis])
    rows.append(["analyze", *SIX])
    rows.append(["intertwine", *SIX, "--basis", "w", "--basis2", "u"])
    rows.append(
        ["intertwine", *SIX, "--basis", "v", "--basis2", "w",
         "--a2=-1999962/999979", "--b2=-999961/999959", "--c2", "999953/999931"]
    )
    for expr in ("(A + 3*C)^6", "[2*D, (A + B)^5]", CUBE):
        rows.append(["reduce", "--expr", expr])
    rows.append(["reduce", "--expr", CUBE, "--format", "text"])
    # a zero superdiagonal entry of B: the invariant tail is the witness;
    # B's superdiagonal nonzero: the witness is a spun eigenline
    rows.append(["analyze", "--a=-2", "--b=-2", "--c", "2", "--d", "2"])
    rows.append(["analyze", "--a=-2", "--b=-2", "--c=-1/2", "--d", "3"])
    rows.append(["analyze", "--a=-2", "--b=-2", "--c=-1/2", "--d", "3", "--format", "text"])
    rows.append(["intertwine", *GENERIC, "--d", "2", "--a2", "-4/3", "--b2", "-2/5", "--c2", "7/4"])
    # the sweep in one process and in forked workers
    rows.append(["sweep", "--grid", "a=1/5;b=1/5;c=-7/5,-1/2;d=0..3:1", "--jobs", "1"])
    rows.append(["sweep", "--grid", "a=1/3;b=-2/5;c=7/4;d=1,2", "--jobs", "2"])
    # usage and limit errors
    rows += [
        ["construct", "--a", "0.5", "--b", "0", "--c", "0", "--d", "1"],
        ["construct", "--a", "1 / 2", "--b", "0", "--c", "0", "--d", "1"],
        ["construct", "--a", "1/0", "--b", "0", "--c", "0", "--d", "1"],
        ["construct", *GENERIC, "--d", "-1"],
        ["construct", *GENERIC, "--d", "x"],
        ["construct", *GENERIC],
        [],
        ["construct", *GENERIC, "--d", "2000"],
        ["sweep", "--grid", "a=0;b=0;c=0;d=1", "--jobs", "0"],
        ["sweep", "--grid", f"a=0;b=0;c=0;d=1,{TOO_BIG}"],
        ["sweep", "--grid", "a=0..1000:1/1000000;b=0;c=0;d=1"],
        ["sweep", "--grid", "a=0..99:1;b=0..99:1;c=0..10:1;d=1"],
        ["verma", *GENERIC, "--nu", "1/2", "--d", "2", "--cutoff", str(MAX_CUTOFF + 1)],
        ["verma", *GENERIC, "--nu", str(MAX_CUTOFF - 9)],
        ["verma", *GENERIC, "--nu", "9/2", "--cutoff", "8"],
        ["verma", *GENERIC, "--nu", "3", "--cutoff", "2"],
        ["intertwine", *GENERIC, "--d", "2", "--a2", "0"],
        ["intertwine", *GENERIC, "--d", "2", "--a2", "0", "--b2", "0"],
    ]
    for command in ("verify", "analyze", "intertwine"):
        rows.append([command, *GENERIC, "--d", TOO_BIG])
    rows.append(["verma", *GENERIC, "--nu", "1/2", "--d", TOO_BIG])
    for spec in (
        "a=0;b=0;c=0",
        "a=0;b=0;c=0;d=1/2",
        "a=0;b=0;c=0;d=-1",
        "a=0;a=1;b=0;c=0;d=1",
        "a=0..1;b=0;c=0;d=1",
        "a=1..0:1;b=0;c=0;d=1",
        "a=0..1:-1;b=0;c=0;d=1",
        "a=;b=0;c=0;d=1",
        "q=0;a=0;b=0;c=0;d=1",
        "a 0;b=0;c=0;d=1",
        "a=x;b=0;c=0;d=1",
    ):
        rows.append(["sweep", "--grid", spec])
    rows.append(["eval", "--expr", "A", *GENERIC, "--d", TOO_BIG])
    rows.append(["reduce", "--expr", "A", "--d", "1"])
    for head, tail in (("reduce", []), ("eval", [*GENERIC, "--d", "2"])):
        for expr in (
            "A**B",
            "(A+B",
            "A^65",
            "(A+B)^30",
            "(A+B)^16-A",
            "(((A^64)^64)^64)^64",
            "(" * 250 + "A" + ")" * 250,
            "-" * 1000 + "A",
        ):
            rows.append([head, f"--expr={expr}", *tail])
    return rows


def _id(argv) -> str:
    return " ".join(argv) if argv else "(no arguments)"


_TIMING = re.compile(r" in \d+\.\ds \(jobs=")


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), _TIMING.sub(" in *s (jobs=", err.getvalue())


def digest(argv) -> str:
    return hashlib.sha256(json.dumps(run(argv)).encode()).hexdigest()


ROWS = battery()


def test_battery_ids_are_unique_and_all_pinned():
    ids = [_id(argv) for argv in ROWS]
    assert len(set(ids)) == len(ids)
    assert sorted(PINNED) == sorted(ids)


def test_no_other_file_holds_a_digest():
    root = Path(__file__).resolve().parents[1]
    files = [*root.glob(".github/workflows/*.yml"), *root.glob("tests/*.py")]
    assert any(path.name == "tests.yml" for path in files)
    assert [path.name for path in files if re.search("[0-9a-fA-F]{64}", path.read_text())] == []


@pytest.fixture
def fixed_width(monkeypatch):
    # argparse wraps its usage line at the terminal width
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv", ROWS, ids=[_id(argv) for argv in ROWS])
def test_cli_output_is_pinned(fixed_width, argv):
    assert digest(argv) == PINNED[_id(argv)]


if __name__ == "__main__":
    import os

    os.environ["COLUMNS"] = "80"
    print(json.dumps({_id(argv): digest(argv) for argv in ROWS}, indent=1, sort_keys=True))
