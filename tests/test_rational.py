import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

from racah.rational import BACKEND, format_rat, is_square, parse_rat, rat

from conftest import rationals


def test_basic_arithmetic():
    assert rat(1, 2) + rat(1, 3) == rat(5, 6)
    assert rat(3, 4) * rat(2, 3) == rat(1, 2)
    assert rat(1) / rat(3) == rat(1, 3)
    assert rat(-6, 4) == rat(-3, 2)


@pytest.mark.parametrize("args,shown", [((0.5,), "0.5"), ((1, 0.5), "1/0.5"), (("1/2",), "'1/2'")])
def test_rat_rejects_inexact_values_by_name(args, shown):
    with pytest.raises(TypeError) as exc:
        rat(*args)
    assert str(exc.value) == f"only exact rationals are accepted, got {shown}"


def test_parse_accepts_plain_and_fraction():
    assert parse_rat("3") == rat(3)
    assert parse_rat("-7/2") == rat(-7, 2)
    assert parse_rat("+4/6") == rat(2, 3)
    assert parse_rat(" 5/10 ") == rat(1, 2)


@pytest.mark.parametrize(
    "bad", ["0.5", "", "1/0", "1 / 2", "a", "1/2/3", "--3", "1e3", "/2", "3/"]
)
def test_parse_rejects_everything_else(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


def test_format_is_lowest_terms_with_sign_on_numerator():
    assert format_rat(rat(4, 6)) == "2/3"
    assert format_rat(rat(-4, 6)) == "-2/3"
    assert format_rat(rat(7)) == "7"
    assert format_rat(rat(0)) == "0"


@given(rationals(max_num=100, max_den=100))
def test_parse_format_round_trip(x):
    assert parse_rat(format_rat(x)) == x


def test_is_square():
    assert is_square(rat(9, 4)) == (True, rat(3, 2))
    assert is_square(rat(0)) == (True, rat(0))
    assert is_square(rat(2))[0] is False
    assert is_square(rat(-1))[0] is False
    assert is_square(rat(49, 36)) == (True, rat(7, 6))


@given(rationals(max_num=50, max_den=50))
def test_square_of_anything_is_square(x):
    ok, root = is_square(x * x)
    assert ok and root == abs(x)


_PROBE = (
    "from racah.rational import BACKEND, rat, format_rat;"
    "x = rat(-3, 9) + rat(1, 12);"
    "print(BACKEND, format_rat(x), hash(x))"
)


def _run_with_backend(name: str) -> list[str]:
    env = dict(os.environ, RACAH_RATIONAL_BACKEND=name)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_backend_env_switch_and_parity():
    frac = _run_with_backend("fractions")
    assert frac[0] == "fractions"
    auto = _run_with_backend("auto")
    # whatever the default backend is, values and hashes agree across backends
    assert frac[1] == auto[1] == "-1/4"
    assert frac[2] == auto[2]


def test_unknown_backend_rejected():
    env = dict(os.environ, RACAH_RATIONAL_BACKEND="decimal")
    out = subprocess.run(
        [sys.executable, "-c", "import racah.rational"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode != 0
    assert "RACAH_RATIONAL_BACKEND" in out.stderr


def test_backend_is_one_of_the_two():
    assert BACKEND in ("gmpy2", "fractions")


def _timed_matmul(mk, n=9, reps=20):
    a = [[mk(i - j, 1 + (i * j) % 7) for j in range(n)] for i in range(n)]
    b = [[mk(i + 2 * j + 1, 1 + (i + j) % 5) for j in range(n)] for i in range(n)]
    out = None
    t0 = time.perf_counter()
    for _ in range(reps):
        out = [
            [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return time.perf_counter() - t0, out


@pytest.mark.skipif(
    not os.environ.get("RACAH_PERF"),
    reason="timing comparison, set RACAH_PERF=1 to run",
)
def test_backend_speed_comparison():
    gmpy2 = pytest.importorskip("gmpy2")
    from fractions import Fraction

    t_frac, r_frac = _timed_matmul(Fraction)
    t_mpq, r_mpq = _timed_matmul(gmpy2.mpq)
    for row_f, row_m in zip(r_frac, r_mpq):
        for x, y in zip(row_f, row_m):
            assert x == y
    print(f"9x9 exact matmul x20: fractions {t_frac:.4f}s, gmpy2 {t_mpq:.4f}s")
