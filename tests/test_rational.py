from fractions import Fraction

import pytest
from hypothesis import given

from racah.rational import BACKEND, Rat, format_rat, is_square, parse_rat, rat

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
    # "٣" (Arabic-Indic) and "３" (full-width) are decimal digits too, but not ASCII ones
    "bad", ["0.5", "", "1/0", "1 / 2", "a", "1/2/3", "--3", "1e3", "/2", "3/", "٣", "３/2"]
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


def test_rat_is_fraction():
    assert Rat is Fraction
    assert BACKEND == "fractions"
    assert type(rat(1, 3)) is Fraction
