"""Exact rational scalars.

Every number in this package is an exact rational, a fractions.Fraction:
lowest terms, sign on the numerator, printed as "p/q" (or "p" for
integers), which is exactly the package's external rational syntax.
Strings coming from outside must pass through parse_rat(), which rejects
anything that is not plain p or p/q (Fraction would otherwise happily
accept decimals like "0.5").
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

BACKEND = "fractions"  # the one rational type, recorded by bench/run.py

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def rat(num, den=1) -> Rat:
    """Exact rational from ints or another exact rational."""
    try:
        return Fraction(num, den)
    except TypeError:
        value = repr(num) if den == 1 else f"{num!r}/{den!r}"
        raise TypeError(f"only exact rationals are accepted, got {value}") from None


# ASCII digits only: \d also matches other scripts' decimal digits, such as "٣"
_RAT_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def parse_rat(text: str) -> Rat:
    """Parse "p" or "p/q".  Anything else (decimals, spaces, empty) raises
    ValueError; so does a zero denominator."""
    s = text.strip()
    if not _RAT_RE.match(s):
        raise ValueError(f"rationals must be given as p or p/q, got {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


class RationalTooLargeError(ValueError):
    """A rational whose numerator or denominator has more decimal digits
    than the interpreter converts to a string."""


def format_rat(x: Rat) -> str:
    """Canonical "p/q" (or "p") in lowest terms, sign on the numerator.
    Raises RationalTooLargeError past sys.get_int_max_str_digits()."""
    x = Fraction(x)
    return format_ratio(x.numerator, x.denominator)


def format_ratio(num: int, den: int) -> str:
    """format_rat of num/den for den > 0, in any terms: one gcd, and no
    Fraction is made."""
    g = math.gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        bits = max(abs(num), den).bit_length()
        raise RationalTooLargeError(
            f"a numerator or denominator of {bits} bits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} decimal digits"
        ) from None


def format_sum(den: int, pieces) -> str:
    """Signed-sum text of (body text, int coefficient) pairs over den > 0,
    in order: "body" for a coefficient of magnitude 1, "mag*body" otherwise,
    and the magnitude alone for an empty body; "0" for no pieces."""
    out = []
    for body, num in pieces:
        mag = format_ratio(abs(num), den)
        if body and mag == "1":
            text = body
        else:
            text = f"{mag}*{body}" if body else mag
        if not out:
            out.append(text if num > 0 else f"-{text}")
        else:
            out.append(f"+ {text}" if num > 0 else f"- {text}")
    return " ".join(out) if out else "0"


def is_square(x: Rat) -> tuple[bool, Rat]:
    """Is x the square of a rational?  Returns (flag, nonnegative root)."""
    if x < 0:
        return False, ZERO
    num = x.numerator
    den = x.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return True, Fraction(rn, rd)
    return False, ZERO
