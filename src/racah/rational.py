"""Exact rational scalars.

Every number in this package is an exact rational.  Two interchangeable
backends provide them: gmpy2's mpq (C-backed, default when importable) and
the stdlib fractions.Fraction.  Selection is via the environment variable
RACAH_RATIONAL_BACKEND = "gmpy2" | "fractions" | "auto" (default auto).

Both backends normalize to lowest terms with the sign on the numerator and
print as "p/q" (or "p" for integers), which is exactly the package's
external rational syntax.  Strings coming from outside must pass through
parse_rat(), which rejects anything that is not plain p or p/q (both
backends would otherwise happily accept decimals like "0.5").
"""

from __future__ import annotations

import os
import re
from fractions import Fraction

_requested = os.environ.get("RACAH_RATIONAL_BACKEND", "auto")
if _requested not in ("auto", "gmpy2", "fractions"):
    raise RuntimeError(
        "RACAH_RATIONAL_BACKEND must be one of auto, gmpy2, fractions; "
        f"got {_requested!r}"
    )

if _requested in ("auto", "gmpy2"):
    try:
        from gmpy2 import mpq as _make

        BACKEND = "gmpy2"
    except ImportError:
        if _requested == "gmpy2":
            raise
        _make = Fraction
        BACKEND = "fractions"
else:
    _make = Fraction
    BACKEND = "fractions"

# Rat is intentionally loose: mpq and Fraction share the operator surface
# (+ - * / ** abs comparisons, .numerator/.denominator) and hash equal on
# equal values, so they can be annotated interchangeably.
Rat = _make("0").__class__

ZERO = _make(0)
ONE = _make(1)
HALF = _make(1, 2)


def rat(num, den=1) -> Rat:
    """Exact rational from ints, a backend scalar, or another exact rational."""
    try:
        return _make(num, den)
    except TypeError:
        value = repr(num) if den == 1 else f"{num!r}/{den!r}"
        raise TypeError(f"only exact rationals are accepted, got {value}") from None


_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


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
        return _make(int(num), int(den))
    return _make(int(s))


def format_rat(x: Rat) -> str:
    """Canonical "p/q" (or "p") in lowest terms, sign on the numerator."""
    return str(_make(x))


def is_square(x: Rat) -> tuple[bool, Rat]:
    """Is x the square of a rational?  Returns (flag, nonnegative root)."""
    import math

    if x < 0:
        return False, ZERO
    num = int(x.numerator)
    den = int(x.denominator)
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return True, _make(rn, rd)
    return False, ZERO
