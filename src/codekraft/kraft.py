"""Exact computation and rendering of Kraft sums.

The Kraft sum of a code C over an alphabet of size r is the rational
sum of r^-len(w) over the words of C.  All arithmetic and comparison is
exact; decimal output exists only for human-readable reports and is
clearly approximate.
"""

from __future__ import annotations

from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction

from .core import Code

# significant digits of the decimal approximations in reports
_DIGITS = 12


def kraft_sum(code: Code) -> Fraction:
    """The exact Kraft sum of ``code``; the empty code yields 0.

    Accumulates integer numerators over the common denominator
    r^maxlen and reduces once.  The shortlex-sorted ``indices`` hold each
    length's words in one run, whose end a binary search finds, so the cost
    grows with the number of distinct lengths, not of words.
    """
    if len(code) == 0:
        return Fraction(0)
    r = code.alphabet.size
    top = code.max_len()
    indices = code.indices
    numerator = start = 0
    while start < len(indices):
        length = len(indices[start])
        end = bisect_right(indices, length, lo=start, key=len)
        numerator += (end - start) * r ** (top - length)
        start = end
    return Fraction(numerator, r**top)


def _int_str(n: int) -> str:
    """``str(n)`` at any size.  ``str`` refuses an int of more than 4,300
    digits (``sys.set_int_max_str_digits``, a process-wide setting this
    library leaves alone); a Decimal built from an int prints all of them."""
    return str(Decimal(n))


def exact_str(value: Fraction) -> str:
    """Render a rational as ``num/den`` in lowest terms (den always shown)."""
    return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"


def approx_str(value: Fraction) -> str:
    """Decimal approximation to 12 significant digits.

    For reports only; never feed this back into comparisons.
    """
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        d = Decimal(abs(value.numerator)) / Decimal(value.denominator)
    mantissa, exp_text = f"{d:.{_DIGITS - 1}e}".split("e")
    exponent = int(exp_text)
    body = mantissa.replace(".", "")
    if 0 <= exponent < _DIGITS:
        head, tail = body[: exponent + 1], body[exponent + 1 :]
        text = head + ("." + tail if tail else "")
    elif -4 <= exponent < 0:
        text = "0." + "0" * (-exponent - 1) + body
    else:
        text = f"{body[0]}.{body[1:]}e{exponent:+d}"
    return sign + text
