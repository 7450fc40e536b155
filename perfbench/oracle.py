"""Independent re-decision of square-root error bounds.

The benchmark re-decides every verdict it checks without calling
``certisqrt.exact``: square roots are enclosed by integer square roots
at doubling precision until the comparison is settled, so a faster but
wrong predicate in the library cannot also pass this check.
"""
from __future__ import annotations

import math
from fractions import Fraction

MAX_PRECISION_BITS = 1 << 16


class Undecided(Exception):
    """The comparison was not settled within MAX_PRECISION_BITS."""


def _enclose(y: Fraction, p: int) -> tuple[Fraction, Fraction]:
    """lo <= sqrt(y) <= hi with hi - lo <= 2**-p; lo == hi when exact."""
    a, b = y.numerator, y.denominator
    scaled = (a * b) << (2 * p)
    s = math.isqrt(scaled)
    den = b << p
    if s * s == scaled:
        return Fraction(s, den), Fraction(s, den)
    return Fraction(s, den), Fraction(s + 1, den)


def compare_abs_err(q: Fraction, y: Fraction, c1: Fraction,
                    c2: Fraction = Fraction(0),
                    m: Fraction = Fraction(1)) -> int:
    """Sign of |q - sqrt(y)| - (c1 + c2*sqrt(m)), for y, c2, m >= 0."""
    p = 64
    while p <= MAX_PRECISION_BITS:
        y_lo, y_hi = _enclose(y, p)
        m_lo, m_hi = _enclose(m, p)
        err_lo = max(q - y_hi, y_lo - q, Fraction(0))
        err_hi = max(q - y_lo, y_hi - q)
        r_lo, r_hi = c1 + c2 * m_lo, c1 + c2 * m_hi
        if err_hi < r_lo:
            return -1
        if err_lo > r_hi:
            return 1
        if err_lo == err_hi == r_lo == r_hi:
            return 0
        p *= 2
    raise Undecided(f"|{q} - sqrt({y})| against {c1} + {c2}*sqrt({m})")
