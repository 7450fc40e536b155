"""Exact rational arithmetic and square-root comparison oracles.

Every verdict in this package reduces to integer comparisons done here:
ordering a rational against sqrt(y), deciding |q - sqrt(y)| <= bound,
refinable enclosures of sqrt(y), and sign-tracked decisions for
inequalities containing one or two radicals.  Host floating point never
participates in a verdict.

cmp_sqrt is a filtered predicate.  Its verdict is the sign of
num(q)**2*den(y) - num(y)*den(q)**2, a difference of two products that
cmp_products decides in stages.  Bit lengths come first.  Next each
factor is cut to its top _FILTER_BITS bits: dropping low bits moves a
factor by less than one unit of its last kept bit, so each product lies
in a bracket of small integers, and disjoint brackets decide the sign.
Only overlapping brackets need the full products, which also decide
every short q.  Each stage is exact, so the verdict is too; the filter
only skips squaring operands of 100K+ bits when a 128-bit bracket
already settles the comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DomainError

Rational = Fraction


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def _ordering_of_sign(s: int) -> Ordering:
    if s < 0:
        return Ordering.LESS
    if s > 0:
        return Ordering.GREATER
    return Ordering.EQUAL


def fraction_from_coprime(num: int, den: int) -> Fraction:
    """Build a Fraction from integers already in lowest terms (den > 0).

    Bypasses Fraction's gcd normalization, which is quadratic in operand
    size and dominates the cost of exact Newton runs whose iterates are
    provably coprime by construction.
    """
    f = Fraction.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


# Below 2**2126 < 10**640 an integer has at most 640 decimal digits, the
# least int-to-str limit an interpreter can be set to.
_DECIMAL_MAX_BITS = 2126


def encode_int(n: int) -> int | str:
    """n itself when every interpreter setting prints it in decimal,
    otherwise its lossless hex string ("0x..." or "-0x...").

    Both forms read back with int(text, 0).  Hex is also linear-time,
    where CPython's decimal conversion is quadratic.
    """
    return n if n.bit_length() <= _DECIMAL_MAX_BITS else hex(n)


def rat_str(q: Fraction) -> str:
    """Canonical "num/den" serialization used in reports; each part as
    encode_int writes it."""
    return f"{encode_int(q.numerator)}/{encode_int(q.denominator)}"


def isqrt(n: int) -> int:
    """Floor square root of a non-negative integer: r*r <= n < (r+1)**2."""
    if n < 0:
        raise DomainError(f"isqrt requires n >= 0, got {n}")
    return math.isqrt(n)


# The filter keeps the top _FILTER_BITS bits of each factor; cmp_sqrt
# uses it once a part of q is longer than 2*_FILTER_BITS bits.
_FILTER_BITS = 128


def _exact_sign(x1: int, x2: int, y1: int, y2: int) -> int:
    """Sign of x1*x2 - y1*y2, from the full products."""
    lhs, rhs = x1 * x2, y1 * y2
    return (lhs > rhs) - (lhs < rhs)


def _truncate(n: int) -> tuple[int, int, int]:
    """(lo, hi, s) with lo*2**s <= n <= hi*2**s, from the top
    _FILTER_BITS bits of n >= 0; lo == hi when no bit is dropped."""
    s = max(n.bit_length() - _FILTER_BITS, 0)
    lo = n >> s
    return lo, lo + (s > 0), s


def _filtered_sign(x1: int, x2: int, y1: int, y2: int) -> int:
    """Sign of x1*x2 - y1*y2 (factors >= 0) from truncated factors; 0
    when their brackets overlap and cannot decide it."""
    a_lo, a_hi, sa = _truncate(x1)
    b_lo, b_hi, sb = _truncate(x2)
    c_lo, c_hi, sc = _truncate(y1)
    d_lo, d_hi, sd = _truncate(y2)
    lhs_lo, lhs_hi = a_lo * b_lo, a_hi * b_hi
    rhs_lo, rhs_hi = c_lo * d_lo, c_hi * d_hi
    shift = sa + sb - sc - sd
    if shift >= 0:
        lhs_lo, lhs_hi = lhs_lo << shift, lhs_hi << shift
    else:
        rhs_lo, rhs_hi = rhs_lo << -shift, rhs_hi << -shift
    if lhs_lo > rhs_hi:
        return 1
    if lhs_hi < rhs_lo:
        return -1
    return 0


def cmp_products(x1: int, x2: int, y1: int, y2: int) -> int:
    """Sign of x1*x2 - y1*y2 for integers >= 0, decided exactly.

    Each stage runs only when the one before cannot decide: bit lengths
    (a product of an a-bit and a b-bit number has a+b-1 or a+b bits),
    then brackets from the top _FILTER_BITS bits of each factor, then
    the full products.
    """
    if not (x1 and x2 and y1 and y2):
        return bool(x1 and x2) - bool(y1 and y2)
    lx = x1.bit_length() + x2.bit_length()
    ly = y1.bit_length() + y2.bit_length()
    if lx < ly - 1:
        return -1
    if ly < lx - 1:
        return 1
    return _filtered_sign(x1, x2, y1, y2) or _exact_sign(x1, x2, y1, y2)


def cmp_sqrt(q: Fraction, y: Fraction) -> Ordering:
    """Order q relative to sqrt(y), decided exactly.

    Negative q is LESS whenever y >= 0; otherwise the verdict is the sign
    of num(q)**2*den(y) - num(y)*den(q)**2, through cmp_products once a
    part of q is long.
    """
    a, b = y.numerator, y.denominator
    if a < 0:
        raise DomainError(f"cmp_sqrt requires y >= 0, got {y}")
    qn, qd = q.numerator, q.denominator
    if qn < 0:
        return Ordering.LESS
    if max(qn.bit_length(), qd.bit_length()) > 2 * _FILTER_BITS:
        return _ordering_of_sign(cmp_products(qn, qn * b, a * qd, qd))
    return _ordering_of_sign(_exact_sign(qn, qn * b, a * qd, qd))


def within_of_sqrt(q: Fraction, y: Fraction, bound: Fraction,
                   strict: bool = False) -> bool:
    """Decide |q - sqrt(y)| <= bound (or < bound when strict) exactly.

    Equivalent to q - bound <= sqrt(y) <= q + bound, settled with two
    cmp_sqrt calls.
    """
    if bound < 0:
        raise DomainError(f"bound must be >= 0, got {bound}")
    lo = cmp_sqrt(q - bound, y)
    hi = cmp_sqrt(q + bound, y)
    if strict:
        return lo is Ordering.LESS and hi is Ordering.GREATER
    return lo is not Ordering.GREATER and hi is not Ordering.LESS


@dataclass(frozen=True)
class SqrtEnclosure:
    """Rational bracket lo <= sqrt(y) <= hi; degenerate for exact squares."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def sqrt_enclosure(y: Fraction, p: int) -> SqrtEnclosure:
    """Enclose sqrt(y) with lo**2 <= y <= hi**2 and hi - lo <= 2**-p."""
    if y < 0:
        raise DomainError(f"sqrt_enclosure requires y >= 0, got {y}")
    if p < 0:
        raise DomainError(f"precision must be >= 0, got {p}")
    a, b = y.numerator, y.denominator
    if a == 0:
        zero = Fraction(0)
        return SqrtEnclosure(zero, zero)
    scaled = (a * b) << (2 * p)
    s = math.isqrt(scaled)
    den = b << p
    lo = Fraction(s, den)
    if s * s == scaled:
        return SqrtEnclosure(lo, lo)
    return SqrtEnclosure(lo, Fraction(s + 1, den))


def decide_radical_lt(lhs: Fraction, c1: Fraction, c2: Fraction,
                      m: Fraction) -> bool:
    """Decide lhs < c1 + c2*sqrt(m) exactly (m > 0), by sign analysis and
    a single squaring."""
    if m <= 0:
        raise DomainError(f"decide_radical_lt requires m > 0, got {m}")
    rest = lhs - c1
    if c2 == 0:
        return rest < 0
    if c2 > 0:
        if rest <= 0:
            return True
        return rest * rest < c2 * c2 * m
    # c2 < 0: right-hand side below c1
    if rest >= 0:
        return False
    return rest * rest > c2 * c2 * m


def sqrt_abs_err_lt(q: Fraction, y: Fraction, c1: Fraction, c2: Fraction,
                    m: Fraction) -> bool:
    """Decide |q - sqrt(y)| < c1 + c2*sqrt(m) exactly.

    Requires q >= 0, y >= 0, c1 >= 0, c2 >= 0, m > 0.  Both sides are then
    non-negative, so squaring once reduces the two-radical comparison to a
    single-radical one that decide_radical_lt settles.
    """
    if q < 0 or y < 0 or c1 < 0 or c2 < 0:
        raise DomainError("sqrt_abs_err_lt requires q, y, c1, c2 >= 0")
    if m <= 0:
        raise DomainError(f"sqrt_abs_err_lt requires m > 0, got {m}")
    # |q - sqrt(y)| < R  <=>  q**2 + y - 2q*sqrt(y) < R**2, R = c1 + c2*sqrt(m)
    lead = q * q + y - (c1 * c1 + c2 * c2 * m)
    pa = 2 * q          # coefficient of sqrt(y)
    pb = 2 * c1 * c2    # coefficient of sqrt(m)
    if lead < 0:
        return True
    if lead == 0:
        return (pa > 0 and y > 0) or pb > 0
    if pa == 0 or y == 0:
        return decide_radical_lt(lead, Fraction(0), pb, m)
    if pb == 0:
        return decide_radical_lt(lead, Fraction(0), pa, y)
    # lead**2 < pa**2*y + pb**2*m + 2*pa*pb*sqrt(y*m)
    lead2 = lead * lead - (pa * pa * y + pb * pb * m)
    return decide_radical_lt(lead2, Fraction(0), 2 * pa * pb, y * m)
