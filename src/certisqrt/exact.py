"""Exact rational arithmetic and square-root comparison oracles.

Every verdict in this package reduces to integer comparisons done here:
ordering a rational against sqrt(y), deciding |q - sqrt(y)| <= bound,
refinable enclosures of sqrt(y), and sign-tracked decisions for
inequalities containing one or two radicals.  Host floating point never
participates in a verdict.

Every predicate works on integer numerators and denominators; none
builds or normalises a Fraction, and every ordering is answered as an
int sign, -1, 0 or 1, which callers compare against 0.  Every radical
decision ends in one rule, the sign of n/d - sqrt(a/b) for unreduced
parts: -1 when n < 0, otherwise the sign of n**2*b - a*d**2.  _sqrt_sign
applies it by one cmp_products call on the factor sequences (n, n, b)
and (a, d, d), and cmp_sqrt returns its sign for a Fraction q.
within_of_sqrt needs the rule for the pairs of q - bound and q + bound;
_within_signs hands them to _sqrt_sign, except that when all their
parts have at most _SHORT_BITS bits, as on every grid request, it forms
the short products itself, against one shared a*den**2.  It is the one
place short products are formed.  A one-radical bound such as c1 +
c2*sqrt(m) < t, c2 >= 0, is the sign cmp_sqrt(t - c1, c2**2*m) > 0, as
newton.derive_eps_for_ulp decides it.  sqrt_abs_err_lt multiplies
through by a positive common denominator and writes sqrt(num/den) as
sqrt(num*den)/den, so it ends in _lt_radical, which decides L <
K*sqrt(M) on integers, K >= 0, as the sign of L/K - sqrt(M), or of L
when K = 0.

cmp_products(xs, ys) decides the sign of prod(xs) - prod(ys) for two
sequences of factors >= 0 in stages, and forms a product only in the
last.  Bit lengths come first: a product of k factors whose bit lengths
sum to t has between t - (k - 1) and t bits.  Next each factor longer
than _FILTER_BITS bits is cut to its top _FILTER_BITS bits: dropping
low bits moves a factor by less than one unit of its last kept bit, so
each product lies in a bracket of small integers, and disjoint brackets
decide the sign.  Only overlapping brackets need the full products.
Each stage is exact, so the verdict is too; the stages only skip
multiplying operands of 100K+ bits when bit lengths or 128-bit brackets
already settle the comparison.  halves, 2*|cur| < |prev| on the factors
of two magnitudes, is one cmp_products call: it decides newton's
until-loop exit, 2*|ad| < eps on the factors of the pass's correction,
and verify's halving rule on the factors of two corrections, so neither
forms the products it compares unless the first two stages leave the
comparison open.

A Fraction from a pair of integers is built without Fraction's
constructor, which checks its arguments and fills both slots in Python
code: fraction_from_coprime makes it by object.__new__(Fraction) with
its two slots, _numerator and _denominator, set once, for parts already
in lowest terms.  _lowest_terms and fixarith.FixVal.value divide out
one gcd and call it, so it is the one function that relies on
fractions.py keeping a Fraction's parts in those two slots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError


def fraction_from_coprime(num: int, den: int) -> Fraction:
    """Build a Fraction from integers already in lowest terms (den > 0).

    Bypasses Fraction's gcd normalization, which is quadratic in operand
    size and dominates the cost of exact Newton runs whose iterates are
    provably coprime by construction.  The instance comes from
    object.__new__, as in CPython 3.12's Fraction._from_coprime_ints:
    Fraction.__new__ would run its own argument checks and fill both
    slots before they are overwritten here.  Relies on Fraction keeping
    its parts in the slots _numerator and _denominator.
    """
    f = object.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


def _lowest_terms(num: int, den: int) -> Fraction:
    """Fraction(num, den) for integers num and den > 0, reduced by one
    math.gcd and built by fraction_from_coprime.  It builds the general
    pairs: a float value's count*base**e/d, a profile's bounds and a
    grid trace's corrections."""
    g = math.gcd(num, den)
    return fraction_from_coprime(num // g, den // g)


# Below 2**2126 < 10**640 an integer has at most 640 decimal digits, the
# least int-to-str limit an interpreter can be set to.
_DECIMAL_MAX_BITS = 2126


def encode_int(n: int) -> int | str:
    """n itself when every interpreter setting prints it in decimal,
    otherwise its lossless hex string ("0x..." or "-0x...").

    Both forms read back with int(text, 0).  Hex is also linear-time,
    where CPython's decimal conversion is quadratic.  The hex digits are
    those of abs(n).to_bytes(length, "big").hex(), less the one leading
    0 nibble a top byte below 16 leaves: the text of hex(n), written 2x
    to 3x faster on CPython 3.10 to 3.13 (60K bits).  The length and
    byte order are passed explicitly, as Python 3.10 requires.
    """
    bits = n.bit_length()
    if bits <= _DECIMAL_MAX_BITS:
        return n
    digits = abs(n).to_bytes((bits + 7) // 8, "big").hex().lstrip("0")
    return f"-0x{digits}" if n < 0 else f"0x{digits}"


def rat_str(q: Fraction) -> str:
    """Canonical "num/den" serialization used in reports; each part as
    encode_int writes it."""
    return f"{encode_int(q.numerator)}/{encode_int(q.denominator)}"


def _rat_text(q: Fraction | int) -> str:
    """str(q) for messages, with a part too long to print in decimal under
    every interpreter setting written in encode_int's hex form."""
    return rat_str(q).removesuffix("/1")


# The filter keeps the top _FILTER_BITS bits of each longer factor.
# _within_signs forms its products itself while every part has at most
# _SHORT_BITS bits; longer parts go through the filter.
_FILTER_BITS = 128
_SHORT_BITS = 2 * _FILTER_BITS


def _exact_sign(xs: Sequence[int], ys: Sequence[int]) -> int:
    """Sign of prod(xs) - prod(ys), from the full products."""
    lhs, rhs = math.prod(xs), math.prod(ys)
    return (lhs > rhs) - (lhs < rhs)


def _bracket(xs: Sequence[int]) -> tuple[int, int, int]:
    """(lo, hi, s) with lo*2**s <= prod(xs) <= hi*2**s for factors >= 0:
    a factor longer than _FILTER_BITS bits is cut to its top _FILTER_BITS
    bits, n >> s, and lies in [n >> s, (n >> s) + 1] units of 2**s, as
    dropping low bits moves it by less than one unit of its last kept
    bit; a shorter factor enters both ends whole."""
    lo = hi = 1
    shift = 0
    for n in xs:
        s = n.bit_length() - _FILTER_BITS
        if s > 0:
            n >>= s
            shift += s
            hi *= n + 1
        else:
            hi *= n
        lo *= n
    return lo, hi, shift


def _filtered_sign(xs: Sequence[int], ys: Sequence[int]) -> int:
    """Sign of prod(xs) - prod(ys) (factors >= 0) from the brackets of
    the two products; 0 when they overlap and cannot decide it."""
    x_lo, x_hi, sx = _bracket(xs)
    y_lo, y_hi, sy = _bracket(ys)
    if sx >= sy:
        x_lo, x_hi = x_lo << (sx - sy), x_hi << (sx - sy)
    else:
        y_lo, y_hi = y_lo << (sy - sx), y_hi << (sy - sx)
    if x_lo > y_hi:
        return 1
    if x_hi < y_lo:
        return -1
    return 0


def cmp_products(xs: Sequence[int], ys: Sequence[int]) -> int:
    """Sign of prod(xs) - prod(ys) for non-empty sequences of integers
    >= 0, decided exactly.

    Each stage runs only when the one before cannot decide: bit lengths
    (a product of k factors whose bit lengths sum to t has between
    t - (k - 1) and t bits), then brackets from the top _FILTER_BITS
    bits of each longer factor, then the full products.
    """
    x_zero, y_zero = not all(xs), not all(ys)
    if x_zero or y_zero:
        return y_zero - x_zero
    lx = sum(map(int.bit_length, xs))
    ly = sum(map(int.bit_length, ys))
    if lx <= ly - len(ys):
        return -1
    if ly <= lx - len(xs):
        return 1
    return _filtered_sign(xs, ys) or _exact_sign(xs, ys)


Factors = tuple[Sequence[int], Sequence[int]]


def halves(prev: Factors, cur: Factors) -> bool:
    """Decide 2*|cur| < |prev| for two magnitudes given as (num, den)
    factor sequences, as Trace.factors reads them: one cmp_products
    call, which forms no product that bit lengths or brackets already
    settle.  False whenever prev is 0."""
    (prev_num, prev_den), (cur_num, cur_den) = prev, cur
    return cmp_products((2, *cur_num, *prev_den),
                        (*prev_num, *cur_den)) < 0


def _radicand(y: Fraction) -> tuple[int, int]:
    """(num(y), den(y)) of a radicand, which must be >= 0."""
    if y.numerator < 0:
        raise DomainError(f"radicand must be >= 0, got {_rat_text(y)}")
    return y.numerator, y.denominator


def _sqrt_sign(n: int, d: int, a: int, b: int) -> int:
    """Sign of n/d - sqrt(a/b) for integers d, b > 0 and a >= 0; the
    parts need not be in lowest terms.

    Negative n/d is below the root; otherwise the sign is that of
    n**2*b - a*d**2, decided by cmp_products on the factors.
    """
    if n < 0:
        return -1
    return cmp_products((n, n, b), (a, d, d))


def cmp_sqrt(q: Fraction, y: Fraction) -> int:
    """The sign of q - sqrt(y), -1, 0 or 1, decided exactly by
    _sqrt_sign."""
    a, b = _radicand(y)
    return _sqrt_sign(q.numerator, q.denominator, a, b)


def _within_signs(q: Fraction, y: Fraction,
                  bound: Fraction) -> tuple[int, int]:
    """The signs of q - bound - sqrt(y) and q + bound - sqrt(y), for the
    unreduced pairs (lo, den) and (hi, den) of q - bound and q + bound.

    When lo, hi and den all have at most _SHORT_BITS bits, as on every
    grid request, both signs are decided here, by _sqrt_sign's rule on
    products formed here against the one product a*den**2; otherwise by
    two _sqrt_sign calls.
    """
    bn, bd = bound.numerator, bound.denominator
    if bn < 0:
        raise DomainError(f"bound must be >= 0, got {_rat_text(bound)}")
    a, b = _radicand(y)
    qn, qd = q.numerator, q.denominator
    centre, radius, den = qn * bd, bn * qd, qd * bd
    lo, hi = centre - radius, centre + radius
    if (lo.bit_length() <= _SHORT_BITS and hi.bit_length() <= _SHORT_BITS
            and den.bit_length() <= _SHORT_BITS):
        rhs = a * den * den
        lhs = lo * lo * b
        lo_sign = -1 if lo < 0 else (lhs > rhs) - (lhs < rhs)
        lhs = hi * hi * b
        hi_sign = -1 if hi < 0 else (lhs > rhs) - (lhs < rhs)
        return lo_sign, hi_sign
    return _sqrt_sign(lo, den, a, b), _sqrt_sign(hi, den, a, b)


def within_of_sqrt(q: Fraction, y: Fraction, bound: Fraction,
                   strict: bool = False) -> bool:
    """Decide |q - sqrt(y)| <= bound (or < bound when strict) exactly.

    Equivalent to q - bound <= sqrt(y) <= q + bound, settled by the two
    signs of _within_signs.
    """
    lo, hi = _within_signs(q, y, bound)
    if strict:
        return lo < 0 < hi
    return lo <= 0 <= hi


@dataclass(frozen=True)
class SqrtEnclosure:
    """Rational bracket lo <= sqrt(y) <= hi; degenerate for exact squares."""

    lo: Fraction
    hi: Fraction

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def sqrt_enclosure(y: Fraction, p: int) -> SqrtEnclosure:
    """Enclose sqrt(y) with lo**2 <= y <= hi**2 and hi - lo <= 2**-p."""
    a, b = _radicand(y)
    if p < 0:
        raise DomainError(f"precision must be >= 0, got {p}")
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


def _lt_radical(lhs: int, k: int, m: int) -> bool:
    """Decide lhs < k*sqrt(m) for integers k >= 0 and m >= 0: for k > 0
    the sign of lhs/k - sqrt(m) by _sqrt_sign, for k = 0 the sign of
    lhs."""
    if k > 0:
        return _sqrt_sign(lhs, k, m, 1) < 0
    return lhs < 0


def sqrt_abs_err_lt(q: Fraction, y: Fraction, c1: Fraction, c2: Fraction,
                    m: Fraction) -> bool:
    """Decide |q - sqrt(y)| < c1 + c2*sqrt(m) exactly.

    Requires q >= 0, y >= 0, c1 >= 0, c2 >= 0, m > 0.  Both sides are then
    non-negative, so squaring once reduces the two-radical comparison to
    lead < pa*sqrt(y) + pb*sqrt(m), which is multiplied through by a
    positive common denominator into integers; a second squaring leaves
    one radical for _lt_radical.
    """
    qn, qd = q.numerator, q.denominator
    yn, yd = y.numerator, y.denominator
    an, ad = c1.numerator, c1.denominator
    bn, bd = c2.numerator, c2.denominator
    mn, md = m.numerator, m.denominator
    if min(qn, yn, an, bn) < 0:
        raise DomainError("sqrt_abs_err_lt requires q, y, c1, c2 >= 0")
    if mn <= 0:
        raise DomainError(f"sqrt_abs_err_lt requires m > 0, "
                          f"got {_rat_text(m)}")
    # |q - sqrt(y)| < R  <=>  q**2 + y - 2q*sqrt(y) < R**2, R = c1 + c2*sqrt(m)
    # lead = (q**2 + y) - (c1**2 + c2**2*m) = s_num/s_den - r_num/r_den
    s_num, s_den = qn * qn * yd + yn * qd * qd, qd * qd * yd
    r_den = ad * ad * bd * bd * md
    r_num = an * an * bd * bd * md + bn * bn * mn * ad * ad
    # times D = s_den*r_den, with sqrt(y) = sqrt(Y)/yd, sqrt(m) = sqrt(M)/md:
    # lead*D < ky*sqrt(Y) + km*sqrt(M), where ky, km >= 0
    lead = s_num * r_den - r_num * s_den
    ky = 2 * qn * qd * r_den
    km = 2 * an * bn * ad * bd * s_den
    big_y, big_m = yn * yd, mn * md
    if lead < 0:
        return True
    # lead**2 < ky**2*Y + km**2*M + 2*ky*km*sqrt(Y*M); when ky, Y or km is
    # 0 the radical term is 0, and _lt_radical decides lead2 < 0
    lead2 = lead * lead - (ky * ky * big_y + km * km * big_m)
    return _lt_radical(lead2, 2 * ky * km, big_y * big_m)
