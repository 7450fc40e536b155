"""Exact rational arithmetic and square-root comparison oracles.

Every verdict in this package reduces to integer comparisons done here:
ordering a rational against sqrt(y), deciding |q - sqrt(y)| <= bound,
refinable enclosures of sqrt(y), and sign-tracked decisions for
inequalities containing one or two radicals.  Host floating point never
participates in a verdict.

Fraction is a boundary type: a public function that takes a rational
reads its integer parts through the one edge, _rational_parts, which
refuses by name an input that is no int or Fraction (the hot wrappers
call it only when a read fails).  Every predicate, here and in its
callers, works on integer parts and answers an ordering as a sign, -1, 0
or 1.  Every radical decision ends in one rule, the sign of n/d -
sqrt(a/b) for unreduced parts: -1 when n < 0, else the sign of n**2*b -
a*d**2, one cmp_products call in _sqrt_sign.  Every bound decision is
the rule for q - bound and q + bound: _within_signs(qn, qd, bn, bd, a,
b), unreduced allowed, so the grid verdicts pass counts over d.  When
all its parts have at most _SHORT_BITS bits, as on every grid request,
it forms the short products itself against one shared a*den**2, the one
place short products are formed.  _abs_err_lt decides |q - sqrt(y)| < c1
+ c2*sqrt(m) on integer parts, unreduced allowed, by squaring twice into
L < K*sqrt(M), K >= 0: sqrt_abs_err_lt is its Fraction wrapper, and
verify's float verdict passes it the run's counts with base**h divided
out.  Every enclosure of a root is one integer rule, _enclosure(a, b,
p): sqrt_enclosure is its Fraction wrapper, and verify's err_display
uses its midpoint on integers.

cmp_products(xs, ys) decides the sign of prod(xs) - prod(ys) for two
sequences of factors >= 0 in exact stages, bit lengths, then brackets
from the top _FILTER_BITS bits of each factor, and forms the products
only when both leave the sign open: it skips multiplying operands of
100K+ bits when bit lengths or 128-bit brackets settle the comparison.
halves, 2*|cur| < |prev| on the factors of two magnitudes, is one
cmp_products call: it decides newton's until-loop exit, 2*|ad| < eps on
the factors of the pass's correction, and verify's halving rule on the
factors of two corrections, so neither forms the products it compares
unless the first two stages leave the comparison open.

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

from .errors import DomainError, UsageError


# bound once: each build then skips the lookup of object's __new__
_new = object.__new__


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
    f = _new(Fraction)
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


def _rational_parts(**inputs) -> tuple[int, ...]:
    """The one rational edge: the numerator and denominator of each
    input, in order, in one flat tuple; the first input that is no int or
    Fraction is refused by name, with DomainError."""
    parts = []
    for name, value in inputs.items():
        if not isinstance(value, (int, Fraction)):
            raise DomainError(f"{name} must be an int or a Fraction, "
                              f"got {value!r}")
        parts += value.numerator, value.denominator
    return tuple(parts)


def _check_int(name: str, value: object) -> None:
    """Refuse, by name, a value that is no int, a bool included: a grid
    parameter, a float base or an exponent, whose powers and products
    must stay rationals."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an int, got {value!r}")


def _takes(what: str, **inputs: tuple[object, type]) -> None:
    """Refuse, by name, with UsageError, the first input, given as (value,
    kind), whose value is no instance of the kind `what` takes."""
    for name, (value, kind) in inputs.items():
        if not isinstance(value, kind):
            raise UsageError(f"{what} takes a {kind.__name__} {name}, "
                             f"got {value!r}")


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


def _product(xs: Sequence[int]) -> int:
    """prod(xs), with a factor that occurs twice, as n in _sqrt_sign's (n,
    n, b) and d in its (a, d, d), formed as one squaring n*n.  CPython
    squares only when both operands are one object, which math.prod's
    running product never is."""
    rest = list(xs)
    total = 1
    while rest:
        n = rest.pop()
        if n in rest:
            rest.remove(n)
            n *= n
        total *= n
    return total


def _exact_sign(xs: Sequence[int], ys: Sequence[int]) -> int:
    """Sign of prod(xs) - prod(ys), from the full products."""
    lhs, rhs = _product(xs), _product(ys)
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


def _radicand(a: int, b: int) -> tuple[int, int]:
    """(a, b) of a radicand a/b >= 0, b > 0, named in lowest terms."""
    if a < 0:
        raise DomainError(f"radicand must be >= 0, "
                          f"got {_rat_text(Fraction(a, b))}")
    return a, b


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
    qn, qd, a, b = _rational_parts(q=q, y=y)
    return _sqrt_sign(qn, qd, *_radicand(a, b))


def _within_signs(qn: int, qd: int, bn: int, bd: int, a: int,
                  b: int) -> tuple[int, int]:
    """The signs of q - bound - sqrt(y) and q + bound - sqrt(y), q =
    qn/qd, bound = bn/bd >= 0 and y = a/b >= 0, parts not necessarily in
    lowest terms, for the unreduced pairs (lo, den) and (hi, den).

    When lo, hi and den have at most _SHORT_BITS bits each, as on every
    grid request, _sqrt_sign's rule is applied here, to products formed
    against the one product a*den**2; otherwise by two _sqrt_sign calls.
    """
    if bn < 0:
        raise DomainError(f"bound must be >= 0, "
                          f"got {_rat_text(Fraction(bn, bd))}")
    _radicand(a, b)
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
    signs of _within_signs on the three rationals' parts.
    """
    try:
        lo, hi = _within_signs(q.numerator, q.denominator, bound.numerator,
                               bound.denominator, y.numerator, y.denominator)
    except AttributeError:  # no int or Fraction: the edge names it
        lo, hi = _within_signs(*_rational_parts(q=q, bound=bound, y=y))
    if strict:
        return lo < 0 < hi
    return lo <= 0 <= hi


def _enclosure(a: int, b: int, p: int) -> tuple[int, int, int]:
    """(lo, hi, den), den = b << p, with (lo/den)**2 <= a/b <= (hi/den)**2
    and hi - lo <= 1, 0 on an exact square, for a >= 0, b > 0, p >= 0."""
    _radicand(a, b)
    if p < 0:
        raise DomainError(f"precision must be >= 0, got {p}")
    scaled = (a * b) << (2 * p)
    lo = math.isqrt(scaled)
    return lo, lo + (lo * lo != scaled), b << p


@dataclass(frozen=True)
class SqrtEnclosure:
    """Rational bracket lo <= sqrt(y) <= hi; degenerate for exact squares."""

    lo: Fraction
    hi: Fraction


def sqrt_enclosure(y: Fraction, p: int) -> SqrtEnclosure:
    """lo**2 <= y <= hi**2, hi - lo <= 2**-p: _enclosure as Fractions."""
    lo, hi, den = _enclosure(*_rational_parts(y=y), p)
    return SqrtEnclosure(_lowest_terms(lo, den), _lowest_terms(hi, den))


def _abs_err_lt(qn: int, qd: int, yn: int, yd: int, an: int, ad: int,
                bn: int, bd: int, mn: int, md: int) -> bool:
    """Decide |q - sqrt(y)| < c1 + c2*sqrt(m) exactly for q = qn/qd, y =
    yn/yd, c1 = an/ad, c2 = bn/bd, m = mn/md, denominators > 0 and the
    parts not necessarily in lowest terms.

    Requires q, y, c1, c2 >= 0 and m > 0.  Both sides are then
    non-negative, so squaring once reduces the comparison to lead <
    pa*sqrt(y) + pb*sqrt(m), multiplied through by a positive common
    denominator into integers; a second squaring leaves lead2 <
    K*sqrt(M), K >= 0: the sign of lead2/K - sqrt(M), or of lead2 at K = 0.
    """
    if min(qn, yn, an, bn) < 0:
        raise DomainError("sqrt_abs_err_lt requires q, y, c1, c2 >= 0")
    if mn <= 0:
        raise DomainError(f"sqrt_abs_err_lt requires m > 0, "
                          f"got {_rat_text(Fraction(mn, md))}")
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
    # 0 the radical term is 0, and lead2 < 0 decides
    lead2 = lead * lead - (ky * ky * big_y + km * km * big_m)
    k = 2 * ky * km
    return _sqrt_sign(lead2, k, big_y * big_m, 1) < 0 if k else lead2 < 0


def sqrt_abs_err_lt(q: Fraction, y: Fraction, c1: Fraction, c2: Fraction,
                    m: Fraction) -> bool:
    """Decide |q - sqrt(y)| < c1 + c2*sqrt(m) exactly: _abs_err_lt."""
    try:
        return _abs_err_lt(q.numerator, q.denominator, y.numerator,
                           y.denominator, c1.numerator, c1.denominator,
                           c2.numerator, c2.denominator, m.numerator,
                           m.denominator)
    except AttributeError:  # no int or Fraction: the edge names it
        return _abs_err_lt(*_rational_parts(q=q, y=y, c1=c1, c2=c2, m=m))
