import json
import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certisqrt import exact, verify
from certisqrt.errors import DomainError
from certisqrt.exact import (
    cmp_products,
    cmp_sqrt,
    encode_int,
    fraction_from_coprime,
    rat_str,
    sqrt_abs_err_lt,
    sqrt_enclosure,
    within_of_sqrt,
)
from certisqrt.fixarith import FixProfile
from certisqrt.lut import build_root_table
from certisqrt.newton import min_legal_iterations, mix_sqr, sqr_exact
from certisqrt.report import CheckResult, VerifyReport

rationals = st.fractions(min_value=F(-100), max_value=F(100),
                         max_denominator=1000)
nonneg_rationals = st.fractions(min_value=F(0), max_value=F(100),
                                max_denominator=1000)


class TestCmpSqrt:
    @pytest.mark.parametrize("q,y,expected", [
        (F(3, 2), F(2), 1),
        (F(2), F(4), 0),
        (F(-1), F(2), -1),
        (F(0), F(0), 0),
    ], ids=["above", "at", "negative-q", "zero"])
    def test_examples(self, q, y, expected):
        got = cmp_sqrt(q, y)
        assert type(got) is int and got == expected

    def test_negative_radicand(self):
        with pytest.raises(DomainError):
            cmp_sqrt(F(1), F(-1))

    @given(rationals, rationals)
    def test_agrees_on_perfect_squares(self, q, r):
        y = r * r
        got = cmp_sqrt(q, y)
        root = abs(r)
        assert got == (q > root) - (q < root)

    @given(rationals, nonneg_rationals)
    def test_equal_iff_square(self, q, y):
        assert (cmp_sqrt(q, y) == 0) == (q >= 0 and q * q == y)


def reference_cmp(q, y):
    """q against sqrt(y) by plain cross-multiplication, with no filter."""
    if q < 0:
        return -1
    lhs = q.numerator * q.numerator * y.denominator
    rhs = y.numerator * q.denominator * q.denominator
    return (lhs > rhs) - (lhs < rhs)


def wide_ints(lo_bits, hi_bits):
    """Positive integers of lo_bits to hi_bits bits."""
    return st.integers(lo_bits, hi_bits).flatmap(
        lambda n: st.integers(1 << (n - 1), (1 << n) - 1))


class TestFilteredCmpSqrt:
    """The truncation filter in front of cmp_sqrt against reference_cmp."""

    def test_corpus_boundaries(self, sqr_corpus):
        runs, _ = sqr_corpus
        filtered = 0
        for y, _eps, trace, _post, _cap in runs:
            for x in (fraction_from_coprime(*xk) for xk in trace.pairs):
                assert cmp_sqrt(x, y) == reference_cmp(x, y), (y, x)
                filtered += x.denominator.bit_length() \
                    > 2 * exact._FILTER_BITS
        assert filtered > 1000

    @settings(max_examples=60, deadline=None)
    @given(wide_ints(200, 20000), wide_ints(200, 20000),
           st.fractions(min_value=F(0), max_value=F(10 ** 6),
                        max_denominator=1000))
    def test_wide_rationals(self, num, den, y):
        q = F(num, den)
        assert cmp_sqrt(q, y) == reference_cmp(q, y)

    @settings(max_examples=60, deadline=None)
    @given(st.fractions(min_value=F(0), max_value=F(10 ** 6),
                        max_denominator=1000),
           st.integers(100, 10000), st.integers(-3, 3))
    def test_wide_near_root(self, y, p, offset):
        # a p-bit isqrt approximation of sqrt(y), moved by offset units
        a, b = y.numerator, y.denominator
        n = math.isqrt((a * b) << (2 * p)) + offset
        q = F(n, b << p)
        assert cmp_sqrt(q, y) == reference_cmp(q, y)

    def test_exact_root_with_huge_parts_falls_back(self, monkeypatch):
        calls = []
        real = exact._exact_sign

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(exact, "_exact_sign", counted)
        q = F(3 ** 400 + 2, 7 ** 150)  # coprime parts of ~630 and ~420 bits
        assert cmp_sqrt(q, q * q) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [64, 128, 200, 256, 512, 1024, 4096])
    @pytest.mark.parametrize("y", [F(2), F(3), F(10 ** 6 - 1),
                                   F(999999, 1000), F(5, 7), F(4), F(9, 4)])
    def test_isqrt_bracket_neighbours(self, y, p):
        a, b = y.numerator, y.denominator
        n = math.isqrt((a * b) << (2 * p))
        for offset in (-1, 0, 1, 2):
            q = F(n + offset, b << p)
            assert cmp_sqrt(q, y) == reference_cmp(q, y), (offset, q)

    @pytest.mark.parametrize("delta", [-2, -1, 0, 1, 2])
    def test_threshold_straddle(self, delta):
        bits = 2 * exact._FILTER_BITS + delta
        big = (1 << (bits - 1)) + 12345
        for y in (F(2), F(10 ** 6 - 1, 7), F(0), F(1)):
            for q in (F(big, big - 1), F(big + 1, 3), F(5, big),
                      F(big, (1 << (bits - 1)) + 1)):
                assert cmp_sqrt(q, y) == reference_cmp(q, y), (q, y)
            # the nearest p-bit approximations of sqrt(y) at this size
            n = math.isqrt((y.numerator * y.denominator) << (2 * bits))
            for offset in (-1, 0, 1):
                q = F(n + offset, y.denominator << bits)
                assert cmp_sqrt(q, y) == reference_cmp(q, y), (q, y)

    def test_fast_path_used(self, sqr_corpus, monkeypatch):
        """On 100 corpus checks, fewer than 1% of the filtered
        comparisons fall back to the full products."""
        counts = {"filtered": 0, "fallback": 0}
        inside = []
        real_products, real_exact = exact.cmp_products, exact._exact_sign

        def products(*args):
            counts["filtered"] += 1
            inside.append(True)
            try:
                return real_products(*args)
            finally:
                inside.pop()

        def exact_sign(*args):
            counts["fallback"] += bool(inside)
            return real_exact(*args)

        # halves, which decides the halving rule, calls it from exact
        monkeypatch.setattr(exact, "cmp_products", products)
        monkeypatch.setattr(exact, "_exact_sign", exact_sign)
        runs, _ = sqr_corpus
        for y, eps, trace, _post, _cap in runs[:100]:
            assert verify.check_sqr_annotations(trace, y, eps).overall
        assert counts["filtered"] > 1000
        assert counts["fallback"] < 0.01 * counts["filtered"], counts


def product_sign(xs, ys):
    """Sign of prod(xs) - prod(ys) from the full products."""
    lhs, rhs = math.prod(xs), math.prod(ys)
    return (lhs > rhs) - (lhs < rhs)


# factors >= 0 of up to 700 bits: 0 and 1 often, and lengths on both
# sides of the 128-bit filter
factor = st.one_of(st.integers(0, 3), wide_ints(1, 700))
factor_lists = st.lists(factor, min_size=1, max_size=4)
nonzero_lists = st.lists(wide_ints(1, 700), min_size=1, max_size=4)


def regrouped(xs, cut):
    """A sequence with the product of xs: its first `cut` factors
    multiplied into one, then the rest."""
    cut = max(1, min(cut, len(xs)))
    return [math.prod(xs[:cut]), *xs[cut:]]


class TestCmpProducts:
    """cmp_products against the full products, 1 to 4 factors a side."""

    @given(factor_lists, factor_lists)
    @settings(max_examples=400, deadline=None)
    def test_against_full_products(self, xs, ys):
        assert cmp_products(xs, ys) == product_sign(xs, ys)
        assert cmp_products(ys, xs) == -product_sign(xs, ys)

    @given(nonzero_lists, st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_exact_ties(self, xs, cut):
        ys = regrouped(xs, cut)
        assert cmp_products(xs, ys) == 0
        assert cmp_products(ys, [*xs, 1, 1]) == 0

    @given(nonzero_lists, st.sampled_from([-1, 1]))
    @settings(max_examples=300, deadline=None)
    def test_one_from_a_tie(self, xs, unit):
        near = math.prod(xs) + unit
        for ys in ([near], [near, 1], [1, near, 1, 1]):
            assert cmp_products(xs, ys) == -unit == product_sign(xs, ys)
            assert cmp_products(ys, xs) == unit

    @given(factor_lists, factor_lists, st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_zero_factors(self, xs, ys, at):
        xs = list(xs)
        xs[at % len(xs)] = 0
        assert cmp_products(xs, ys) == -(math.prod(ys) > 0)
        assert cmp_products(ys, xs) == (math.prod(ys) > 0)
        assert cmp_products(xs, [0]) == 0

    def test_factors_at_the_filter_width(self):
        """Every pair of sequences of one or two factors of 0, 1, 128 and
        129 bits, and each product's neighbours: a factor is cut only
        when it is longer than _FILTER_BITS = 128."""
        values = [0, 1, 1 << 127, (1 << 128) - 1, (1 << 127) + 12345,
                  1 << 128, (1 << 129) - 1, (1 << 128) + 777]
        seqs = [[v] for v in values] + [[v, w] for v in values
                                        for w in values]
        for xs in seqs:
            near = [[math.prod(xs) + unit] for unit in (-1, 0, 1)
                    if math.prod(xs) + unit >= 0]
            for ys in seqs + near:
                assert cmp_products(xs, ys) == product_sign(xs, ys), (xs, ys)

    @pytest.mark.parametrize("bits", [127, 128, 129, 256, 4000, 100_000])
    def test_long_ties_and_neighbours(self, bits):
        # one product split three ways; a unit moved on the longest factor
        a, b = (1 << (bits - 1)) + 12345, (1 << (bits // 2)) + 77
        xs = [a, b, 3]
        for ys in ([a * b, 3], [3 * a, b], [a * b * 3]):
            assert cmp_products(xs, ys) == 0
        for unit in (-1, 1):
            ys = [a * b * 3 + unit]
            assert cmp_products(xs, ys) == -unit == product_sign(xs, ys)
            ys = [a + unit, b, 3]
            assert cmp_products(xs, ys) == -unit == product_sign(xs, ys)


class TestWithinOfSqrt:
    def test_newton_result_close(self):
        assert within_of_sqrt(F(17, 12), F(2), F(1, 100))

    def test_exact_root_zero_bound(self):
        assert within_of_sqrt(F(2), F(4), F(0))
        assert not within_of_sqrt(F(2), F(4), F(0), strict=True)

    def test_too_far(self):
        assert not within_of_sqrt(F(3, 2), F(2), F(1, 100))

    def test_negative_bound(self):
        with pytest.raises(DomainError):
            within_of_sqrt(F(1), F(2), F(-1))

    @given(nonneg_rationals, nonneg_rationals.filter(lambda b: b > 0))
    def test_strict_implies_nonstrict(self, y, bound):
        q = F(3, 2)
        if within_of_sqrt(q, y, bound, strict=True):
            assert within_of_sqrt(q, y, bound)


def _parts_of_bits(bits):
    return st.integers(1 << (bits - 1), (1 << bits) - 1)


# integer parts on both sides of _SHORT_BITS = 256, so a pair's products
# cross it too
_parts = st.sampled_from([1, 2, 9, 64, 127, 128, 129, 200, 255, 256, 257,
                          300]).flatmap(_parts_of_bits)


def _true_sign(r, y):
    """Sign of r - sqrt(y) by Fraction arithmetic."""
    if r < 0:
        return -1
    return (r * r > y) - (r * r < y)


def _within_signs_counted(q, y, bound):
    """(_within_signs(q, y, bound), its number of _sqrt_sign calls)."""
    with mock.patch.object(exact, "_sqrt_sign",
                           wraps=exact._sqrt_sign) as counted:
        got = exact._within_signs(q, y, bound)
    return got, counted.call_count


def _short(q, bound):
    """Whether q - bound and q + bound, over qd*bd, have all parts within
    _SHORT_BITS bits."""
    qn, qd, bn, bd = q.numerator, q.denominator, bound.numerator, \
        bound.denominator
    return all(n.bit_length() <= exact._SHORT_BITS
               for n in (qn * bd - bn * qd, qn * bd + bn * qd, qd * bd))


class TestWithinSigns:
    """_within_signs decides both signs itself while every part of the
    two pairs is short, and by two _sqrt_sign calls otherwise; either
    way it returns what the two _sqrt_sign calls return."""

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_equals_two_sqrt_sign_calls(self, data):
        sign = data.draw(st.sampled_from([1, -1]))
        q = F(sign * data.draw(_parts), data.draw(_parts))
        bound = data.draw(st.one_of(st.just(F(0)),
                                    st.builds(F, _parts, _parts)))
        tie = data.draw(st.sampled_from([None, -1, 1]))
        if tie is None:
            y = F(data.draw(_parts), data.draw(_parts))
        else:
            # sqrt(y) is exactly |q - bound| or |q + bound|
            y = (q + tie * bound) ** 2
        (lo, hi), calls = _within_signs_counted(q, y, bound)
        assert (lo, hi) == \
            tuple(exact._sqrt_sign(r.numerator, r.denominator,
                                   y.numerator, y.denominator)
                  for r in (q - bound, q + bound)) == \
            (_true_sign(q - bound, y), _true_sign(q + bound, y))
        assert calls == (0 if _short(q, bound) else 2)

    @pytest.mark.parametrize("bits", [255, 256, 257])
    @pytest.mark.parametrize("case", ["centre", "den", "negative-lo",
                                      "negative-both"])
    def test_threshold(self, bits, case):
        n = (1 << (bits - 1)) + 12345
        q, bound = {"centre": (F(n, 7), F(0)),
                    "den": (F(7, n), F(0)),
                    "negative-lo": (F(1), F(n)),
                    "negative-both": (F(-n), F(1))}[case]
        assert _short(q, bound) is (bits <= 256)
        for y in (q * q, (q + bound) ** 2, q * q + F(1, n),
                  q * q - F(1, n) if q * q >= F(1, n) else F(0)):
            (lo, hi), calls = _within_signs_counted(q, y, bound)
            assert (lo, hi) == (_true_sign(q - bound, y),
                                _true_sign(q + bound, y))
            assert calls == (0 if bits <= 256 else 2)
        if case == "centre":  # a tie on both sides
            assert exact._within_signs(q, q * q, bound) == (0, 0)
        if case.startswith("negative"):
            assert exact._within_signs(q, q * q, bound)[0] == -1
        if case == "negative-both":
            assert exact._within_signs(q, F(3), bound) == (-1, -1)


def _sign_calls():
    """Patches that count the calls of exact._sqrt_sign and
    exact.cmp_products and still make them."""
    return (mock.patch.object(exact, "_sqrt_sign", wraps=exact._sqrt_sign),
            mock.patch.object(exact, "cmp_products",
                              wraps=exact.cmp_products))


class TestOneShortPath:
    """_within_signs is the one place short sign products are formed: a
    mix request's verdict reaches neither _sqrt_sign nor cmp_products,
    and a long final-error check reaches cmp_products."""

    def test_mix_verdicts_form_their_own_products(self):
        # grid_serve's wide profile: d = 1000, stp 16/1000, eps 8/1000
        fix = FixProfile(1000, 4_000_000, 4_000_000)
        table = build_root_table(fix, fix.val(16))
        eps = fix.val(8)
        rng = random.Random(1)
        counts = [1001, 2_000_000,
                  *(rng.randint(1001, 2_000_000) for _ in range(200))]
        ys = [fix.val(c) for c in counts]
        runs = [(mix_sqr(y, eps, table)[0], y) for y in ys]
        sign, products = _sign_calls()
        with sign as sign_calls, products as product_calls:
            assert all(within_of_sqrt(x.value, y.value, eps.value,
                                      strict=True) for x, y in runs)
        assert sign_calls.call_count == product_calls.call_count == 0

    def test_long_final_error_reaches_cmp_products(self):
        # a pair of verify.sample_rationals(300, 1) whose result has
        # about 121,000-bit parts, as exact_certify's longest do
        y, eps = F(848126182, 907), F(41969, 1000000)
        x, _ = sqr_exact(y, eps)
        assert x.denominator.bit_length() > 100_000
        sign, products = _sign_calls()
        with sign as sign_calls, products as product_calls:
            assert within_of_sqrt(x, y, eps)
        assert sign_calls.call_count == product_calls.call_count == 2


@pytest.mark.parametrize("refused", [
    lambda y: cmp_sqrt(F(1), y),
    lambda y: within_of_sqrt(F(1), y, F(1)),
    lambda y: min_legal_iterations(y, F(1, 10), F(1)),
    lambda y: sqrt_enclosure(y, 64),
    lambda y: verify.approx_abs_err(F(1), y),
], ids=["cmp_sqrt", "within_of_sqrt", "min_legal_iterations",
        "sqrt_enclosure", "approx_abs_err"])
def test_negative_radicand_message_names_the_rule(refused):
    with pytest.raises(DomainError) as exc:
        refused(F(-2, 3))
    assert str(exc.value) == "radicand must be >= 0, got -2/3"


class TestSqrtEnclosure:
    def test_perfect_square_degenerate(self):
        e = sqrt_enclosure(F(4), 10)
        assert e.lo == e.hi == 2

    def test_zero(self):
        e = sqrt_enclosure(F(0), 53)
        assert e.lo == e.hi == 0

    def test_sqrt2_coarse(self):
        e = sqrt_enclosure(F(2), 1)
        assert e.lo * e.lo <= 2 <= e.hi * e.hi
        assert e.hi - e.lo <= F(1, 2)

    @given(nonneg_rationals, st.integers(min_value=0, max_value=128))
    def test_postcondition(self, y, p):
        e = sqrt_enclosure(y, p)
        assert e.lo * e.lo <= y <= e.hi * e.hi
        assert 0 <= e.lo <= e.hi
        assert e.hi - e.lo <= F(1, 2 ** p)


def radical_order(lhs, c1, c2, m):
    """The sign of lhs - (c1 + c2*sqrt(m)), c2 >= 0, by one cmp_sqrt
    call, as derive_eps_for_ulp decides c1 + c2*sqrt(base) < ulp/2 (1
    with lhs = ulp/2)."""
    return cmp_sqrt(lhs - c1, c2 * c2 * m)


class TestDecideRadicalLt:
    """The one-radical decision, lhs against c1 + c2*sqrt(m) for c2 >= 0,
    made by radical_order's one cmp_sqrt call."""

    @pytest.mark.parametrize("lhs,c1,c2,m,expected", [
        (F(0), F(1), F(0), F(2), True),
        (F(3, 2), F(0), F(1), F(2), False),
        (F(7, 5), F(0), F(1), F(2), True),
    ])
    def test_examples(self, lhs, c1, c2, m, expected):
        order = radical_order(lhs, c1, c2, m)
        assert (order < 0) is expected
        assert (order > 0) is not expected

    @given(rationals, rationals, nonneg_rationals,
           nonneg_rationals.filter(lambda m: m > 0))
    def test_cross_oracle_against_enclosure(self, lhs, c1, c2, m):
        # compare against an enclosure-based answer when the enclosure
        # at 256 bits separates the sides
        e = sqrt_enclosure(m, 256)
        order = radical_order(lhs, c1, c2, m)
        if lhs < c1 + c2 * e.lo:
            assert order == -1
        elif lhs > c1 + c2 * e.hi:
            assert order == 1


class TestSqrtAbsErrLt:
    def test_flt_style_bound(self):
        # |173/50 - sqrt(12)| < 1/2 + (1/200) * sqrt(2)
        assert sqrt_abs_err_lt(F(173, 50), F(12), F(1, 2), F(1, 200), F(2))

    def test_tight_failure(self):
        # |2 - sqrt(2)| > 1/2 + small radical margin
        assert not sqrt_abs_err_lt(F(2), F(2), F(1, 2), F(1, 200), F(2))

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            sqrt_abs_err_lt(F(-1), F(2), F(1), F(1), F(2))

    @given(nonneg_rationals, nonneg_rationals, nonneg_rationals,
           nonneg_rationals, nonneg_rationals.filter(lambda m: m > 0))
    def test_cross_oracle_against_enclosures(self, q, y, c1, c2, m):
        ey = sqrt_enclosure(y, 256)
        em = sqrt_enclosure(m, 256)
        err_lo = max(F(0), max(q - ey.hi, ey.lo - q))
        err_hi = max(abs(q - ey.lo), abs(q - ey.hi))
        rhs_lo = c1 + c2 * em.lo
        rhs_hi = c1 + c2 * em.hi
        got = sqrt_abs_err_lt(q, y, c1, c2, m)
        if err_hi < rhs_lo:
            assert got
        elif err_lo > rhs_hi:
            assert not got


# The Fraction forms the integer-pair predicates replaced, kept as the
# reference they must agree with.
def reference_within(q, y, bound, strict=False):
    lo = reference_cmp(q - bound, y)
    hi = reference_cmp(q + bound, y)
    if strict:
        return lo < 0 < hi
    return lo <= 0 <= hi


def reference_radical_lt(lhs, c1, c2, m):
    rest = lhs - c1
    if c2 == 0:
        return rest < 0
    if c2 > 0:
        if rest <= 0:
            return True
        return rest * rest < c2 * c2 * m
    if rest >= 0:
        return False
    return rest * rest > c2 * c2 * m


def reference_abs_err_lt(q, y, c1, c2, m):
    lead = q * q + y - (c1 * c1 + c2 * c2 * m)
    pa = 2 * q
    pb = 2 * c1 * c2
    if lead < 0:
        return True
    if lead == 0:
        return (pa > 0 and y > 0) or pb > 0
    if pa == 0 or y == 0:
        return reference_radical_lt(lead, F(0), pb, m)
    if pb == 0:
        return reference_radical_lt(lead, F(0), pa, y)
    lead2 = lead * lead - (pa * pa * y + pb * pb * m)
    return reference_radical_lt(lead2, F(0), 2 * pa * pb, y * m)


def wide_rationals(lo_bits, hi_bits):
    return st.builds(F, wide_ints(lo_bits, hi_bits), wide_ints(lo_bits, hi_bits))


UNIT = F(1, 1000)


def check_radical_order(lhs, c1, c2, m):
    """radical_order against reference_radical_lt, in both directions:
    -1 is lhs < c1 + c2*sqrt(m), and 1, derive_eps_for_ulp's test, is
    c1 < lhs - c2*sqrt(m)."""
    order = radical_order(lhs, c1, c2, m)
    args = (lhs, c1, c2, m)
    assert (order == -1) is reference_radical_lt(*args), args
    assert (order == 1) is \
        reference_radical_lt(c1, lhs, -c2, m), args


class TestIntegerPairPredicates:
    """within_of_sqrt, radical_order's one-radical decision and
    sqrt_abs_err_lt on integer pairs against their Fraction forms above."""

    @pytest.mark.parametrize("q,y,bound", [
        (F(2), F(4), F(0)),              # q = sqrt(y), zero bound
        (F(5, 2), F(4), F(1, 2)),        # q - bound = sqrt(y)
        (F(3, 2), F(4), F(1, 2)),        # q + bound = sqrt(y)
        (F(0), F(0), F(0)),
        (F(0), F(9, 4), F(3, 2)),        # zero q, bound reaches the root
        (F(7, 3), F(0), F(7, 3)),        # zero y
        (F(-1), F(1), F(2)),             # q - bound negative
    ])
    def test_within_ties(self, q, y, bound):
        for dq in (-UNIT, 0, UNIT):
            for db in (0, UNIT) if bound == 0 else (-UNIT, 0, UNIT):
                for strict in (False, True):
                    args = (q + dq, y, bound + db, strict)
                    assert within_of_sqrt(*args) is \
                        reference_within(*args), args

    @pytest.mark.parametrize("lhs,c1,c2,m", [
        (F(4), F(1), F(2), F(9, 4)),     # lhs = c1 + c2*sqrt(m)
        (F(81, 400), F(1, 5), F(1, 800), F(4)),  # derive_eps' base-4 tie
        (F(1), F(1), F(0), F(2)),        # zero c2: lhs = c1
        (F(0), F(0), F(1), F(2)),        # zero lhs and c1
        (F(7, 6), F(1, 2), F(1, 3), F(4)),  # 1/2 + 2/3
        (F(5, 3), F(0), F(5, 6), F(4)),
    ])
    def test_radical_ties(self, lhs, c1, c2, m):
        for dl in (-UNIT, 0, UNIT):
            check_radical_order(lhs + dl, c1, c2, m)

    @pytest.mark.parametrize("q,y,c1,c2,m", [
        (F(3), F(4), F(1), F(0), F(2)),          # |q - sqrt(y)| = c1
        (F(3), F(4), F(0), F(1, 2), F(4)),       # = c2*sqrt(m)
        (F(0), F(2), F(0), F(1), F(2)),          # sqrt(2) = sqrt(2)
        (F(1), F(1), F(1), F(1), F(1)),          # lead = 0, q > 0
        (F(0), F(4), F(2), F(0), F(3)),          # lead = 0, all zero coeffs
        (F(0), F(4), F(1), F(1), F(1)),          # lead = 0, c1*c2 > 0
        (F(0), F(0), F(0), F(0), F(5)),          # everything zero
        (F(2), F(0), F(1), F(1), F(1)),          # zero y
        (F(5, 2), F(2), F(1, 2), F(1, 200), F(2)),
        (F(173, 50), F(12), F(1, 2), F(1, 200), F(2)),
    ])
    def test_abs_err_ties(self, q, y, c1, c2, m):
        for dq in (-UNIT, 0, UNIT):
            for dc in (-UNIT, 0, UNIT):
                args = (q + dq, y, c1 + dc, c2, m)
                if min(args[:4]) < 0:
                    continue
                assert sqrt_abs_err_lt(*args) is \
                    reference_abs_err_lt(*args), args

    @settings(max_examples=300, deadline=None)
    @given(rationals, nonneg_rationals, nonneg_rationals, st.booleans())
    def test_within_small(self, q, y, bound, strict):
        assert within_of_sqrt(q, y, bound, strict) is \
            reference_within(q, y, bound, strict)

    @settings(max_examples=300, deadline=None)
    @given(rationals, rationals, nonneg_rationals,
           nonneg_rationals.filter(lambda m: m > 0))
    def test_radical_small(self, lhs, c1, c2, m):
        check_radical_order(lhs, c1, c2, m)

    @settings(max_examples=300, deadline=None)
    @given(nonneg_rationals, nonneg_rationals, nonneg_rationals,
           nonneg_rationals, nonneg_rationals.filter(lambda m: m > 0))
    def test_abs_err_small(self, q, y, c1, c2, m):
        assert sqrt_abs_err_lt(q, y, c1, c2, m) is \
            reference_abs_err_lt(q, y, c1, c2, m)

    @settings(max_examples=300, deadline=None)
    @given(nonneg_rationals, nonneg_rationals, nonneg_rationals,
           nonneg_rationals, nonneg_rationals.filter(lambda m: m > 0),
           st.sampled_from(["q", "y", "c1", "c2"]))
    def test_abs_err_zero_terms(self, q, y, c1, c2, m, zero):
        """A zero q, y, c1 or c2 makes ky, Y or km 0, and the one
        squaring path decides those inputs too."""
        args = {"q": q, "y": y, "c1": c1, "c2": c2, "m": m}
        args[zero] = F(0)
        assert sqrt_abs_err_lt(**args) is reference_abs_err_lt(**args), args

    @settings(max_examples=40, deadline=None)
    @given(wide_rationals(200, 20000), nonneg_rationals,
           wide_rationals(200, 2000), st.booleans())
    def test_within_wide(self, q, y, bound, strict):
        assert within_of_sqrt(q, y, bound, strict) is \
            reference_within(q, y, bound, strict)

    @settings(max_examples=40, deadline=None)
    @given(wide_rationals(200, 20000), wide_rationals(200, 2000),
           wide_rationals(200, 2000), nonneg_rationals.filter(lambda m: m > 0))
    def test_radical_wide(self, lhs, c1, c2, m):
        check_radical_order(lhs, c1, c2, m)

    @settings(max_examples=40, deadline=None)
    @given(wide_rationals(200, 20000), nonneg_rationals,
           wide_rationals(200, 2000), wide_rationals(200, 2000),
           nonneg_rationals.filter(lambda m: m > 0))
    def test_abs_err_wide(self, q, y, c1, c2, m):
        assert sqrt_abs_err_lt(q, y, c1, c2, m) is \
            reference_abs_err_lt(q, y, c1, c2, m)

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(min_value=F(1), max_value=F(10 ** 6),
                        max_denominator=1000),
           st.integers(200, 20000), st.integers(-2, 2))
    def test_abs_err_wide_near_root(self, y, p, offset):
        # a p-bit approximation of sqrt(y) against an error bound of
        # about its own size: the squarings must decide near-ties
        a, b = y.numerator, y.denominator
        n = math.isqrt((a * b) << (2 * p)) + offset
        q = F(n, b << p)
        c1, c2 = F(1, 1 << p), F(1, 1 << (p + 1))
        assert sqrt_abs_err_lt(q, y, c1, c2, F(2)) is \
            reference_abs_err_lt(q, y, c1, c2, F(2))

    def test_wide_abs_err_squares_through_the_filter(self, monkeypatch):
        calls = []
        real = exact.cmp_products

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(exact, "cmp_products", counted)
        q = F(3 ** 37855 + 1, 2 ** 60000)  # parts of about 60,000 bits
        got = sqrt_abs_err_lt(q, F(2), F(1, 1000), F(1, 2000), F(2))
        assert got is reference_abs_err_lt(q, F(2), F(1, 1000),
                                           F(1, 2000), F(2))
        assert len(calls) >= 1


class TestLowestTerms:
    @pytest.mark.parametrize("num", [-7, -300, 0, 300, 173, 1, 10 ** 40,
                                     -(3 ** 5000) * 100, 3 ** 5000 + 1])
    @pytest.mark.parametrize("den", [1, 3, 100, 2 ** 70])
    def test_equals_fraction_in_lowest_terms(self, num, den):
        got, want = exact._lowest_terms(num, den), F(num, den)
        assert type(got) is F
        assert (got.numerator, got.denominator) == \
            (want.numerator, want.denominator)
        assert got.denominator > 0
        assert math.gcd(got.numerator, got.denominator) == 1
        assert got == want and hash(got) == hash(want)

    def test_on_grid_integer(self):
        # count 300 on a 1/100 grid is the integer 3
        got = exact._lowest_terms(300, 100)
        assert (got.numerator, got.denominator) == (3, 1)
        assert str(got) == "3"


class TestSqrtSignThreshold:
    """_sqrt_sign decides a non-negative n/d by one cmp_products call
    whatever the operand size, on every side of a tie, at lengths on
    both sides of _within_signs' short size, 2*_FILTER_BITS = 256 bits."""

    @pytest.mark.parametrize("bits", [255, 256, 257])
    @pytest.mark.parametrize("long_part", ["n", "d"])
    def test_agrees_with_cmp_products(self, monkeypatch, bits, long_part):
        real = exact.cmp_products
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(exact, "cmp_products", counted)
        long, short = (1 << (bits - 1)) + 12345, 7
        n0, d = (long, short) if long_part == "n" else (short, long)
        for m in (1, 5):
            # n0/d = sqrt(a0/b) exactly; move a or n by one either way
            a0, b = n0 * n0 * m, d * d * m
            for dn, da, want in ((0, 0, 0), (0, 1, -1), (0, -1, 1),
                                 (1, 0, 1), (-1, 0, -1)):
                n, a = n0 + dn, a0 + da
                calls.clear()
                got = exact._sqrt_sign(n, d, a, b)
                assert got == want == real((n, n * b), (a * d, d)), \
                    (dn, da)
                assert len(calls) == 1


def test_fraction_from_coprime_matches_fraction():
    f = fraction_from_coprime(17, 12)
    assert f == F(17, 12)
    assert f + F(1, 12) == F(3, 2)


def test_rat_str_canonical():
    assert rat_str(F(346, 200)) == "173/100"


def _parse_rat(text):
    num, den = text.split("/")
    return F(int(num, 0), int(den, 0))


class TestLosslessEncoding:
    def test_decimal_up_to_the_threshold(self):
        n = (1 << exact._DECIMAL_MAX_BITS) - 1
        assert len(str(n)) <= 640
        assert encode_int(n) == n
        assert encode_int(-n) == -n

    def test_hex_above_the_threshold(self):
        for n in (1 << exact._DECIMAL_MAX_BITS,
                  (1 << exact._DECIMAL_MAX_BITS) + 1):
            assert encode_int(n) == hex(n)
            assert encode_int(-n) == "-" + hex(n)

    @given(st.integers(exact._DECIMAL_MAX_BITS + 1, 200_000),
           st.integers(0, 2 ** 64), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_hex_is_hex(self, bits, seed, negative):
        """The to_bytes route writes what hex() writes, for every top
        byte: below 16 it leaves one leading 0 nibble to strip."""
        rng = random.Random(seed)
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        if negative:
            n = -n
        assert encode_int(n) == hex(n)
        assert int(encode_int(n), 0) == n

    def test_message_text_is_str_while_parts_are_short(self):
        n = (1 << exact._DECIMAL_MAX_BITS) - 1
        for q in (F(-3, 4), F(7), 7, F(n, n - 2), F(-n)):
            assert exact._rat_text(q) == str(q)
        m = n + 1
        assert exact._rat_text(F(1, m)) == f"1/{hex(m)}"
        assert exact._rat_text(F(-m, 3)) == f"-{hex(m)}/3"
        assert exact._rat_text(F(m)) == hex(m)

    def test_rat_str_round_trips(self):
        for q in (F(173, 100), F(-(3 ** 5000), 7), F(3, 2 ** 9000 + 1),
                  F(-(5 ** 3000) - 2, 3 ** 2000)):
            assert _parse_rat(rat_str(q)) == q

    def test_report_value_round_trips(self):
        """Long parts round-trip; a value of no listed type, such as a
        grid value, is written as its str."""
        x = F(3 ** 20000 + 1, 2 ** 30000)
        grid_value = FixProfile(100, 1600, 1600).val(5)
        rep = VerifyReport("s", (CheckResult(
            "c", "r", True, {"x": x, "n": 7 ** 5000, "v": grid_value}),))
        witness = json.loads(rep.to_json())["checks"][0]["witness"]
        assert witness["x"].startswith("0x")
        assert _parse_rat(witness["x"]) == x
        assert int(witness["n"], 0) == 7 ** 5000
        assert witness["v"] == "5/100"
