import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certisqrt.errors import (
    DomainError,
    ExponentRange,
    MantissaRange,
    RangeOverflow,
)
from certisqrt.fixarith import FixProfile, quantize
from certisqrt.floatmodel import (
    FloatProfile,
    FloatVal,
    _exponent_below,
    check_float_profile,
    compose,
    encode_rational,
    value_of,
)
from certisqrt.newton import flt_sqr


@pytest.fixture
def prof(demo_profile, demo_float_profile):
    return demo_float_profile


class TestProfile:
    def test_demo_valid(self, prof):
        prof.validate()
        assert prof.exp_min == -16
        assert prof.exp_max == 16

    def test_sup_must_exceed_base_squared(self):
        fix = FixProfile(10, 40, 40)  # sup = 4 = base**2
        with pytest.raises(DomainError):
            FloatProfile(2, fix, F(8), F(8)).validate()

    def test_odd_inf_shrinks_exponent_range(self):
        fix = FixProfile(10, 30, 90)  # inf = 3, an odd integer
        fprof = FloatProfile(2, fix, F(8), F(8))
        assert fprof.exp_min == -2
        assert fprof.exp_max == 9

    def test_fractional_inf_uses_floor(self):
        fix = FixProfile(10, 35, 90)  # inf = 3.5
        fprof = FloatProfile(2, fix, F(8), F(8))
        assert fprof.exp_min == -3

    def test_report_flags_failures(self):
        fix = FixProfile(10, 40, 40)
        report = check_float_profile(FloatProfile(2, fix, F(8), F(8)))
        assert not report.overall
        assert {c.rule for c in report.failures()} == \
            {"float.sup-over-base-squared"}

    def test_invalid_profile_raises_on_every_call(self, demo_profile,
                                                  demo_eps, demo_table):
        # validity is decided once only when it holds: a failed decision
        # is not remembered, so each entry point raises again
        bad = FloatProfile(1, demo_profile, F(65536), F(65536))
        a = FloatVal(demo_profile.val(300), 2, 2)
        for _ in range(2):
            with pytest.raises(DomainError, match="float.base-min"):
                bad.validate()
            with pytest.raises(DomainError, match="float.base-min"):
                encode_rational(F(12), bad)
            with pytest.raises(DomainError, match="float.base-min"):
                flt_sqr(a, demo_eps, bad, demo_table)


class TestComposeDecompose:
    def test_accessor(self, demo_profile, prof):
        a = compose(demo_profile.val(150), 3, prof)
        man, exp = a.man, a.exp
        assert man.count == 150 and exp == 3

    def test_value(self, demo_profile, prof):
        assert value_of(compose(demo_profile.val(150), 3, prof)) == 12
        assert value_of(compose(demo_profile.val(173), 1, prof)) == F(173, 50)
        assert value_of(compose(demo_profile.val(150), -2, prof)) == F(3, 8)

    def test_zero(self):
        assert value_of(FloatVal.zero()) == 0
        assert FloatVal.zero().man is None

    def test_mantissa_range(self, demo_profile, prof):
        with pytest.raises(MantissaRange):
            compose(demo_profile.val(90), 1, prof)   # 0.9 <= 1
        with pytest.raises(MantissaRange):
            compose(demo_profile.val(100), 0, prof)  # exactly 1 excluded
        with pytest.raises(MantissaRange):
            compose(demo_profile.val(800), 0, prof)  # 8 = sup/base excluded

    def test_exponent_range(self, demo_profile, prof):
        with pytest.raises(ExponentRange):
            compose(demo_profile.val(150), 17, prof)
        with pytest.raises(ExponentRange):
            compose(demo_profile.val(150), -17, prof)


def reference_value(a):
    """The Fraction form value_of replaced, for a positive value."""
    return a.man.value * F(a.base) ** a.exp


class TestValueOf:
    @pytest.mark.parametrize("fprof", [
        FloatProfile(2, FixProfile(100, 1600, 1600), F(65536), F(65536)),
        FloatProfile(3, FixProfile(10, 100, 100), F(8), F(8)),
        FloatProfile(10, FixProfile(10, 1010, 1010), F(8), F(8)),
    ], ids=["demo", "base-3", "base-10"])
    def test_every_mantissa_at_every_exponent(self, fprof):
        fprof.validate()
        fix = fprof.fix
        # every count with 1 < count/d < sup/base
        for count in range(fix.delta_den + 1,
                           -(-fix.sup_count // fprof.base)):
            for e in range(fprof.exp_min, fprof.exp_max + 1):
                a = compose(fix.val(count), e, fprof)
                got, want = value_of(a), reference_value(a)
                # built without Fraction's normalisation, so the pair
                # must already be in lowest terms to compare and hash
                assert got == want and hash(got) == hash(want), (count, e)
                assert (got.numerator, got.denominator) == \
                    (want.numerator, want.denominator)
                assert math.gcd(got.numerator, got.denominator) == 1
                assert got.denominator > 0

    def test_no_negative_power_of_base_below_one(self, demo_profile):
        with pytest.raises(DomainError):
            value_of(FloatVal(demo_profile.val(150), -1, 0))


def reference_exponent_below(num, den, base):
    """The full-bracket bisection _exponent_below started from: below
    holds at -|t|-1 and fails at |t|+1, t the bit-length difference."""

    def below(e):  # base**e < num/den
        if e >= 0:
            return base ** e * den < num
        return den < num * base ** -e

    t = abs(num.bit_length() - den.bit_length())
    lo, hi = -t - 1, t + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo


EXPONENT_BASES = (2, 3, 7, 10, 16, 1000)


class TestExponentBelow:
    @pytest.mark.parametrize("base", EXPONENT_BASES)
    def test_powers_and_neighbours(self, base):
        for e in range(-40, 41):
            p, q = (base ** e, 1) if e >= 0 else (1, base ** -e)
            for scale in (1, 3, 2 ** 70):
                num, den = p * scale, q * scale
                for n, d in ((num, den), (num + 1, den), (num - 1, den),
                             (num, den + 1), (num, den - 1)):
                    if n < 1 or d < 1:
                        continue
                    got, man_num, man_den = _exponent_below(n, d, base)
                    assert got == reference_exponent_below(n, d, base), \
                        (n, d, base)
                    # the defining bracket, on exact rationals
                    assert F(base) ** got < F(n, d) <= F(base) ** (got + 1)
                    assert F(man_num, man_den) == F(n, d) / F(base) ** got

    @settings(max_examples=300, deadline=None)
    @given(num=st.integers(1, 2 ** 200), den=st.integers(1, 2 ** 200),
           base=st.sampled_from(EXPONENT_BASES))
    def test_random_ratios(self, num, den, base):
        e, man_num, man_den = _exponent_below(num, den, base)
        assert e == reference_exponent_below(num, den, base)
        assert F(man_num, man_den) == F(num, den) / F(base) ** e


class TestEncode:
    def test_twelve_exact(self, prof):
        val, exact = encode_rational(F(12), prof)
        assert exact and val.man.count == 150 and val.exp == 3

    def test_power_of_base_normalizes_down(self, prof):
        val, exact = encode_rational(F(2), prof)
        assert exact and val.man.count == 200 and val.exp == 0

    def test_third_rounds(self, prof):
        val, exact = encode_rational(F(1, 3), prof)
        assert not exact
        assert val.man.count == 133 and val.exp == -2

    def test_zero_trivial_path(self, prof):
        val, exact = encode_rational(F(0), prof)
        assert exact and val.is_zero

    def test_negative_rejected(self, prof):
        with pytest.raises(DomainError):
            encode_rational(F(-1), prof)

    def test_out_of_range(self, prof):
        with pytest.raises(RangeOverflow):
            encode_rational(F(2) ** 40, prof)
        with pytest.raises(RangeOverflow):
            encode_rational(F(1, 2 ** 40), prof)

    def test_exact_flag_iff_value_roundtrips(self, prof):
        for q in [F(3), F(7, 2), F(12), F(1, 3), F(5, 7), F(101, 100)]:
            val, exact = encode_rational(q, prof)
            assert exact == (value_of(val) == q)

    def test_near_one_mantissa_nudged_up(self, prof):
        # 1 + 1/1000 scales to a mantissa that nearest-rounds onto the
        # excluded endpoint; encoding must keep the mantissa above 1
        val, exact = encode_rational(F(1001, 1000), prof)
        assert not exact
        assert val.man.count > prof.fix.delta_den


class TestRoundTrip:
    def test_exhaustive_small_grid(self):
        fix = FixProfile(10, 90, 90)
        fprof = FloatProfile(2, fix, F(8), F(8))
        seen = {}
        for count in range(11, 45):  # mantissa in (1, 4.5); 4.5 = sup/base
            for exp in range(fprof.exp_min, fprof.exp_max + 1):
                try:
                    a = compose(fix.val(count), exp, fprof)
                except MantissaRange:
                    continue
                man, e = a.man, a.exp
                assert compose(man, e, fprof) == a
                v = value_of(a)
                assert v == F(count, 10) * F(2) ** exp
                # normalized pairs with mantissa in (1, base] are unique
                if F(1) < man.value <= 2:
                    assert v not in seen, (seen[v], (count, exp))
                    seen[v] = (count, exp)

    def test_encode_reproduces_composed_values(self):
        fix = FixProfile(10, 90, 90)
        fprof = FloatProfile(2, fix, F(8), F(8))
        for count in range(11, 21):  # mantissa in (1, 2]
            for exp in (-2, 0, 3):
                a = compose(fix.val(count), exp, fprof)
                back, exact = encode_rational(value_of(a), fprof)
                assert exact
                assert back == a


def reference_encode(q, profile):
    """The Fraction form encode_rational replaced: the exponent from a
    host-float guess and Fraction powers, the mantissa by quantize."""
    profile.validate()
    if q < 0:
        raise DomainError(f"only non-negative values are modeled, got {q}")
    if q == 0:
        return FloatVal.zero(), True
    big = F(profile.base)
    bits = q.numerator.bit_length() - q.denominator.bit_length()
    e = int(math.floor(bits / math.log2(profile.base)))
    while big ** e >= q:
        e -= 1
    while big ** (e + 1) < q:
        e += 1
    if e > profile.exp_max or e < profile.exp_min:
        raise RangeOverflow(f"{q} needs exponent {e}, outside "
                            f"[{profile.exp_min}, {profile.exp_max}]")
    man_exact = q / big ** e
    man = quantize(man_exact, profile.fix, "nearest")
    if man.count <= profile.fix.delta_den:
        man = quantize(man_exact, profile.fix, "up")
    return compose(man, e, profile), man.value == man_exact


def _outcome(fn, q, profile):
    try:
        return fn(q, profile)
    except (DomainError, MantissaRange, RangeOverflow) as exc:
        return type(exc), str(exc)


WIDE_FIX = FixProfile(1000, 4_000_000, 4_000_000)


class TestEncodeAgainstFractionForm:
    @pytest.mark.parametrize("fprof", [
        FloatProfile(2, WIDE_FIX, F(65536), F(65536)),
        FloatProfile(2, FixProfile(100, 1600, 1600), F(65536), F(65536)),
        FloatProfile(3, FixProfile(1000, 40_000, 40_000), F(100), F(100)),
        FloatProfile(10, FixProfile(1000, 200_000, 200_000), F(100), F(100)),
        FloatProfile(16, FixProfile(1000, 300_000, 300_000), F(100), F(100)),
    ], ids=["wide", "demo", "base-3", "base-10", "base-16"])
    def test_value_range(self, fprof):
        # the benchmark's float requests, about 2**-30 to 2**40, and wider
        rng = random.Random(5)
        values = [F(rng.randint(1, 10 ** 6), rng.randint(1, 1000))
                  * F(2) ** rng.randint(-60, 60) for _ in range(1500)]
        base = fprof.base
        for e in range(-25, 26):
            power = F(base) ** e
            values += [power, power + F(1, 10 ** 9), power - F(1, 10 ** 9),
                       power * F(1001, 1000), power * F(999, 1000)]
        for q in values:
            if q <= 0:
                continue
            assert _outcome(encode_rational, q, fprof) == \
                _outcome(reference_encode, q, fprof), q

    def test_demo_grid_exhaustive(self, prof):
        # every demo mantissa at the extreme and the middle exponents,
        # and a tenth of a unit off
        d = prof.fix.delta_den
        lo, hi = prof.exp_min, prof.exp_max
        for count in range(d + 1, prof.fix.sup_count // prof.base):
            for e in (lo, lo + 1, -1, 0, 1, hi - 1, hi):
                q = F(count, d) * F(2) ** e
                for dq in (0, F(1, 10 * d) * F(2) ** e):
                    assert _outcome(encode_rational, q + dq, prof) == \
                        _outcome(reference_encode, q + dq, prof), q + dq


class TestEncodeIsComposed:
    """encode_rational builds its value without calling compose; each
    encoding still passes compose's grid, mantissa and exponent checks."""

    @pytest.mark.parametrize("fprof", [
        FloatProfile(2, FixProfile(100, 1600, 1600), F(65536), F(65536)),
        FloatProfile(2, WIDE_FIX, F(65536), F(65536)),
    ], ids=["demo", "wide"])
    def test_mantissa_and_exponent_extremes(self, fprof):
        d, base = fprof.fix.delta_den, fprof.base
        # mantissas just above 1 (one rounding onto 1 and nudged up), in
        # the middle, just below base (rounding up to it) and at base
        mantissas = [1 + F(1, 10 * d), 1 + F(1, 2 * d), 1 + F(1, d),
                     F(3, 2), base - F(1, 10 * d), F(base)]
        seen = set()
        for e in (fprof.exp_min, fprof.exp_min + 1, 0,
                  fprof.exp_max - 1, fprof.exp_max):
            for m in mantissas:
                enc, _ = encode_rational(m * F(base) ** e, fprof)
                assert enc == compose(enc.man, enc.exp, fprof), (m, e)
                seen.add((enc.man.count, enc.exp))
        for e in (fprof.exp_min, fprof.exp_max):
            assert (d + 1, e) in seen and (base * d, e) in seen
