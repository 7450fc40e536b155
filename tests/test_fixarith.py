from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from certisqrt.errors import (
    DivisionByZero,
    DomainError,
    ProfileMismatch,
    RangeOverflow,
)
from certisqrt.fixarith import (
    FixProfile,
    FixVal,
    check_profile_assumptions,
    fix_add,
    fix_div,
    fix_mul,
    fix_sub,
    quantize,
    round_half_even,
)


@pytest.fixture
def p100():
    return FixProfile(100, 1600, 1600)


@pytest.fixture
def p10():
    return FixProfile(10, 40, 40)


class TestProfile:
    def test_values(self, p100):
        assert p100.delta == F(1, 100)
        assert p100.sup_value == 16
        assert p100.inf_value == 16

    def test_validate_rejects_half_step(self):
        prof = FixProfile(2, 100, 100)
        with pytest.raises(DomainError):
            prof.validate()

    def test_validate_rejects_small_bounds(self):
        with pytest.raises(DomainError):
            FixProfile(100, 200, 1600).validate()

    def test_nonpositive_parameters(self):
        with pytest.raises(DomainError):
            FixProfile(0, 1, 1)


class TestRoundHalfEven:
    @pytest.mark.parametrize("num,den,expected", [
        (5, 2, 2),     # 2.5 -> even
        (7, 2, 4),     # 3.5 -> even
        (-5, 2, -2),   # -2.5 -> even
        (33, 10, 3),
        (37, 10, 4),
    ])
    def test_examples(self, num, den, expected):
        assert round_half_even(num, den) == expected

    @given(st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6))
    def test_nearest(self, num, den):
        r = round_half_even(num, den)
        assert abs(F(num, den) - r) <= F(1, 2)


class TestQuantize:
    def test_grid_point_exact(self, p100):
        assert quantize(F(3, 2), p100).count == 150

    def test_third_nearest(self, p100):
        assert quantize(F(1, 3), p100).count == 33

    def test_up_down(self, p100):
        assert quantize(F(1, 3), p100, "up").count == 34
        assert quantize(F(1, 3), p100, "down").count == 33

    def test_overflow(self, p100):
        with pytest.raises(RangeOverflow):
            quantize(F(10 ** 9), p100)

    def test_bad_mode(self, p100):
        with pytest.raises(DomainError):
            quantize(F(1), p100, "sideways")


class TestAddSub:
    def test_exact(self, p100):
        s = fix_add(p100.val(87), p100.val(86))
        assert s.count == 173

    def test_identity(self, p100):
        x = p100.val(145)
        assert fix_add(x, p100.val(0)).count == x.count

    def test_overflow(self, p100):
        with pytest.raises(RangeOverflow):
            fix_add(p100.val(1600), p100.val(1))

    def test_sub(self, p100):
        assert fix_sub(p100.val(100), p100.val(250)).count == -150

    def test_profile_mismatch(self, p100, p10):
        with pytest.raises(ProfileMismatch):
            fix_add(p100.val(1), p10.val(1))


class TestMul:
    def test_rounded(self, p100):
        # 1.15 * 1.15 = 1.3225 -> 1.32
        assert fix_mul(p100.val(115), p100.val(115)).count == 132

    def test_tie_to_even(self, p10):
        # 0.5 * 0.5 = 0.25, midpoint between 0.2 and 0.3 -> even count 2
        assert fix_mul(p10.val(5), p10.val(5)).count == 2

    def test_exact_integers(self, p100):
        assert fix_mul(p100.from_int(2), p100.from_int(3)).value == 6

    def test_overflow_on_exact_product(self, p100):
        with pytest.raises(RangeOverflow):
            fix_mul(p100.val(500), p100.val(500))


class TestDiv:
    def test_rounded(self, p100):
        # 3.00 / 3.48 = 0.862... -> 0.86
        assert fix_div(p100.val(300), p100.val(348)).count == 86

    def test_exact(self, p100):
        assert fix_div(p100.from_int(6), p100.from_int(2)).value == 3

    def test_zero_divisor(self, p100):
        with pytest.raises(DivisionByZero):
            fix_div(p100.val(1), p100.val(0))

    def test_negative_divisor_rounding(self, p10):
        # 0.5 / -0.3 = -1.666... -> -1.7
        assert fix_div(p10.val(5), p10.val(-3)).count == -17

    def test_overflow(self, p100):
        with pytest.raises(RangeOverflow):
            fix_div(p100.val(1600), p100.val(1))

    @pytest.mark.parametrize("profile", [FixProfile(10, 40, 40),
                                         FixProfile(10, 30, 50)],
                             ids=["micro", "asymmetric"])
    def test_range_check_matches_fraction_reference(self, profile):
        def reference(x, y):
            # the range check written over Fraction, as the reference
            exact = F(x.count, y.count)
            if not -profile.inf_value <= exact <= profile.sup_value:
                raise RangeOverflow(f"{x} / {y}")
            num, den = x.count * profile.delta_den, y.count
            if den < 0:
                num, den = -num, -den
            return round_half_even(num, den)

        boundaries = {profile.sup_value, -profile.sup_value,
                      -profile.inf_value}
        seen = set()
        counts = range(-profile.inf_count, profile.sup_count + 1)
        for nx in counts:
            for ny in counts:
                if ny == 0:
                    continue
                x, y = profile.val(nx), profile.val(ny)
                if F(nx, ny) in boundaries:
                    seen.add(F(nx, ny))
                try:
                    want = reference(x, y)
                except RangeOverflow:
                    with pytest.raises(RangeOverflow):
                        fix_div(x, y)
                else:
                    assert fix_div(x, y).count == want, (nx, ny)
        assert seen == boundaries


count_strategy = st.integers(min_value=-40, max_value=40)


class TestContracts:
    @given(count_strategy, count_strategy)
    def test_mul_rounding_bound(self, nx, ny):
        prof = FixProfile(10, 40, 40)
        x, y = FixVal(nx, prof), FixVal(ny, prof)
        exact = x.value * y.value
        if not -prof.inf_value <= exact <= prof.sup_value:
            return
        got = fix_mul(x, y)
        assert abs(got.value - exact) <= prof.delta / 2
        if (nx * ny) % 10 == 0:
            assert got.value == exact

    @given(count_strategy, count_strategy.filter(lambda n: n != 0))
    def test_div_rounding_bound(self, nx, ny):
        prof = FixProfile(10, 40, 40)
        x, y = FixVal(nx, prof), FixVal(ny, prof)
        exact = F(nx, ny)
        if not -prof.inf_value <= exact <= prof.sup_value:
            return
        got = fix_div(x, y)
        assert abs(got.value - exact) <= prof.delta / 2
        if (nx * 10) % ny == 0:
            assert got.value == exact


class TestProfileAssumptions:
    def test_micro_exhaustive_passes(self, p10):
        report = check_profile_assumptions(p10, budget="exhaustive")
        assert report.overall

    def test_half_step_fails_delta_rule(self):
        report = check_profile_assumptions(FixProfile(2, 100, 100), budget=16)
        failed_rules = {c.rule for c in report.failures()}
        assert "profile.delta-range" in failed_rules

    def test_small_inf_fails(self):
        report = check_profile_assumptions(FixProfile(100, 200, 1600),
                                           budget=16)
        assert {c.rule for c in report.failures()} == {"profile.inf-min"}

    def test_sampled_deterministic(self, p100):
        a = check_profile_assumptions(p100, budget=512, seed=3)
        b = check_profile_assumptions(p100, budget=512, seed=3)
        assert a.as_dict() == b.as_dict()
        assert a.overall


def test_fixval_str(p100):
    assert str(p100.val(173)) == "173/100"
