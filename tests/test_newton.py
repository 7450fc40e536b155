import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certisqrt.errors import (
    DomainError,
    EpsTooSmall,
    IterationBudgetError,
    MantissaRange,
    NoFeasibleEps,
    SeedContractError,
)
from certisqrt.exact import (
    Ordering,
    cmp_sqrt,
    sqrt_abs_err_lt,
    sqrt_enclosure,
    within_of_sqrt,
)
from certisqrt import lut
from certisqrt.fixarith import FixProfile
from certisqrt.floatmodel import (
    FloatProfile,
    FloatVal,
    compose,
    encode_rational,
    value_of,
)
from certisqrt.lut import build_root_table
from certisqrt.newton import (
    derive_eps_for_ulp,
    fix_bound,
    fix_sqr,
    float_bound,
    flt_sqr,
    fsqr_exact,
    isqr_exact,
    min_iterations_for_step,
    min_legal_iterations,
    mix_sqr,
    sqr_exact,
)
from certisqrt.verify import iteration_cap

ys = st.fractions(min_value=F(1), max_value=F(10 ** 4), max_denominator=100)
epss = st.fractions(min_value=F(1, 1000), max_value=F(1),
                    max_denominator=1000)


class TestSqrExact:
    def test_trivial_one(self):
        x, trace = sqr_exact(F(1), F(1, 10))
        assert x == 1
        assert len(trace.steps) == 1
        assert trace.steps[0].correction == 0

    def test_four_coarse(self):
        x, trace = sqr_exact(F(4), F(1, 2))
        assert x == F(41, 20)
        assert [s.correction for s in trace.steps] == \
            [F(-3, 2), F(-9, 20), F(-81, 1640)]
        # the last recorded correction met the exit test
        assert abs(trace.steps[-1].correction) < F(1, 4)
        assert trace.steps[-1].x_after == trace.steps[-1].x_before

    def test_two_fine(self):
        x, trace = sqr_exact(F(2), F(1, 100))
        assert x == F(17, 12)
        assert [s.correction for s in trace.steps] == \
            [F(-1, 2), F(-1, 12), F(-1, 408)]

    def test_c_style_applies_final_correction(self):
        x_flow, _ = sqr_exact(F(4), F(1, 2))
        x_c, trace = sqr_exact(F(4), F(1, 2), c_style=True)
        assert x_c == x_flow + F(-81, 1640)
        assert trace.steps[-1].x_after != trace.steps[-1].x_before

    def test_preconditions(self):
        with pytest.raises(DomainError):
            sqr_exact(F(1, 2), F(1, 10))
        with pytest.raises(DomainError):
            sqr_exact(F(2), F(0))

    @given(ys, epss)
    @settings(max_examples=60, deadline=None)
    def test_postcondition_and_invariant(self, y, eps):
        x, trace = sqr_exact(y, eps)
        assert within_of_sqrt(x, y, eps)
        for s in trace.steps:
            assert cmp_sqrt(s.x_before, y) is not Ordering.LESS
            assert s.x_before <= y

    @given(ys.filter(lambda v: v > 1), epss)
    @settings(max_examples=60, deadline=None)
    def test_halving(self, y, eps):
        _, trace = sqr_exact(y, eps)
        ds = [s.correction for s in trace.steps]
        for prev, cur in zip(ds, ds[1:]):
            assert 2 * abs(cur) < abs(prev)


class TestIsqrExact:
    def test_exact_seed_exits_immediately(self):
        x, trace = isqr_exact(F(4), F(1, 10), lambda _y: F(2))
        assert x == 2
        assert len(trace.steps) == 1

    def test_table_like_seed(self):
        x, trace = isqr_exact(F(3), F(1, 10), lambda _y: F(174, 100))
        assert x == F(174, 100)  # AD ~ 0.0079 < 0.05 at entry
        assert len(trace.steps) == 1

    def test_degenerate_seed_y(self):
        x, trace = isqr_exact(F(3), F(1, 10), lambda y: y)
        assert x == F(7, 4)
        applied = [s.correction for s in trace.steps if
                   s.x_after != s.x_before]
        assert applied == [F(1), F(1, 4)]

    def test_seed_contract_enforced(self):
        with pytest.raises(SeedContractError):
            isqr_exact(F(3), F(1, 10), lambda _y: F(1))      # below sqrt
        with pytest.raises(SeedContractError):
            isqr_exact(F(3), F(1, 10), lambda _y: F(4))      # above y

    def test_preconditions(self):
        with pytest.raises(DomainError):
            isqr_exact(F(1), F(1, 10), lambda y: y)

    @given(ys.filter(lambda v: v > 1), epss)
    @settings(max_examples=40, deadline=None)
    def test_postcondition_with_identity_seed(self, y, eps):
        x, _ = isqr_exact(y, eps, lambda u: u)
        assert within_of_sqrt(x, y, eps)

    @given(ys.filter(lambda v: v > 1), epss)
    @settings(max_examples=40, deadline=None)
    def test_iteration_cap_with_tight_seed(self, y, eps):
        # applied corrections never exceed the smallest n with
        # 2**(n-1) * eps >= seed - sqrt(y)
        seed_val = min(sqrt_enclosure(y, 8).hi, y)
        cap = min_legal_iterations(y, eps, seed_val)
        _, trace = isqr_exact(y, eps, lambda _u: seed_val)
        applied = sum(1 for s in trace.steps if s.x_after != s.x_before)
        assert applied <= cap


class TestMinIterations:
    @pytest.mark.parametrize("stp,eps,expected", [
        (25, 25, 1),    # stp = eps
        (100, 1, 8),    # ratio 100 -> 2**7
    ])
    def test_demo_grid(self, demo_profile, stp, eps, expected):
        assert min_iterations_for_step(demo_profile.val(stp),
                                       demo_profile.val(eps)) == expected

    def test_power_of_two_ratio(self):
        from certisqrt.fixarith import FixProfile
        prof = FixProfile(6400, 16 * 6400, 16 * 6400)
        # 1/4 over 1/64: ratio 16 -> n = 5
        assert min_iterations_for_step(prof.val(1600), prof.val(100)) == 5

    def test_ratio_25(self, demo_profile):
        assert min_iterations_for_step(demo_profile.val(25),
                                       demo_profile.val(1)) == 6

    def test_domain(self, demo_profile):
        with pytest.raises(DomainError):
            min_iterations_for_step(demo_profile.val(25),
                                    demo_profile.val(0))
        with pytest.raises(DomainError):
            min_iterations_for_step(demo_profile.val(1),
                                    demo_profile.val(25))

    def test_satisfies_defining_inequality(self, demo_profile):
        for stp_c, eps_c in [(25, 25), (50, 25), (100, 25), (100, 4),
                             (1600, 1)]:
            stp, eps = demo_profile.val(stp_c), demo_profile.val(eps_c)
            n = min_iterations_for_step(stp, eps)
            assert 2 ** (n - 1) * eps.value >= stp.value
            assert n == 1 or 2 ** (n - 2) * eps.value < stp.value


class TestFsqrExact:
    def test_zero_iterations_with_exact_seed(self):
        x, trace = fsqr_exact(F(4), F(1, 4), lambda _y: F(2), 0)
        assert x == 2 and trace.steps == ()

    def test_single_step(self):
        x, _ = fsqr_exact(F(3), F(1, 4), lambda _y: F(174, 100), 1)
        assert x == F(5023, 2900)
        assert within_of_sqrt(x, F(3), F(1, 8))

    def test_seed_three_halves(self):
        x, _ = fsqr_exact(F(2), F(1, 8), lambda _y: F(3, 2), 1)
        assert x == F(17, 12)
        assert within_of_sqrt(x, F(2), F(1, 16))

    def test_iteration_budget_enforced(self):
        # seed 3/2 over sqrt(2): gap ~ 0.0858 > eps/2 = 1/16 at n = 0
        with pytest.raises(IterationBudgetError):
            fsqr_exact(F(2), F(1, 8), lambda _y: F(3, 2), 0)

    def test_planned_steps_recorded(self):
        _, trace = fsqr_exact(F(3), F(1, 4), lambda y: y, 4)
        assert trace.n_planned == 4 and len(trace.steps) == 4

    @given(ys.filter(lambda v: v > 1), epss, st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_more_iterations_never_worse(self, y, eps, extra):
        # tight seed keeps the legal minimum small, as table seeds do
        seed_val = min(sqrt_enclosure(y, 8).hi, y)
        seed = lambda _u: seed_val  # noqa: E731
        n0 = min_legal_iterations(y, eps, seed_val)
        x_min, _ = fsqr_exact(y, eps, seed, n0)
        x_more, _ = fsqr_exact(y, eps, seed, n0 + extra)
        # exact arithmetic: error is monotone in the iteration count;
        # err(a) > err(b) iff (a - b)(a + b - 2 sqrt(y)) > 0
        a, b = x_more, x_min
        if a != b:
            mid = (a + b) / 2
            sign = 1 if a > b else -1
            mid_cmp = cmp_sqrt(mid, y)
            prod_positive = (sign > 0) == (mid_cmp is Ordering.GREATER)
            assert mid_cmp is Ordering.EQUAL or not prod_positive

    @given(ys.filter(lambda v: v > 1), epss)
    @settings(max_examples=40, deadline=None)
    def test_progress_bound(self, y, eps):
        seed_val = min(sqrt_enclosure(y, 8).hi, y)
        n = min_legal_iterations(y, eps, seed_val)
        _, trace = fsqr_exact(y, eps, lambda _u: seed_val, n)
        seq = [trace.seed] + [s.x_after for s in trace.steps]
        for k, xk in enumerate(seq):
            if k == 0:
                assert xk == seed_val
                continue
            shrink = 1 - F(1, 2 ** k)
            lhs = (xk - seed_val * F(1, 2 ** k)) / shrink
            assert cmp_sqrt(lhs, y) is not Ordering.GREATER


class TestMinLegalIterations:
    def test_exact_seed_needs_none(self):
        assert min_legal_iterations(F(4), F(1, 4), F(2)) == 0

    def test_defining_inequality(self):
        for y, eps, s in [(F(2), F(1, 8), F(3, 2)), (F(3), F(1, 4), F(3)),
                          (F(50), F(1, 100), F(50))]:
            n = min_legal_iterations(y, eps, s)
            assert cmp_sqrt(s - eps * F(2) ** (n - 1), y) \
                is not Ordering.GREATER
            if n > 0:
                assert cmp_sqrt(s - eps * F(2) ** (n - 2), y) \
                    is Ordering.GREATER


def former_min_legal_iterations(y, eps, seed_value):
    """The linear search min_legal_iterations used first."""
    n = 0
    while cmp_sqrt(seed_value - eps * F(2) ** (n - 1), y) \
            is Ordering.GREATER:
        n += 1
    return n


class TestLegalCountSearch:
    """iteration_cap and min_legal_iterations share one search: the cap
    is the legal count of a run seeded with y."""

    def test_agree_on_the_corpus(self, sqr_corpus):
        runs, _ = sqr_corpus
        for y, eps, *_ in runs:
            assert iteration_cap(y, eps) == min_legal_iterations(y, eps, y)

    @given(ys.filter(lambda v: v > 1), epss)
    @settings(max_examples=200, deadline=None)
    def test_agree(self, y, eps):
        assert iteration_cap(y, eps) == min_legal_iterations(y, eps, y) \
            == former_min_legal_iterations(y, eps, y)

    @given(ys.filter(lambda v: v > 1), epss, st.integers(0, 2 ** 20))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_linear_search(self, y, eps, lift):
        # any seed in [sqrt(y), y]
        lo = sqrt_enclosure(y, 16).hi
        seed = min(y, lo + (y - lo) * F(lift, 2 ** 20))
        assert min_legal_iterations(y, eps, seed) == \
            former_min_legal_iterations(y, eps, seed)

    def test_fsqr_exact_legality_is_the_same_rule(self):
        y, eps = F(50), F(1, 100)
        n = min_legal_iterations(y, eps, y)
        fsqr_exact(y, eps, lambda u: u, n)
        with pytest.raises(IterationBudgetError):
            fsqr_exact(y, eps, lambda u: u, n - 1)


class TestAccuracyContracts:
    def test_fix_bound(self, demo_profile):
        assert fix_bound(demo_profile.val(25), 3) == F(1, 8) + F(3, 100)
        assert fix_bound(demo_profile.val(8), 0) == F(1, 25)

    @pytest.mark.parametrize("exp,c1,c2", [
        (0, F(1, 4), F(1, 400)), (1, F(1, 4), F(1, 400)),
        (2, F(1, 2), F(1, 200)), (-1, F(1, 8), F(1, 800)),
        (-4, F(1, 16), F(1, 1600))])
    def test_float_bound(self, demo_eps, demo_float_profile, exp, c1, c2):
        assert float_bound(demo_eps, exp, demo_float_profile) == (c1, c2)

    def test_float_bound_at_exponent_zero(self, demo_float_profile):
        # c2 = delta/(2*base), the radical coefficient derive_eps_for_ulp
        # subtracts; c1 is eps itself
        fix = demo_float_profile.fix
        for count in (1, 5, 25):
            c1, c2 = float_bound(fix.val(count), 0, demo_float_profile)
            assert (c1, c2) == (F(count, 100), F(1, 2 * 100 * 2))

    @pytest.mark.parametrize("stp", [25, 50, 100, 400, 1600])
    def test_mix_least_eps_count(self, demo_profile, stp):
        # the former rule: eps count >= 2*(2 + ceil(log2(stp/eps)))
        table = build_root_table(demo_profile, demo_profile.val(stp))
        for eps in (c for c in range(1, stp + 1) if stp % c == 0):
            need = 2 * (2 + math.ceil(math.log2(stp / eps)))
            y = demo_profile.val(300)
            if eps < need:
                with pytest.raises(EpsTooSmall):
                    mix_sqr(y, demo_profile.val(eps), table)
            else:
                mix_sqr(y, demo_profile.val(eps), table)


class TestFixSqr:
    def test_three(self, demo_profile, demo_table, demo_eps):
        x, trace = fix_sqr(demo_profile.val(300), demo_eps, demo_table, 1)
        assert x.count == 173
        assert trace.seed.count == 174
        assert within_of_sqrt(x.value, F(3), F(1, 8) + F(1, 100), strict=True)

    def test_exact_square_is_fixed_point(self, demo_profile, demo_table,
                                         demo_eps):
        for n in (1, 2, 5):
            x, _ = fix_sqr(demo_profile.val(400), demo_eps, demo_table, n)
            assert x.count == 200

    def test_two(self, demo_profile, demo_table, demo_eps):
        x, trace = fix_sqr(demo_profile.val(200), demo_eps, demo_table, 1)
        assert trace.seed.count == 142
        assert x.count == 141

    def test_preconditions(self, demo_profile, demo_table, demo_eps):
        with pytest.raises(DomainError):
            fix_sqr(demo_profile.val(50), demo_eps, demo_table, 1)
        with pytest.raises(DomainError):
            fix_sqr(demo_profile.val(900), demo_eps, demo_table, 1)
        with pytest.raises(IterationBudgetError):
            fix_sqr(demo_profile.val(300), demo_profile.val(1),
                    demo_table, 0)

    def test_trace_shape(self, demo_profile, demo_table, demo_eps):
        _, trace = fix_sqr(demo_profile.val(300), demo_eps, demo_table, 4)
        assert trace.n_planned == 4
        assert len(trace.steps) == 4
        assert trace.algorithm == "fix_sqr"


class TestMixSqr:
    def test_three(self, demo_profile, demo_table, demo_eps):
        x, trace = mix_sqr(demo_profile.val(300), demo_eps, demo_table)
        assert x.count == 173
        assert trace.algorithm == "mix_sqr"
        assert trace.n_planned == 1
        assert within_of_sqrt(x.value, F(3), demo_eps.value, strict=True)

    def test_exact_square(self, demo_profile, demo_table, demo_eps):
        x, _ = mix_sqr(demo_profile.val(400), demo_eps, demo_table)
        assert x.count == 200

    def test_eps_too_small(self, demo_profile, demo_table):
        # 2*delta*(2 + ceil(log2(25))) = 0.14 > 0.01
        with pytest.raises(EpsTooSmall):
            mix_sqr(demo_profile.val(300), demo_profile.val(1), demo_table)

    def test_bound_exhaustive_small_slice(self, demo_profile, demo_table,
                                          demo_eps):
        for count in range(101, 220):
            x, _ = mix_sqr(demo_profile.val(count), demo_eps, demo_table)
            assert within_of_sqrt(x.value, F(count, 100), demo_eps.value,
                                  strict=True)


class TestFltSqr:
    def test_zero(self, demo_eps, demo_float_profile, demo_table):
        b, trace = flt_sqr(FloatVal.zero(), demo_eps, demo_float_profile,
                           demo_table)
        assert b.is_zero
        assert trace.notes.get("zero") is True

    def test_twelve(self, demo_profile, demo_eps, demo_float_profile,
                    demo_table):
        a = compose(demo_profile.val(150), 3, demo_float_profile)
        b, trace = flt_sqr(a, demo_eps, demo_float_profile, demo_table)
        assert b.man.count == 173 and b.exp == 1
        assert value_of(b) == F(173, 50)
        # |b - sqrt(12)| < (eps + delta/(2 sqrt(2))) * 2
        assert sqrt_abs_err_lt(value_of(b), F(12), F(1, 2), F(1, 200), F(2))

    def test_even_exponent_perfect_square(self, demo_profile, demo_eps,
                                          demo_float_profile, demo_table):
        a = compose(demo_profile.val(400), 0, demo_float_profile)
        b, _ = flt_sqr(a, demo_eps, demo_float_profile, demo_table)
        assert b.man.count == 200 and b.exp == 0

    def test_odd_negative_exponent(self, demo_profile, demo_eps,
                                   demo_float_profile, demo_table):
        a = compose(demo_profile.val(150), -3, demo_float_profile)
        b, _ = flt_sqr(a, demo_eps, demo_float_profile, demo_table)
        assert b.exp == -2  # floor(-3/2)
        half = a.exp // 2
        c1 = demo_eps.value * F(2) ** half
        c2 = (demo_profile.delta / 2) * F(2) ** (half - 1)
        assert sqrt_abs_err_lt(value_of(b), value_of(a), c1, c2, F(2))

    def test_mantissa_collapse_raises(self, demo_profile, demo_eps,
                                      demo_float_profile, demo_table):
        # radicand 1.01 iterates onto exactly 1.00, which cannot be a
        # mantissa; the documented error surfaces instead of a bad value
        a = compose(demo_profile.val(101), 0, demo_float_profile)
        with pytest.raises(MantissaRange):
            flt_sqr(a, demo_eps, demo_float_profile, demo_table)

    def test_oversized_radicand_rejected(self, demo_profile, demo_eps,
                                         demo_float_profile, demo_table):
        # odd exponent doubles the mantissa: 2 * 5.0 = 10 > sup/2
        a = compose(demo_profile.val(500), 1, demo_float_profile)
        with pytest.raises(DomainError):
            flt_sqr(a, demo_eps, demo_float_profile, demo_table)


class TestDeriveEps:
    def test_unit_ulp_demo(self, demo_stp, demo_float_profile):
        eps = derive_eps_for_ulp(F(1), demo_float_profile, demo_stp)
        assert eps.count == 25
        # feasibility: eps + delta/(2 sqrt(2)) < 1/2, checked exactly
        from certisqrt.exact import decide_radical_lt
        assert decide_radical_lt(eps.value, F(1, 2), F(-1, 400), F(2))

    def test_ulp_at_grid_step_infeasible(self, demo_stp, demo_float_profile,
                                         demo_profile):
        with pytest.raises(NoFeasibleEps):
            derive_eps_for_ulp(demo_profile.delta, demo_float_profile,
                               demo_stp)

    def test_huge_ulp_still_bounded_by_step(self, demo_stp,
                                            demo_float_profile):
        eps = derive_eps_for_ulp(F(10 ** 6), demo_float_profile, demo_stp)
        assert demo_stp.count % eps.count == 0
        assert eps.count <= demo_stp.count

    def test_tight_ulp_infeasible_on_demo(self, demo_stp,
                                          demo_float_profile):
        # eps counts 5 and 1 satisfy the half-ulp margin but fail the
        # iteration-budget precondition; 25 fails the margin
        with pytest.raises(NoFeasibleEps):
            derive_eps_for_ulp(F(1, 4), demo_float_profile, demo_stp)

    def test_result_is_largest_feasible(self, demo_profile,
                                        demo_float_profile):
        stp = demo_profile.val(20)
        eps = derive_eps_for_ulp(F(3, 10), demo_float_profile, stp)
        assert eps.count == 10  # 20 fails the margin, 10 passes everything
        from certisqrt.exact import decide_radical_lt
        for count in (20,):
            assert not decide_radical_lt(F(count, 100), F(3, 20),
                                         F(-1, 400), F(2))


class TestValidateOnce:
    """The profile, step and table rules are decided when a table and a
    profile are made and first used; requests rely on them."""

    def test_requests_do_not_recheck(self, monkeypatch):
        def counting(fn, counter, key):
            def wrapper(*args, **kwargs):
                counter[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        decided = Counter()
        for cls in (FixProfile, FloatProfile):
            prop = cls.__dict__["rule_checks"]
            monkeypatch.setattr(prop, "func",
                                counting(prop.func, decided, cls.__name__))
        fix = FixProfile(100, 1600, 1600)  # fresh: nothing decided yet
        fprof = FloatProfile(2, fix, F(65536), F(65536))
        table = build_root_table(fix, fix.val(25))
        eps = fix.val(25)

        calls = Counter()
        monkeypatch.setattr(lut, "validate_step",
                            counting(lut.validate_step, calls, "step"))
        monkeypatch.setattr(FixProfile, "validate",
                            counting(FixProfile.validate, calls, "profile"))
        for count in range(101, 801, 4):
            mix_sqr(fix.val(count), eps, table)
        for count in range(110, 800, 4):
            a, _ = encode_rational(F(count, 100) * 2 ** (count % 7), fprof)
            flt_sqr(a, eps, fprof, table)
        assert calls == Counter()
        assert decided == Counter(FixProfile=1, FloatProfile=1)
