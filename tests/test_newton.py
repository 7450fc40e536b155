import copy
import hashlib
import math
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction as F
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certisqrt.errors import (
    CertisqrtError,
    DivisionByZero,
    DomainError,
    EpsTooSmall,
    InternalInvariantError,
    IterationBudgetError,
    NoFeasibleEps,
    ProfileMismatch,
    RangeOverflow,
    ResourceLimit,
    SeedContractError,
)
from certisqrt.exact import (
    cmp_sqrt,
    encode_int,
    fraction_from_coprime,
    rat_str,
    sqrt_abs_err_lt,
    sqrt_enclosure,
    within_of_sqrt,
)
from certisqrt import lut, newton
from certisqrt.fixarith import FixProfile, FixVal
from certisqrt.floatmodel import (
    FloatProfile,
    FloatVal,
    compose,
    encode_rational,
    value_of,
)
from certisqrt.lut import build_root_table
from certisqrt.newton import (
    Correction,
    GridTrace,
    Trace,
    TraceStep,
    derive_eps_for_ulp,
    fix_bound,
    fix_sqr,
    float_bound,
    flt_sqr,
    fsqr_exact,
    grid_inputs,
    isqr_exact,
    min_iterations_for_step,
    min_legal_iterations,
    mix_sqr,
    sqr_exact,
)
from certisqrt.verify import iteration_cap, sample_rationals, sqrt_verdict

ys = st.fractions(min_value=F(1), max_value=F(10 ** 4), max_denominator=100)
epss = st.fractions(min_value=F(1, 1000), max_value=F(1),
                    max_denominator=1000)


def _values(trace):
    """Each pass's correction of an exact run, as a Fraction."""
    return [trace.correction(k) for k in range(len(trace.corrections))]


def _iterates(trace):
    """Each iterate of an exact run, as the Fraction of its pair."""
    return tuple(fraction_from_coprime(p, q) for p, q in trace.pairs)


class TestSqrExact:
    def test_trivial_one(self):
        x, trace = sqr_exact(F(1), F(1, 10))
        assert x == 1
        assert len(trace.corrections) == 1
        assert trace.correction(0) == 0

    def test_four_coarse(self):
        x, trace = sqr_exact(F(4), F(1, 2))
        assert x == F(41, 20)
        assert _values(trace) == [F(-3, 2), F(-9, 20), F(-81, 1640)]
        # the last recorded correction met the exit test and added no
        # iterate
        assert abs(trace.correction(-1)) < F(1, 4)
        assert len(trace.pairs) == len(trace.corrections)

    def test_two_fine(self):
        x, trace = sqr_exact(F(2), F(1, 100))
        assert x == F(17, 12)
        assert _values(trace) == [F(-1, 2), F(-1, 12), F(-1, 408)]

    def test_exit_tie_is_applied(self):
        # the first correction is exactly -eps/2: |d| < eps/2 fails there
        x, trace = sqr_exact(F(4), F(3))
        assert len(trace.corrections) == 2
        assert trace.correction(0) == -F(3) / 2
        assert trace.pairs == ((4, 1), (5, 2))
        assert x == F(5, 2) == fraction_from_coprime(*trace.pairs[-1])
        assert trace.correction(1) == F(-9, 20)

    def test_c_style_applies_final_correction(self):
        x_flow, _ = sqr_exact(F(4), F(1, 2))
        x_c, trace = sqr_exact(F(4), F(1, 2), c_style=True)
        assert x_c == x_flow + F(-81, 1640)
        # the exit pass added its iterate
        assert len(trace.pairs) == len(trace.corrections) + 1

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
        for x_k in _iterates(trace):
            assert cmp_sqrt(x_k, y) >= 0
            assert x_k <= y

    @given(ys.filter(lambda v: v > 1), epss)
    @settings(max_examples=60, deadline=None)
    def test_halving(self, y, eps):
        _, trace = sqr_exact(y, eps)
        ds = _values(trace)
        for prev, cur in zip(ds, ds[1:]):
            assert 2 * abs(cur) < abs(prev)


class TestIsqrExact:
    def test_exact_seed_exits_immediately(self):
        x, trace = isqr_exact(F(4), F(1, 10), F(2))
        assert x == 2
        assert len(trace.corrections) == 1

    def test_table_like_seed(self):
        x, trace = isqr_exact(F(3), F(1, 10), F(174, 100))
        assert x == F(174, 100)  # AD ~ 0.0079 < 0.05 at entry
        assert len(trace.corrections) == 1

    def test_degenerate_seed_y(self):
        x, trace = isqr_exact(F(3), F(1, 10), F(3))
        assert x == F(7, 4)
        # each pass but the exit added an iterate
        applied = _values(trace)[:len(trace.pairs) - 1]
        assert applied == [F(1), F(1, 4)]

    def test_seed_contract_enforced(self):
        with pytest.raises(SeedContractError):
            isqr_exact(F(3), F(1, 10), F(1))      # below sqrt
        with pytest.raises(SeedContractError):
            isqr_exact(F(3), F(1, 10), F(4))      # above y

    def test_preconditions(self):
        with pytest.raises(DomainError):
            isqr_exact(F(1), F(1, 10), F(1))

    @given(ys.filter(lambda v: v > 1), epss)
    @settings(max_examples=40, deadline=None)
    def test_postcondition_with_identity_seed(self, y, eps):
        x, _ = isqr_exact(y, eps, y)
        assert within_of_sqrt(x, y, eps)

    @given(ys.filter(lambda v: v > 1), epss)
    @settings(max_examples=40, deadline=None)
    def test_iteration_cap_with_tight_seed(self, y, eps):
        # applied corrections never exceed the smallest n with
        # 2**(n-1) * eps >= seed - sqrt(y)
        seed_val = min(sqrt_enclosure(y, 8).hi, y)
        cap = min_legal_iterations(y, eps, seed_val)
        _, trace = isqr_exact(y, eps, seed_val)
        applied = len(trace.pairs) - 1
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
        from certisqrt.fixarith import FixProfile, FixVal
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
        x, trace = fsqr_exact(F(4), F(1, 4), F(2), 0)
        assert x == 2 and trace.corrections == () and trace.pairs == ((2, 1),)

    def test_single_step(self):
        x, _ = fsqr_exact(F(3), F(1, 4), F(174, 100), 1)
        assert x == F(5023, 2900)
        assert within_of_sqrt(x, F(3), F(1, 8))

    def test_seed_three_halves(self):
        x, _ = fsqr_exact(F(2), F(1, 8), F(3, 2), 1)
        assert x == F(17, 12)
        assert within_of_sqrt(x, F(2), F(1, 16))

    def test_iteration_budget_enforced(self):
        # seed 3/2 over sqrt(2): gap ~ 0.0858 > eps/2 = 1/16 at n = 0
        with pytest.raises(IterationBudgetError):
            fsqr_exact(F(2), F(1, 8), F(3, 2), 0)

    def test_planned_steps_recorded(self):
        _, trace = fsqr_exact(F(3), F(1, 4), F(3), 4)
        assert len(trace.corrections) == 4 and len(trace.pairs) == 5

    @given(ys.filter(lambda v: v > 1), epss, st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_more_iterations_never_worse(self, y, eps, extra):
        # tight seed keeps the legal minimum small, as table seeds do
        seed_val = min(sqrt_enclosure(y, 8).hi, y)
        n0 = min_legal_iterations(y, eps, seed_val)
        x_min, _ = fsqr_exact(y, eps, seed_val, n0)
        x_more, _ = fsqr_exact(y, eps, seed_val, n0 + extra)
        # exact arithmetic: error is monotone in the iteration count;
        # err(a) > err(b) iff (a - b)(a + b - 2 sqrt(y)) > 0
        a, b = x_more, x_min
        if a != b:
            mid = (a + b) / 2
            sign = 1 if a > b else -1
            mid_cmp = cmp_sqrt(mid, y)
            prod_positive = (sign > 0) == (mid_cmp > 0)
            assert mid_cmp == 0 or not prod_positive

    @given(ys.filter(lambda v: v > 1), epss)
    @settings(max_examples=40, deadline=None)
    def test_progress_bound(self, y, eps):
        seed_val = min(sqrt_enclosure(y, 8).hi, y)
        n = min_legal_iterations(y, eps, seed_val)
        _, trace = fsqr_exact(y, eps, seed_val, n)
        seq = _iterates(trace)
        assert len(seq) == n + 1
        for k, xk in enumerate(seq):
            if k == 0:
                assert xk == seed_val
                continue
            shrink = 1 - F(1, 2 ** k)
            lhs = (xk - seed_val * F(1, 2 ** k)) / shrink
            assert cmp_sqrt(lhs, y) <= 0


class TestMinLegalIterations:
    def test_exact_seed_needs_none(self):
        assert min_legal_iterations(F(4), F(1, 4), F(2)) == 0

    def test_defining_inequality(self):
        for y, eps, s in [(F(2), F(1, 8), F(3, 2)), (F(3), F(1, 4), F(3)),
                          (F(50), F(1, 100), F(50))]:
            n = min_legal_iterations(y, eps, s)
            assert cmp_sqrt(s - eps * F(2) ** (n - 1), y) <= 0
            if n > 0:
                assert cmp_sqrt(s - eps * F(2) ** (n - 2), y) > 0


def _legal_by_fractions(y, eps, seed, n):
    """fsqr_exact's rule for n as a Fraction formula."""
    return cmp_sqrt(seed - eps * F(2) ** (n - 1), y) <= 0


class TestLegalCountOnIntegers:
    """newton._legal_count decides seed - eps*2**(n-1) <= sqrt(y) on
    integer parts as the Fraction formula does."""

    @given(ys, epss, st.integers(0, 80), st.integers(-4, 2 ** 20))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_formula(self, y, eps, n, lift):
        lo = sqrt_enclosure(y, 16).lo
        for seed in (y, lo, lo + eps * lift, lo + eps * F(lift, 2 ** 20)):
            assert newton._legal_count(y, eps, seed, n) == \
                _legal_by_fractions(y, eps, seed, n)

    @given(st.integers(1, 300), st.integers(1, 30), epss,
           st.integers(0, 80))
    @example(1, 1, F(1, 2), 0)  # a fixed tie: no search for one to shrink
    @settings(max_examples=300, deadline=None)
    def test_at_and_next_to_the_root(self, top, bottom, eps, n):
        """y a square: a seed exactly at the root, on the rule's boundary
        (seed - eps*2**(n-1) = sqrt(y)), and one unit of eps either side
        of each."""
        root = F(top, bottom)
        y = root * root
        edge = root + eps * F(2) ** (n - 1)
        for seed in (root, root - eps, root + eps, edge, edge - eps,
                     edge + eps):
            assert newton._legal_count(y, eps, seed, n) == \
                _legal_by_fractions(y, eps, seed, n)
        assert newton._legal_count(y, eps, edge, n)
        assert not newton._legal_count(y, eps, edge + eps, n)

    @pytest.mark.parametrize("n", [0, 1, 2, 80])
    def test_int_inputs(self, n):
        for y, eps, seed in [(2, 1, 3), (4, 1, 2), (F(9, 4), 1, 7),
                             (10 ** 6, F(1, 3), 10 ** 6)]:
            assert newton._legal_count(y, eps, seed, n) == \
                _legal_by_fractions(F(y), F(eps), F(seed), n)

    def test_builds_no_fraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction was built")

        y, eps, seed = F(26066, 3), F(1, 1000), F(26066, 3)
        want = [_legal_by_fractions(y, eps, seed, n) for n in range(30)]
        assert want.index(True) == 25
        monkeypatch.setattr(F, "__new__", refuse)
        assert [newton._legal_count(y, eps, seed, n)
                for n in range(30)] == want

    def test_negative_radicand_refused(self):
        for y in (F(-1), F(-3, 7)):
            for seed in (F(1), F(-2)):
                with pytest.raises(DomainError) as exc:
                    min_legal_iterations(y, F(1, 10), seed)
                assert str(exc.value) == \
                    f"radicand must be >= 0, got {y}"


def former_min_legal_iterations(y, eps, seed_value):
    """The linear search min_legal_iterations used first."""
    n = 0
    while cmp_sqrt(seed_value - eps * F(2) ** (n - 1), y) > 0:
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
        fsqr_exact(y, eps, y, n)
        with pytest.raises(IterationBudgetError):
            fsqr_exact(y, eps, y, n - 1)


class TestAccuracyContracts:
    def test_fix_bound(self, demo_profile):
        assert fix_bound(demo_profile.val(25), 3) == F(1, 8) + F(3, 100)
        assert fix_bound(demo_profile.val(8), 0) == F(1, 25)

    @pytest.mark.parametrize("exp,c1,c2", [
        (0, F(1, 4), F(1, 400)), (1, F(1, 4), F(1, 400)),
        (2, F(1, 2), F(1, 200)), (-1, F(1, 8), F(1, 800)),
        (-4, F(1, 16), F(1, 1600))])
    def test_float_bound(self, demo_eps, exp, c1, c2):
        assert float_bound(demo_eps, exp, 2) == (c1, c2)

    def test_float_bound_at_exponent_zero(self, demo_float_profile):
        # c2 = delta/(2*base), the radical coefficient derive_eps_for_ulp
        # subtracts; c1 is eps itself
        fix = demo_float_profile.fix
        for count in (1, 5, 25):
            c1, c2 = float_bound(fix.val(count), 0, demo_float_profile.base)
            assert (c1, c2) == (F(count, 100), F(1, 2 * 100 * 2))

    def test_float_bound_delta_is_eps_grid_step(self):
        # delta is read from eps's grid: 1/1000 here, so c2 = 1/4000
        fine = FixProfile(1000, 16000, 16000)
        assert float_bound(fine.val(8), 0, 2) == (F(8, 1000), F(1, 4000))

    @pytest.mark.parametrize("base", [2, 3, 4, 10])
    def test_float_bound_matches_fraction_formula(self, base):
        """Each term one integer pair in lowest terms, equal to eps*base**h
        and delta/2*base**(h - 1) for h = -40..40, both exponents 2h and
        2h + 1."""
        for fix, count in ((FixProfile(100, 1600, 1600), 25),
                           (FixProfile(1000, 16000, 16000), 8),
                           (FixProfile(7, 700, 700), 14)):
            eps, beta = fix.val(count), F(base)
            for h in range(-40, 41):
                want = (eps.value * beta ** h, fix.delta / 2 * beta ** (h - 1))
                for exp in (2 * h, 2 * h + 1):
                    got = float_bound(eps, exp, base)
                    assert got == want, (base, fix, h)
                    assert [math.gcd(c.numerator, c.denominator)
                            for c in got] == [1, 1]

    def test_fix_bound_matches_fraction_formula(self):
        for fix in (FixProfile(100, 1600, 1600), FixProfile(7, 700, 700),
                    FixProfile(1000, 4_000_000, 4_000_000)):
            for count in (1, 2, 7, 8, 25, 50, 100):
                eps = fix.val(count)
                for n in range(0, 12):
                    got = fix_bound(eps, n)
                    assert got == eps.value / 2 + n * fix.delta
                    assert math.gcd(got.numerator, got.denominator) == 1

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
        assert trace.counts[0] == 174
        assert within_of_sqrt(x.value, F(3), F(1, 8) + F(1, 100), strict=True)

    def test_exact_square_is_fixed_point(self, demo_profile, demo_table,
                                         demo_eps):
        for n in (1, 2, 5):
            x, _ = fix_sqr(demo_profile.val(400), demo_eps, demo_table, n)
            assert x.count == 200

    def test_two(self, demo_profile, demo_table, demo_eps):
        x, trace = fix_sqr(demo_profile.val(200), demo_eps, demo_table, 1)
        assert trace.counts[0] == 142
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
        assert len(trace.counts) == 4 + 1
        assert trace.algorithm == "fix_sqr"


class TestMixSqr:
    def test_three(self, demo_profile, demo_table, demo_eps):
        x, trace = mix_sqr(demo_profile.val(300), demo_eps, demo_table)
        assert x.count == 173
        assert trace.algorithm == "mix_sqr"
        assert len(trace.counts) == 1 + 1
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
        assert trace.counts == ()

    def test_input_base_other_than_profile(self, demo_profile, demo_eps,
                                           demo_table):
        # FloatVal's base defaults to 2: read on a base-3 profile, 2.00*2^1
        # would run as the root of 2.00*3^1 = 6
        fprof = FloatProfile(3, demo_profile, F(65536), F(65536))
        with pytest.raises(ProfileMismatch,
                           match="input base 2 differs from the profile "
                                 "base 3"):
            flt_sqr(FloatVal(demo_profile.val(200), 1), demo_eps, fprof,
                    demo_table)
        # zero carries base 2 whatever the profile, and maps to zero
        b, _ = flt_sqr(FloatVal.zero(), demo_eps, fprof, demo_table)
        assert b.is_zero
        b, _ = flt_sqr(FloatVal(demo_profile.val(200), 1, 3), demo_eps, fprof,
                       demo_table)
        assert b.exp == 0 and b.base == 3

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

    def test_mantissa_collapse_shifts(self, demo_profile, demo_eps,
                                      demo_float_profile, demo_table):
        # radicand 1.01 iterates onto exactly 1.00, which cannot be a
        # mantissa: the result of 1.01*2**e, e even, is 2.00 at exponent
        # e/2 - 1, the same value, and meets the float bound
        for e in (-2, 0, 2):
            a = compose(demo_profile.val(101), e, demo_float_profile)
            b, trace = flt_sqr(a, demo_eps, demo_float_profile, demo_table)
            assert trace.counts[-1] == 100
            assert (b.man.count, b.exp, b.base) == (200, e // 2 - 1, 2)
            assert value_of(b) == F(2) ** (e // 2)
            assert sqrt_verdict("float", b, a, demo_eps,
                                fprof=demo_float_profile).passed

    def test_every_demo_mantissa(self, demo_profile, demo_eps,
                                 demo_float_profile, demo_table):
        # every input ends in a result within its float bound or in the
        # loop's y <= sup/2 refusal, which only an odd exponent with a
        # mantissa above sup/(2*base) meets
        sup, beta = demo_profile.sup_count, demo_float_profile.base
        passed, refused = 0, []
        for count in range(101, 800):
            for e in range(-3, 4):
                a = compose(demo_profile.val(count), e, demo_float_profile)
                try:
                    b, _ = flt_sqr(a, demo_eps, demo_float_profile,
                                   demo_table)
                except DomainError:
                    refused.append((count, e))
                    continue
                assert sqrt_verdict("float", b, a, demo_eps,
                                    fprof=demo_float_profile).passed, \
                    (count, e)
                passed += 1
        assert refused == [(count, e) for count in range(101, 800)
                           for e in range(-3, 4)
                           if e % 2 and 2 * beta * count > sup]
        assert len(refused) == 4 * 399 and passed == 699 * 7 - 4 * 399

    def test_oversized_radicand_rejected(self, demo_profile, demo_eps,
                                         demo_float_profile, demo_table):
        # odd exponent doubles the mantissa: 2 * 5.0 = 10 > sup/2
        a = compose(demo_profile.val(500), 1, demo_float_profile)
        with pytest.raises(DomainError):
            flt_sqr(a, demo_eps, demo_float_profile, demo_table)


def _grid_text(v: F, d: int) -> str:
    """A grid value as str(FixVal) writes it: the unreduced count/d."""
    return f"{v * d}/{d}"


def _ref_nearest(q: F, d: int) -> F:
    """q rounded to the 1/d grid, ties to the even count."""
    t = q * d
    lo = t.numerator // t.denominator
    rest = t - lo
    return F(lo + (rest > F(1, 2) or (rest == F(1, 2) and lo % 2 == 1)), d)


def _ref_div(a: F, b: F, profile: FixProfile) -> F:
    d = profile.delta_den
    if b == 0:
        raise DivisionByZero(f"{_grid_text(a, d)} / {_grid_text(b, d)}")
    if not -profile.inf_value <= a / b <= profile.sup_value:
        raise RangeOverflow(f"{_grid_text(a, d)} / {_grid_text(b, d)} "
                            f"overflows the range")
    return _ref_nearest(a / b, d)


def _ref_add(a: F, b: F, profile: FixProfile) -> F:
    d = profile.delta_den
    if not -profile.inf_value <= a + b <= profile.sup_value:
        raise RangeOverflow(f"{_grid_text(a, d)} + {_grid_text(b, d)} "
                            f"overflows the range")
    return a + b


def _reference_iterates(algorithm, y, eps, stp, n=None):
    """fix_sqr(y, eps, table, n), or with n None the mix_sqr loop, under
    the name algorithm: its refusals, else n and the seed followed by
    each iterate.  Every value is a Fraction, the rounding is done here
    and the seed comes from math.isqrt.  It calls no fixarith or lut
    arithmetic, so it checks the shared primitives instead of restating
    them."""
    profile = y.profile
    d = profile.delta_den
    yv = F(y.count, d)
    n_min = 1
    while eps.count * 2 ** (n_min - 1) < stp.count:
        n_min += 1
    if n is None:
        n = n_min
        if eps.count < 2 * (n + 1):
            raise EpsTooSmall(
                f"eps={eps} below 2*delta*(2 + ceil(log2(stp/eps))) = "
                f"{F(2 * (n + 1), d)}")
    if not yv > 1:
        raise DomainError(f"{algorithm} requires y > 1, got {y}")
    if not yv <= profile.sup_value / 2:
        raise DomainError(f"{algorithm} requires y <= {profile.sup_value}/2 "
                          f"so the loop's x + x stays in range, got {y}")
    if n < n_min:
        raise IterationBudgetError(f"n={n} below the minimum {n_min} for "
                                   f"stp={stp}, eps={eps}")
    # seed: min(y, least grid g with g*g >= the step multiple at or above y)
    sv = F(stp.count, d)
    v = math.ceil(yv / sv) * sv
    xs = [min(yv, F(math.isqrt(int(v * d * d) - 1) + 1, d))]
    for _ in range(n):
        x = xs[-1]
        half = _ref_div(x, F(2), profile)
        twice = _ref_add(x, x, profile)
        quot = _ref_div(yv, twice, profile)
        xs.append(_ref_add(half, quot, profile))
    return n, xs


def _on_grid(v: F, profile: FixProfile) -> FixVal:
    count = v * profile.delta_den
    assert count.denominator == 1
    return FixVal(int(count), profile)


def reference_grid_run(algorithm, y, eps, stp, n=None):
    """The lean record of the reference loop: its own iterates as counts."""
    n, xs = _reference_iterates(algorithm, y, eps, stp, n)
    counts = tuple(_on_grid(x, y.profile).count for x in xs)
    return _on_grid(xs[-1], y.profile), GridTrace(algorithm, y, counts)


def reference_flt_run(a, eps, fprof, stp):
    """flt_sqr on a positive a over reference_grid_run: a loop result at
    or below 1 is returned as x*base at the next lower exponent."""
    y, z = _flt_loop_input(a, fprof)
    x, trace = reference_grid_run("flt_sqr", y, eps, stp)
    if x.value <= 1:
        return compose(_on_grid(x.value * fprof.base, fprof.fix), z // 2 - 1,
                       fprof), trace
    return compose(x, z // 2, fprof), trace


def _flt_loop_input(a, fprof):
    """The radicand and even exponent of the loop for a positive a."""
    man, e = a.man, a.exp
    if e % 2:
        # man < sup/base, so the radicand man*base is in range and exact
        return FixVal(man.count * fprof.base, fprof.fix), e - 1
    return man, e


def eager_grid_steps(algorithm, y, eps, stp, n=None):
    """The steps of a fix_sqr or mix_sqr run as the grid loop built them
    eagerly, one TraceStep per pass, from the reference loop's
    iterates."""
    profile = y.profile
    _, xs = _reference_iterates(algorithm, y, eps, stp, n)
    return tuple(TraceStep(k, _on_grid(x, profile), x_new - x,
                           _on_grid(x_new, profile))
                 for k, (x, x_new) in enumerate(zip(xs, xs[1:])))


def eager_flt_steps(a, eps, fprof, stp):
    """The steps of flt_sqr's eager record on a positive a: those of the
    loop on its radicand."""
    y, _ = _flt_loop_input(a, fprof)
    return eager_grid_steps("flt_sqr", y, eps, stp)


def _outcome(fn, *args):
    """fn's result, or the type and message of the refusal it raised."""
    try:
        return fn(*args)
    except CertisqrtError as exc:
        return type(exc), str(exc)


def _mismatches(cases):
    """The (label, got, want) of every case whose run differs."""
    out = []
    for label, run, ref in cases:
        got, want = _outcome(*run), _outcome(*ref)
        if got != want:
            out.append((label, got, want))
    return out


@st.composite
def small_grid_requests(draw):
    """A request on a small, possibly asymmetric grid, with its table."""
    d = draw(st.integers(3, 12))
    stp = draw(st.integers(2, 3 * d))
    sup = stp * draw(st.integers(2 * d // stp + 1, 8 * d // stp + 2))
    inf = draw(st.integers(2 * d + 1, 2 * sup))
    profile = FixProfile(d, inf, sup)
    eps = draw(st.sampled_from([c for c in range(1, stp + 1)
                                if stp % c == 0]))
    y = draw(st.integers(d - 2, sup // 2 + 2))
    n = draw(st.integers(0, 5))
    table = build_root_table(profile, profile.val(stp))
    return profile.val(y), profile.val(eps), table, n


class TestGridLoopMatchesReference:
    """fix_sqr, mix_sqr and flt_sqr give the reference loop's traces and
    refusals, field for field and message for message."""

    def test_demo_fix_and_mix(self, demo_profile, demo_table, demo_eps):
        stp = demo_table.stp
        cases = []
        for count in range(95, 806):
            y = demo_profile.val(count)
            for n in range(1, 7):
                cases.append(((count, n), (fix_sqr, y, demo_eps, demo_table, n),
                              (reference_grid_run, "fix_sqr", y, demo_eps,
                               stp, n)))
            cases.append(((count, "mix"), (mix_sqr, y, demo_eps, demo_table),
                          (reference_grid_run, "mix_sqr", y, demo_eps, stp)))
        assert _mismatches(cases) == []

    def test_wide_profile_sample(self):
        fix = FixProfile(1000, 4_000_000, 4_000_000)
        table = build_root_table(fix, fix.val(16))
        eps = fix.val(8)
        rng = random.Random(8)
        cases = []
        for count in (rng.randint(1001, 2_000_000) for _ in range(2000)):
            y = fix.val(count)
            cases.append(((count, "mix"), (mix_sqr, y, eps, table),
                          (reference_grid_run, "mix_sqr", y, eps, table.stp)))
            cases.append(((count, 3), (fix_sqr, y, eps, table, 3),
                          (reference_grid_run, "fix_sqr", y, eps, table.stp,
                           3)))
        assert _mismatches(cases) == []

    def test_demo_flt_sqr(self, demo_profile, demo_eps, demo_float_profile,
                          demo_table):
        cases = []
        for count in range(101, 800):
            for e in range(-3, 4):
                a = compose(demo_profile.val(count), e, demo_float_profile)
                cases.append(((count, e),
                              (flt_sqr, a, demo_eps, demo_float_profile,
                               demo_table),
                              (reference_flt_run, a, demo_eps,
                               demo_float_profile, demo_table.stp)))
        assert _mismatches(cases) == []
        # odd exponents double mantissas above sup/4 past the loop's y
        # range; a result that rounds onto 1 is shifted, not refused
        refused = Counter(got[0] for got in
                          (_outcome(*run) for _, run, _ in cases)
                          if isinstance(got[0], type))
        assert refused == Counter({DomainError: 4 * 399})

    @given(small_grid_requests())
    @settings(max_examples=300, deadline=None)
    def test_small_grids(self, request):
        y, eps, table, n = request
        assert _mismatches([
            ("fix", (fix_sqr, y, eps, table, n),
             (reference_grid_run, "fix_sqr", y, eps, table.stp, n)),
            ("mix", (mix_sqr, y, eps, table),
             (reference_grid_run, "mix_sqr", y, eps, table.stp)),
        ]) == []


def _count_records(monkeypatch) -> Counter:
    """Count the TraceSteps and Fractions newton builds, through the
    Fraction constructor or through exact._lowest_terms."""
    built = Counter()
    real_step = newton.TraceStep

    def counted(key, real):
        def build(*args):
            built[key] += 1
            return real(*args)
        return build

    monkeypatch.setattr(newton, "TraceStep", counted("TraceStep", real_step))
    for name in ("Fraction", "_lowest_terms"):
        monkeypatch.setattr(newton, name,
                            counted("Fraction", getattr(newton, name)))
    return built


class TestGridTraceViews:
    """A grid run records its iterate counts; the steps built from them
    on read equal the field the loop used to build eagerly, one
    TraceStep and one correction Fraction per pass."""

    def test_demo_fix_and_mix(self, demo_profile, demo_table, demo_eps):
        stp = demo_table.stp
        bad = []
        for count in range(101, 801):
            y = demo_profile.val(count)
            for n in range(1, 7):
                _, trace = fix_sqr(y, demo_eps, demo_table, n)
                if trace.steps != eager_grid_steps("fix_sqr", y, demo_eps,
                                                   stp, n):
                    bad.append((count, n))
            _, trace = mix_sqr(y, demo_eps, demo_table)
            if trace.steps != eager_grid_steps("mix_sqr", y, demo_eps, stp):
                bad.append((count, "mix"))
        assert bad == []

    def test_demo_flt_sqr(self, demo_profile, demo_eps, demo_float_profile,
                          demo_table):
        bad, ran = [], 0
        for count in range(101, 800):
            for e in range(-3, 4):
                a = compose(demo_profile.val(count), e, demo_float_profile)
                try:
                    _, trace = flt_sqr(a, demo_eps, demo_float_profile,
                                       demo_table)
                except CertisqrtError:
                    continue
                ran += 1
                if trace.steps != eager_flt_steps(a, demo_eps,
                                                  demo_float_profile,
                                                  demo_table.stp):
                    bad.append((count, e))
        assert bad == [] and ran > 3000
        _, trace = flt_sqr(FloatVal.zero(), demo_eps, demo_float_profile,
                           demo_table)
        assert trace.steps == ()
        assert trace.counts == () and trace.y is None

    def test_corrupted_record_changes_views(self, demo_profile, demo_eps,
                                            demo_table):
        # negative control: every count feeds the steps that read it,
        # the one that leaves it and the one that reaches it
        y = demo_profile.val(300)
        _, trace = fix_sqr(y, demo_eps, demo_table, 3)
        want = eager_grid_steps("fix_sqr", y, demo_eps, demo_table.stp, 3)
        assert trace.steps == want
        passes = len(trace.counts) - 1
        for i in range(passes + 1):
            counts = list(trace.counts)
            counts[i] += 1
            got = trace._replace(counts=tuple(counts)).steps
            assert [g != w for g, w in zip(got, want, strict=True)] == \
                [i in (k, k + 1) for k in range(passes)]

    def test_record_fields(self, demo_profile, demo_eps, demo_float_profile,
                           demo_table):
        """A grid record holds the algorithm, y and the counts, and no
        view but steps; the counts show the passes made, none for a zero
        float."""
        assert GridTrace._fields == ("algorithm", "y", "counts")
        assert not {"n_planned", "seed", "final_x"} & set(dir(GridTrace))
        y = demo_profile.val(300)
        for n in range(1, 5):
            _, trace = fix_sqr(y, demo_eps, demo_table, n)
            assert len(trace.counts) - 1 == n
        n_min = min_iterations_for_step(demo_table.stp, demo_eps)
        _, trace = mix_sqr(y, demo_eps, demo_table)
        assert len(trace.counts) - 1 == n_min
        _, trace = flt_sqr(compose(y, 3, demo_float_profile), demo_eps,
                           demo_float_profile, demo_table)
        assert len(trace.counts) - 1 == n_min
        _, trace = flt_sqr(FloatVal.zero(), demo_eps, demo_float_profile,
                           demo_table)
        assert trace.counts == ()

    @pytest.mark.parametrize("mode", ["fix", "mix", "flt"])
    def test_request_builds_no_step_record(self, monkeypatch, mode):
        # eps = stp/2 takes two passes
        fix = FixProfile(1000, 20_000, 20_000)
        table, eps = build_root_table(fix, fix.val(16)), fix.val(8)
        built = _count_records(monkeypatch)
        if mode == "flt":
            fprof = FloatProfile(2, fix, F(65536), F(65536))
            _, trace = flt_sqr(compose(fix.val(3217), 3, fprof), eps, fprof,
                               table)
        elif mode == "mix":
            _, trace = mix_sqr(fix.val(6434), eps, table)
        else:
            _, trace = fix_sqr(fix.val(6434), eps, table, 3)
        assert built == Counter()
        steps = trace.steps
        assert len(steps) == len(trace.counts) - 1 >= 2
        assert built == Counter(TraceStep=len(steps), Fraction=len(steps))


class TestGridInputs:
    """grid_inputs(p) is the set of counts in [-inf, sup] that fix_sqr
    accepts at its least iteration count; it refuses every other count
    with DomainError."""

    @pytest.mark.parametrize("fix,stp,size", [
        (FixProfile(100, 1600, 1600), 25, 700),
        (FixProfile(10, 40, 40), 8, 10),
        (FixProfile(10, 40, 21), 3, 0),  # sup = 2*d + 1: (1, 21/20] is empty
    ], ids=["demo", "micro", "empty"])
    def test_equals_accepted_counts(self, fix, stp, size):
        table = build_root_table(fix, fix.val(stp))
        accepted = []
        for count in range(-fix.inf_count, fix.sup_count + 1):
            try:  # eps = stp, whose least count is 1
                fix_sqr(fix.val(count), table.stp, table, 1)
            except DomainError:
                continue
            accepted.append(count)
        assert list(grid_inputs(fix)) == accepted
        assert len(accepted) == size


class ExactViews(NamedTuple):
    """What a Trace records, each iterate and correction as a Fraction."""

    algorithm: str
    y: tuple[int, int]
    eps: tuple[int, int]
    xs: tuple[F, ...]
    corrections: tuple[F, ...]


def exact_views(trace):
    return ExactViews(trace.algorithm, trace.y, trace.eps,
                      _iterates(trace), tuple(_values(trace)))


def viewed(run, *args):
    """run(*args) with its Trace read through exact_views."""
    x, trace = run(*args)
    return x, exact_views(trace)


def eager_steps(views):
    """The TraceSteps of a reference run, as a loop that built its steps
    eagerly held them: pass k from iterate k to iterate k + 1, an
    until-loop's exit pass from the last iterate to itself."""
    xs, last = views.xs, len(views.xs) - 1
    return tuple(TraceStep(k, xs[k], d, xs[min(k + 1, last)])
                 for k, d in enumerate(views.corrections))


def reference_exact_run(algorithm, y, eps, seed=None, n=None,
                        c_style=False):
    """sqr_exact(y, eps, c_style), isqr_exact(y, eps, seed) or
    fsqr_exact(y, eps, seed, n) in plain Fraction arithmetic, with its
    record's ExactViews: each iterate from the seed on, and each pass's
    correction d := (y - x*x)/(2x) formed as
    written, the exit rules of the docstrings, the refusals in their
    order.  It calls nothing in certisqrt.exact or newton's step, so it
    checks them."""
    if algorithm == "sqr_exact":
        if y < 1:
            raise DomainError(f"sqr_exact requires y >= 1, got {y}")
    elif y <= 1:
        raise DomainError(f"{algorithm} requires y > 1, got {y}")
    if eps <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")
    if algorithm == "fsqr_exact" and n < 0:
        raise DomainError(f"iteration count must be >= 0, got {n}")
    if algorithm != "sqr_exact" and (seed < 0 or seed * seed < y
                                     or seed > y):
        raise SeedContractError(
            f"seed {seed} violates sqrt({y}) <= seed <= {y}")
    x = y if seed is None else seed
    xs, ds = [x], []

    def views():
        return x, ExactViews(algorithm, (y.numerator, y.denominator),
                             (eps.numerator, eps.denominator),
                             tuple(xs), tuple(ds))

    if algorithm == "fsqr_exact":
        # legal when seed - eps*2**(n-1) <= sqrt(y)
        t = seed - eps * F(2) ** (n - 1)
        if t > 0 and t * t > y:
            raise IterationBudgetError(
                f"n={n} below the legal minimum for seed {seed}")
        for _ in range(n):
            d = (y - x * x) / (2 * x)
            ds.append(-d)
            x += d
            xs.append(x)
        return views()
    while True:
        d = (y - x * x) / (2 * x)
        if algorithm == "sqr_exact":
            # exit when |d| < eps/2, c_style after applying d
            stop = abs(d) < eps / 2
            ds.append(d)
            if stop and not c_style:
                break
            x += d
            xs.append(x)
            if stop:
                break
        else:
            # the magnitude ad = -d is recorded and subtracted
            ds.append(-d)
            if -d < eps / 2:
                break
            x += d
            xs.append(x)
    return views()


def _exact_seeds(y):
    """y itself, a tight seed from math.isqrt, and two seeds that break
    the contract when y > 1: 1 below sqrt(y), y + 1 above y."""
    scaled = y * 4 ** 8
    tight = min(y, F(math.isqrt(scaled.numerator // scaled.denominator) + 1,
                     2 ** 8))
    return [y, tight, F(1), y + 1]


def _exact_cases(y, eps, seeds, counts):
    cases = [((y, eps, c_style), (viewed, sqr_exact, y, eps, c_style),
              (reference_exact_run, "sqr_exact", y, eps, None, None, c_style))
             for c_style in (False, True)]
    for s in seeds:
        cases.append(((y, eps, s), (viewed, isqr_exact, y, eps, s),
                      (reference_exact_run, "isqr_exact", y, eps, s)))
        cases += [((y, eps, s, n), (viewed, fsqr_exact, y, eps, s, n),
                   (reference_exact_run, "fsqr_exact", y, eps, s, n))
                  for n in counts]
    return cases


class TestExactLoopMatchesReference:
    """sqr_exact (both exits), isqr_exact and fsqr_exact give the
    reference's results, record views and refusals, field for field and
    message for message."""

    @given(ys, epss, st.sampled_from(range(4)), st.integers(-1, 6))
    @settings(max_examples=150, deadline=None)
    def test_sampled(self, y, eps, which, n):
        assert _mismatches(_exact_cases(y, eps, [_exact_seeds(y)[which]],
                                        [n])) == []

    def test_edges(self):
        cases = []
        for y in (F(0), F(1, 2), F(1), F(2), F(4), F(3, 2), F(10 ** 4)):
            for eps in (F(0), F(-1, 3), F(1, 1000), F(1, 4), y, y + 1):
                cases += _exact_cases(y, eps, _exact_seeds(y),
                                      [-1, 0, 1, 3, 6])
        assert _mismatches(cases) == []

    @pytest.mark.parametrize("y", [F(3, 2), F(2), F(4), F(10 ** 4)])
    def test_exit_ties(self, y):
        # eps = 2*|d| of each pass, so |d| = eps/2 exactly: no exit there
        tiny, seeds = F(1, 10 ** 6), _exact_seeds(y)[:2]
        runs = [reference_exact_run("sqr_exact", y, tiny)[1]]
        runs += [reference_exact_run("isqr_exact", y, tiny, s)[1]
                 for s in seeds]
        ties = {2 * abs(d) for run in runs for d in run.corrections}
        assert _mismatches([case for eps in sorted(ties)
                            for case in _exact_cases(y, eps, seeds, [0, 1])
                            ]) == []


def _pass_views(trace):
    """The iterates of an exact run and each pass's |correction|."""
    return _iterates(trace), [abs(d) for d in _values(trace)]


def _outcome_line(fn, *args):
    """One outcome as text: the result and every field of the trace, or
    the refusal's type and message; long parts are written in hex.  Each
    pair of the record must be in lowest terms.  The seed is a Fraction,
    and a prime common to the pair (b*p**2 + a*q**2, 2*b*p*q) a pass forms
    divides 2*a*b, so no prime of 2*a*b may divide both parts: a linear-
    time test, where the full gcd takes 3.6 s on the corpus's 4,801
    pairs of up to 327K bits."""
    try:
        x, trace = fn(*args)
    except CertisqrtError as exc:
        return f"{type(exc).__name__}: {exc}"
    small = 2 * trace.y[0] * trace.y[1]
    for k, (p, q) in enumerate(trace.pairs):
        assert math.gcd(math.gcd(p, small), q) == 1, (fn.__name__, args, k)
    # pass k leaves iterate k for the next, an until-loop's exit pass
    # for none
    xs = [rat_str(q) for q in _iterates(trace)]
    ends = xs[1:] + xs[-1:] * (len(trace.corrections) + 1 - len(xs))
    steps = " ".join(f"{k}:{xs[k]}:{rat_str(d)}:{end}"
                     for k, (d, end) in enumerate(zip(_values(trace), ends)))
    # fsqr_exact's count, which the record held until it was read off
    # its corrections; None for the until-loops
    count = (len(trace.corrections) if trace.algorithm == "fsqr_exact"
             else None)
    return f"{rat_str(x)} {trace.algorithm} {count} {xs[0]} {steps}"


class TestExactFamilyDigest:
    """A differential corpus of the exact family hashes to a pinned
    digest, so a change in any result, trace or refusal shows: both
    sqr_exact exits, isqr_exact and fsqr_exact at n in {0, 1, 3, 6} from
    four seeds (two of them break the seed contract), over 80 sampled
    pairs and y in {1, 2, 4, 10**6} at four eps; 2,112 outcomes."""

    DIGEST = "b7d92604860e562da44698297cbae4fbb58480469c6dd1339dabecc35e234e91"

    def test_digest(self):
        pairs = sample_rationals(80, 5) + [
            (y, eps) for y in (F(1), F(2), F(4), F(10 ** 6))
            for eps in (F(1, 10 ** 6), F(1, 1000), F(1, 4), F(1))]
        digest, count = hashlib.sha256(), 0
        for y, eps in pairs:
            lines = [_outcome_line(sqr_exact, y, eps, c_style)
                     for c_style in (False, True)]
            for seed in _exact_seeds(y):
                lines.append(_outcome_line(isqr_exact, y, eps, seed))
                lines += [_outcome_line(fsqr_exact, y, eps, seed, n)
                          for n in (0, 1, 3, 6)]
            for line in lines:
                digest.update(line.encode() + b"\n")
            count += len(lines)
        assert count == 2112
        assert digest.hexdigest() == self.DIGEST


class TestSqrIsIsqrSeededWithY:
    """For y > 1, sqr_exact is isqr_exact seeded with y: the same
    iterates before and after each pass and the same |correction|."""

    @given(ys.filter(lambda v: v > 1), epss)
    @settings(max_examples=80, deadline=None)
    def test_sampled(self, y, eps):
        assert _pass_views(sqr_exact(y, eps)[1]) == \
            _pass_views(isqr_exact(y, eps, y)[1])

    def test_edges(self):
        for y in (F(3, 2), F(2), F(4), F(10 ** 4)):
            for eps in (F(1, 1000), F(1, 4), y, y + 1):
                assert _pass_views(sqr_exact(y, eps)[1]) == \
                    _pass_views(isqr_exact(y, eps, y)[1]), (y, eps)


def _plain_correction(y, p, q):
    """(ad_num, ad_den) of the step from x = p/q by the product formula:
    (b*p*p - a*q*q, 2*b*p*q) for y = a/b."""
    a, b = y.numerator, y.denominator
    return b * p * p - a * q * q, 2 * b * p * q


def _plain_step(y, p, q):
    """One step from x = p/q by the product formula: (ad_num, ad_den) and
    the next pair in lowest terms."""
    ad_num, ad_den = _plain_correction(y, p, q)
    num = ad_num + 2 * y.numerator * q * q  # b*p*p + a*q*q
    g = math.gcd(num, ad_den)
    return ad_num, ad_den, num // g, ad_den // g


def _count_built(monkeypatch) -> list[int]:
    """Record the bit length of every iterate _exact_run builds."""
    built = []
    real = newton.fraction_from_coprime

    def counting(p, q):
        if sys._getframe(1).f_code.co_name == "_exact_run":
            built.append(max(p.bit_length(), q.bit_length()))
        return real(p, q)

    monkeypatch.setattr(newton, "fraction_from_coprime", counting)
    return built


def _count_corrections(monkeypatch) -> list[Correction]:
    """Record every Correction _exact_run makes, one a pass."""
    records = []
    real = newton.Correction

    def counting(c, m):
        records.append(real(c, m))
        return records[-1]

    monkeypatch.setattr(newton, "Correction", counting)
    return records


EXIT_RUNS = [(F(2), F(1, 100)), (F(3, 2), F(1, 10 ** 6)),
             (F(10 ** 4), F(1, 1000)), (F(7, 3), F(1, 10 ** 12))]


def _norm_updates(trace):
    """(norm, g, b) of each norm update of a run, read off its record:
    pass k >= 1 carries the norm c*m**2 of pass k - 1, split over the
    factor g = gcd(b*p**2 + a*q**2, 2*b*p*q) that pass k - 1 stripped
    from its next pair, for (p, q) = pairs[k - 1]."""
    a, b = trace.y
    updates = []
    for (c, m), (p, q) in zip(trace.corrections[:-1], trace.pairs):
        g = math.gcd(b * p * p + a * q * q, 2 * b * p * q)
        updates.append((c * m * m, g, b))
    return updates


def _recorded(*runs):
    """Call each run.  Returns the runs' traces, (y, x, c, m, ad) for
    every pass of every run and (norm, g, b) for every norm update, as
    _norm_updates reads it.  x is the pass's iterate, (c, m) the factors
    of the norm it carried, read from trace.corrections, and ad its
    Correction record.  Pass 0 forms its norm as b*p**2 - a*q**2 with m =
    1; each later pass carries its (c, m) from the pass before, by
    _norm_factors' rule or by the closed form, which give one split."""
    traces, passes, updates = [], [], []
    for run in runs:
        _, trace = run()
        y, xs, ads = F(*trace.y), _iterates(trace), trace.corrections
        passes += [(y, xs[k], c, m, ad) for k, (ad, (c, m))
                   in enumerate(zip(ads, trace.corrections, strict=True))]
        for (norm, g, b), ad in zip(_norm_updates(trace), ads[1:],
                                    strict=True):
            assert newton._norm_factors(norm, g, b) == ad
            updates.append((norm, g, b))
        traces.append(trace)
    return traces, passes, updates


@st.composite
def even_over_odd(draw):
    """y = a/b in lowest terms with a even and odd b > 1, up to 10**4."""
    b = draw(st.integers(1, 49)) * 2 + 1
    a = draw(st.integers(b // 2 + 1, 5000 * b).filter(
        lambda h: math.gcd(2 * h, b) == 1)) * 2
    return F(a, b)


# isqr_exact (y, eps, seed) runs whose norm update meets a factor g that
# does not divide the norm: with b = 9 and 3 dividing the seed's q, the
# next pair can hold more factors of 3 than the norm does
G_NOT_DIVIDING = [(F(29, 9), F(1, 10 ** 6), F(7, 3)),
                  (F(29, 9), F(1, 10 ** 6), F(8, 3)),
                  (F(11, 9), F(1, 10 ** 6), F(7, 6)),
                  (F(14, 9), F(1, 10 ** 6), F(4, 3))]


def _norm_of(y, x):
    return (y.denominator * x.numerator ** 2
            - y.numerator * x.denominator ** 2)


class TestCarriedNorm:
    """The norm the step carries from pass to pass as factors c*m**2 is
    b*p**2 - a*q**2 of the pass's iterate p/q, in every run of the exact
    family, with c, m >= 0 after the first pass."""

    @staticmethod
    def _runs(y, eps, seed):
        # with eps = y every count is legal
        return (lambda: sqr_exact(y, eps),
                lambda: sqr_exact(y, eps, c_style=True),
                lambda: isqr_exact(y, eps, seed),
                lambda: fsqr_exact(y, y, seed, 5))

    @given(st.one_of(even_over_odd(), ys.filter(lambda v: v > 1)), epss,
           st.booleans())
    @example(F(10, 3), F(1, 1000), True)
    @example(F(29, 9), F(1, 10 ** 6), False)
    @settings(max_examples=40, deadline=None)
    def test_norm_at_every_pass(self, y, eps, tight):
        _, passes, _ = _recorded(
            *self._runs(y, eps, _exact_seeds(y)[1] if tight else y))
        assert passes
        assert all(c * m * m == _norm_of(y_k, x) and m >= 0
                   for y_k, x, c, m, _ in passes)

    def test_common_factors_occur(self):
        _, passes, updates = _recorded(
            *self._runs(F(10, 3), F(1, 1000), F(2)),
            *[lambda case=case: isqr_exact(*case) for case in G_NOT_DIVIDING])
        assert all(c * m * m == _norm_of(y, x) for y, x, c, m, _ in passes)
        assert any(g > 1 and norm % g == 0 for norm, g, _ in updates)
        assert any(norm % g for norm, g, _ in updates)

    @pytest.mark.parametrize("y, eps, seed", G_NOT_DIVIDING)
    def test_g_not_dividing_the_norm(self, y, eps, seed):
        _, passes, updates = _recorded(lambda: isqr_exact(y, eps, seed))
        assert any(norm % g for norm, g, _ in updates)
        for norm, g, b in updates:
            h = math.gcd(norm, g)
            assert b % (g // h) ** 2 == 0
        # g does not divide the norm exactly where c < b
        assert any(c < y.denominator for _, _, c, _, _ in passes[1:])
        assert all(c * m * m == _norm_of(y, x) for _, x, c, m, _ in passes)
        assert _mismatches(_exact_cases(y, eps, [seed], [0, 1, 3])) == []


def _odd(n):
    """n > 0 over its largest power of 2."""
    return n >> ((n & -n).bit_length() - 1)


def _invariant(y, p, q):
    """I(p, q) of the exact loop's closed form, for y = a/b: no odd prime
    of a divides p, odd(b) divides q, and q/odd(b) is prime to odd(b)."""
    ao, bo = _odd(y.numerator), _odd(y.denominator)
    return (math.gcd(p, ao) == 1 and q % bo == 0
            and math.gcd(q // bo, bo) == 1)


def _closed_passes(trace):
    """The applied passes of a run that take the closed form: from the
    first whose pair satisfies I on, as I is inductive."""
    y, applied = F(*trace.y), len(trace.pairs) - 1
    first = next((k for k in range(applied)
                  if _invariant(y, *trace.pairs[k])), applied)
    return range(first, applied)


def _closed_parts(y, p, q):
    """The integers a closed-form pass forms from (p, q), for b = bo*2**t,
    bo odd, and q~ = q/bo: q~**2, p**2 << t, a*bo*q~**2, A and B (their
    sum and difference), (p + q)**2 and D = 2*p*q << t."""
    a, b = y.numerator, y.denominator
    bo = _odd(b)
    t = (b // bo).bit_length() - 1
    qq = (q // bo) ** 2
    ppt, aqq = p * p << t, a * bo * qq
    return qq, ppt, aqq, ppt + aqq, ppt - aqq, (p + q) ** 2, 2 * p * q << t


def _gcd_loop(y, eps, seed, n=None, c_style=False):
    """The exact loop by its definition, with plain math.gcd: pass k
    records (c, m), c*m**2 the norm of its pair (p, q), and exits (n None)
    when 2*c*m**2/(2*b*p*q) < eps, after applying it with c_style; an
    applied pass forms (b*p**2 + a*q**2, 2*b*p*q) over their gcd g and
    the next factors (b // (g/h)**2, norm // h), h = gcd(norm, g).
    Returns the result, the pairs and the corrections."""
    a, b = y.numerator, y.denominator
    en, ed = eps.numerator, eps.denominator
    p, q = seed.numerator, seed.denominator
    pairs, corrections = [(p, q)], []
    c, m = b * p * p - a * q * q, 1
    for _ in range(10 ** 6 if n is None else n):
        corrections.append((c, m))
        norm = c * m * m
        stop = n is None and norm * ed < en * b * p * q
        if stop and not c_style:
            break
        num, den = b * p * p + a * q * q, 2 * b * p * q
        g = math.gcd(num, den)
        h = math.gcd(norm, g)
        c, m = b // (g // h) ** 2, norm // h
        p, q = num // g, den // g
        pairs.append((p, q))
        if stop:
            break
    return F(p, q), pairs, corrections


def _old_rule_calls(mp):
    """Count the calls of _common_factor and _norm_factors, which only
    the passes before I holds make (no Trace read in between)."""
    calls = Counter()
    for name in ("_common_factor", "_norm_factors"):
        def counting(*args, _name=name, _real=getattr(newton, name)):
            calls[_name] += 1
            return _real(*args)
        mp.setattr(newton, name, counting)
    return calls


def _same_as_gcd_loop(run, y, eps, seed, n=None, c_style=False):
    """run()'s result, pairs and corrections equal _gcd_loop's, and the
    passes that make the old rule's calls are those before I holds."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _old_rule_calls(mp)
        x, trace = run()
    want = _gcd_loop(y, eps, seed, n, c_style)
    assert (x, list(trace.pairs), list(trace.corrections)) == want
    closed = _closed_passes(trace)
    assert calls["_common_factor"] == closed.start
    # pass k >= 1 splits its norm by _norm_factors when pass k - 1 did not
    # take the closed form
    assert calls["_norm_factors"] == min(closed.start,
                                         len(trace.corrections) - 1)
    return trace, closed


@st.composite
def shaped_cases(draw):
    """(y, eps, seed) with y > 1: b and the seed's denominator products of
    2, 3, 5 and 7 with repeats, and a seed in [sqrt(y), y]."""
    primes = st.lists(st.sampled_from([2, 3, 5, 7]), max_size=4)
    b = math.prod(draw(primes))
    a = draw(st.integers(b + 1, 300 * b).filter(
        lambda h: math.gcd(h, b) == 1))
    sd = math.prod(draw(primes))
    lo = math.isqrt(a * sd * sd // b)
    lo += lo * lo * b < a * sd * sd
    hi = a * sd // b
    seed = F(draw(st.integers(lo, hi)), sd) if lo <= hi else F(a, b)
    eps = F(1, 10 ** draw(st.integers(1, 15)))
    return F(a, b), eps, seed


class TestClosedForm:
    """While I(p, q) holds, an applied pass of the exact loop reduces its
    pair and splits the next norm in closed form, by the common factor
    odd(b)*2**e; before, by _common_factor and _norm_factors.  Either way
    every run gives the pairs, corrections and result of _gcd_loop."""

    @given(shaped_cases(), st.integers(1, 6))
    @example((F(29, 9), F(1, 10 ** 6), F(7, 3)), 3)
    @example((F(54), F(1, 10 ** 12), F(12)), 4)
    @example((F(1727, 49), F(1, 10 ** 9), F(479, 21)), 2)
    @example((F(7, 4), F(1, 10 ** 6), F(3, 2)), 1)
    @example((F(3), F(1, 10 ** 6), F(7, 3)), 1)
    @settings(max_examples=60, deadline=None)
    def test_runs_match_the_gcd_loop(self, case, n):
        y, eps, seed = case
        for c_style in (False, True):
            _same_as_gcd_loop(lambda: sqr_exact(y, eps, c_style=c_style),
                              y, eps, y, c_style=c_style)
        _same_as_gcd_loop(lambda: isqr_exact(y, eps, seed), y, eps, seed)
        # with eps = y every count n >= 1 is legal
        _same_as_gcd_loop(lambda: fsqr_exact(y, y, seed, n), y, y, seed, n)

    def test_sampled_runs_take_the_closed_form(self):
        closed = applied = 0
        for y, eps in sample_rationals(40, 3):
            for c_style in (False, True):
                trace, passes = _same_as_gcd_loop(
                    lambda: sqr_exact(y, eps, c_style=c_style),
                    y, eps, y, c_style=c_style)
                # sqr_exact starts from y = a/b, so I fails at pass 0
                # unless odd(a) = 1, and holds from pass 1 on
                assert passes.start == (_odd(y.numerator) > 1) \
                    or not passes
                closed += len(passes)
                applied += len(trace.pairs) - 1
        assert closed > 0.7 * applied

    @pytest.mark.parametrize("run, y, eps, seed, n, c_style, first", [
        # a zero norm: B = 0, so f = e
        (lambda: fsqr_exact(F(4), F(1, 10), F(2), 3),
         F(4), F(1, 10), F(2), 3, False, 0),
        (lambda: sqr_exact(F(1), F(1, 10), c_style=True),
         F(1), F(1, 10), F(1), None, True, 0),
        # b a power of two: odd(b) = 1
        (lambda: sqr_exact(F(17, 8), F(1, 10 ** 9)),
         F(17, 8), F(1, 10 ** 9), F(17, 8), None, False, 1),
        (lambda: sqr_exact(F(1001, 16), F(1, 10 ** 9)),
         F(1001, 16), F(1, 10 ** 9), F(1001, 16), None, False, 1),
        # a a power of two: I holds at pass 0
        (lambda: sqr_exact(F(8, 3), F(1, 10 ** 9)),
         F(8, 3), F(1, 10 ** 9), F(8, 3), None, False, 0),
        (lambda: sqr_exact(F(1024, 9), F(1, 10 ** 9)),
         F(1024, 9), F(1, 10 ** 9), F(1024, 9), None, False, 0),
        # repeated odd primes in b
        (lambda: sqr_exact(F(29, 9), F(1, 10 ** 6)),
         F(29, 9), F(1, 10 ** 6), F(29, 9), None, False, 1),
        (lambda: sqr_exact(F(1727, 49), F(1, 10 ** 9)),
         F(1727, 49), F(1, 10 ** 9), F(1727, 49), None, False, 1),
        # pass 0 has v2(A) = 2 > v2(D) = 1, so e is D's
        (lambda: isqr_exact(F(3), F(1, 10 ** 6), F(7, 3)),
         F(3), F(1, 10 ** 6), F(7, 3), None, False, 0),
        # pass 0 has v2(B) = 1 < e = 2, so m keeps a factor 2 and c = b
        (lambda: isqr_exact(F(7, 4), F(1, 10 ** 6), F(3, 2)),
         F(7, 4), F(1, 10 ** 6), F(3, 2), None, False, 0),
        # I never holds: 3 divides every p and a = 54
        (lambda: isqr_exact(F(54), F(1, 10 ** 12), F(12)),
         F(54), F(1, 10 ** 12), F(12), None, False, None),
        # I never holds: 49 divides q from pass 3 on, and 7 divides q/49
        (lambda: isqr_exact(F(1727, 49), F(1, 10 ** 9), F(479, 21)),
         F(1727, 49), F(1, 10 ** 9), F(479, 21), None, False, None),
        # I holds only from pass 2: 9 divides no q before
        (lambda: isqr_exact(F(29, 9), F(1, 10 ** 6), F(7, 3)),
         F(29, 9), F(1, 10 ** 6), F(7, 3), None, False, 2),
    ], ids=["fsqr-zero-norm", "c-style-zero-norm", "b-17/8", "b-1001/16",
            "a-8/3", "a-1024/9", "b-29/9", "b-1727/49", "e-of-D-3",
            "f-below-e-7/4", "never-54", "never-1727/49",
            "later-29/9"])
    def test_edges(self, run, y, eps, seed, n, c_style, first):
        trace, closed = _same_as_gcd_loop(run, y, eps, seed, n, c_style)
        if first is None:
            assert not closed and len(trace.pairs) > 2
        else:
            assert closed.start == first and len(closed) > 0
        if y in (F(4), F(1)):
            assert all(c * m == 0 for c, m in trace.corrections)


# seeded runs whose reductions need the full content of the numerator
REDUCTION_EDGES = [(F(5, 4), F(7, 6)), (F(5, 4), F(17, 14)),
                   (F(5, 4), F(31, 26)), (F(1727, 49), F(479, 21)),
                   (F(1788, 49), F(3425, 112))]


class TestReducedByCarriedContent:
    """One rule reduces both the next pair a pass forms and the
    correction Trace.correction(k) builds: g = _common_factor(num, den,
    2*a*b) = gcd(_content(num, 2*a*b), den), the full gcd, since every
    prime common to num and den divides 2*a*b.  These seeded runs need
    the content's full powers, not gcd(num, 2*a*b): with y = 5/4 and
    seed 7/6, pass 1's iterate is 47/42, and its correction 16/15792 =
    16/(2*4*47*42) reduces by 2**4, of which 2*a*b = 40 holds only 2**3.
    In the runs on 1727/49 and 1788/49, 7 divides pass 1's q once and b
    = 49 twice, so 7**3 divides b*p**2 + a*q**2 and 2*b*p*q, and 2*a*b
    holds only 7**2."""

    @pytest.mark.parametrize("y, seed", REDUCTION_EDGES)
    def test_matches_reference(self, y, seed):
        assert _mismatches(_exact_cases(y, F(1, 10 ** 9), [seed],
                                        [2, 4])) == []

    @pytest.mark.parametrize("y, seed", REDUCTION_EDGES)
    def test_one_rule_is_the_full_gcd(self, y, seed):
        # the runs are short, so a full gcd is the reference
        a, b = y.numerator, y.denominator
        small = 2 * a * b
        _, trace = isqr_exact(y, F(1, 10 ** 9), seed)
        short = 0  # reductions that gcd(num, 2*a*b) would leave partial
        for k, (p, q) in enumerate(trace.pairs):
            den, d = 2 * b * p * q, trace.correction(k)
            # correction k, and the pair pass k forms when it applies
            parts = [(b * p * p - a * q * q, (d.numerator, d.denominator))]
            if k + 1 < len(trace.pairs):
                parts.append((b * p * p + a * q * q, trace.pairs[k + 1]))
            for num, reduced in parts:
                g = math.gcd(num, den)
                assert newton._common_factor(num, den, small) == g
                assert reduced == (num // g, den // g)
                short += math.gcd(math.gcd(num, small), den) < g
        assert short > 0


def _pair_at_or_above_root(y, p_bits, q_bits, seed):
    """A coprime pair (p, q) with p/q >= sqrt(y), drawn with seed: p and
    q of p_bits and q_bits bits over their gcd, then p + k*q for an
    integer k > sqrt(y) if p/q lies below sqrt(y)."""
    rng = random.Random(seed)
    p = rng.getrandbits(p_bits) | 1 << (p_bits - 1)
    q = rng.getrandbits(q_bits) | 1 << (q_bits - 1)
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if y.denominator * p * p < y.numerator * q * q:
        p += (math.isqrt(math.ceil(y)) + 1) * q
    return p, q


class TestExactStep:
    """_exact_run forms an applied pass from the carried norm's factors
    and three squarings, and an exit pass from nothing: its correction is a
    record of the product formula's factors.  It builds no iterate on a
    pass whose correction is not applied."""

    @given(ys, st.integers(1000, 200_000), st.integers(1000, 200_000),
           st.integers(0, 2 ** 64))
    # a pass whose next pair (b*p**2 + a*q**2, 2*b*p*q) has the common
    # factor 14, first, so a reduction that misses it fails at once
    @example(F(7, 3), 1000, 1000, 1)
    @example(F(10 ** 4 - 1, 99), 200_000, 199_999, 1)
    @settings(max_examples=25, deadline=None)
    def test_squarings_match_products(self, y, p_bits, q_bits, seed):
        p, q = _pair_at_or_above_root(y, p_bits, q_bits, seed)
        x_after, trace = newton._exact_run(
            "fsqr_exact", y, F(1), fraction_from_coprime(p, q), 1)
        # the applied pass records the product formula's factors, as an
        # exit pass does: its norm ad_num (m = 1 on pass 0) over
        # (2*b, p, q), whose value is ad_num/ad_den in lowest terms
        (ad,) = trace.corrections
        ad_num, ad_den, p1, q1 = _plain_step(y, p, q)
        assert (x_after.numerator, x_after.denominator) == (p1, q1)
        assert trace.pairs == ((p, q), (p1, q1))
        assert trace.factors(0) == ((ad_num, 1, 1),
                                    (2 * y.denominator, p, q))
        assert ad == (ad_num, 1)
        d = trace.correction(0)
        assert math.gcd(d.numerator, d.denominator) == 1
        assert d.numerator * ad_den == ad_num * d.denominator

    @given(ys, st.integers(1000, 200_000), st.integers(1000, 200_000),
           st.integers(0, 2 ** 64))
    @example(F(10 ** 4 - 1, 99), 200_000, 199_999, 1)
    @settings(max_examples=25, deadline=None)
    def test_exit_pass_matches_products(self, y, p_bits, q_bits, seed):
        x = fraction_from_coprime(*_pair_at_or_above_root(y, p_bits, q_bits,
                                                          seed))
        ad_num, ad_den = _plain_correction(y, x.numerator, x.denominator)
        # an until run whose eps exceeds 2*|ad| exits on its first pass,
        # whose norm is b*p**2 - a*q**2 = ad_num, with m = 1
        x_after, trace = newton._exact_run("isqr_exact", y,
                                           F(2 * ad_num + 1, ad_den), x)
        (record,) = trace.corrections
        assert type(record) is newton.Correction
        assert trace.factors(0) == (
            (ad_num, 1, 1),
            (2 * y.denominator, x.numerator, x.denominator))
        num, den = trace.factors(0)
        assert (math.prod(num), math.prod(den)) == (ad_num, ad_den)
        ad = trace.correction(0)
        assert ad.numerator * ad_den == ad_num * ad.denominator
        # no pass moved x: the record holds the seed, the result is it
        assert trace.pairs == ((x.numerator, x.denominator),)
        assert x_after is x

    def test_norm_below_the_root_exits(self):
        # a seed under sqrt(y), which the request pass refuses, has a
        # negative norm, which no record can hold: the loop refuses it
        with pytest.raises(InternalInvariantError,
                           match="^seed below sqrt\\(y\\)$"):
            newton._exact_run("isqr_exact", F(2), F(1, 100), F(1))

    @pytest.mark.parametrize("y, eps", EXIT_RUNS)
    def test_until_loop_exit_builds_no_iterate(self, monkeypatch, y, eps):
        # the exit pass stores no iterate, and the run builds one
        # Fraction, its result
        built = _count_built(monkeypatch)
        x, trace = sqr_exact(y, eps)
        assert len(trace.corrections) >= 2
        assert len(trace.pairs) == len(trace.corrections)
        assert built == [max(x.numerator.bit_length(),
                             x.denominator.bit_length())]
        built.clear()
        _, trace = isqr_exact(y, eps, y)
        assert len(trace.pairs) == len(trace.corrections) and len(built) == 1

    @pytest.mark.parametrize("y, eps", EXIT_RUNS)
    def test_applied_passes_build_their_iterates(self, monkeypatch, y, eps):
        # each applied pass stores its iterate as a pair, the iterate
        # before it plus its correction; the run itself builds only the
        # last, its result
        built = _count_built(monkeypatch)
        x, trace = sqr_exact(y, eps, c_style=True)
        assert len(built) == 1
        xs = _iterates(trace)
        assert len(xs) == len(trace.corrections) + 1
        assert x == xs[-1] != xs[-2]
        assert [x_k + d for x_k, d in zip(xs, _values(trace))] == \
            list(xs[1:])
        built.clear()
        # with eps = y every count is legal
        x, trace = fsqr_exact(y, y, y, 4)
        assert len(built) == 1 and len(trace.pairs) == 5
        assert x == _iterates(trace)[-1]


class TestExactTraceJoins:
    """A Trace's steps join up by construction: the first step starts at
    the seed, each step starts where the last one ended, the last pair is
    the result, and only an until-loop's exit step leaves x where it
    was."""

    def test_record_fields(self):
        """An exact record holds its fields and no view but steps: its
        seed and result are its first and last pairs."""
        assert Trace._fields == ("algorithm", "y", "eps", "pairs",
                                 "corrections")
        assert not {"seed", "final_x", "iterates"} & set(dir(Trace))
        assert "steps" in dir(Trace)

    @given(ys, epss, st.sampled_from(["sqr", "c_style", "isqr", "fsqr"]),
           st.integers(0, 4))
    @example(F(4), F(1, 2), "sqr", 0)
    @example(F(3), F(1, 4), "fsqr", 0)
    @settings(max_examples=80, deadline=None)
    def test_sampled_runs(self, y, eps, which, n):
        if which == "c_style":
            x, trace = sqr_exact(y, eps, c_style=True)
        elif which == "isqr" and y > 1:
            x, trace = isqr_exact(y, eps, y)
        elif which == "fsqr" and y > 1:
            x, trace = fsqr_exact(y, y, y,
                                  max(n, min_legal_iterations(y, y, y)))
        else:
            which = "sqr"
            x, trace = sqr_exact(y, eps)
        steps, xs = trace.steps, _iterates(trace)
        seed, final_x = (fraction_from_coprime(*trace.pairs[k])
                         for k in (0, -1))
        if steps:
            assert steps[0].x_before == seed
        assert all(prev.x_after == cur.x_before
                   for prev, cur in zip(steps, steps[1:]))
        assert seed == xs[0] and x == final_x == xs[-1]
        # an applied pass ends at the next iterate, the exit at its own
        unapplied = len(steps) + 1 - len(xs)
        assert [s.x_after for s in steps] == \
            list(xs[1:]) + [xs[-1]] * unapplied
        assert unapplied == (which in ("sqr", "isqr"))


def _until_runs(y, eps):
    """(trace, reference views) of sqr_exact and, for y > 1, of
    isqr_exact from y and from a tight seed."""
    runs = [(sqr_exact(y, eps)[1], reference_exact_run("sqr_exact", y, eps)[1])]
    if y > 1:
        runs += [(isqr_exact(y, eps, s)[1],
                  reference_exact_run("isqr_exact", y, eps, s)[1])
                 for s in _exact_seeds(y)[:2]]
    return runs


def _result_or_refusal(fn, value):
    try:
        return fn(value)
    except ValueError as exc:
        return type(exc)


class TestExitCorrectionBuiltWhenRead:
    """An until-loop's exit pass records its correction as factors, and
    the steps view builds it when read, as a step built eagerly from
    Fractions: the same value, type and lowest terms, and the same ==,
    hash, repr, copy and pickle."""

    @given(ys, epss)
    @example(F(2), F(1, 10 ** 6))
    @example(F(10 ** 4 - 1, 99), F(1, 1000))
    @settings(max_examples=60, deadline=None)
    def test_first_read(self, y, eps):
        for trace, want in _until_runs(y, eps):
            d, eager = trace.steps[-1].correction, want.corrections[-1]
            assert type(d) is F
            assert d.denominator > 0
            assert math.gcd(d.numerator, d.denominator) == 1
            assert (d.numerator, d.denominator) == \
                (eager.numerator, eager.denominator)
            assert trace.steps == eager_steps(want)

    @given(ys, epss)
    @example(F(2), F(1, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_dataclass_contract(self, y, eps):
        """The step view keeps, as a NamedTuple, the contract the step
        dataclass had: ==, hash, repr, copy and pickle as an eagerly
        built step's, _replace for dataclasses.replace, and no field
        assignment."""
        for trace, want in _until_runs(y, eps):
            step, eager = trace.steps[-1], eager_steps(want)[-1]
            assert step == eager and eager == step
            assert hash(step) == hash(eager)
            assert _result_or_refusal(repr, step) == \
                _result_or_refusal(repr, eager)
            for dup in (copy.copy, copy.deepcopy):
                assert dup(step) == eager
            pickled = pickle.dumps(step)
            assert pickled == pickle.dumps(eager)
            assert pickle.loads(pickled) == eager
            assert step._replace(k=7) == eager._replace(k=7)
            assert tuple(step) == tuple(eager)
            with pytest.raises(AttributeError):
                step.correction = F(0)

    @given(ys, epss)
    @example(F(26066, 3), F(1, 1000))
    @settings(max_examples=60, deadline=None)
    def test_value_is_the_eager_correction(self, y, eps):
        """correction(k) builds the Fraction a reference run builds
        eagerly, prod(num)/prod(den) in lowest terms."""
        for trace, want in _until_runs(y, eps):
            record = trace.corrections[-1]
            assert type(record) is newton.Correction
            d, eager = trace.correction(-1), want.corrections[-1]
            assert type(d) is F
            assert (d.numerator, d.denominator) == \
                (eager.numerator, eager.denominator)
            num, den = trace.factors(-1)
            sign = -1 if trace.algorithm == "sqr_exact" else 1
            assert d == F(sign * math.prod(num), math.prod(den))

    def test_factors_without_building(self, monkeypatch):
        _, trace = isqr_exact(F(2), F(1, 10 ** 6), F(3, 2))
        values = _values(trace)

        def refuse(record, k):
            raise AssertionError("factors(k) built the correction")

        monkeypatch.setattr(Trace, "correction", refuse)
        factors = [trace.factors(k) for k in range(len(trace.corrections))]
        for (num, den), d in zip(factors, values, strict=True):
            assert F(math.prod(num), math.prod(den)) == abs(d)
        # every pass's factors are (c, m, m) of its iterate's norm over
        # (2*b, p, q), here b = 1
        for k, (num, den) in enumerate(factors):
            assert num[1] == num[2] and den == (2, *trace.pairs[k])


def _bad_passes(trace, ds=None):
    """The passes k of an exact run whose record breaks its form: the
    Correction (c, m), c, m >= 0, with c*m**2 the norm b*p**2 - a*q**2 of
    pairs[k] = (p, q), no abs() taken, factors(k) == ((c, m, m), (2*b,
    p, q)), and correction(k) the reference value in lowest terms: the
    correction (y - x*x)/(2x) for sqr_exact and its magnitude (x*x -
    y)/(2x) for the seeded runs.  No Fraction is built for the
    reference: the value is compared by cross-multiplication, and the
    lowest terms by short gcds.  A prime common to both parts of
    norm/(2*b*p*q) divides 2*b, or p and then a (as p and q are
    coprime), or q and then b; so every such prime divides h = 2*b*gcd(a,
    p), and the parts are coprime when their gcds with h are.  ds, when
    given, holds each correction(k) as read before."""
    (a, b), flip = trace.y, -1 if trace.algorithm == "sqr_exact" else 1
    bad = []
    for k, record in enumerate(trace.corrections):
        (p, q), (c, m) = trace.pairs[k], record
        norm = b * (p * p) - a * (q * q)  # squarings: long runs are read
        d = trace.correction(k) if ds is None else ds[k]
        den = 2 * b * p * q
        h = 2 * b * math.gcd(a, p)
        if not (type(record) is newton.Correction
                and c >= 0 and m >= 0 and c * (m * m) == norm
                and trace.factors(k) == ((c, m, m), (2 * b, p, q))
                and type(d) is F and den % d.denominator == 0
                and d.numerator * (den // d.denominator) == flip * norm
                and math.gcd(math.gcd(d.numerator, h),
                             math.gcd(d.denominator, h)) == 1):
            bad.append(k)
    return bad


class TestOneRecordForm:
    """Every pass of every exact run, applied or not, records what it
    decided in one form, the Correction (c, m) of the norm of the
    iterate it starts at, and a Trace reads each correction against
    that pair: see _bad_passes.  The norm is b*p**2 - a*q**2 itself, as
    no iterate lies below sqrt(y): so the record needs no sign."""

    def test_fields(self):
        assert newton.Correction._fields == ("c", "m")
        assert Trace._fields == ("algorithm", "y", "eps", "pairs",
                                 "corrections")

    @pytest.mark.parametrize("run", [
        lambda y, eps: sqr_exact(y, eps),
        lambda y, eps: sqr_exact(y, eps, c_style=True),
        lambda y, eps: isqr_exact(y, eps, y),
        lambda y, eps: isqr_exact(y, eps, _exact_seeds(y)[1]),
        lambda y, eps: fsqr_exact(y, y, y, 6),
    ], ids=["sqr", "c_style", "isqr", "isqr-tight", "fsqr"])
    @pytest.mark.parametrize("y, eps", [(F(10 ** 4 - 1, 99), F(1, 10 ** 6)),
                                        (F(29, 9), F(1, 10 ** 6)),
                                        (F(2), F(1, 100))])
    def test_every_pass(self, run, y, eps):
        _, trace = run(y, eps)
        assert trace.corrections
        assert _bad_passes(trace) == []

    def test_tier1_corpus(self, sqr_corpus, corpus_corrections):
        runs, _ = sqr_corpus
        assert [(y, eps) for (y, eps, trace, *_), ds
                in zip(runs, corpus_corrections, strict=True)
                if _bad_passes(trace, ds)] == []
        # every run's exit pass is among those read
        assert all(len(trace.pairs) == len(trace.corrections)
                   for _, _, trace, *_ in runs)

    def test_seeded_and_c_style_runs(self):
        """isqr_exact from y and from a tight seed, fsqr_exact at n = 0
        to 6 (eps = y makes every count legal) and c_style sqr_exact, on
        80 sampled pairs and the pairs of G_NOT_DIVIDING."""
        cases = sample_rationals(80, 7) + [(y, eps) for y, eps, _
                                           in G_NOT_DIVIDING]
        traces = []
        for y, eps in cases:
            tight = _exact_seeds(y)[1]
            traces += [isqr_exact(y, eps, y)[1], isqr_exact(y, eps, tight)[1],
                       sqr_exact(y, eps, c_style=True)[1]]
            traces += [fsqr_exact(y, y, tight, n)[1] for n in range(7)]
        traces += [isqr_exact(*case)[1] for case in G_NOT_DIVIDING]
        assert sum(len(t.corrections) for t in traces) > 3000
        assert [t for t in traces if _bad_passes(t)] == []

    def test_long_record_writes_each_pair_part_once(self):
        """The repr of sqr_exact(99999989/991, 1/1000)'s record, a
        52,397-bit result, writes each long pair part once: no
        correction repeats its pair."""
        _, trace = sqr_exact(F(99999989, 991), F(1, 1000))
        text = repr(trace)
        # parts past 80 bits, whose text occurs in no other by chance
        long_parts = [str(encode_int(v)) for pair in trace.pairs
                      for v in pair if v.bit_length() > 80]
        assert len(long_parts) == 20
        assert all(text.count(t) == 1 for t in long_parts)
        # 132,791 characters while each Correction repeated its pair
        assert len(text) <= 132_791 - 52_848


def _python_310_reduce(self):
    """Fraction.__reduce__ as Python 3.10 defines it: through str(),
    which refuses a part past 4,300 digits."""
    return (type(self), (str(self),))


# a run of one pass on a radicand with a 4,401-digit numerator
LONG_Y = F(10 ** 4400 + 1, 3)


class TestTracePickle:
    """A Trace holds only ints, strs and tuples, so a long run
    pickles on Python 3.10 too, where a Fraction pickles through str();
    loading, copy and deepcopy give back equal records with equal
    hashes.  A step view holds Fractions, and pickles as they do: by
    their int pair from Python 3.11 on, through str() on 3.10."""

    def test_long_run_round_trips(self):
        _, trace = sqr_exact(F(26066, 3), F(1, 1000))
        step = trace.steps[-1]
        assert step.correction.denominator.bit_length() > 4300 * 3.33
        records = [trace, trace.corrections[-1]]
        if sys.version_info >= (3, 11):
            records.append(step)
        else:
            with pytest.raises(ValueError):
                pickle.dumps(step)
        for record in records:
            for back in (pickle.loads(pickle.dumps(record)),
                         copy.copy(record), copy.deepcopy(record)):
                assert type(back) is type(record)
                assert back == record and hash(back) == hash(record)

    def test_under_the_python_310_fraction_reduce(self, monkeypatch):
        runs = [sqr_exact(F(26066, 3), F(1, 1000))[1],
                sqr_exact(LONG_Y, LONG_Y)[1]]
        pickled = [pickle.dumps(r) for r in runs]
        monkeypatch.setattr(F, "__reduce__", _python_310_reduce)
        for value in (runs[0].steps[-1], LONG_Y):
            with pytest.raises(ValueError):
                pickle.dumps(value)
        assert [pickle.dumps(r) for r in runs] == pickled
        assert [pickle.loads(p) for p in pickled] == runs
        assert F(*pickle.loads(pickled[1]).y) == LONG_Y

    @pytest.mark.parametrize("run", [
        lambda: sqr_exact(F(4), F(1, 2)),
        lambda: fsqr_exact(F(2), F(1, 100), F(3, 2),
                           min_legal_iterations(F(2), F(1, 100), F(3, 2))),
        lambda: isqr_exact(F(2), F(1, 10 ** 6), F(3, 2)),
    ])
    def test_short_runs_round_trip(self, run):
        _, trace = run()
        back = pickle.loads(pickle.dumps(trace))
        assert back == trace and repr(back) == repr(trace)

    def test_grid_steps_round_trip(self):
        fix = FixProfile(1000, 20000, 20000)
        table = build_root_table(fix, fix.val(16))
        _, trace = fix_sqr(fix.val(6434), fix.val(8), table, 3)
        for step in trace.steps:
            assert pickle.loads(pickle.dumps(step)) == step


def _plain_repr(value):
    """The repr a NamedTuple generates, with each part by repr()."""
    if not isinstance(value, tuple):
        return repr(value)
    parts = [_plain_repr(v) for v in value]
    if hasattr(value, "_fields"):
        body = ", ".join(f"{name}={part}"
                         for name, part in zip(value._fields, parts))
        return f"{type(value).__qualname__}({body})"
    return f"({', '.join(parts)}{',' if len(parts) == 1 else ''})"


class TestTraceRepr:
    """A Trace and its records print as the NamedTuple repr while every
    integer part is short, write a longer part as a hex literal, and
    read back with eval."""

    def test_long_run(self):
        _, trace = sqr_exact(F(26066, 3), F(1, 1000))
        # the NamedTuple repr writes these parts in decimal, which Python
        # 3.11 can be set to refuse past 640 digits
        assert trace.corrections[-1].m.bit_length() > 640 * 3.33
        text = repr(trace)
        assert text.startswith("Trace(algorithm='sqr_exact', y=(26066, 3), "
                               "eps=(1, 1000), pairs=((26066, 3), (")
        assert ", m=0x" in text
        names = {"Trace": Trace, "Correction": newton.Correction}
        assert eval(text, names) == trace
        record = trace.corrections[-1]
        assert eval(repr(record), names) == record
        # a step view writes each long part of its Fractions in hex too
        step = trace.steps[-1]
        assert step.correction.denominator.bit_length() > 4300 * 3.33
        text = repr(step)
        assert text.startswith("TraceStep(k=") and ", 0x" in text
        assert eval(text, {"TraceStep": TraceStep, "Fraction": F}) == step
        _, trace = sqr_exact(LONG_Y, LONG_Y)
        assert eval(repr(trace), names) == trace

    @pytest.mark.parametrize("run", [
        lambda: sqr_exact(F(2), F(1, 10 ** 6)),
        lambda: sqr_exact(F(10 ** 4 - 1, 99), F(1, 10)),
        lambda: sqr_exact(F(7, 3), F(1, 10 ** 6), c_style=True),
        lambda: sqr_exact(F(1), F(1, 10)),
        lambda: isqr_exact(F(2), F(1, 10 ** 6), F(3, 2)),
        lambda: fsqr_exact(F(2), F(1, 100), F(3, 2),
                           min_legal_iterations(F(2), F(1, 100), F(3, 2))),
    ])
    def test_short_runs_print_as_the_dataclass(self, run):
        _, trace = run()
        for step in trace.steps:
            assert repr(step) == _plain_repr(step)
        assert repr(trace) == _plain_repr(trace)

    def test_pinned(self):
        _, trace = sqr_exact(F(4), F(1, 2))
        # each pass keeps c*m**2, read over 2*b*p*q of its pair: the
        # applied -3/2 = -12/(2*4*1) and -9/20 = -(1*3*3)/(2*5*2), and
        # the exit -81/1640 = -(1*9*9)/(2*41*20)
        assert repr(trace) == (
            "Trace(algorithm='sqr_exact', y=(4, 1), eps=(1, 2), "
            "pairs=((4, 1), (5, 2), (41, 20)), corrections=("
            "Correction(c=12, m=1), "
            "Correction(c=1, m=3), "
            "Correction(c=1, m=9)))")
        assert _values(trace) == [F(-3, 2), F(-9, 20), F(-81, 1640)]

    def test_grid_steps(self):
        fix = FixProfile(1000, 20000, 20000)
        table = build_root_table(fix, fix.val(16))
        _, trace = fix_sqr(fix.val(6434), fix.val(8), table, 3)
        for step in trace.steps:
            assert repr(step) == _plain_repr(step)
            assert repr(step.x_before).startswith("FixVal(count=")


def _pass_bits(y, x):
    """The step's bound on the bits of the pair it forms from x."""
    return (2 * max(x.numerator.bit_length(), x.denominator.bit_length())
            + max(y.numerator, y.denominator).bit_length() + 1)


class TestOperandCap:
    """CERTISQRT_MAX_BITS refuses a pass before it forms integers longer
    than the cap; runs under the cap are unchanged."""

    @pytest.mark.parametrize("y, eps", EXIT_RUNS)
    def test_bound_covers_the_pair(self, y, eps):
        _, trace = sqr_exact(y, eps, c_style=True)
        for x in _iterates(trace)[:len(trace.corrections)]:
            p, q = x.numerator, x.denominator
            bpp, aqq = y.denominator * p * p, y.numerator * q * q
            longest = max((bpp + aqq).bit_length(),
                          (2 * y.denominator * p * q).bit_length())
            assert longest <= _pass_bits(y, x)

    @pytest.mark.parametrize("y, eps, seed",
                             [(y, eps, y) for y, eps in EXIT_RUNS]
                             + G_NOT_DIVIDING)
    def test_bound_covers_the_norm_update(self, y, eps, seed):
        for run in (lambda: sqr_exact(y, eps),
                    lambda: sqr_exact(y, eps, c_style=True),
                    lambda: isqr_exact(y, eps, seed)):
            (trace,), passes, updates = _recorded(run)
            # pass k >= 1 carries the norm of pass k - 1, split once
            assert len(updates) == len(trace.corrections) - 1
            for (norm, g, b), x in zip(updates, _iterates(trace)[1:]):
                h = math.gcd(norm, g)
                formed = (h, g // h, (g // h) ** 2, b // (g // h) ** 2,
                          abs(norm) // h)
                assert formed[-2] * formed[-1] ** 2 == _norm_of(y, x)
                assert max(abs(v).bit_length() for v in formed) \
                    <= _pass_bits(y, x)
            # a gcd-rule pass forms c*m and the norm c*m*m; reading a
            # correction forms its c*m*m, 2*b*p and 2*b*p*q of its pair,
            # the norm's content, the gcd against it and the two quotients
            assert len(passes) == len(trace.corrections)
            for _, x, c, m, ad in passes:
                p, q, b = x.numerator, x.denominator, y.denominator
                num, den = ad.c * ad.m * ad.m, 2 * b * p * q
                s = newton._content(num, 2 * y.numerator * b)
                g = math.gcd(s, den)
                formed = [c * m, c * m * m, s, 2 * b * p, den, g, num // g,
                          den // g]
                assert max(abs(v).bit_length() for v in formed) \
                    <= _pass_bits(y, x)
            # a closed-form pass splits the next norm from integers no
            # longer than its own pair's bound
            xs = _iterates(trace)
            for k in _closed_passes(trace):
                assert max(v.bit_length() for v
                           in _closed_parts(y, *trace.pairs[k])) \
                    <= _pass_bits(y, xs[k])

    @pytest.mark.parametrize("y, eps", EXIT_RUNS)
    def test_cap_at_the_run_maximum(self, monkeypatch, y, eps):
        runs = {"sqr": lambda: sqr_exact(y, eps),
                "c": lambda: sqr_exact(y, eps, c_style=True),
                "isqr": lambda: isqr_exact(y, eps, y)}
        records = _count_corrections(monkeypatch)
        built = _count_built(monkeypatch)
        for run in runs.values():
            monkeypatch.delenv("CERTISQRT_MAX_BITS", raising=False)
            x, trace = run()
            bits = [_pass_bits(y, x_k) for x_k
                    in _iterates(trace)[:len(trace.corrections)]]
            cap = max(bits)
            monkeypatch.setenv("CERTISQRT_MAX_BITS", str(cap))
            assert run() == (x, trace)
            monkeypatch.setenv("CERTISQRT_MAX_BITS", str(cap - 1))
            k = bits.index(cap)
            records.clear()
            built.clear()
            with pytest.raises(ResourceLimit) as info:
                run()
            assert str(info.value) == (
                f"exact Newton pass {k} may form {cap}-bit operands, "
                f"above CERTISQRT_MAX_BITS = {cap - 1}")
            # the refused pass formed nothing: passes 0..k-1 recorded
            # their Corrections, pass k none (an old-rule pass splits its
            # norm just before it records), and the refused run built no
            # result
            assert len(records) == k
            assert built == []

    @pytest.mark.parametrize("cap", [None, "4096"])
    def test_refuses_before_the_work(self, monkeypatch, cap):
        # without a cap this run takes minutes and reaches 34.8M bits
        if cap is None:
            monkeypatch.delenv("CERTISQRT_MAX_BITS", raising=False)
        else:
            monkeypatch.setenv("CERTISQRT_MAX_BITS", cap)
        limit = newton.DEFAULT_MAX_BITS if cap is None else int(cap)
        y, eps = F(10 ** 10), F(1, 10 ** 6)
        runs = [lambda: sqr_exact(y, eps),
                lambda: isqr_exact(y, eps, y),
                lambda: fsqr_exact(y, eps, y, 64)]
        for run in runs:
            with pytest.raises(ResourceLimit,
                               match=r"^exact Newton pass \d+ may form "
                                     r"\d+-bit operands") as info:
                run()
            # the last pair formed is the one whose pass was refused: the
            # k passes before it run under the cap (eps = y makes every
            # count legal), and each formed no integer past its bound
            k = int(str(info.value).split()[3])
            *formed, last = _iterates(fsqr_exact(y, y, y, k)[1])
            assert max(_pass_bits(y, x) for x in formed) <= limit \
                < _pass_bits(y, last)

    def test_cap_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("CERTISQRT_MAX_BITS", "2**21")
        with pytest.raises(DomainError,
                           match="CERTISQRT_MAX_BITS must be an integer"):
            sqr_exact(F(2), F(1, 100))


class TestDeriveEps:
    def test_unit_ulp_demo(self, demo_stp, demo_float_profile):
        eps = derive_eps_for_ulp(F(1), demo_float_profile, demo_stp)
        assert eps.count == 25
        # feasibility: eps + sqrt(2)/400 < 1/2, that is 0 < rest and
        # 2/400**2 < rest**2 for rest = 1/2 - eps
        rest = F(1, 2) - eps.value
        assert rest > 0 and 2 * F(1, 400) ** 2 < rest * rest

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
        rest = F(3, 20) - F(20, 100)  # 20/100 + sqrt(2)/400 >= 3/20
        assert not (rest > 0 and 2 * F(1, 400) ** 2 < rest * rest)

    def test_margin_tie_on_base_4_is_infeasible(self):
        # on base 4 the bound eps + (1/200)/4*sqrt(4) = eps + 1/400 is
        # rational: eps = 20/100 meets ulp/2 = 81/400 with equality, and
        # the margin is strict
        fix = FixProfile(100, 6400, 6400)
        fprof = FloatProfile(4, fix, F(65536), F(65536))
        stp = fix.val(40)
        assert derive_eps_for_ulp(F(81, 200), fprof, stp) == fix.val(10)
        assert derive_eps_for_ulp(F(81, 200) + F(1, 10 ** 9), fprof,
                                  stp) == fix.val(20)

    @staticmethod
    def margin(ulp, eps, base):
        """The half-ulp margin as a Fraction formula: c1 + c2*sqrt(base) <
        ulp/2 for c1 = eps and c2 = delta/(2*base), as rest = ulp/2 - c1 >
        0 and rest**2 > c2**2*base."""
        rest = ulp / 2 - eps.value
        c2 = eps.profile.delta / (2 * base)
        return rest > 0 and rest * rest > c2 * c2 * base

    @classmethod
    def every_divisor(cls, ulp, fprof, stp):
        """The search that also tried the divisors with eps >= ulp/2:
        every divisor of stp, largest first, with the margin as a Fraction
        formula."""
        for count in range(stp.count, 0, -1):
            if stp.count % count:
                continue
            eps = fprof.fix.val(count)
            if cls.margin(ulp, eps, fprof.base) \
                    and count >= newton._mix_eps_floor(
                        newton._least_count(stp.count, count)):
                return eps
        return None

    def outcome(self, ulp, fprof, stp):
        try:
            return derive_eps_for_ulp(ulp, fprof, stp)
        except NoFeasibleEps:
            return None

    @pytest.mark.parametrize("base", [2, 4])
    def test_skipped_divisors_change_no_result(self, base):
        fix = FixProfile(100, 6400, 6400)
        fprof = FloatProfile(base, fix, F(65536), F(65536))
        for count in (2, 4, 8, 10, 20, 25, 40, 64, 100, 128, 320, 800, 6400):
            stp = fix.val(count)
            for ulp in (F(1, 100), F(1, 5), F(81, 200), F(1, 2), F(1),
                        F(2), F(10), F(10 ** 6)):
                assert self.outcome(ulp, fprof, stp) == \
                    self.every_divisor(ulp, fprof, stp), (count, ulp)

    def test_margin_ties_on_base_4(self):
        """On base 4 the margin's bound eps + delta/4 is rational: at ulp/2
        equal to it each count fails the margin, and passes it just above,
        as the Fraction formula decides."""
        fix = FixProfile(100, 6400, 6400)
        fprof = FloatProfile(4, fix, F(65536), F(65536))
        stp = fix.val(6400)
        for count in (1, 2, 5, 10, 16, 20, 25, 40, 64, 80, 100, 320):
            tie = 2 * (fix.val(count).value + fix.delta / 4)
            budget = count >= newton._mix_eps_floor(
                newton._least_count(stp.count, count))
            for ulp in (tie - F(1, 10 ** 9), tie, tie + F(1, 10 ** 9)):
                want = self.every_divisor(ulp, fprof, stp)
                assert self.outcome(ulp, fprof, stp) == want, (count, ulp)
                # no larger count meets the margin, so the tie's count is
                # the result just when it meets the budget and ulp > tie
                assert (want == fix.val(count)) is (budget and ulp > tie)

    def test_random_profiles_match_fraction_formula(self):
        rng = random.Random(49)
        feasible = 0
        for _ in range(300):
            base = rng.choice([2, 3, 4, 9, 10, 16])
            d = rng.randint(3, 400)
            stp_count = rng.randint(2, 240)
            sup = stp_count * (-(-(base * base * d + 1) // stp_count)
                               + rng.randint(0, 4))
            fprof = FloatProfile(base, FixProfile(d, sup, sup), F(65536),
                                 F(65536))
            stp = fprof.fix.val(stp_count)
            ulp = F(rng.randint(1, 4 * stp_count), rng.randint(1, 2 * d))
            got = self.outcome(ulp, fprof, stp)
            assert got == self.every_divisor(ulp, fprof, stp), \
                (base, d, sup, stp_count, ulp)
            feasible += got is not None
        assert 30 < feasible < 270

    def test_int_ulp(self, demo_float_profile, demo_stp):
        for ulp in (1, 2, 10 ** 6):
            assert derive_eps_for_ulp(ulp, demo_float_profile, demo_stp) \
                == derive_eps_for_ulp(F(ulp), demo_float_profile, demo_stp)

    def test_divisors_below(self):
        for n in range(1, 200):
            for bound in range(-1, n + 3):
                assert newton._divisors_below(n, bound) == [
                    c for c in range(n, 0, -1) if n % c == 0 and c < bound]

    def test_trial_divisions_capped(self):
        """A step of 2.5*10**29 counts has divisors below ulp/2 up to
        sqrt(stp) = 5*10**14 apart: refused before the first trial."""
        fix = FixProfile(100, 1600, 10 ** 30)
        fprof = FloatProfile(2, fix, F(65536), F(65536))
        stp = fix.val(25 * 10 ** 28)
        with pytest.raises(ResourceLimit, match=(
                r"^the divisors of 250000000000000000000000000000 below "
                r"\d+ need 500000000000000 trial divisions, cap 1048576$")):
            derive_eps_for_ulp(F(10 ** 40), fprof, stp)
        # at ulp 1 only the counts below 50 are tried, and none is
        # feasible
        with pytest.raises(NoFeasibleEps):
            derive_eps_for_ulp(F(1), fprof, stp)


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
