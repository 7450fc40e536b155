import itertools
import math
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certisqrt.errors import (
    CertisqrtError,
    DivisionByZero,
    DomainError,
    EpsTooSmall,
    IterationBudgetError,
    MantissaRange,
    NoFeasibleEps,
    RangeOverflow,
    ResourceLimit,
    SeedContractError,
)
from certisqrt.exact import (
    Ordering,
    cmp_sqrt,
    fraction_from_coprime,
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
    Trace,
    TraceStep,
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
        x, trace = isqr_exact(F(4), F(1, 10), F(2))
        assert x == 2
        assert len(trace.steps) == 1

    def test_table_like_seed(self):
        x, trace = isqr_exact(F(3), F(1, 10), F(174, 100))
        assert x == F(174, 100)  # AD ~ 0.0079 < 0.05 at entry
        assert len(trace.steps) == 1

    def test_degenerate_seed_y(self):
        x, trace = isqr_exact(F(3), F(1, 10), F(3))
        assert x == F(7, 4)
        applied = [s.correction for s in trace.steps if
                   s.x_after != s.x_before]
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
        assert x == 2 and trace.steps == ()

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
        assert trace.n_planned == 4 and len(trace.steps) == 4

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
            prod_positive = (sign > 0) == (mid_cmp is Ordering.GREATER)
            assert mid_cmp is Ordering.EQUAL or not prod_positive

    @given(ys.filter(lambda v: v > 1), epss)
    @settings(max_examples=40, deadline=None)
    def test_progress_bound(self, y, eps):
        seed_val = min(sqrt_enclosure(y, 8).hi, y)
        n = min_legal_iterations(y, eps, seed_val)
        _, trace = fsqr_exact(y, eps, seed_val, n)
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


def reference_grid_run(algorithm, y, eps, stp, n=None):
    """fix_sqr(y, eps, table, n), or with n None the mix_sqr loop, under
    the name algorithm: every value a Fraction, the rounding done here,
    the seed from math.isqrt.  It calls no fixarith or lut arithmetic,
    so it checks the shared primitives instead of restating them."""
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

    def on_grid(v: F) -> FixVal:
        return FixVal(int(v * d), profile)

    # seed: min(y, least grid g with g*g >= the step multiple at or above y)
    sv = F(stp.count, d)
    v = math.ceil(yv / sv) * sv
    x = min(yv, F(math.isqrt(int(v * d * d) - 1) + 1, d))
    seed = on_grid(x)
    steps = []
    for k in range(n):
        half = _ref_div(x, F(2), profile)
        twice = _ref_add(x, x, profile)
        quot = _ref_div(yv, twice, profile)
        x_new = _ref_add(half, quot, profile)
        steps.append(TraceStep(k, on_grid(x), x_new - x, on_grid(x_new)))
        x = x_new
    final = on_grid(x)
    return final, Trace(algorithm, y=y, eps=eps, final_x=final,
                        steps=tuple(steps), stp=stp, n_planned=n, seed=seed)


def reference_flt_run(a, eps, fprof, stp):
    """flt_sqr on a positive a over reference_grid_run."""
    man, e = a.man, a.exp
    if e % 2:
        # man < sup/base, so the radicand man*base is in range and exact
        y, z = FixVal(man.count * fprof.base, fprof.fix), e - 1
    else:
        y, z = man, e
    x, trace = reference_grid_run("flt_sqr", y, eps, stp)
    b = compose(x, z // 2, fprof)
    return b, replace(trace, notes={
        "input": {"man": str(man), "exp": e}, "radicand": str(y),
        "result": {"man": str(b.man), "exp": b.exp}})


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
        # range, and some results collapse onto the excluded mantissa 1
        refused = Counter(got[0] for got in
                          (_outcome(*run) for _, run, _ in cases)
                          if isinstance(got[0], type))
        assert refused[DomainError] > 0 and refused[MantissaRange] > 0

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


def reference_exact_run(algorithm, y, eps, seed=None, n=None,
                        c_style=False):
    """sqr_exact(y, eps, c_style), isqr_exact(y, eps, seed) or
    fsqr_exact(y, eps, seed, n) in plain Fraction arithmetic: the
    correction d := (y - x*x)/(2x) formed as written, the exit rules of
    the docstrings, the refusals in their order.  It calls nothing in
    certisqrt.exact or newton's step, so it checks them."""
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
    steps = []
    if algorithm == "fsqr_exact":
        # legal when seed - eps*2**(n-1) <= sqrt(y)
        t = seed - eps * F(2) ** (n - 1)
        if t > 0 and t * t > y:
            raise IterationBudgetError(
                f"n={n} below the legal minimum for seed {seed}")
        for k in range(n):
            d = (y - x * x) / (2 * x)
            steps.append(TraceStep(k, x, -d, x + d))
            x += d
        return x, Trace(algorithm, y=y, eps=eps, final_x=x,
                        steps=tuple(steps), n_planned=n, seed=seed)
    for k in itertools.count():
        d = (y - x * x) / (2 * x)
        if algorithm == "sqr_exact":
            # exit when |d| < eps/2, c_style after applying d
            stop = abs(d) < eps / 2
            if stop and not c_style:
                steps.append(TraceStep(k, x, d, x))
                break
            steps.append(TraceStep(k, x, d, x + d))
            x += d
            if stop:
                break
        else:
            # the magnitude ad = -d is recorded and subtracted
            if -d < eps / 2:
                steps.append(TraceStep(k, x, -d, x))
                break
            steps.append(TraceStep(k, x, -d, x + d))
            x += d
    if algorithm == "sqr_exact":
        return x, Trace(algorithm, y=y, eps=eps, final_x=x,
                        steps=tuple(steps), seed=y,
                        notes={"exit_style": "c" if c_style else "flowchart"})
    return x, Trace(algorithm, y=y, eps=eps, final_x=x, steps=tuple(steps),
                    seed=seed)


def _exact_seeds(y):
    """y itself, a tight seed from math.isqrt, and two seeds that break
    the contract when y > 1: 1 below sqrt(y), y + 1 above y."""
    scaled = y * 4 ** 8
    tight = min(y, F(math.isqrt(scaled.numerator // scaled.denominator) + 1,
                     2 ** 8))
    return [y, tight, F(1), y + 1]


def _exact_cases(y, eps, seeds, counts):
    cases = [((y, eps, c_style), (sqr_exact, y, eps, c_style),
              (reference_exact_run, "sqr_exact", y, eps, None, None, c_style))
             for c_style in (False, True)]
    for s in seeds:
        cases.append(((y, eps, s), (isqr_exact, y, eps, s),
                      (reference_exact_run, "isqr_exact", y, eps, s)))
        cases += [((y, eps, s, n), (fsqr_exact, y, eps, s, n),
                   (reference_exact_run, "fsqr_exact", y, eps, s, n))
                  for n in counts]
    return cases


class TestExactLoopMatchesReference:
    """sqr_exact (both exits), isqr_exact and fsqr_exact give the
    reference's traces and refusals, field for field and message for
    message."""

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
        ties = {2 * abs(step.correction) for run in runs for step in run.steps}
        assert _mismatches([case for eps in sorted(ties)
                            for case in _exact_cases(y, eps, seeds, [0, 1])
                            ]) == []


def _plain_step(y, p, q):
    """One step from x = p/q by the product formula: (ad_num, ad_den) and
    the next pair, stripped as the step strips it."""
    a, b = y.numerator, y.denominator
    bpp, aqq = b * p * p, a * q * q
    ad_den = 2 * b * p * q
    return (bpp - aqq, ad_den,
            *newton._strip_small(bpp + aqq, ad_den, 2 * a * b))


def _count_built(monkeypatch) -> list[int]:
    """Record the bit length of every iterate _newton_steps builds."""
    built = []
    real = newton.fraction_from_coprime

    def counting(p, q):
        if sys._getframe(1).f_code.co_name == "_newton_steps":
            built.append(max(p.bit_length(), q.bit_length()))
        return real(p, q)

    monkeypatch.setattr(newton, "fraction_from_coprime", counting)
    return built


EXIT_RUNS = [(F(2), F(1, 100)), (F(3, 2), F(1, 10 ** 6)),
             (F(10 ** 4), F(1, 1000)), (F(7, 3), F(1, 10 ** 12))]


class TestExactStep:
    """_newton_steps forms each pass from three squarings and builds no
    iterate on a pass whose correction is not applied."""

    @given(ys, st.integers(1000, 200_000), st.integers(1000, 200_000),
           st.integers(0, 2 ** 64))
    @example(F(10 ** 4 - 1, 99), 200_000, 199_999, 1)
    @settings(max_examples=25, deadline=None)
    def test_squarings_match_products(self, y, p_bits, q_bits, seed):
        rng = random.Random(seed)
        p = rng.getrandbits(p_bits) | 1 << (p_bits - 1)
        q = rng.getrandbits(q_bits) | 1 << (q_bits - 1)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        one_pass = newton._newton_steps(y, fraction_from_coprime(p, q), 1)
        _, _, _, ad_num, ad_den = next(one_pass)
        x_after = one_pass.send(True)
        assert (ad_num, ad_den, x_after.numerator,
                x_after.denominator) == _plain_step(y, p, q)

    @pytest.mark.parametrize("y, eps", EXIT_RUNS)
    def test_until_loop_exit_builds_no_iterate(self, monkeypatch, y, eps):
        built = _count_built(monkeypatch)
        _, trace = sqr_exact(y, eps)
        assert len(trace.steps) >= 2
        assert len(built) == len(trace.steps) - 1
        built.clear()
        _, trace = isqr_exact(y, eps, y)
        assert len(built) == len(trace.steps) - 1

    @pytest.mark.parametrize("y, eps", EXIT_RUNS)
    def test_applied_passes_build_their_iterates(self, monkeypatch, y, eps):
        built = _count_built(monkeypatch)
        x, trace = sqr_exact(y, eps, c_style=True)
        assert len(built) == len(trace.steps)
        assert x == trace.steps[-1].x_after != trace.steps[-1].x_before
        built.clear()
        # with eps = y every count is legal
        x, trace = fsqr_exact(y, y, y, 4)
        assert len(built) == len(trace.steps) == 4
        assert x == trace.steps[-1].x_after


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
        for step in trace.steps:
            p, q = step.x_before.numerator, step.x_before.denominator
            bpp, aqq = y.denominator * p * p, y.numerator * q * q
            longest = max((bpp + aqq).bit_length(),
                          (2 * y.denominator * p * q).bit_length())
            assert longest <= _pass_bits(y, step.x_before)

    @pytest.mark.parametrize("y, eps", EXIT_RUNS)
    def test_cap_at_the_run_maximum(self, monkeypatch, y, eps):
        runs = {"sqr": lambda: sqr_exact(y, eps),
                "c": lambda: sqr_exact(y, eps, c_style=True),
                "isqr": lambda: isqr_exact(y, eps, y)}
        for run in runs.values():
            monkeypatch.delenv("CERTISQRT_MAX_BITS", raising=False)
            x, trace = run()
            bits = [_pass_bits(y, step.x_before) for step in trace.steps]
            cap = max(bits)
            monkeypatch.setenv("CERTISQRT_MAX_BITS", str(cap))
            assert run() == (x, trace)
            monkeypatch.setenv("CERTISQRT_MAX_BITS", str(cap - 1))
            k = bits.index(cap)
            with pytest.raises(ResourceLimit) as info:
                run()
            assert str(info.value) == (
                f"exact Newton pass {k} may form {cap}-bit operands, "
                f"above CERTISQRT_MAX_BITS = {cap - 1}")

    @pytest.mark.parametrize("cap", [None, "4096"])
    def test_refuses_before_the_work(self, monkeypatch, cap):
        # without a cap this run takes minutes and reaches 34.8M bits
        if cap is None:
            monkeypatch.delenv("CERTISQRT_MAX_BITS", raising=False)
        else:
            monkeypatch.setenv("CERTISQRT_MAX_BITS", cap)
        limit = newton.DEFAULT_MAX_BITS if cap is None else int(cap)
        built = _count_built(monkeypatch)
        y, eps = F(10 ** 10), F(1, 10 ** 6)
        runs = [lambda: sqr_exact(y, eps),
                lambda: isqr_exact(y, eps, y),
                lambda: fsqr_exact(y, eps, y, 64)]
        for run in runs:
            built.clear()
            with pytest.raises(ResourceLimit,
                               match=r"^exact Newton pass \d+ may form "
                                     r"\d+-bit operands"):
                run()
            # the last iterate built is the one whose pass was refused
            assert max(built) <= limit < _pass_bits(y, F(2 ** max(built)))

    def test_cap_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("CERTISQRT_MAX_BITS", "2**21")
        with pytest.raises(DomainError,
                           match="CERTISQRT_MAX_BITS must be an integer"):
            sqr_exact(F(2), F(1, 100))


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
