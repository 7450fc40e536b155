import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certisqrt import fixarith
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
from certisqrt.report import VerifyReport, check


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

    def test_huge_overflow_message(self, p100):
        # 5,000-digit parts print in hex, past the int-to-str digit limit
        with pytest.raises(RangeOverflow, match=r"^0x[0-9a-f]+ quantizes "
                                                r"to count 0x[0-9a-f]+,"):
            quantize(F(10 ** 5000), p100)
        with pytest.raises(RangeOverflow, match=r"^count -0x[0-9a-f]+ "
                                                r"outside \[-1600, 1600\]$"):
            p100.val(-10 ** 5000)


class TestAddSub:
    def test_exact(self, p100):
        s = fix_add(p100.val(87), p100.val(86))
        assert s.count == 173

    def test_identity(self, p100):
        x = p100.val(145)
        assert fix_add(x, p100.val(0)).count == x.count

    def test_overflow(self, p100):
        with pytest.raises(RangeOverflow) as exc:
            fix_add(p100.val(1600), p100.val(1))
        assert str(exc.value) == "1600/100 + 1/100 overflows the range"

    def test_sub(self, p100):
        assert fix_sub(p100.val(100), p100.val(250)).count == -150
        with pytest.raises(RangeOverflow) as exc:
            fix_sub(p100.val(-1600), p100.val(1))
        assert str(exc.value) == "-1600/100 - 1/100 overflows the range"

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
        for nx in (1, 0):
            with pytest.raises(DivisionByZero) as exc:
                fix_div(p100.val(nx), p100.val(0))
            assert str(exc.value) == f"{nx}/100 / 0/100"

    def test_negative_divisor_rounding(self, p10):
        # 0.5 / -0.3 = -1.666... -> -1.7
        assert fix_div(p10.val(5), p10.val(-3)).count == -17

    def test_overflow(self, p100):
        with pytest.raises(RangeOverflow) as exc:
            fix_div(p100.val(1600), p100.val(-1))
        assert str(exc.value) == "1600/100 / -1/100 overflows the range"

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


def _outcome(fn, *args):
    """("count", c) for a result, else (exception type, message)."""
    try:
        return ("count", fn(*args))
    except (DivisionByZero, RangeOverflow) as exc:
        return (type(exc), str(exc))


def _composed_step(x: int, y: int, profile: FixProfile) -> int:
    """The grid step as the paper writes it, through the public ops."""
    xv, yv = FixVal(x, profile), FixVal(y, profile)
    return fix_add(fix_div(xv, profile.from_int(2)),
                   fix_div(yv, fix_add(xv, xv))).count


WIDE = FixProfile(1000, 4_000_000, 4_000_000)


class TestNewtonStep:
    """fixarith._newton_step, the grid loop's one call per pass, equals
    fix_add(fix_div(x, 2), fix_div(y, fix_add(x, x))) on every pair
    (x > 0, y), overflows included: the same count, or the same
    exception type and message.  So the operations check_profile_
    assumptions probes are the arithmetic the loop runs."""

    @pytest.mark.parametrize("profile", [FixProfile(10, 40, 40),
                                         FixProfile(10, 30, 50),
                                         FixProfile(4, 40, 40)],
                             ids=["micro", "asymmetric", "quarter"])
    def test_every_pair_of_a_small_grid(self, profile):
        d, sup = profile.delta_den, profile.sup_count
        refused = {"twice": 0, "quotient": 0, "sum": 0}
        for x in range(1, sup + 1):
            for y in range(-profile.inf_count, sup + 1):
                got = _outcome(fixarith._newton_step, x, y, profile)
                assert got == _outcome(_composed_step, x, y, profile), (x, y)
                if got[0] is RangeOverflow:
                    if got[1] == f"{x}/{d} + {x}/{d} overflows the range":
                        refused["twice"] += 1
                    elif " / " in got[1]:
                        refused["quotient"] += 1
                    else:
                        refused["sum"] += 1
        assert min(refused.values()) > 0, refused

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, WIDE.sup_count),
           st.integers(-WIDE.inf_count, WIDE.sup_count))
    def test_wide_profile(self, x, y):
        assert _outcome(fixarith._newton_step, x, y, WIDE) == \
            _outcome(_composed_step, x, y, WIDE)

    def test_halving_rounds_ties_to_even(self):
        # y = 0 leaves the step x/2: 1/2 -> 0, 3/2 -> 2, 5/2 -> 2
        assert [fixarith._newton_step(x, 0, WIDE) for x in (1, 3, 5, 6)] \
            == [0, 2, 2, 3]

    def test_quotient_rounds_ties_to_even(self):
        # x = 1 leaves the step 1/2 + y/2, and y/2 over counts ties at an
        # odd count: 1/2 -> 0, 3/2 -> 2, 5/2 -> 2; so does fix_div
        d = WIDE.delta_den
        for step in (fixarith._newton_step, _composed_step):
            assert [step(d, y, WIDE) for y in (1, 3, 5, 6)] == \
                [d // 2 + q for q in (0, 2, 2, 3)]


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

    @pytest.mark.parametrize("budget", [-5, 0, "x", "4096", 2.0, True])
    def test_budget_below_one_or_not_an_integer_refused(self, p10, budget):
        with pytest.raises(DomainError, match="budget"):
            check_profile_assumptions(p10, budget=budget)

    @pytest.mark.parametrize("budget,pairs", [(1, 1), ("exhaustive", 81 ** 2)])
    def test_least_budget_and_exhaustive_accepted(self, p10, budget, pairs):
        report = check_profile_assumptions(p10, budget=budget)
        assert report.overall
        assert report.checks[-1].witness["pairs"] == pairs


def _reference_rounding_contract(profile, nx, ny):
    """The probe's former per-pair mul/div check in Fraction arithmetic,
    with its tie and on-grid branches; returns (ok, witness)."""
    d = profile.delta_den
    delta = profile.delta
    x, y = FixVal(nx, profile), FixVal(ny, profile)
    exact_mul = x.value * y.value
    if -profile.inf_value <= exact_mul <= profile.sup_value:
        got = fixarith.fix_mul(x, y)
        err = abs(got.value - exact_mul)
        tie = (2 * (nx * ny % d)) == d
        on_grid = (nx * ny) % d == 0
        if err > delta / 2 or (on_grid and got.value != exact_mul) \
                or (not tie and not on_grid and err >= delta / 2):
            return False, {"op": "mul", "x": str(x), "y": str(y),
                           "result": str(got), "exact": exact_mul}
    if ny != 0:
        exact_div = F(nx, ny)
        if -profile.inf_value <= exact_div <= profile.sup_value:
            got = fixarith.fix_div(x, y)
            err = abs(got.value - exact_div)
            num, den = nx * d, abs(ny)
            tie = (2 * (num * (1 if ny > 0 else -1) % den)) == den
            on_grid = (nx * d) % ny == 0
            if err > delta / 2 or (on_grid and got.value != exact_div) \
                    or (not tie and not on_grid and err >= delta / 2):
                return False, {"op": "div", "x": str(x), "y": str(y),
                               "result": str(got), "exact": exact_div}
    return True, {}


def reference_profile_assumptions(profile, budget=4096, seed=0):
    """The former check_profile_assumptions: a separate add/sub loop (on a
    pair where both fail, sub's result is the witness) and the Fraction
    mul/div contract above.  The operations are looked up in fixarith at
    call time, so a monkeypatched operation reaches both implementations."""
    add_ok, add_witness = True, {}
    contract_ok, contract_witness = True, {}
    if not profile.is_valid():
        add_witness = contract_witness = {"skipped":
                                          "structural assumptions failed"}
    else:
        if budget == "exhaustive":
            pairs = ((nx, ny)
                     for nx in range(-profile.inf_count, profile.sup_count + 1)
                     for ny in range(-profile.inf_count, profile.sup_count + 1))
            total = (profile.inf_count + profile.sup_count + 1) ** 2
        else:
            rng = random.Random(seed)
            total = int(budget)
            pairs = ((rng.randint(-profile.inf_count, profile.sup_count),
                      rng.randint(-profile.inf_count, profile.sup_count))
                     for _ in range(total))
        for nx, ny in pairs:
            if add_ok:
                for op, want in ((fixarith.fix_add, nx + ny),
                                 (fixarith.fix_sub, nx - ny)):
                    if profile.contains_count(want):
                        got = op(FixVal(nx, profile), FixVal(ny, profile))
                        if got.count != want:
                            add_ok = False
                            add_witness = {"x": nx, "y": ny, "got": got.count}
            if contract_ok:
                ok, witness = _reference_rounding_contract(profile, nx, ny)
                if not ok:
                    contract_ok = False
                    contract_witness = witness
        add_witness = dict(add_witness, pairs=total)
        contract_witness = dict(contract_witness, pairs=total)
    checks = profile.rule_checks + (
        check("addition and subtraction exact", "fix.add-exact",
              add_ok, add_witness),
        check("multiply/divide correctly rounded", "fix.rounding-contract",
              contract_ok, contract_witness),
    )
    subject = f"fix-profile delta=1/{profile.delta_den} " \
              f"inf={profile.inf_value} sup={profile.sup_value}"
    return VerifyReport(subject, checks)


_real_add, _real_sub = fixarith.fix_add, fixarith.fix_sub
_real_div = fixarith.fix_div


def _mul_rounding(rounding):
    """fix_mul with the nearest-even rounding replaced by rounding(n, d)."""
    def mul(x, y):
        d = x.profile.delta_den
        return FixVal(rounding(x.count * y.count, d), x.profile)
    return mul


def _half_away(n, d):
    q = (2 * abs(n) + d) // (2 * d)
    return q if n >= 0 else -q


def _truncating_div(x, y):
    num, den = x.count * x.profile.delta_den, y.count
    q = abs(num) // abs(den)
    return FixVal(q if (num < 0) == (den < 0) else -q, x.profile)


def _sparse_div(x, y):
    got = _real_div(x, y)
    if (x.count - y.count) % 7 == 3:
        return FixVal(got.count + 1, x.profile)
    return got


def _sparse_add(x, y):
    got = _real_add(x, y)
    if (x.count + 2 * y.count) % 11 == 0:
        return FixVal(got.count + 1, x.profile)
    return got


def _both_broken(x, y):
    return (x.count * y.count) % 13 == 5


def _pair_add(x, y):
    got = _real_add(x, y)
    return FixVal(got.count + 1, x.profile) if _both_broken(x, y) else got


def _pair_sub(x, y):
    got = _real_sub(x, y)
    return FixVal(got.count - 1, x.profile) if _both_broken(x, y) else got


# broken operations: (fixarith name, replacement) pairs, and the rules the
# exhaustive probe must fail with them in place
BROKEN = {
    "correct": ((), set()),
    "mul-floor": ((("fix_mul", _mul_rounding(lambda n, d: n // d)),),
                  {"fix.rounding-contract"}),
    "mul-ceil": ((("fix_mul", _mul_rounding(lambda n, d: -(-n // d))),),
                 {"fix.rounding-contract"}),
    # either neighbour of a tie is allowed
    "mul-half-away": ((("fix_mul", _mul_rounding(_half_away)),), set()),
    "div-trunc": ((("fix_div", _truncating_div),), {"fix.rounding-contract"}),
    "div-sparse": ((("fix_div", _sparse_div),), {"fix.rounding-contract"}),
    "add-sparse": ((("fix_add", _sparse_add),), {"fix.add-exact"}),
    "add-sub-pair": ((("fix_add", _pair_add), ("fix_sub", _pair_sub)),
                     {"fix.add-exact"}),
}

PROBE_CORPORA = {
    "demo-s0": (FixProfile(100, 1600, 1600), 4096, 0),
    "demo-s1": (FixProfile(100, 1600, 1600), 4096, 1),
    "demo-s2": (FixProfile(100, 1600, 1600), 4096, 2),
    "micro": (FixProfile(10, 40, 40), "exhaustive", 0),
    "asymmetric": (FixProfile(10, 30, 50), "exhaustive", 0),
    "half-step": (FixProfile(2, 100, 100), 16, 0),
}


class TestProbeMatchesReference:
    @pytest.mark.parametrize("case", sorted(BROKEN))
    @pytest.mark.parametrize("corpus", sorted(PROBE_CORPORA))
    def test_same_report(self, corpus, case, monkeypatch):
        profile, budget, seed = PROBE_CORPORA[corpus]
        patches, expected_failures = BROKEN[case]
        for name, op in patches:
            monkeypatch.setattr(fixarith, name, op)
        report = check_profile_assumptions(profile, budget=budget, seed=seed)
        want = reference_profile_assumptions(profile, budget=budget,
                                             seed=seed)
        assert report.as_dict() == want.as_dict()
        if budget == "exhaustive":
            assert {c.rule for c in report.failures()} == expected_failures

    def test_add_sub_pair_reports_sub(self, monkeypatch):
        monkeypatch.setattr(fixarith, "fix_add", _pair_add)
        monkeypatch.setattr(fixarith, "fix_sub", _pair_sub)
        report = check_profile_assumptions(FixProfile(10, 40, 40),
                                           budget="exhaustive")
        witness = report.checks[-2].witness
        assert witness["got"] == witness["x"] - witness["y"] - 1


def test_fixval_str(p100):
    assert str(p100.val(173)) == "173/100"
