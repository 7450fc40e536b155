import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certisqrt.errors import (DomainError, InternalInvariantError,
                              ProfileMismatch, RangeOverflow, ResourceLimit)
from certisqrt.exact import cmp_sqrt
from certisqrt.fixarith import FixProfile
from certisqrt.lut import (
    RootTable,
    _least_roots,
    build_root_table,
    first_bad_root,
    round_up_to_step,
    sup_fn,
    table_indices,
    validate_step,
)


class TestValidateStep:
    def test_multiple_holds(self):
        # 1/4 against 1/64 needs a grid fine enough to carry both
        prof = FixProfile(6400, 16 * 6400, 16 * 6400)
        report = validate_step(prof.val(1600), prof.val(100))
        assert report.overall

    def test_divides_sup(self, demo_profile):
        report = validate_step(demo_profile.val(25), demo_profile.val(25))
        assert report.overall

    def test_multiplicity_fails(self, demo_profile):
        report = validate_step(demo_profile.val(25), demo_profile.val(30))
        assert {c.rule for c in report.failures()} == {"step.multiple-of-eps"}

    def test_not_dividing_sup_fails(self, demo_profile):
        report = validate_step(demo_profile.val(30), demo_profile.val(30))
        assert "step.divides-sup" in {c.rule for c in report.failures()}

    def test_single_grid_unit_fails(self, demo_profile):
        report = validate_step(demo_profile.val(1), demo_profile.val(1))
        assert "step.min-two-units" in {c.rule for c in report.failures()}

    def test_eps_from_another_grid_refused(self, demo_profile):
        # 25/100 and 250/1000 are one number on two grids; the step's
        # grid decides, so the pair is refused, not judged
        fine = FixProfile(1000, 16000, 16000)
        with pytest.raises(ProfileMismatch,
                           match="step and accuracy from different grids"):
            validate_step(demo_profile.val(25), fine.val(250))
        with pytest.raises(ProfileMismatch):
            validate_step(fine.val(250), demo_profile.val(25))


class TestBuildTable:
    def test_demo_size_and_bounds(self, demo_table):
        assert len(demo_table) == 60
        assert demo_table.k_min == 5                    # first index 1.25
        assert demo_table.index_value(5).value == F(5, 4)
        assert demo_table.index_value(64).value == 16

    @pytest.mark.parametrize("k,root_count", [
        (8, 142),    # 2.00 -> 1.42
        (16, 200),   # 4.00 -> 2.00
        (9, 150),    # 2.25 -> 1.50
        (5, 112),    # 1.25 -> 1.12
    ])
    def test_entries(self, demo_table, k, root_count):
        assert demo_table.root_at(k).count == root_count

    def test_root_property_everywhere(self, demo_table, demo_profile):
        delta = demo_profile.delta
        for k in range(demo_table.k_min, demo_table.k_max + 1):
            v, root = demo_table.index_value(k), demo_table.root_at(k)
            assert cmp_sqrt(root.value, v.value) >= 0
            assert cmp_sqrt(root.value - delta, v.value) < 0

    def test_rebuild_identical(self, demo_profile, demo_stp, demo_table):
        again = build_root_table(demo_profile, demo_stp)
        assert again == demo_table

    def test_step_must_divide_sup(self, demo_profile):
        with pytest.raises(DomainError):
            build_root_table(demo_profile, demo_profile.val(30))

    def test_resource_limit(self, demo_profile, demo_stp, monkeypatch):
        monkeypatch.setenv("CERTISQRT_MAX_TABLE", "10")
        with pytest.raises(ResourceLimit):
            build_root_table(demo_profile, demo_stp)


class TestTableRules:
    def test_indices(self, demo_profile):
        assert table_indices(demo_profile, 25) == range(5, 65)

    @pytest.mark.parametrize("stp_count", [0, -25])
    def test_indices_need_positive_step(self, demo_profile, stp_count):
        with pytest.raises(DomainError):
            table_indices(demo_profile, stp_count)

    def test_built_table_has_no_bad_root(self, demo_table):
        assert first_bad_root(demo_table) is None

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_first_bad_root_named(self, demo_table, offset):
        roots = list(demo_table.roots)
        roots[3] += offset
        roots[7] += offset
        broken = replace(demo_table, roots=tuple(roots))
        assert first_bad_root(broken) == demo_table.k_min + 3


def _isqrt_roots(profile, stp_count):
    """The least roots by math.isqrt, one target at a time."""
    indices = table_indices(profile, stp_count)
    scale = stp_count * profile.delta_den
    return tuple(math.isqrt(k * scale - 1) + 1 for k in indices)


class TestLeastRootsWalk:
    """The upward walk against isqrt and the per-entry root rule."""

    @pytest.mark.parametrize("profile,stp_count", [
        (FixProfile(100, 1600, 1600), 25),
        (FixProfile(10, 40, 40), 2),
        (FixProfile(10, 40, 40), 5),
        (FixProfile(10, 30, 50), 5),
        (FixProfile(10, 30, 50), 2),
        # the benchmark's wide grid: 1/1000 on [-4000, 4000], step 16/1000
        (FixProfile(1000, 4_000_000, 4_000_000), 16),
        # a step of 1: roots below 10000/16 come from isqrt, the rest
        # from the walk
        (FixProfile(100, 10_000, 10_000), 100),
        # three entries; a walk of one count a step would take ~6e8 steps
        (FixProfile(10**9, 4 * 10**9, 4 * 10**9), 10**9),
    ], ids=["demo", "micro-2", "micro-5", "asymmetric-5", "asymmetric-2",
            "wide", "coarse-step", "sparse"])
    def test_matches_isqrt_and_root_rule(self, profile, stp_count):
        roots = _least_roots(profile, stp_count)
        assert roots == _isqrt_roots(profile, stp_count)
        assert first_bad_root(
            RootTable(profile, profile.val(stp_count), roots)) is None

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 300), st.integers(2, 400), st.integers(1, 60))
    def test_drawn_grids(self, d, stp_count, extra):
        # the least multiple of the step above 2d, plus extra steps
        sup = (2 * d // stp_count + extra) * stp_count
        profile = FixProfile(d, sup, sup)
        roots = _least_roots(profile, stp_count)
        assert roots == _isqrt_roots(profile, stp_count)
        assert first_bad_root(
            RootTable(profile, profile.val(stp_count), roots)) is None


class TestRoundUp:
    @pytest.mark.parametrize("u,expected", [(130, 150), (125, 125),
                                            (101, 125)])
    def test_examples(self, demo_profile, demo_stp, u, expected):
        assert round_up_to_step(demo_profile.val(u), demo_stp).count == expected

    def test_requires_above_one(self, demo_profile, demo_stp):
        with pytest.raises(DomainError):
            round_up_to_step(demo_profile.val(100), demo_stp)

    def test_property_exhaustive(self, demo_profile, demo_stp):
        """Every u in (1, sup] rounds up to the least step multiple >= u;
        with a step that does not divide sup, the top of the range has
        no such multiple within the bound and is refused."""
        stp_val = demo_stp.value
        for count in range(101, demo_profile.sup_count + 1):
            u = demo_profile.val(count)
            r = round_up_to_step(u, demo_stp)
            assert r.count % demo_stp.count == 0
            assert r.value - stp_val < u.value <= r.value
        with pytest.raises(RangeOverflow, match=r"^rounded value 1602/100 "
                           r"exceeds the range bound$"):
            round_up_to_step(demo_profile.val(1600), demo_profile.val(3))


class TestSupFn:
    @pytest.mark.parametrize("u,expected", [
        (300, 174),   # root[3.00] = 1.74
        (400, 200),   # exact square index
        (110, 110),   # clamped to u: raw root 1.12 > 1.10
    ])
    def test_examples(self, demo_profile, demo_table, u, expected):
        assert sup_fn(demo_profile.val(u), demo_table).count == expected

    def test_domain(self, demo_profile, demo_table):
        with pytest.raises(DomainError) as exc:
            sup_fn(demo_profile.val(100), demo_table)
        assert str(exc.value) == \
            "seed function requires 1 < u <= 16, got 100/100"

    def test_sandwich_exhaustive(self, demo_profile, demo_table, demo_stp):
        stp_val = demo_stp.value
        for count in range(101, demo_profile.sup_count + 1):
            u = demo_profile.val(count)
            s = sup_fn(u, demo_table)
            assert cmp_sqrt(s.value, u.value) >= 0
            assert s.count <= u.count
            assert cmp_sqrt(s.value - stp_val, u.value) <= 0

    def _with_root(self, table, k, count):
        roots = list(table.roots)
        roots[k - table.k_min] = count
        return replace(table, roots=tuple(roots))

    def test_root_below_sqrt_rejected(self, demo_profile, demo_table):
        # root[3.00] = 1.74; one unit lower, 1.73**2 < 3
        broken = self._with_root(demo_table, 12, 173)
        with pytest.raises(InternalInvariantError) as exc:
            sup_fn(demo_profile.val(300), broken)
        assert str(exc.value) == "seed 173/100 fell below sqrt(300/100)"

    def test_negative_root_rejected(self, demo_profile, demo_table):
        # below the root, though its square exceeds 3
        broken = self._with_root(demo_table, 12, -174)
        with pytest.raises(InternalInvariantError) as exc:
            sup_fn(demo_profile.val(300), broken)
        assert str(exc.value) == "seed -174/100 fell below sqrt(300/100)"

    def test_seed_exactly_one_step_above_accepted(self, demo_profile,
                                                  demo_table, demo_stp):
        # root[4.00] = 2.00; 2.25 - 0.25 = sqrt(4) is still within a step
        broken = self._with_root(demo_table, 16, 200 + demo_stp.count)
        assert sup_fn(demo_profile.val(400), broken).count == 225

    def test_root_over_one_step_above_rejected(self, demo_profile,
                                               demo_table, demo_stp):
        # one step and one unit above 1.74: 2.00 - 0.25 > sqrt(3)
        broken = self._with_root(demo_table, 12,
                                 174 + demo_stp.count + 1)
        with pytest.raises(InternalInvariantError) as exc:
            sup_fn(demo_profile.val(300), broken)
        assert str(exc.value) == \
            "seed 200/100 more than one step above sqrt(300/100)"
