from dataclasses import replace
from fractions import Fraction as F

import pytest

from certisqrt.errors import DomainError, InternalInvariantError, ResourceLimit
from certisqrt.exact import Ordering, cmp_sqrt
from certisqrt.fixarith import FixProfile
from certisqrt.lut import (
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
        report = validate_step(prof.val(1600), prof.val(100), prof)
        assert report.overall

    def test_divides_sup(self, demo_profile):
        report = validate_step(demo_profile.val(25), demo_profile.val(25),
                               demo_profile)
        assert report.overall

    def test_multiplicity_fails(self, demo_profile):
        report = validate_step(demo_profile.val(25), demo_profile.val(30),
                               demo_profile)
        assert {c.rule for c in report.failures()} == {"step.multiple-of-eps"}

    def test_not_dividing_sup_fails(self, demo_profile):
        report = validate_step(demo_profile.val(30), demo_profile.val(30),
                               demo_profile)
        assert "step.divides-sup" in {c.rule for c in report.failures()}

    def test_single_grid_unit_fails(self, demo_profile):
        report = validate_step(demo_profile.val(1), demo_profile.val(1),
                               demo_profile)
        assert "step.min-two-units" in {c.rule for c in report.failures()}


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
            assert cmp_sqrt(root.value, v.value) is not Ordering.LESS
            assert cmp_sqrt(root.value - delta, v.value) is Ordering.LESS

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


class TestRoundUp:
    @pytest.mark.parametrize("u,expected", [(130, 150), (125, 125),
                                            (101, 125)])
    def test_examples(self, demo_profile, demo_stp, u, expected):
        assert round_up_to_step(demo_profile.val(u), demo_stp).count == expected

    def test_requires_above_one(self, demo_profile, demo_stp):
        with pytest.raises(DomainError):
            round_up_to_step(demo_profile.val(100), demo_stp)

    def test_property_exhaustive(self, demo_profile, demo_stp):
        stp_val = demo_stp.value
        for count in range(101, demo_profile.sup_count + 1):
            u = demo_profile.val(count)
            r = round_up_to_step(u, demo_stp)
            assert r.count % demo_stp.count == 0
            assert r.value - stp_val < u.value <= r.value


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
            assert cmp_sqrt(s.value, u.value) is not Ordering.LESS
            assert s.count <= u.count
            assert cmp_sqrt(s.value - stp_val, u.value) is not Ordering.GREATER

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

    def test_root_over_one_step_above_rejected(self, demo_profile,
                                               demo_table, demo_stp):
        # one step and one unit above 1.74: 2.00 - 0.25 > sqrt(3)
        broken = self._with_root(demo_table, 12,
                                 174 + demo_stp.count + 1)
        with pytest.raises(InternalInvariantError) as exc:
            sup_fn(demo_profile.val(300), broken)
        assert str(exc.value) == \
            "seed 200/100 more than one step above sqrt(300/100)"
