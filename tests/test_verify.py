import dataclasses
import hashlib
import importlib.util
import json
import math
import random
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certisqrt.errors import (CertisqrtError, DomainError, ProfileMismatch,
                              UsageError)
from certisqrt.exact import (cmp_sqrt, fraction_from_coprime,
                             sqrt_abs_err_lt, sqrt_enclosure, within_of_sqrt)
from certisqrt import exact, floatmodel, lut, newton
from certisqrt.fixarith import FixProfile, FixVal
from certisqrt.floatmodel import (FloatProfile, FloatVal, compose,
                                  encode_rational, value_of)
from certisqrt.lut import _round_up_count, build_root_table, sup_fn
from certisqrt.newton import (
    Correction,
    Trace,
    fix_sqr,
    grid_inputs,
    flt_sqr,
    fsqr_exact,
    isqr_exact,
    min_iterations_for_step,
    min_legal_iterations,
    mix_sqr,
    sqr_exact,
)
from certisqrt.report import CheckResult, VerifyReport
from certisqrt import verify
from certisqrt.verify import (
    _err_order,
    _final_error,
    _first_failure,
    _sample_grid_values,
    _suite_check,
    adjust_runs,
    answer,
    applied_corrections,
    approx_abs_err,
    balance_sweep,
    check_fsqr_annotations,
    check_sqr_annotations,
    check_table_properties,
    grid_values,
    halves,
    iteration_cap,
    monotonicity_probe,
    run_adjust_suite,
    run_fsqr_suite,
    run_sqr_suite,
    sample_rationals,
    sqrt_verdict,
)
from test_rules import (FSQR_TAMPERS, TAMPERS, UNTIL_LOOPS, _floored,
                        fsqr_tampered)


class TestIterationCap:
    def test_reference_value(self):
        # 1 + ceil(log2((2 - sqrt(2)) / (1/100))) = 7
        assert iteration_cap(F(2), F(1, 100)) == 7

    def test_perfect_square_boundary(self):
        # (4 - 2)/2 = 1 exactly: ceil(log2 1) = 0
        assert iteration_cap(F(4), F(2)) == 1

    def test_huge_eps_clamps_to_zero(self):
        assert iteration_cap(F(4), F(100)) == 0

    def test_matches_float_estimate(self):
        import math
        for y, eps in [(F(3), F(1, 7)), (F(10), F(1, 64)),
                       (F(100001, 100), F(3, 1000))]:
            cap = iteration_cap(y, eps)
            est = 1 + math.ceil(math.log2((float(y) - math.sqrt(float(y)))
                                          / float(eps)))
            assert abs(cap - est) <= 1


def record_for(trace, k, d):
    """The Correction that reads d against pairs[k] = (p, q) of y = a/b:
    c = |d|*2*b*p*q with m = 1, which must be an integer, for d of the
    sign the record's algorithm gives each correction (<= 0 in sqr_exact,
    >= 0 in the seeded runs)."""
    (_, b), (p, q) = trace.y, trace.pairs[k]
    sign = -1 if trace.algorithm == "sqr_exact" else 1
    c = sign * d * 2 * b * p * q
    assert c.denominator == 1 and c >= 0, (k, d)
    return Correction(c.numerator, 1)


def pair(x):
    return x.numerator, x.denominator


def with_iterates(trace, *changes):
    """The trace with, for each (k, x) in changes, iterate k replaced by
    x: the seed is iterate 0, and the x after pass k is iterate k + 1."""
    pairs = list(trace.pairs)
    for k, x in changes:
        pairs[k] = pair(x)
    return trace._replace(pairs=tuple(pairs))


def exit_zeroed(trace):
    """The trace with its exit pass's correction read as 0 (c = 0)."""
    zero = trace.corrections[-1]._replace(c=0)
    return trace._replace(corrections=trace.corrections[:-1] + (zero,))


def with_correction(trace, k, d):
    """The trace with pass k's correction replaced by d."""
    corrections = list(trace.corrections)
    corrections[k] = record_for(trace, k, d)
    return trace._replace(corrections=tuple(corrections))


def with_extra_passes(trace, count, lo):
    """The trace with an even `count` of x-changing passes put in front,
    x going seed -> lo -> seed and so on (so every boundary stays in
    [lo, seed]); each correction is three times the next, the last three
    times the run's first."""
    seed, first = trace.pairs[0], trace.correction(0)
    longer = trace._replace(
        pairs=(seed, pair(lo)) * (count // 2) + trace.pairs)
    extra = tuple(record_for(longer, j, first * 3 ** (count - j))
                  for j in range(count))
    return longer._replace(corrections=extra + trace.corrections)


class TestCheckSqr:
    def test_reference_run(self):
        y, eps = F(2), F(1, 100)
        _, trace = sqr_exact(y, eps)
        report = check_sqr_annotations(trace, y, eps)
        assert report.overall
        by_rule = {c.rule: c for c in report.checks}
        assert by_rule["sqr.iteration-cap"].witness["cap"] == 7
        assert by_rule["sqr.iteration-cap"].witness["applied"] == 2
        assert by_rule["sqr.iteration-cap"].witness["loop_passes"] == 3

    def test_trivial_one(self):
        _, trace = sqr_exact(F(1), F(1))
        report = check_sqr_annotations(trace, F(1), F(1))
        assert report.overall

    def test_applied_corrections_counts_changes(self):
        _, trace = sqr_exact(F(4), F(1, 2))
        assert applied_corrections(trace) == 2

    def test_tampered_invariant_fails_only_invariant(self):
        y, eps = F(2), F(1, 100)
        _, trace = sqr_exact(y, eps)
        # 7/5 lies below sqrt(2), and pass 1's correction read against
        # it, 1/70, stays below half of pass 0's and above twice pass 2's
        bad = with_iterates(trace, (1, F(7, 5)))
        report = check_sqr_annotations(bad, y, eps)
        assert {c.rule for c in report.failures()} == {"sqr.loop-invariant"}
        assert report.failures()[0].witness["k"] == 1

    def test_invariant_witness_in_lowest_terms(self):
        # the pair a forged record writes as (14, 10) is reported as 7/5;
        # pass 1's correction, read against it, breaks halving too
        _, trace = sqr_exact(F(2), F(1, 100))
        pairs = list(trace.pairs)
        pairs[1] = (14, 10)
        report = check_sqr_annotations(trace._replace(pairs=tuple(pairs)),
                                       F(2), F(1, 100))
        failed = {c.rule: c.witness for c in report.failures()}
        x = failed["sqr.loop-invariant"]["x"]
        assert x == F(7, 5) and (x.numerator, x.denominator) == (7, 5)

    def test_two_broken_boundaries_report_the_first(self):
        y, eps = F(2), F(1, 100)
        _, trace = sqr_exact(y, eps)
        bad = with_iterates(trace, (1, F(1)), (2, F(1)))
        report = check_sqr_annotations(bad, y, eps)
        assert report.failures()[0].witness == {"k": 1, "x": F(1)}

    def test_wrong_algorithm_rejected(self):
        _, trace = fsqr_exact(F(3), F(1, 4), F(174, 100), 1)
        with pytest.raises(UsageError, match="sqr_exact or isqr_exact"):
            check_sqr_annotations(trace, F(3), F(1, 4))

    def test_raised_seed_and_boundary_fail_only_invariant(self):
        # the seed is capped at y, so the raised seed 3 is caught, and it
        # does not widen the invariant for 5/2, which lies above y
        y, eps = F(2), F(1, 100)
        _, trace = sqr_exact(y, eps)
        bad = with_iterates(trace, (0, F(3)), (1, F(5, 2)))
        report = check_sqr_annotations(bad, y, eps)
        assert {c.rule for c in report.failures()} == {"sqr.loop-invariant"}
        assert report.failures()[0].witness == {"k": 0, "x": F(3)}

    def test_final_x_replaced_by_y_fails_only_final_error(self):
        # y is inside the invariant's [sqrt(y), y] but far from the root
        y, eps = F(2), F(1, 100)
        _, trace = sqr_exact(y, eps)
        # the exit pass, which starts from the result, claims no
        # correction there
        bad = exit_zeroed(with_iterates(trace, (-1, y)))
        assert bad.pairs[-1] == pair(y)
        report = check_sqr_annotations(bad, y, eps)
        assert {c.rule for c in report.failures()} == {"sqr.final-error"}
        assert report.failures()[0].witness["x"] == y

    def test_extra_corrections_fail_only_iteration_cap(self):
        y, eps = F(2), F(1, 100)
        _, trace = sqr_exact(y, eps)
        bad = with_extra_passes(trace, 6, F(15, 8))
        report = check_sqr_annotations(bad, y, eps)
        assert {c.rule for c in report.failures()} == {"sqr.iteration-cap"}
        assert report.failures()[0].witness == {
            "applied": 8, "cap": 7, "loop_passes": 9}


# (y, eps) pairs of the until-loop report digest below
DIGEST_INPUTS = sample_rationals(150, 3) + [
    (F(1), F(1)), (F(1), F(1, 3)), (F(4), F(1, 2)), (F(2), F(1, 100))]


def isqr_seeds(y):
    """y, a tight seed t = min(y, upper end of an 8-bit enclosure of
    sqrt(y)), and their midpoint."""
    t = min(y, sqrt_enclosure(y, 8).hi)
    return y, t, (y + t) / 2


class TestFirstFailure:
    def test_stops_at_the_first_witness(self):
        def search():
            yield {"k": 1}
            raise AssertionError("searched past the first failure")

        result = _first_failure("name", "rule.id", {"boundaries": 3},
                                search())
        assert (result.passed, result.witness) == (False, {"k": 1})

    def test_empty_search_passes_with_its_counts(self):
        result = _first_failure("name", "rule.id", {"boundaries": 3},
                                iter(()))
        assert (result.passed, result.witness) == (True, {"boundaries": 3})


class TestUntilLoopReports:
    def test_sqr_report_digest(self):
        # SHA-256 of the sqr_exact reports' JSON before isqr_exact traces
        # shared the checker; sqr.* bytes must not move
        h = hashlib.sha256()
        for y, eps in DIGEST_INPUTS:
            _, trace = sqr_exact(y, eps)
            h.update(check_sqr_annotations(trace, y, eps).to_json().encode())
        assert h.hexdigest() == \
            "e1bffcdd9cc6184f746587fbefec1ea0a8419dc4e6ee5ef6da084acb46dcb635"

    def test_isqr_rules_hold(self):
        runs = 0
        for y, eps in DIGEST_INPUTS:
            if y <= 1:
                continue
            for seed in isqr_seeds(y):
                _, trace = isqr_exact(y, eps, seed)
                report = check_sqr_annotations(trace, y, eps)
                assert [c.rule for c in report.checks] == [
                    "isqr.loop-invariant", "isqr.halving",
                    "isqr.final-error", "isqr.iteration-cap"]
                assert report.overall, report.to_json()
                runs += 1
        assert runs == 456


class TestCheckIsqr:
    Y, EPS, SEED = F(3), F(1, 10 ** 6), F(2)

    def run(self):
        return isqr_exact(self.Y, self.EPS, self.SEED)[1]

    def failed(self, trace):
        report = check_sqr_annotations(trace, self.Y, self.EPS)
        return {c.rule for c in report.failures()}, report.failures()

    def test_reference_run(self):
        trace = self.run()
        report = check_sqr_annotations(trace, self.Y, self.EPS)
        assert report.overall
        assert report.subject == "isqr_exact y=3/1 eps=1/1000000"
        by_rule = {c.rule: c for c in report.checks}
        assert by_rule["isqr.loop-invariant"].name == \
            "sqrt(y) <= x <= seed at every boundary"
        # 1 + ceil(log2((2 - sqrt(3)) * 10**6)) = 20
        assert by_rule["isqr.iteration-cap"].witness == {
            "applied": 3, "cap": 20, "loop_passes": 4}

    def test_boundary_above_seed_fails_only_invariant(self):
        # 5/2 lies in [sqrt(3), 3], so only the seed bound catches it
        bad = with_iterates(self.run(), (1, F(5, 2)))
        rules, failures = self.failed(bad)
        assert rules == {"isqr.loop-invariant"}
        assert failures[0].witness == {"k": 1, "x": F(5, 2)}

    def test_seed_raised_past_y_fails_only_invariant(self):
        # the seed raised to 4 > y is read as y, so the seed is caught
        bad = with_iterates(self.run(), (0, F(4)))
        rules, failures = self.failed(bad)
        assert rules == {"isqr.loop-invariant"}
        assert failures[0].witness == {"k": 0, "x": F(4)}

    def test_tied_correction_fails_only_halving(self):
        trace = self.run()
        bad = with_correction(trace, 2, trace.correction(1) / 2)
        rules, failures = self.failed(bad)
        assert rules == {"isqr.halving"}
        assert failures[0].witness["i"] == 1

    def test_final_x_replaced_by_seed_fails_only_final_error(self):
        trace = self.run()
        # the exit pass, which starts from the result, claims no
        # correction there
        bad = exit_zeroed(with_iterates(trace, (-1, self.SEED)))
        assert bad.pairs[-1] == pair(self.SEED)
        rules, failures = self.failed(bad)
        assert rules == {"isqr.final-error"}
        assert failures[0].witness["x"] == self.SEED

    def test_extra_corrections_fail_only_iteration_cap(self):
        # 18 passes in [7/4, 2] on top of the run's 3 make 21 > 20
        rules, failures = self.failed(with_extra_passes(self.run(), 18,
                                                        F(7, 4)))
        assert rules == {"isqr.iteration-cap"}
        assert failures[0].witness == {"applied": 21, "cap": 20,
                                       "loop_passes": 22}


def fraction_halves(prev, cur):
    """The sqr.halving rule in Fraction arithmetic, as first written."""
    return not (prev == 0 or 2 * abs(cur) >= abs(prev))


# a run long enough that its last corrections have parts of 100K+ bits
LONG_Y, LONG_EPS = F(99999989, 991), F(1, 999999)


@pytest.fixture(scope="module")
def long_corrections():
    _, trace = sqr_exact(LONG_Y, LONG_EPS)
    return [trace.correction(k) for k in range(len(trace.corrections))]


def halves_q(prev, cur):
    """halves on two Fractions, each given as the one-factor sequences
    (|num|,), (den,) of its parts."""
    return halves(((abs(prev.numerator),), (prev.denominator,)),
                  ((abs(cur.numerator),), (cur.denominator,)))


def signed(q):
    return (q, -q)


class TestHalves:
    """halves against the Fraction form of the sqr.halving rule."""

    def test_exact_ties(self, long_corrections):
        for prev in long_corrections + [F(3, 7), F(1)]:
            for p in signed(prev):
                for c in signed(prev / 2):
                    assert not halves_q(p, c)
                    assert halves_q(p, c) == fraction_halves(p, c)

    def test_one_unit_either_side_of_the_tie(self, long_corrections):
        for prev in long_corrections:
            half = prev / 2
            unit = F(1, half.denominator)
            for c in (half - unit, half + unit):
                for p, cur in ((prev, c), (-prev, c), (prev, -c)):
                    assert halves_q(p, cur) == fraction_halves(p, cur)

    def test_equal_bit_lengths(self, long_corrections):
        for prev in long_corrections:
            n, d = abs(prev.numerator), prev.denominator
            for cur in (F(n, d + 1), F(n - 1, d), F(n ^ 1, d ^ 1),
                        F(n, 2 * d - 1)):
                assert cur.numerator.bit_length() <= n.bit_length()
                for p, c in ((prev, cur), (cur, prev), (-prev, -cur)):
                    assert halves_q(p, c) == fraction_halves(p, c)

    def test_zero_predecessor(self, long_corrections):
        for cur in [F(0)] + long_corrections:
            assert not halves_q(F(0), cur)
            assert not halves_q(F(0), -cur)

    def test_zero_successor(self, long_corrections):
        for prev in long_corrections:
            assert halves_q(prev, F(0)) and halves_q(-prev, F(0))

    def test_consecutive_signed_corrections(self, long_corrections):
        pairs = list(zip(long_corrections, long_corrections[1:]))
        assert max(c.denominator.bit_length() for _, c in pairs) > 100000
        for prev, cur in pairs:
            for p in signed(prev):
                for c in signed(cur):
                    assert halves_q(p, c) and fraction_halves(p, c)
                    assert not halves_q(c, p)
                    assert not fraction_halves(c, p)

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(max_denominator=10 ** 60),
           st.fractions(max_denominator=10 ** 60),
           st.integers(-3, 3))
    def test_property(self, prev, cur, units):
        # cur moved onto or beside the tie half the time
        if units % 2:
            cur = prev / 2 + F(units, 10 ** 70)
        assert halves_q(prev, cur) == fraction_halves(prev, cur)

    @pytest.mark.parametrize("index,factor", [
        (1, F(2)),      # 2|cur| = 2|prev|: far above
        (4, F(1, 2)),   # exact tie 2|cur| = |prev|
        (12, F(1, 2)),  # tie between corrections with parts of 50K+ bits
        (8, F(3, 2)),   # 2|cur| = 3|prev|: above the bound
    ])
    def test_negative_controls(self, index, factor):
        _, trace = sqr_exact(LONG_Y, LONG_EPS)
        prev = trace.correction(index - 1)
        bad = with_correction(trace, index, prev * factor)
        report = check_sqr_annotations(bad, LONG_Y, LONG_EPS)
        assert {c.rule for c in report.failures()} == {"sqr.halving"}
        assert report.failures()[0].witness["i"] == index - 1

    def test_zero_predecessor_control(self):
        _, trace = sqr_exact(LONG_Y, LONG_EPS)
        bad = with_correction(trace, 3, F(0))
        report = check_sqr_annotations(bad, LONG_Y, LONG_EPS)
        assert {c.rule for c in report.failures()} == {"sqr.halving"}
        assert report.failures()[0].witness["i"] == 3


def _exit_forged(trace, record):
    """The trace with its exit correction replaced by a forged record of
    factors."""
    return trace._replace(corrections=trace.corrections[:-1] + (record,))


BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_workloads():
    """perfbench/workloads.py, loaded by path, with perfbench/ on sys.path
    while it imports its oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


def _exact_certify_corpus(seed):
    """The pairs perfbench's exact_certify workload runs at this seed."""
    return _perfbench_workloads().stratified_rationals(seed, 40, 32)


def _halving_agrees(trace):
    """Each consecutive pair of corrections (and each pair swapped) is
    decided on factors, before any correction is read, as fraction_halves
    decides it on the values built from the same factors."""
    passes = range(len(trace.corrections))
    factors = [trace.factors(k) for k in passes]
    pairs = list(zip(passes, passes[1:]))
    pairs += [(j, i) for i, j in pairs]
    decided = [halves(factors[i], factors[j]) for i, j in pairs]
    values = [trace.correction(k) for k in passes]
    return decided == [fraction_halves(values[i], values[j])
                       for i, j in pairs]


class TestHalvingOnFactors:
    """check_sqr_annotations decides sqr.halving and isqr.halving on the
    factors of each correction: a passing check builds no exit
    correction, and the decision is the Fraction rule's."""

    def test_check_and_report_build_no_exit_correction(self, monkeypatch):
        """A checked run builds one Fraction, its result, in _exact_run:
        the check and its report read the record's pairs and factors, and
        build no TraceStep and no correction, though the exit correction
        of the first run has a denominator past 14,300 bits."""
        built, values, steps = [], [], []
        real_build = newton.fraction_from_coprime
        real_value, real_step = Trace.correction, newton.TraceStep

        def building(p, q):
            if sys._getframe(1).f_code.co_name == "_exact_run":
                built.append((p, q))
            return real_build(p, q)

        monkeypatch.setattr(newton, "fraction_from_coprime", building)
        monkeypatch.setattr(Trace, "correction",
                            lambda trace, k: values.append(k)
                            or real_value(trace, k))
        monkeypatch.setattr(newton, "TraceStep",
                            lambda *parts: steps.append(parts)
                            or real_step(*parts))
        runs = [(F(26066, 3), F(1, 1000), sqr_exact),
                (LONG_Y, LONG_EPS, sqr_exact),
                (LONG_Y, LONG_EPS, lambda y, eps: isqr_exact(y, eps, y))]
        traces = []
        for y, eps, run in runs:
            built.clear()
            x, trace = run(y, eps)
            assert built == [trace.pairs[-1]] and pair(x) == trace.pairs[-1]
            report = check_sqr_annotations(trace, y, eps)
            report.to_json()
            assert report.overall and len(trace.corrections) >= 10
            assert values == [] and steps == []
            traces.append(trace)
        # the steps view builds every step and correction
        exit_step = traces[0].steps[-1]
        assert exit_step.correction.denominator.bit_length() > 14_300
        assert len(steps) == len(values) == len(traces[0].corrections)

    @pytest.mark.parametrize("family", ["sqr", "isqr"])
    @pytest.mark.parametrize("scale", [(1, 1), (2, 1)])
    def test_forged_exit_factors(self, family, scale):
        # 2|d_f| = |d_(f-1)| exactly at scale 1/1, twice it at 2/1; the
        # forged c is 100K+-bit, read against the exit pass's own pair
        if family == "sqr":
            _, trace = sqr_exact(LONG_Y, LONG_EPS)
        else:
            _, trace = isqr_exact(LONG_Y, LONG_EPS, LONG_Y)
        prev = trace.correction(-2)
        up, down = scale
        sign = -1 if family == "sqr" else 1
        f = len(trace.corrections) - 1
        forged = sign * abs(prev) * F(up, 2 * down)
        record = record_for(trace, f, forged)
        assert record.c.bit_length() > 50_000
        bad = _exit_forged(trace, record)
        report = check_sqr_annotations(bad, LONG_Y, LONG_EPS)
        assert {c.rule for c in report.failures()} == {f"{family}.halving"}
        witness = report.failures()[0].witness
        assert witness == {"i": f - 1, "d_i": prev, "d_next": forged}
        d_next = witness["d_next"]
        assert math.gcd(d_next.numerator, d_next.denominator) == 1
        assert 2 * abs(d_next) == abs(prev) * F(up, down)

    def test_forged_exit_below_half_passes(self):
        # a forged exit correction one unit of its denominator below the
        # tie still halves
        _, trace = sqr_exact(LONG_Y, LONG_EPS)
        prev = trace.correction(-2)
        tie = record_for(trace, len(trace.corrections) - 1, prev / 2)
        bad = _exit_forged(trace, tie._replace(c=tie.c - 1))
        assert check_sqr_annotations(bad, LONG_Y, LONG_EPS).overall

    def test_agrees_on_the_exact_certify_corpus(self):
        for y, eps in _exact_certify_corpus(1):
            _, trace = sqr_exact(y, eps)
            assert _halving_agrees(trace), (y, eps)

    @given(st.fractions(min_value=F(1), max_value=F(10 ** 6),
                        max_denominator=1000),
           st.fractions(min_value=F(1, 10 ** 6), max_value=F(1),
                        max_denominator=10 ** 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_agrees_on_runs(self, y, eps, seeded):
        if seeded and y > 1:
            _, trace = isqr_exact(y, eps, y)
        else:
            _, trace = sqr_exact(y, eps)
        assert _halving_agrees(trace)


class TestCheckFsqr:
    def test_single_step_pass(self):
        y, eps, s = F(3), F(1, 4), F(174, 100)
        _, trace = fsqr_exact(y, eps, s, 1)
        report = check_fsqr_annotations(trace, y, eps)
        assert report.overall

    def test_zero_steps_vacuous(self):
        y, eps, s = F(4), F(1, 4), F(2)
        _, trace = fsqr_exact(y, eps, s, 0)
        report = check_fsqr_annotations(trace, y, eps)
        assert report.overall

    def test_forced_low_n_fails_postcondition(self):
        # hand-build a run that stopped far from the root: the checker
        # must flag the final bound and nothing else
        y, eps, s = F(3), F(1, 100), F(3)
        trace = Trace("fsqr_exact", y=pair(y), eps=pair(eps),
                      pairs=(pair(s),), corrections=())
        report = check_fsqr_annotations(trace, y, eps)
        assert {c.rule for c in report.failures()} == {"fsqr.final-error"}
        assert "err_display" in report.failures()[0].witness

    def test_raised_iterate_fails_only_progress(self):
        # the x after two passes raised back to the seed, above
        # sqrt(3) + (3 - sqrt(3))/4
        y, eps, s = F(3), F(1, 10), F(3)
        _, trace = fsqr_exact(y, eps, s, 5)
        bad = with_iterates(trace, (2, s))
        report = check_fsqr_annotations(bad, y, eps)
        assert {c.rule for c in report.failures()} == {"fsqr.progress"}
        assert report.failures()[0].witness == {"k": 2, "x": s}

    def test_seed_raised_past_y_fails_only_progress(self):
        # against the seed 9, x_1 = 4 keeps the progress bound; the seed
        # is capped at y = 3, and against 3 it does not
        y, eps, s = F(3), F(1, 10), F(3)
        _, trace = fsqr_exact(y, eps, s, 5)
        bad = with_iterates(trace, (0, F(9)), (1, F(4)))
        report = check_fsqr_annotations(bad, y, eps)
        assert {c.rule for c in report.failures()} == {"fsqr.progress"}
        assert report.failures()[0].witness == {"k": 1, "x": F(4)}

    def test_progress_witness_in_lowest_terms(self):
        # the iterate after two passes raised back to the seed, written
        # (6, 2): the witness is 3/1
        y, eps = F(3), F(1, 10)
        _, trace = fsqr_exact(y, eps, F(3), 5)
        pairs = list(trace.pairs)
        pairs[2] = (6, 2)
        report = check_fsqr_annotations(trace._replace(pairs=tuple(pairs)),
                                        y, eps)
        assert {c.rule for c in report.failures()} == {"fsqr.progress"}
        x = report.failures()[0].witness["x"]
        assert x == 3 and (x.numerator, x.denominator) == (3, 1)


# the refusal of a trace whose record holds another y or eps
OTHER_RUN = "^expected a trace from .*, got one from "


class TestCheckedAgainstItsRecord:
    """A checker takes y and eps once more and refuses any other than
    the record's, so a report certifies only the run its record holds."""

    @pytest.mark.parametrize("run, y, eps", [
        (lambda: sqr_exact(F(2), F(1, 100)), F(2000000001, 10 ** 9),
         F(1, 100)),
        (lambda: sqr_exact(F(2), F(1, 100)), F(2), F(1, 10)),
        (lambda: isqr_exact(F(3), F(1, 10 ** 6), F(2)), F(3000001, 10 ** 6),
         F(1, 10 ** 6)),
        (lambda: isqr_exact(F(3), F(1, 10 ** 6), F(2)), F(3), F(1, 10)),
    ], ids=["sqr-y", "sqr-eps", "isqr-y", "isqr-eps"])
    def test_until_loops(self, run, y, eps):
        _, trace = run()
        assert check_sqr_annotations(trace, F(*trace.y),
                                     F(*trace.eps)).overall
        with pytest.raises(UsageError, match=OTHER_RUN):
            check_sqr_annotations(trace, y, eps)

    @pytest.mark.parametrize("y, eps", [(F(3000001, 10 ** 6), F(1, 2)),
                                        (F(3000001, 10 ** 6), F(1, 4)),
                                        (F(3), F(1, 2))])
    def test_fsqr(self, y, eps):
        _, trace = fsqr_exact(F(3), F(1, 4), F(3), 4)
        assert check_fsqr_annotations(trace, F(3), F(1, 4)).overall
        with pytest.raises(UsageError, match=OTHER_RUN):
            check_fsqr_annotations(trace, y, eps)

    def test_message_names_both(self):
        _, trace = sqr_exact(F(2), F(1, 100))
        with pytest.raises(UsageError) as info:
            check_sqr_annotations(trace, F(2000000001, 10 ** 9), F(1, 100))
        assert str(info.value) == (
            "expected a trace from sqr_exact or isqr_exact of y=2000000001/"
            "1000000000 eps=1/100, got one from sqr_exact of y=2/1 eps=1/100")

    def test_int_y_and_eps_match_the_record(self):
        _, trace = sqr_exact(2, F(1, 100))
        assert check_sqr_annotations(trace, 2, F(1, 100)).overall
        _, trace = fsqr_exact(3, 1, 3, 2)
        assert check_fsqr_annotations(trace, 3, 1).overall


class TestTypedRefusals:
    """A checker refuses a y or eps that is no int or Fraction with the
    DomainError the runs raise, and any record but an exact run's with
    UsageError, before it reads a field."""

    @pytest.mark.parametrize("y, eps", [(2.0, F(1, 100)), (F(2), 0.01),
                                        ("2", F(1, 100))])
    @pytest.mark.parametrize("checker", [check_sqr_annotations,
                                         check_fsqr_annotations])
    def test_non_rational_inputs(self, checker, y, eps):
        _, trace = sqr_exact(F(2), F(1, 100))
        name, value = ("y", y) if eps == F(1, 100) else ("eps", eps)
        with pytest.raises(DomainError) as info:
            checker(trace, y, eps)
        assert str(info.value) == \
            f"{name} must be an int or a Fraction, got {value!r}"
        with pytest.raises(DomainError) as run_info:
            sqr_exact(y, eps)
        assert str(run_info.value) == str(info.value)

    def test_grid_records(self, demo_profile, demo_table,
                          demo_float_profile):
        eps = demo_profile.val(25)
        _, mix = mix_sqr(demo_profile.val(300), eps, demo_table)
        _, zero = flt_sqr(FloatVal.zero(), eps, demo_float_profile,
                          demo_table)
        assert zero.y is None
        for record in (mix, zero):
            with pytest.raises(UsageError) as info:
                check_sqr_annotations(record, 3, F(1, 4))
            assert str(info.value) == (
                "expected a trace from sqr_exact or isqr_exact of y=3/1 "
                "eps=1/4, got a GridTrace that is no exact run's record")
            with pytest.raises(UsageError, match="got a GridTrace that"):
                check_fsqr_annotations(record, 3, F(1, 4))

    def test_pass_without_its_pair_or_with_q_below_1(self):
        _, trace = sqr_exact(F(2), F(1, 100))
        for bad in (trace._replace(pairs=trace.pairs[:-1]),
                    trace._replace(pairs=(), corrections=()),
                    trace._replace(pairs=((2, 1), (1, 0), (17, 12))),
                    trace._replace(pairs=((2, 1), (-3, -2), (17, 12)))):
            with pytest.raises(UsageError, match="got a Trace that is no "
                                                 "exact run's record$"):
                check_sqr_annotations(bad, F(2), F(1, 100))

    @pytest.mark.parametrize("p", [-3, 0])
    def test_pair_with_p_below_1(self, p):
        """A pair with p below 1, which no run records, is refused as one
        with q below 1 is.  Read, sqr_exact(2, 1/100)'s record with pair 1
        written (-3, 2) would fail sqr.halving with the witness d_next =
        Fraction(-1, -12), a Fraction with a negative denominator."""
        _, trace = sqr_exact(F(2), F(1, 100))
        _, fsqr = fsqr_exact(F(3), F(1, 4), F(174, 100), 2)
        for checker, record, y, eps in (
                (check_sqr_annotations, trace, F(2), F(1, 100)),
                (check_fsqr_annotations, fsqr, F(3), F(1, 4))):
            pairs = record.pairs
            bad = record._replace(pairs=(pairs[0], (p, pairs[1][1]),
                                         *pairs[2:]))
            with pytest.raises(UsageError, match="got a Trace that is no "
                                                 "exact run's record$"):
                checker(bad, y, eps)

    def test_negative_factors(self):
        """A correction with c or m below 0, which no run records, is
        refused as a pair with q below 1 is.  Read, each of these would
        pass all four rules: m enters squared, and a negative exit c
        would turn sqr_exact's last correction positive."""
        y, eps = F(10), F(1, 1000)
        _, trace = sqr_exact(y, eps)
        ads = trace.corrections
        assert len(ads) == 5 and ads[-1].c > 0

        def negated(k, field):
            forged = ads[k]._replace(**{field: -getattr(ads[k], field)})
            return trace._replace(corrections=(*ads[:k], forged,
                                               *ads[k + 1:]))

        for bad in [negated(k, "m") for k in range(5)] + [negated(4, "c")]:
            with pytest.raises(UsageError, match="got a Trace that is no "
                                                 "exact run's record$"):
                check_sqr_annotations(bad, y, eps)


# a valid run that exits at pass 0 with x = y: its error, about 10**700,
# is past float range
HUGE_Y, HUGE_EPS = 10 ** 700, 10 ** 701


class TestDisplayPastFloatRange:
    """A run whose error display is past float range ends in a passing
    report, its display inf, as in the report JSON."""

    @pytest.mark.parametrize("y, eps", [(HUGE_Y, HUGE_EPS),
                                        (F(HUGE_Y), F(HUGE_EPS))])
    def test_until_loop(self, y, eps):
        x, trace = sqr_exact(y, eps)
        assert x == y and trace.pairs == ((HUGE_Y, 1),)
        report = check_sqr_annotations(trace, y, eps)
        assert report.overall
        final = report.checks[2]
        assert final.rule == "sqr.final-error"
        assert final.witness["err_display"] == math.inf
        assert '"err_display": "inf"' in report.to_json()

    @pytest.mark.parametrize("y, eps", [(HUGE_Y, HUGE_EPS),
                                        (F(HUGE_Y), F(HUGE_EPS))])
    def test_fsqr(self, y, eps):
        _, trace = fsqr_exact(y, eps, y, 0)
        report = check_fsqr_annotations(trace, y, eps)
        assert report.overall
        final = report.checks[1]
        assert final.rule == "fsqr.final-error"
        assert final.witness["err_display"] == math.inf
        assert final.witness["bound"] == F(HUGE_EPS, 2)
        assert '"err_display": "inf"' in report.to_json()

    def test_sqr_suite(self):
        assert run_sqr_suite([(HUGE_Y, HUGE_EPS)]).overall


def reference_invariant(trace):
    """The k of each iterate outside sqrt(y) <= x <= seed, the seed
    capped at y, by the Fraction formula the checker first used."""
    y, xs = F(*trace.y), [fraction_from_coprime(*xk) for xk in trace.pairs]
    seed = min(xs[0], y)
    return [k for k, x in enumerate(xs) if cmp_sqrt(x, y) < 0 or x > seed]


def reference_progress(trace):
    """The k of each iterate after k passes that breaks the progress
    bound, by the Fraction formula the checker first used."""
    y, xs = F(*trace.y), [fraction_from_coprime(*xk) for xk in trace.pairs]
    seed = min(xs[0], y)
    return [k for k, x in enumerate(xs[1:], 1)
            if cmp_sqrt((x * 2 ** k - seed) / (2 ** k - 1), y) > 0]


def near_bounds(trace):
    """Each record of the run's first k passes, its iterate k moved next
    to a bound it is decided against, and that k.  The x tried are the
    ends of a 24-bit enclosure of sqrt(y), the capped seed and 2**-24
    above it; after a pass k of fsqr_exact, the two x whose progress
    left side is an end of the enclosure."""
    y = F(*trace.y)
    root = sqrt_enclosure(y, 24)
    seed = min(F(*trace.pairs[0]), y)
    for k in range(len(trace.pairs)):
        if trace.algorithm != "fsqr_exact":
            xs = (root.lo, root.hi, seed, seed + F(1, 2 ** 24))
        else:
            xs = [(seed + (2 ** k - 1) * r) / 2 ** k
                  for r in (root.lo, root.hi)] if k else []
        for x in xs:
            yield k, trace._replace(pairs=(*trace.pairs[:k], pair(x)),
                                    corrections=trace.corrections[:k])


def checker_first_failure(trace):
    """The k of the first iterate the checker's invariant or progress
    rule fails, None when it passes."""
    if trace.algorithm == "fsqr_exact":
        report = check_fsqr_annotations(trace, F(*trace.y), F(*trace.eps))
    else:
        report = check_sqr_annotations(trace, F(*trace.y), F(*trace.eps))
    result = report.checks[0]
    assert result.rule.endswith(("loop-invariant", "progress"))
    return None if result.passed else result.witness["k"]


def agree(trace):
    """Assert that the checker first fails the iterate the Fraction
    formula first fails, and return its k (None when both pass)."""
    reference = (reference_progress if trace.algorithm == "fsqr_exact"
                 else reference_invariant)(trace)
    want = reference[0] if reference else None
    assert checker_first_failure(trace) == want, (trace.y, trace.pairs)
    return want


class TestIntegerDecisionsMatchFractionFormulas:
    """The loop invariant and fsqr.progress, decided on the record's
    integer pairs, against the Fraction formulas they replaced: on real
    runs, on the tampered records of the rule controls, and on records
    with one iterate moved next to a bound."""

    def test_digest_inputs(self):
        for y, eps in DIGEST_INPUTS:
            assert agree(sqr_exact(y, eps)[1]) is None

    def test_fsqr_suite_runs(self, demo_profile, demo_table, demo_eps):
        for y in grid_values(demo_profile, F(3))[:50]:
            seed = sup_fn(y, demo_table).value
            n = min_legal_iterations(y.value, demo_eps.value, seed)
            _, trace = fsqr_exact(y.value, demo_eps.value, seed, n)
            assert agree(trace) is None

    def test_rule_controls(self):
        for family, run in UNTIL_LOOPS.items():
            got = {rule: agree(tamper(run()[1]))
                   for rule, tamper in TAMPERS.items()}
            assert got == {"loop-invariant": 1, "halving": None,
                           "final-error": None, "iteration-cap": None}
        got = {rule: agree(fsqr_tampered(rule)) for rule in FSQR_TAMPERS}
        assert got == {"progress": 2, "final-error": None}

    def test_near_bounds(self, demo_profile, demo_table, demo_eps):
        # the digest inputs' runs from y and from a tight seed, each
        # while its pairs are short, and fsqr_exact on the demo grid
        runs = [sqr_exact(y, eps)[1] for y, eps in DIGEST_INPUTS[::5]]
        runs += [isqr_exact(y, eps, isqr_seeds(y)[1])[1]
                 for y, eps in DIGEST_INPUTS[::5] if y > 1]
        runs = [t._replace(pairs=tuple(xk for xk in t.pairs
                                       if xk[1].bit_length() < 2000))
                for t in runs]
        for y in grid_values(demo_profile, F(3))[:50:5]:
            seed = sup_fn(y, demo_table).value
            runs.append(fsqr_exact(y.value, demo_eps.value, seed, 6)[1])
        at_k = [agree(bad) == k for t in runs for k, bad in near_bounds(t)]
        assert len(at_k) > 500 and 0 < sum(at_k) < len(at_k)


def twin_gaps(grid, exact):
    """|x_exact_k - x_fix_k| at each k, from the twin records' integers."""
    d = grid.y.profile.delta_den
    return [F(abs(p * d - x * q), q * d)
            for x, (p, q) in zip(grid.counts, exact.pairs)]


class TestAdjustRuns:
    def test_reference_gap(self, demo_profile, demo_table, demo_eps):
        (grid, exact), report = adjust_runs(demo_profile.val(300), demo_eps,
                                            demo_table, 1)
        assert report.overall
        assert (grid.counts, exact.pairs) == ((174, 173), ((87, 50),
                                                           (5023, 2900)))
        gaps = twin_gaps(grid, exact)
        assert gaps[0] == 0
        assert gaps[1] == F(3, 1450)  # |5023/2900 - 173/100|
        assert gaps[1] <= F(1, 100)  # the bound at k = 1: one grid step

    def test_exact_square_all_zero(self, demo_profile, demo_table, demo_eps):
        (grid, exact), report = adjust_runs(demo_profile.val(400), demo_eps,
                                            demo_table, 4)
        assert report.overall
        assert len(grid.counts) == len(exact.pairs) == 5
        assert all(gap == 0 for gap in twin_gaps(grid, exact))

    def test_seeds_agree(self, demo_profile, demo_table, demo_eps):
        y = demo_profile.val(613)
        (grid, exact), _ = adjust_runs(y, demo_eps, demo_table, 3)
        seed = sup_fn(y, demo_table)
        assert grid.counts[0] == seed.count
        assert exact.pairs[0] == (seed.value.numerator,
                                  seed.value.denominator)

    def test_refuses_as_fix_sqr(self, demo_profile, demo_table, demo_eps,
                                micro_profile):
        # the exact run starts from the grid record's seed, so every
        # refusal is fix_sqr's, type and message
        micro_table = build_root_table(micro_profile, micro_profile.val(8))
        y = demo_profile.val(300)
        cases = {
            "y-above-half-sup": (demo_profile.val(801), demo_eps,
                                 demo_table, 3),
            "n-below-minimum": (demo_profile.val(301), demo_profile.val(5),
                                demo_table, 1),
            "eps-zero": (y, demo_profile.val(0), demo_table, 3),
            "eps-other-grid": (y, micro_profile.val(8), demo_table, 3),
            "table-other-grid": (y, demo_eps, micro_table, 3),
        }
        for label, args in cases.items():
            with pytest.raises(CertisqrtError) as want:
                fix_sqr(*args)
            with pytest.raises(CertisqrtError) as got:
                adjust_runs(*args)
            assert (type(got.value), str(got.value)) == \
                (type(want.value), str(want.value)), label

    def test_random_slice(self, demo_profile, demo_table, demo_eps):
        for count in range(101, 800, 37):
            for n in (1, 2, 4):
                _, report = adjust_runs(demo_profile.val(count), demo_eps,
                                        demo_table, n)
                assert report.overall, (count, n)

    def test_finer_accuracy_slice(self, demo_profile, demo_table):
        # 1/20 divides the 1/4 step on the 1/100 grid; minimum n is 4
        eps = demo_profile.val(5)
        for count in range(101, 800, 23):
            for n in (4, 5, 6):
                _, report = adjust_runs(demo_profile.val(count), eps,
                                        demo_table, n)
                assert report.overall, (count, n)

    def test_floored_grid_fails_only_gap_bound(self, monkeypatch):
        # with the grid rounding floored, the first pass lands more than
        # one step from its exact twin, yet the result keeps its bound
        profile = FixProfile(1000, 200000, 200000)
        table = build_root_table(profile, profile.val(32))
        monkeypatch.setattr("certisqrt.fixarith.round_half_even",
                            lambda num, den: num // den)
        _, report = adjust_runs(profile.val(1092), profile.val(8), table, 3)
        assert [c.rule for c in report.failures()] == ["adjust.gap-bound"]
        assert report.failures()[0].witness == {
            "k": 1, "gap": F(763, 706000), "bound": F(1, 1000)}

    def test_tight_bound_fails_only_final_error(self, demo_profile,
                                                demo_table, demo_eps,
                                                monkeypatch):
        monkeypatch.setattr("certisqrt.verify.fix_bound",
                            lambda eps, n: F(1, 1000))
        _, report = adjust_runs(demo_profile.val(300), demo_eps,
                                demo_table, 3)
        assert [c.rule for c in report.failures()] == ["adjust.final-error"]
        failure = report.failures()[0]
        assert failure.witness["x"] == "173/100"
        assert failure.witness["bound"] == F(1, 1000)


class TestMonotonicityProbe:
    def test_witness_fixture(self, demo_profile, demo_table, demo_eps,
                             fixtures_dir):
        import json
        doc = json.loads((fixtures_dir / "more_worse_witness.json")
                         .read_text())
        rows = monotonicity_probe(demo_profile.val(doc["y_count"]), demo_eps,
                                  demo_table, doc["n_min"], doc["n_max"])
        increases = [r.n for r in rows if r.error_increased]
        assert increases == doc["expect_increase_at"]
        assert all(r.within_bound for r in rows)

    def test_exact_square_never_increases(self, demo_profile, demo_table,
                                          demo_eps):
        rows = monotonicity_probe(demo_profile.val(400), demo_eps,
                                  demo_table, 1, 6)
        assert not any(r.error_increased for r in rows)
        assert all(r.err_display == 0 for r in rows)

    @staticmethod
    def _per_count_rows(y, eps, table, n_min, n_max):
        """The probe's rows from one fix_sqr run per count."""
        rows, prev = [], None
        for n in range(n_min, n_max + 1):
            x, _ = fix_sqr(y, eps, table, n)
            verdict = sqrt_verdict("fix", x, y, eps, n=n)
            grew = prev is not None and fraction_err_order(
                x.value, prev.value, y.value) > 0
            rows.append((n, x, verdict.witness["bound"], verdict.passed, grew))
            prev = x
        return rows

    @pytest.mark.parametrize("count", [102, 200, 300, 457, 613, 800])
    @pytest.mark.parametrize("n_min", [1, 3])
    def test_rows_equal_per_count_runs(self, demo_profile, demo_table,
                                       demo_eps, count, n_min):
        y = demo_profile.val(count)
        rows = monotonicity_probe(y, demo_eps, demo_table, n_min, 40)
        assert [(r.n, r.x, r.bound, r.within_bound, r.error_increased)
                for r in rows] == \
            self._per_count_rows(y, demo_eps, demo_table, n_min, 40)
        d = demo_profile.delta_den
        assert [r.err_display for r in rows] == \
            [approx_abs_err(r.x.count, d, count, d) for r in rows]

    def test_refusals(self, demo_profile, demo_table):
        y, eps = demo_profile.val(301), demo_profile.val(5)
        with pytest.raises(CertisqrtError) as want:
            fix_sqr(y, eps, demo_table, 1)
        with pytest.raises(type(want.value),
                           match=f"^{re.escape(str(want.value))}$"):
            monotonicity_probe(y, eps, demo_table, 1, 40)
        with pytest.raises(DomainError, match=r"^empty sweep range \[4, 3\]$"):
            monotonicity_probe(y, eps, demo_table, 4, 3)


def fraction_err_order(a, b, y):
    """The sign of |a - sqrt(y)| - |b - sqrt(y)| by Fraction arithmetic,
    the probe's former rule: err(a)**2 - err(b)**2 = (a - b) * (a + b -
    2*sqrt(y))."""
    return ((a > b) - (a < b)) * cmp_sqrt((a + b) / 2, y)


class TestErrOrder:
    """The probe's rule on counts over d, each case also on the Fraction
    rule: _err_order(a, b, y, d) is the sign of |a/d - sqrt(y/d)| -
    |b/d - sqrt(y/d)|."""

    @staticmethod
    def both(a, b, y, d):
        got = _err_order(a, b, y, d)
        assert got == fraction_err_order(F(a, d), F(b, d), F(y, d))
        return got

    def test_ordering(self):
        assert self.both(15, 14, 20, 10) == 1  # 3/2 and 7/5 at y = 2
        assert self.both(14, 15, 20, 10) == -1
        assert self.both(15, 15, 20, 10) == 0
        # 1 and 3 lie 1 either side of sqrt(4): the midpoint is the root
        assert self.both(1, 3, 4, 1) == 0
        assert self.both(100, 300, 400, 100) == 0  # the same tie over 100

    def test_symmetric_pair(self):
        # 1.3 and 1.5 straddle sqrt(2) = 1.41421...
        assert self.both(13, 15, 20, 10) == 1
        assert self.both(15, 13, 20, 10) == -1

    @given(st.integers(0, 2000), st.integers(0, 2000), st.integers(0, 4000),
           st.sampled_from([1, 2, 10, 100, 1000]))
    @settings(max_examples=300, deadline=None)
    def test_equals_fraction_rule(self, a, b, y, d):
        self.both(a, b, y, d)


def fraction_abs_err(q, y):
    """The display's Fraction reference: the float of |q - (lo + hi)/2|
    for the ends of sqrt_enclosure(y, 64), taken on y in lowest terms as
    every Fraction is."""
    e = sqrt_enclosure(y, 64)
    return float(abs(q - (e.lo + e.hi) / 2))


def display(q, y):
    """approx_abs_err on the parts of the Fractions q and y."""
    return approx_abs_err(q.numerator, q.denominator, y.numerator,
                          y.denominator)


class TestApproxAbsErr:
    """approx_abs_err, formed on integer parts, gives the float of the
    Fraction formula: both round the same rational correctly."""

    def test_matches_fraction_formula_on_corpus(self):
        for y, eps in sample_rationals(40, 1):
            _, trace = sqr_exact(y, eps)
            for q in (fraction_from_coprime(*xk) for xk in trace.pairs):
                assert display(q, y) == fraction_abs_err(q, y)

    def test_every_demo_y_on_counts(self, demo_profile, demo_table,
                                    demo_eps):
        """The grid displays: counts over d against the Fractions of the
        mix result and the fix results at n_min..n_min + 3."""
        d, n_min = demo_profile.delta_den, min_iterations_for_step(
            demo_table.stp, demo_eps)
        for y in grid_values(demo_profile, F(8)):
            xs = [mix_sqr(y, demo_eps, demo_table)[0]]
            xs += [fix_sqr(y, demo_eps, demo_table, n)[0]
                   for n in range(n_min, n_min + 4)]
            for x in xs:
                assert approx_abs_err(x.count, d, y.count, d) == \
                    fraction_abs_err(x.value, y.value), (x, y)

    def test_wide_counts_near_the_root(self):
        """20,000 counts X over d = 1000 within 3 steps of sqrt(Y/d), the
        wide profile's grid inputs, the exact squares among them."""
        d, rng = 1000, random.Random(1)
        ys = [rng.randint(1001, 2_000_000) for _ in range(19_900)]
        ys += [10 * t * t for t in range(11, 111)]  # Y*d = (100*t)**2
        for big_y in ys:
            root = math.isqrt(big_y * d)
            big_x = root + (rng.randint(-3, 3) if root * root != big_y * d
                            else rng.randint(0, 1))
            assert approx_abs_err(big_x, d, big_y, d) == \
                fraction_abs_err(F(big_x, d), F(big_y, d)), (big_x, big_y)

    # y = 125/100 = 5/4 and 818000/1000 = 409/500: the enclosure of the
    # parts as written has another midpoint, and its float differs
    @pytest.mark.parametrize("x, y, d", [(112, 125, 100),
                                         (28600, 818000, 1000)])
    def test_unreduced_y(self, x, y, d):
        assert approx_abs_err(x, d, y, d) == fraction_abs_err(F(x, d),
                                                              F(y, d))
        lo, hi, den = exact._enclosure(y, d, 64)
        assert approx_abs_err(x, d, y, d) != \
            abs(x * 2 * den - (lo + hi) * d) / (d * 2 * den)

    @given(st.integers(1, 2 ** 64), st.integers(1, 2 ** 64),
           st.integers(64, 30_000), st.integers(-2 ** 40, 2 ** 40),
           st.randoms(use_true_random=False))
    @example(10 ** 9 + 7, 997, 100_000, 1, random.Random(1))
    @example(2, 1, 100_000, -1, random.Random(2))
    @settings(max_examples=30, deadline=None)
    def test_matches_fraction_formula_on_large_operands(self, a, b, bits,
                                                        shift, rng):
        # q near sqrt(y) with parts of `bits` bits, as in long exact runs
        y, den = F(a, b), rng.getrandbits(bits) | 1 << (bits - 1)
        num = max(math.isqrt(a * den * den // b) + shift, 1)
        assert display(F(num, den), y) == fraction_abs_err(F(num, den), y)

    @pytest.mark.parametrize("q, y", [(F(2), F(4)), (F(3, 2), F(9, 4)),
                                      (F(17, 12), F(2)), (F(1), F(10 ** 40))])
    def test_exact_and_small_values(self, q, y):
        assert display(q, y) == fraction_abs_err(q, y)

    def test_too_large_for_a_float(self):
        # where the float of the Fraction formula overflows, the display
        # is inf
        q = F(2 ** 2000)
        with pytest.raises(OverflowError):
            fraction_abs_err(q, F(2))
        assert display(q, F(2)) == math.inf
        assert display(F(1, 2 ** 2000), F(2 ** 4000)) == math.inf


class TestFinalError:
    """_final_error decides the bound and its strict form from one pair of
    signs; its result equals the former two within_of_sqrt calls'."""

    @staticmethod
    def former(x, y, bound):
        ok = within_of_sqrt(x, y, bound)
        return CheckResult("n", "r", ok, {"x": x, "eps": bound,
                                          "err_display": display(x, y)},
                           strict=ok and within_of_sqrt(x, y, bound,
                                                        strict=True))

    @pytest.mark.parametrize("x, y, bound", [
        (F(3), F(4), F(1)),            # x - bound = sqrt(y): not strict
        (F(1), F(4), F(1)),            # x + bound = sqrt(y): not strict
        (F(2), F(4), F(0)),            # exact root, zero bound
        (F(17, 12), F(2), F(1, 100)),  # strict
        (F(3, 2), F(2), F(1, 100)),    # outside
        (F(5, 2), F(4), F(1, 2)),      # tie at the upper end
    ])
    def test_matches_former(self, x, y, bound):
        got = _final_error("n", "r", x, y, "eps", bound)
        want = self.former(x, y, bound)
        assert got == want
        assert got.strict is want.strict

    def test_matches_former_on_corpus(self):
        for y, eps in sample_rationals(40, 1):
            x, _ = sqr_exact(y, eps)
            for bound in (eps, eps / 1000, F(0)):
                assert _final_error("n", "r", x, y, "eps", bound) == \
                    self.former(x, y, bound)


class TestTableProperties:
    def test_demo_passes(self, demo_table, demo_eps):
        report = check_table_properties(demo_table, demo_eps)
        assert report.overall
        assert report.subject == "table stp=25/100 entries=60"

    def test_single_entry_corruption(self, demo_table, demo_eps):
        roots = list(demo_table.roots)
        roots[7] -= 1  # one grid step down breaks the upper-root rule
        bad = dataclasses.replace(demo_table, roots=tuple(roots))
        report = check_table_properties(bad, demo_eps)
        assert {c.rule for c in report.failures()} == {"table.root"}

    @pytest.mark.parametrize("index,delta", [
        (0, -1), (0, 1), (7, 1), (30, -1), (59, -1), (59, 1), (12, -40)])
    def test_corruption_fails_only_root(self, demo_table, demo_stp,
                                        demo_eps, index, delta):
        roots = list(demo_table.roots)
        roots[index] += delta
        bad = dataclasses.replace(demo_table, roots=tuple(roots))
        report = check_table_properties(bad, demo_eps)
        assert [c.rule for c in report.failures()] == ["table.root"]
        k = demo_table.k_min + index
        assert report.failures()[0].witness == {
            "index": f"{k * demo_stp.count}/100", "root": f"{roots[index]}/100"}

    def test_eps_from_another_grid_refused(self, demo_table):
        # the profile and step are the table's own; an eps from another
        # grid, here the same number 25/100 = 250/1000, is refused
        fine = FixProfile(1000, 16000, 16000)
        with pytest.raises(ProfileMismatch,
                           match="step and accuracy from different grids"):
            check_table_properties(demo_table, fine.val(250))

    # 325 is an index value itself, so rounding it up must not move it
    @pytest.mark.parametrize("skipped", [301, 325])
    def test_skipped_index_fails_only_round_up(self, demo_table, demo_eps,
                                               monkeypatch, skipped):
        def skip_one(count, stp_count, profile):
            up = _round_up_count(count, stp_count, profile)
            return up + stp_count if count == skipped else up

        monkeypatch.setattr("certisqrt.lut._round_up_count", skip_one)
        report = check_table_properties(demo_table, demo_eps)
        assert [c.rule for c in report.failures()] == ["table.round-up"]
        assert report.failures()[0].witness == {"u": f"{skipped}/100",
                                                "rounded": "350/100"}

    def test_rounding_off_the_indices_fails_only_round_up(
            self, demo_table, demo_eps, monkeypatch):
        # 301 left where it is: within one step above it, below sup, but
        # no multiple of the step
        def stay(count, stp_count, profile):
            up = _round_up_count(count, stp_count, profile)
            return count if count == 301 else up

        monkeypatch.setattr("certisqrt.lut._round_up_count", stay)
        report = check_table_properties(demo_table, demo_eps)
        assert [c.rule for c in report.failures()] == ["table.round-up"]
        assert report.failures()[0].witness == {"u": "301/100",
                                                "rounded": "301/100"}

    def test_walk_builds_values_for_its_witness_only(
            self, demo_table, demo_eps, monkeypatch):
        """The walk runs on counts: it builds no FixVal and calls no
        round_up_to_step for a count that passes, and the two values of
        the first failure's witness only."""
        built, wrapped = [], []
        real_init = FixVal.__init__

        def counted_init(value, count, profile):
            built.append(count)
            real_init(value, count, profile)

        monkeypatch.setattr(FixVal, "__init__", counted_init)
        monkeypatch.setattr(lut, "round_up_to_step",
                            lambda *args: wrapped.append(args))
        assert check_table_properties(demo_table, demo_eps).overall
        assert built == [] and wrapped == []

        def skip_two(count, stp_count, profile):
            up = _round_up_count(count, stp_count, profile)
            return up + stp_count if count in (301, 302) else up

        monkeypatch.setattr(lut, "_round_up_count", skip_two)
        report = check_table_properties(demo_table, demo_eps)
        assert not report.overall
        assert built == [301, 350] and wrapped == []


class TestBalanceSweep:
    def test_demo_three_candidates(self, demo_profile, demo_eps):
        rows = balance_sweep(demo_eps, [demo_profile.val(25),
                                        demo_profile.val(50),
                                        demo_profile.val(100)])
        assert [r.table_size for r in rows] == [64, 32, 16]
        assert [r.n for r in rows] == [1, 2, 3]
        assert rows[0].predicted_bound == F(1, 8) + F(1, 100)
        assert all(r.all_within_predicted for r in rows)

    def test_single_candidate_equal_to_eps(self, demo_profile, demo_eps):
        rows = balance_sweep(demo_eps, [demo_profile.val(25)])
        assert len(rows) == 1 and rows[0].n == 1

    def test_invalid_candidate_marked(self, demo_profile, demo_eps):
        rows = balance_sweep(demo_eps, [demo_profile.val(30)])
        assert not rows[0].valid

    def test_profile_without_grid_inputs_refused(self, demo_profile):
        """On a profile whose grid runs accept no input a valid step is
        refused, not passed having run none; the grid check comes first,
        and an invalid step is still a row."""
        p = FixProfile(10, 40, 21)
        with pytest.raises(DomainError, match="^" + re.escape(
                "no grid value in (1, 21/20]: the grid runs accept no "
                "input on this profile") + "$"):
            balance_sweep(p.val(3), [p.val(3)])
        with pytest.raises(ProfileMismatch):
            balance_sweep(p.val(3), [demo_profile.val(3), p.val(3)])
        rows = balance_sweep(p.val(3), [p.val(4)])
        assert [r.valid for r in rows] == [False]

    def test_candidate_from_another_grid_refused(self, demo_profile,
                                                 demo_eps):
        # a candidate, or eps, from another grid is refused before any
        # table is built, not marked invalid
        fine = FixProfile(1000, 16000, 16000)
        with pytest.raises(ProfileMismatch,
                           match="step and accuracy from different grids"):
            balance_sweep(demo_eps, [demo_profile.val(25), fine.val(250)])
        with pytest.raises(ProfileMismatch):
            balance_sweep(fine.val(250), [demo_profile.val(25)])

    @pytest.mark.parametrize("d,sup", [(100, 1600), (10, 40), (10, 21),
                                       (2, 130), (2, 132), (10, 1300)])
    def test_sample_spreads_grid_inputs(self, d, sup):
        """64 counts from d + 1 to sup // 2, both ends kept, or every count
        when there are at most 64; none when the range is empty."""
        lo, hi = d + 1, sup // 2
        want = (sorted({lo + (hi - lo) * i // 63 for i in range(64)})
                if hi >= lo else [])
        got = [y.count for y in _sample_grid_values(FixProfile(d, sup, sup))]
        assert got == want
        assert len(got) == min(64, max(0, hi - lo + 1))


class TestSuites:
    def test_sqr_suite_samples(self):
        report = run_sqr_suite(sample_rationals(25, seed=7))
        assert report.overall
        assert len(report.checks) == 25

    def test_sample_rationals_deterministic(self):
        assert sample_rationals(10, seed=3) == sample_rationals(10, seed=3)
        assert sample_rationals(10, seed=3) != sample_rationals(10, seed=4)

    def test_sample_rationals_ranges(self):
        for y, eps in sample_rationals(200, seed=1):
            assert 1 < y < 10 ** 6
            assert F(1, 10 ** 6) < eps < 1

    def test_fsqr_suite_slice(self, demo_profile, demo_table, demo_eps):
        ys = grid_values(demo_profile, F(3))[:50]
        report = run_fsqr_suite(demo_table, demo_eps, ys)
        assert report.overall

    def test_adjust_suite_slice(self, demo_profile, demo_table, demo_eps):
        ys = grid_values(demo_profile, F(2))[:20]
        report = run_adjust_suite(demo_table, demo_eps, ys)
        assert report.overall
        assert report.subject == "adjust suite (20 inputs x 6 counts)"
        assert [c.name for c in report.checks[:6]] == \
            [f"y={ys[0]} n={n}" for n in range(1, 7)]

    @pytest.mark.parametrize("grid", ["demo", "floored"])
    def test_adjust_suite_equals_per_count_runs(self, grid, demo_profile,
                                                demo_table, demo_eps,
                                                monkeypatch):
        """Each entry, and the report it is read from, is the one
        adjust_runs gives at that count: on the demo scan, and with the
        grid rounding floored, where 72 of the 342 entries fail."""
        if grid == "demo":
            profile, table, eps = demo_profile, demo_table, demo_eps
            ys = grid_values(profile, F(8))
        else:
            _floored(monkeypatch)
            profile = FixProfile(1000, 200000, 200000)
            table = build_root_table(profile, profile.val(32))
            eps, ys = profile.val(8), list(map(profile.val,
                                               range(1092, 100001, 1750)))
        n_min = min_iterations_for_step(table.stp, eps)
        counts = range(n_min, n_min + 6)
        read = []
        entry = _suite_check
        monkeypatch.setattr("certisqrt.verify._suite_check",
                            lambda *args: read.append(args[2]) or entry(*args))
        report = run_adjust_suite(table, eps, ys)
        runs = [(y, n) for y in ys for n in counts]
        want = [adjust_runs(y, eps, table, n)[1] for y, n in runs]
        assert read == want
        assert report.checks == tuple(
            entry(f"y={y} n={n}", "suite.adjust", rep)
            for (y, n), rep in zip(runs, want))
        assert len(report.failures()) == (0 if grid == "demo" else 72)

    def test_adjust_suite_runs_each_twin_once(self, demo_profile,
                                              demo_table, demo_eps,
                                              monkeypatch):
        calls = []
        for name in ("fix_sqr", "fsqr_exact"):
            run = getattr(newton, name)
            monkeypatch.setattr(
                f"certisqrt.verify.{name}",
                lambda *args, run=run, name=name:
                calls.append((name, args[0], args[-1])) or run(*args))
        ys = grid_values(demo_profile, F(3))[::10]
        run_adjust_suite(demo_table, demo_eps, ys)
        # one pair per input, at the last of the counts 1 ... 6
        assert calls == [(name, arg, 6) for y in ys for name, arg in
                         (("fix_sqr", y), ("fsqr_exact", y.value))]

    @pytest.mark.parametrize("cap,count", [(None, 801), (40, 300),
                                           (200, 300), (400, 300)])
    def test_adjust_suite_refuses_as_its_first_count(
            self, cap, count, demo_profile, demo_table, demo_eps,
            monkeypatch):
        """The one twin pair refuses as the first of the six per-count
        runs refuses: a y above sup/2, or the exact run's ResourceLimit
        at passes 2, 4 and 5, whichever count first reaches them."""
        if cap is not None:
            monkeypatch.setenv("CERTISQRT_MAX_BITS", str(cap))
        y, refusals = demo_profile.val(count), []
        for n in range(1, 7):
            try:
                adjust_runs(y, demo_eps, demo_table, n)
            except CertisqrtError as refused:
                refusals.append((type(refused), str(refused)))
        assert refusals
        with pytest.raises(CertisqrtError) as got:
            run_adjust_suite(demo_table, demo_eps, [y])
        assert (type(got.value), str(got.value)) == refusals[0]

    def test_sqr_suite_refuses_no_inputs(self):
        with pytest.raises(DomainError, match="^the sqr suite needs at "
                                              "least one input$"):
            run_sqr_suite([])

    def test_fsqr_suite_refuses_no_inputs(self, demo_table, demo_eps,
                                          micro_profile):
        with pytest.raises(DomainError, match="^the fsqr suite needs at "
                                              "least one input$"):
            run_fsqr_suite(demo_table, demo_eps, [])
        # the grid check comes first
        with pytest.raises(ProfileMismatch):
            run_fsqr_suite(demo_table, micro_profile.val(5), [])

    def test_adjust_suite_refuses_no_inputs(self, demo_table, demo_eps,
                                            micro_profile):
        with pytest.raises(DomainError, match="^the adjust suite needs at "
                                              "least one input$"):
            run_adjust_suite(demo_table, demo_eps, [])
        with pytest.raises(ProfileMismatch):
            run_adjust_suite(demo_table, micro_profile.val(5), [])

    def test_failed_entry_names_its_rules(self):
        rep = VerifyReport("run", (CheckResult("a", "r.a", True),
                                   CheckResult("b", "r.b", False),
                                   CheckResult("c", "r.c", False)))
        entry = _suite_check("y=2", "suite.sqr", rep)
        assert entry.as_dict()["witness"] == {"failed": ["r.b", "r.c"]}

    def test_grid_values_range(self, demo_profile):
        vals = grid_values(demo_profile, F(8))
        assert len(vals) == 700
        assert vals[0].count == 101 and vals[-1].count == 800


def test_report_serialization_deterministic(demo_table, demo_eps):
    a = check_table_properties(demo_table, demo_eps)
    b = check_table_properties(demo_table, demo_eps)
    assert a.to_json() == b.to_json()


def test_trace_step_sequence_contiguous(demo_profile, demo_table, demo_eps):
    from certisqrt.newton import fix_sqr
    _, trace = fix_sqr(demo_profile.val(523), demo_eps, demo_table, 5)
    assert [s.k for s in trace.steps] == list(range(5))


def _enclose_sqrt(q, bits=256):
    """lo <= sqrt(q) <= hi from an integer square root, apart from the
    library's exact predicates."""
    a, b = q.numerator, q.denominator
    s = math.isqrt((a * b) << (2 * bits))
    return F(s, b << bits), F(s + 1, b << bits)


def _first_past(lo, hi, unit):
    """Least k with k*unit above a threshold known to lie in [lo, hi];
    (k - 1)*unit must lie below it."""
    k = math.floor(hi / unit) + 1
    assert (k - 1) * unit < lo, "a grid point lies inside the enclosure"
    return k


class TestSqrtVerdict:
    """Each mode's rule, its witness, and a negative control: the result
    one unit past the bound fails that rule, one unit inside passes."""

    def test_exact(self):
        y, eps = F(2), F(1, 100)
        x, _ = sqr_exact(y, eps)
        verdict = sqrt_verdict("exact", x, y, eps)
        assert (verdict.rule, verdict.passed) == ("sqrt.exact-bound", True)
        assert verdict.witness == {"bound": eps}
        lo, hi = _enclose_sqrt(y)
        unit = F(1, 10 ** 6)
        k = _first_past(lo + eps, hi + eps, unit)
        assert sqrt_verdict("exact", (k - 1) * unit, y, eps).passed
        past = sqrt_verdict("exact", k * unit, y, eps)
        assert (past.rule, past.passed) == ("sqrt.exact-bound", False)
        # and one unit below sqrt(y) - eps
        k = _first_past(lo - eps, hi - eps, unit)
        assert sqrt_verdict("exact", k * unit, y, eps).passed
        below = sqrt_verdict("exact", (k - 1) * unit, y, eps)
        assert (below.rule, below.passed) == ("sqrt.exact-bound", False)

    def test_exact_bound_is_inclusive(self):
        assert sqrt_verdict("exact", F(9, 4), F(4), F(1, 4)).passed
        assert sqrt_verdict("exact", F(7, 4), F(4), F(1, 4)).passed

    @pytest.mark.parametrize("mode,n,bound", [
        ("mix", None, F(1, 4)), ("fix", 3, F(1, 8) + F(3, 100))])
    def test_grid(self, demo_profile, demo_table, demo_eps, mode, n, bound):
        y = demo_profile.val(300)
        if mode == "mix":
            x, _ = mix_sqr(y, demo_eps, demo_table)
        else:
            x, _ = fix_sqr(y, demo_eps, demo_table, n)
        verdict = sqrt_verdict(mode, x, y, demo_eps, n=n)
        assert (verdict.rule, verdict.passed) == (f"sqrt.{mode}-bound", True)
        assert verdict.witness == {"bound": bound}
        lo, hi = _enclose_sqrt(y.value)
        k = _first_past(lo + bound, hi + bound, demo_profile.delta)
        inside = sqrt_verdict(mode, demo_profile.val(k - 1), y, demo_eps,
                              n=n)
        past = sqrt_verdict(mode, demo_profile.val(k), y, demo_eps, n=n)
        assert inside.passed
        assert (past.rule, past.passed) == (f"sqrt.{mode}-bound", False)

    @pytest.mark.parametrize("mode,n,bound_count", [
        ("mix", None, 50), ("fix", 2, 27)])  # eps = 1/2; 1/4 + 2/100
    def test_grid_bound_is_strict(self, demo_profile, mode, n, bound_count):
        # y = 4: x = 2 + bound sits on the bound and fails
        y, eps = demo_profile.val(400), demo_profile.val(50)
        on = demo_profile.val(200 + bound_count)
        verdict = sqrt_verdict(mode, on, y, eps, n=n)
        assert verdict.witness == {"bound": F(bound_count, 100)}
        assert not verdict.passed
        inside = demo_profile.val(on.count - 1)
        assert sqrt_verdict(mode, inside, y, eps, n=n).passed

    @pytest.mark.parametrize("mode,n", [("mix", None), ("fix", 1),
                                        ("fix", 3)])
    def test_grid_ties_on_both_sides(self, demo_profile, mode, n):
        # y = (s/100)**2 on the grid, x = sqrt(y) -+ bound on the grid: the
        # count verdict is strict at both ends, as the Fraction route is
        eps = demo_profile.val(50)
        b = 25 + n if n else 50  # counts of eps/2 + n*delta, or of eps
        bound = F(b, 100)
        for s in range(110, 290, 10):
            y = demo_profile.val(s * s // 100)
            assert y.value == F(s, 100) ** 2
            for side in (-1, 1):
                on = demo_profile.val(s + side * b)
                inside = demo_profile.val(s + side * (b - 1))
                verdict = sqrt_verdict(mode, on, y, eps, n=n)
                assert verdict.witness == {"bound": bound}
                assert not verdict.passed
                assert not within_of_sqrt(on.value, y.value, bound,
                                          strict=True)
                assert within_of_sqrt(on.value, y.value, bound)
                assert sqrt_verdict(mode, inside, y, eps, n=n).passed

    def test_float(self, demo_profile, demo_float_profile, demo_table,
                   demo_eps):
        fprof = demo_float_profile
        a, _ = encode_rational(F(12), fprof)
        assert (a.man.count, a.exp) == (150, 3)
        b, _ = flt_sqr(a, demo_eps, fprof, demo_table)
        verdict = sqrt_verdict("float", b, a, demo_eps, fprof=fprof)
        assert (verdict.rule, verdict.passed) == ("sqrt.float-bound", True)
        c1, c2 = F(1, 2), F(1, 200)  # eps*2**1, (delta/2)*2**0
        assert verdict.witness == {"c1": c1, "c2": c2, "base": 2}
        # the result b = m/100 * 2**1 moves in units of 1/50
        root_lo, root_hi = _enclose_sqrt(F(12))
        beta_lo, beta_hi = _enclose_sqrt(F(2))
        m = _first_past(root_lo + c1 + c2 * beta_lo,
                        root_hi + c1 + c2 * beta_hi, F(1, 50))
        inside = compose(demo_profile.val(m - 1), 1, fprof)
        past = compose(demo_profile.val(m), 1, fprof)
        assert sqrt_verdict("float", inside, a, demo_eps, fprof=fprof).passed
        failed = sqrt_verdict("float", past, a, demo_eps, fprof=fprof)
        assert (failed.rule, failed.passed) == ("sqrt.float-bound", False)

    def test_float_zero(self, demo_profile, demo_float_profile, demo_eps):
        zero = FloatVal.zero()
        one = compose(demo_profile.val(150), 0, demo_float_profile)
        ok = sqrt_verdict("float", zero, zero, demo_eps,
                          fprof=demo_float_profile)
        assert (ok.rule, ok.passed, ok.witness) == \
            ("sqrt.float-bound", True, {"zero": True})
        assert not sqrt_verdict("float", one, zero, demo_eps,
                                fprof=demo_float_profile).passed

    def test_unknown_mode(self, demo_profile, demo_eps):
        y = demo_profile.val(300)
        with pytest.raises(UsageError):
            sqrt_verdict("nearest", y, y, demo_eps)

    # a bool is refused by the one count rule the runs apply
    @pytest.mark.parametrize("n", [None, 3.0, "3", True])
    def test_fix_without_integer_count(self, demo_profile, demo_eps, n):
        y = demo_profile.val(300)
        with pytest.raises(UsageError, match="integer iteration count"):
            sqrt_verdict("fix", demo_profile.val(173), y, demo_eps, n=n)

    def test_float_without_profile(self, demo_profile, demo_float_profile,
                                   demo_eps):
        a = compose(demo_profile.val(150), 3, demo_float_profile)
        b = compose(demo_profile.val(173), 1, demo_float_profile)
        with pytest.raises(UsageError, match="float profile"):
            sqrt_verdict("float", b, a, demo_eps)

    @pytest.mark.parametrize("base_x,base_y", [(2, 3), (3, 2), (3, 3)])
    def test_float_of_another_base(self, demo_profile, demo_float_profile,
                                   demo_table, demo_eps, base_x, base_y):
        # in base 3, y = 3.00*3**2 = 27 and x = 1.73*3**1 = 5.19 pass a
        # base-2 profile's bound when the base goes unchecked
        y = FloatVal(demo_profile.val(300), 2, base_y)
        x = FloatVal(demo_profile.val(173), 1, base_x)
        with pytest.raises(ProfileMismatch) as exc:
            sqrt_verdict("float", x, y, demo_eps, fprof=demo_float_profile)
        assert str(exc.value) == "input base 3 differs from the profile base 2"
        # flt_sqr refuses a base-3 input in the same words
        with pytest.raises(ProfileMismatch) as flt_exc:
            flt_sqr(FloatVal(demo_profile.val(300), 2, 3), demo_eps,
                    demo_float_profile, demo_table)
        assert str(flt_exc.value) == str(exc.value)

    def test_float_eps_from_another_grid(self, demo_profile,
                                         demo_float_profile):
        # the bound's delta is eps's grid step, so an eps off the
        # profile's grid is refused, as flt_sqr refuses it
        fine = FixProfile(1000, 16000, 16000)
        y = compose(demo_profile.val(300), 2, demo_float_profile)
        x = compose(demo_profile.val(173), 1, demo_float_profile)
        with pytest.raises(ProfileMismatch, match="eps from another grid"):
            sqrt_verdict("float", x, y, fine.val(250),
                         fprof=demo_float_profile)


def fraction_route(mode, x, y, eps, n=None):
    """A fix or mix verdict as it was decided before it read the counts:
    within_of_sqrt on the Fractions of x, y and the bound."""
    bound = (eps.value / 2 + n * eps.profile.delta if mode == "fix"
             else eps.value)
    return within_of_sqrt(x.value, y.value, bound, strict=True)


@pytest.fixture(scope="module")
def wide():
    """grid_serve's wide profile, d = 1000: its table (stp 16/1000), eps
    8/1000 and 2,000 inputs, both ends of the range among them."""
    fix = FixProfile(1000, 4_000_000, 4_000_000)
    rng = random.Random(1)
    counts = [1001, 2_000_000,
              *(rng.randint(1001, 2_000_000) for _ in range(1998))]
    return (build_root_table(fix, fix.val(16)), fix.val(8),
            [fix.val(c) for c in counts])


class TestCountVerdictsMatchFractionRoute:
    """sqrt_verdict (fix and mix), balance_sweep and monotonicity_probe
    decide on the counts of x and y over d; each verdict equals the one
    the Fraction route gives."""

    @staticmethod
    def agree(ys, eps, table):
        """Compare on each y: mix, and fix at n_min..n_min + 3, each result
        also moved to either end of its bound and one step past it.
        Returns the number of (passed, failed) verdicts."""
        n_min = min_iterations_for_step(table.stp, eps)
        outcomes = {True: 0, False: 0}
        for y in ys:
            runs = [("mix", None, mix_sqr(y, eps, table)[0])]
            runs += [("fix", n, fix_sqr(y, eps, table, n)[0])
                     for n in range(n_min, n_min + 4)]
            for mode, n, x in runs:
                verdict = sqrt_verdict(mode, x, y, eps, n=n)
                b = math.floor(verdict.witness["bound"] * y.profile.delta_den)
                for off in (0, -b, b, -b - 1, b + 1):
                    moved = FixVal(x.count + off, x.profile)
                    got = sqrt_verdict(mode, moved, y, eps, n=n).passed
                    assert got == fraction_route(mode, moved, y, eps, n), \
                        (mode, n, moved, y)
                    outcomes[got] += 1
        return outcomes[True], outcomes[False]

    def test_every_demo_y(self, demo_profile, demo_table, demo_eps):
        ys = grid_values(demo_profile, F(8))
        assert len(ys) == 700
        passed, failed = self.agree(ys, demo_eps, demo_table)
        assert passed > 0 and failed > 0

    def test_wide_ys(self, wide):
        table, eps, ys = wide
        passed, failed = self.agree(ys, eps, table)
        assert passed > 0 and failed > 0

    def test_refusals(self, demo_profile):
        # a negative y or bound is refused in the Fraction route's words
        x, y, eps = (demo_profile.val(c) for c in (150, 300, 50))
        for args in ((x, demo_profile.val(-150), eps),
                     (x, demo_profile.val(-6), eps),
                     (x, y, demo_profile.val(-50))):
            with pytest.raises(DomainError) as want:
                fraction_route("mix", *args)
            with pytest.raises(DomainError,
                               match=f"^{re.escape(str(want.value))}$"):
                sqrt_verdict("mix", *args)
        with pytest.raises(DomainError,
                           match=r"^radicand must be >= 0, got -3/2$"):
            sqrt_verdict("fix", x, demo_profile.val(-150), eps, n=1)

    def test_balance_sweep(self, demo_profile, monkeypatch):
        # every sampled run placed off floor(sqrt(y*d)) by off steps; at
        # y = 4 (count 400) x = 2 + off/100 exactly, so off = 26 and 27
        # sit on the bounds 26/100 and 27/100, which the sweep includes
        eps, stps = demo_profile.val(50), [demo_profile.val(c)
                                           for c in (50, 100)]
        ys = _sample_grid_values(demo_profile)
        assert demo_profile.val(400) in ys
        off = 0

        def placed(y):
            return FixVal(math.isqrt(y.count * 100) + off, y.profile)

        monkeypatch.setattr(verify, "fix_sqr", lambda y, eps, table, n: (
            placed(y), fix_sqr(y, eps, table, n)[1]))
        seen = {}
        for off in range(-30, 31):
            rows = balance_sweep(eps, stps)
            assert [r.predicted_bound for r in rows] == \
                [F(26, 100), F(27, 100)]
            seen[off] = [r.all_within_predicted for r in rows]
            assert seen[off] == [
                all(within_of_sqrt(placed(y).value, y.value,
                                   r.predicted_bound) for y in ys)
                for r in rows]
        assert [seen[off] for off in (25, 26, 27, 28)] == \
            [[True, True], [True, True], [False, True], [False, False]]

    def test_probe_on_the_witness_fixture(self, demo_profile, demo_table,
                                          demo_eps, fixtures_dir):
        import json
        doc = json.loads((fixtures_dir / "more_worse_witness.json")
                         .read_text())
        y = demo_profile.val(doc["y_count"])
        rows = monotonicity_probe(y, demo_eps, demo_table, doc["n_min"],
                                  doc["n_max"])
        assert [r.error_increased for r in rows] == \
            [prev is not None
             and fraction_err_order(r.x.value, prev.x.value, y.value) > 0
             for prev, r in zip([None, *rows], rows)]
        assert [r.n for r in rows if r.error_increased] == \
            doc["expect_increase_at"]
        assert [r.within_bound for r in rows] == \
            [fraction_route("fix", r.x, y, demo_eps, r.n) for r in rows]


class TestGridVerdictsReadNoValue:
    """The fix and mix verdicts, the probe and the sweep read no
    FixVal.value of an x or y: every decision and every display takes the
    counts over d."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """(reads, shown): each FixVal.value read as (value, Fraction), and
        the parts handed to each display, which is patched to 0.0."""
        real, reads, shown = FixVal.value.fget, [], []

        def counted(v):
            got = real(v)
            reads.append((v, got))
            return got

        monkeypatch.setattr(FixVal, "value", property(counted))
        monkeypatch.setattr(verify, "approx_abs_err",
                            lambda *parts: shown.append(parts) or 0.0)
        return reads, shown

    @staticmethod
    def of_x_or_y(reads, *others):
        """The Fractions read off FixVals other than `others`."""
        return [got for v, got in reads if not any(v is o for o in others)]

    @pytest.mark.parametrize("mode,n", [("mix", None), ("fix", 2)])
    def test_verdicts(self, reads, demo_profile, demo_table, demo_eps,
                      mode, n):
        reads, shown = reads
        for count in (101, 300, 400, 457, 800):
            y = demo_profile.val(count)
            x = (mix_sqr(y, demo_eps, demo_table)[0] if mode == "mix"
                 else fix_sqr(y, demo_eps, demo_table, n)[0])
            for moved in (x, demo_profile.val(x.count + 40)):
                reads.clear()
                sqrt_verdict(mode, moved, y, demo_eps, n=n)
                assert self.of_x_or_y(reads, demo_eps) == []
        assert shown == []

    def test_probe(self, reads, demo_profile, demo_table, demo_eps):
        reads, shown = reads
        rows = monotonicity_probe(demo_profile.val(102), demo_eps,
                                  demo_table, 1, 6)
        assert self.of_x_or_y(reads, demo_eps) == []
        assert shown == [(r.x.count, 100, 102, 100) for r in rows]

    def test_sweep(self, reads, demo_profile, demo_eps):
        reads, shown = reads
        stps = [demo_profile.val(c) for c in (25, 50, 100)]
        rows = balance_sweep(demo_eps, stps)
        assert self.of_x_or_y(reads, demo_eps, *stps) == []
        assert len(shown) == 64 * len(rows)
        assert {parts[1::2] for parts in shown} == {(100, 100)}


class TestSqrtVerdictMatchesFormerInline:
    """sqrt_verdict against the verdicts the sqrt command decided inline
    before it existed, written out here as they were."""

    def test_grid(self, demo_profile, demo_table, demo_eps):
        n_min = min_iterations_for_step(demo_table.stp, demo_eps)
        for y in grid_values(demo_profile, F(8)):
            x, _ = mix_sqr(y, demo_eps, demo_table)
            former = within_of_sqrt(x.value, y.value, demo_eps.value,
                                    strict=True)
            assert sqrt_verdict("mix", x, y, demo_eps).passed == former
            for n in range(n_min, 7):
                x, _ = fix_sqr(y, demo_eps, demo_table, n)
                bound = demo_eps.value / 2 + n * demo_profile.delta
                former = within_of_sqrt(x.value, y.value, bound, strict=True)
                assert sqrt_verdict("fix", x, y, demo_eps, n=n).passed \
                    == former

    def test_float(self, demo_profile, demo_float_profile, demo_table,
                   demo_eps):
        fprof, beta = demo_float_profile, F(2)
        decided = 0
        for count in range(101, 800):
            for e in range(-3, 4):
                a = compose(demo_profile.val(count), e, fprof)
                try:
                    b, _ = flt_sqr(a, demo_eps, fprof, demo_table)
                except CertisqrtError:
                    continue  # an odd exponent's mantissa above sup/(2*base)
                half_exp = a.exp // 2
                c1 = demo_eps.value * beta ** half_exp
                c2 = (demo_profile.delta / 2) * beta ** (half_exp - 1)
                former = sqrt_abs_err_lt(value_of(b), value_of(a), c1, c2,
                                         beta)
                got = sqrt_verdict("float", b, a, demo_eps, fprof=fprof)
                assert got.passed == former
                assert got.witness == {"c1": c1, "c2": c2, "base": 2}
                decided += 1
        assert decided > 3000

    def test_exact(self):
        for y, eps in sample_rationals(200, 1):
            x, _ = sqr_exact(y, eps)
            assert sqrt_verdict("exact", x, y, eps).passed \
                == within_of_sqrt(x, y, eps)


def former_float_verdict(x, y, eps, fprof):
    """The float verdict as decided before it took the run's counts:
    value_of of x and y and float_bound's terms as Fraction powers of the
    base, into sqrt_abs_err_lt.  Returns the verdict and (c1, c2)."""
    beta, h = F(fprof.base), y.exp // 2
    c1 = eps.value * beta ** h
    c2 = eps.profile.delta / 2 * beta ** (h - 1)
    return sqrt_abs_err_lt(value_of(x), value_of(y), c1, c2, beta), (c1, c2)


def float_cases(fprof, eps, table, ys):
    """(x, y) for each positive y flt_sqr accepts: x its run's result,
    moved by 0, +-1, +-3, +-7 and +-40 counts (a count below 1 skipped)
    and by -1, 0 and 1 in its exponent."""
    for y in ys:
        try:
            x, _ = flt_sqr(y, eps, fprof, table)
        except CertisqrtError:
            continue  # an odd exponent's mantissa above sup/(2*base)
        for off in (0, -1, 1, -3, 3, -7, 7, -40, 40):
            if x.man.count + off < 1:
                continue
            man = FixVal(x.man.count + off, fprof.fix)
            for shift in (-1, 0, 1):
                yield FloatVal(man, x.exp + shift, fprof.base), y


def demo_ys(fprof, step=1, exps=range(-3, 4)):
    """Every step-th demo mantissa count, in (1, sup/base), at each of
    exps."""
    fix = fprof.fix
    return [FloatVal(fix.val(c), e, fprof.base) for e in exps
            for c in range(fix.delta_den + 1, fix.sup_count, step)
            if c * fprof.base < fix.sup_count]


def demo_float(demo_profile, base):
    return FloatProfile(base, demo_profile, F(65536), F(65536))


@pytest.fixture(scope="module")
def base_4():
    """The demo grid widened to sup 32, so that base 4 is valid on it
    (sup > base**2), and its table of step 25/100."""
    fix = FixProfile(100, 3200, 3200)
    return FloatProfile(4, fix, F(65536), F(65536)), \
        build_root_table(fix, fix.val(25))


class TestFloatVerdictOnCounts:
    """The float verdict decides |x - sqrt(y)| < c1 + c2*sqrt(base) divided
    by base**h, h = floor(e/2) for y's exponent e, on the counts of x and
    y; it equals the route it replaced, and depends on e only through e mod
    2."""

    @pytest.mark.parametrize("base", [2, 3])
    def test_every_demo_mantissa(self, demo_profile, demo_table, demo_eps,
                                 base):
        fprof = demo_float(demo_profile, base)
        decided = {True: 0, False: 0}
        for x, y in float_cases(fprof, demo_eps, demo_table, demo_ys(fprof)):
            got = sqrt_verdict("float", x, y, demo_eps, fprof=fprof)
            want, (c1, c2) = former_float_verdict(x, y, demo_eps, fprof)
            assert got.passed == want, (x, y)
            assert got.witness == {"c1": c1, "c2": c2, "base": base}
            decided[want] += 1
        assert min(decided.values()) > 10_000

    def test_wide_mantissas(self, wide):
        table, eps, _ = wide
        fprof = FloatProfile(2, eps.profile, F(65536), F(65536))
        rng = random.Random(49)
        ys = [FloatVal(eps.profile.val(rng.randint(1001, 1_999_999)),
                       rng.choice([-1999, -1998, 1998, 1999,
                                   rng.randint(-1999, 1999)]), 2)
              for _ in range(400)]
        decided = {True: 0, False: 0}
        for x, y in float_cases(fprof, eps, table, ys):
            want, _ = former_float_verdict(x, y, eps, fprof)
            assert sqrt_verdict("float", x, y, eps, fprof=fprof).passed \
                == want, (x, y)
            decided[want] += 1
        assert min(decided.values()) > 1000

    @pytest.mark.parametrize("base", [2, 3, 4])
    def test_depends_on_the_exponent_mod_2(self, demo_profile, demo_table,
                                           base_4, base):
        """(x*base**k, y*base**(2k)) has the verdict of (x, y), and its
        witness is (x, y)'s times base**k."""
        fprof, table = base_4 if base == 4 else (
            demo_float(demo_profile, base), demo_table)
        eps = fprof.fix.val(25)
        decided = {True: 0, False: 0}
        for x, y in float_cases(fprof, eps, table,
                                demo_ys(fprof, step=13, exps=(-1, 0, 1))):
            verdict = sqrt_verdict("float", x, y, eps, fprof=fprof)
            for k in range(-3, 4):
                scaled = sqrt_verdict(
                    "float", FloatVal(x.man, x.exp + k, base),
                    FloatVal(y.man, y.exp + 2 * k, base), eps, fprof=fprof)
                assert scaled.passed == verdict.passed, (x, y, k)
                assert scaled.witness == {
                    "c1": verdict.witness["c1"] * F(base) ** k,
                    "c2": verdict.witness["c2"] * F(base) ** k,
                    "base": base}
            decided[verdict.passed] += 1
        assert min(decided.values()) > 100

    @pytest.mark.parametrize("y_count,y_exp,x_count,side", [
        (225, 0, 701, 1),    # 7.01/4 = 1.5 + 101/400
        (225, 0, 499, -1),   # 4.99/4 = 1.5 - 101/400
        (121, 1, 779, -1),   # 7.79/4 = sqrt(4.84) - 101/400
    ])
    def test_ties_on_base_4(self, base_4, y_count, y_exp, x_count, side):
        """On base 4 the bound 1/4 + (1/800)*sqrt(4) = 101/400 is
        rational: x at distance 101/400 from sqrt(y) fails the strict
        bound, one count inside passes, one count past fails; at every
        exponent of the same parity too."""
        fprof, fix = base_4[0], base_4[0].fix
        eps = fix.val(25)
        for k in range(-3, 4):
            y = FloatVal(fix.val(y_count), y_exp + 2 * k, 4)
            for off, passed in ((0, False), (-side, True), (side, False)):
                x = FloatVal(fix.val(x_count + off), k - 1, 4)
                assert former_float_verdict(x, y, eps, fprof)[0] is passed
                assert sqrt_verdict("float", x, y, eps,
                                    fprof=fprof).passed is passed, (k, off)

    def test_zero_result_of_positive_input(self, demo_profile, demo_eps,
                                           demo_float_profile):
        for e in (-3, 0, 3):
            y = FloatVal(demo_profile.val(150), e, 2)
            want, _ = former_float_verdict(FloatVal.zero(), y, demo_eps,
                                           demo_float_profile)
            assert sqrt_verdict("float", FloatVal.zero(), y, demo_eps,
                                fprof=demo_float_profile).passed is want

    def test_forms_no_fraction_and_calls_no_value_of(
            self, demo_profile, demo_table, demo_eps, demo_float_profile,
            monkeypatch):
        """The decision and its witness read the counts: no value_of call
        and no Fraction arithmetic, at |e| up to 1999 too."""
        fprof = demo_float_profile
        cases = list(float_cases(fprof, demo_eps, demo_table,
                                 demo_ys(fprof, step=37)))
        cases += [(FloatVal(x.man, x.exp + k, 2),
                   FloatVal(y.man, y.exp + 2 * k, 2))
                  for x, y in cases[:50] for k in (-999, 999)]
        calls = count_fraction_arithmetic(monkeypatch)
        real = floatmodel.value_of
        monkeypatch.setattr(floatmodel, "value_of",
                            lambda a: calls.append("value_of") or real(a))
        assert not hasattr(verify, "value_of")
        verdicts = [sqrt_verdict("float", x, y, demo_eps, fprof=fprof)
                    for x, y in cases]
        assert calls == []
        assert {v.passed for v in verdicts} == {True, False}


def count_fraction_arithmetic(monkeypatch):
    """A list to which each Fraction arithmetic call made from now on in
    the test appends its operator's name."""
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                 "__pow__", "__rpow__", "__neg__", "__abs__"):
        real = getattr(F, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(F, name, counted)
    return calls


class TestBoundsFormNoFraction:
    """fix_bound, float_bound and balance_sweep's predicted bound are each
    one integer pair, built with no Fraction arithmetic; a whole sweep
    forms none."""

    def test_contracts(self, demo_profile, monkeypatch):
        calls = count_fraction_arithmetic(monkeypatch)
        for count in (1, 8, 25):
            eps = demo_profile.val(count)
            for n in range(8):
                newton.fix_bound(eps, n)
            for exp in range(-81, 82):
                newton.float_bound(eps, exp, 3)
        assert calls == []
        assert F(1, 2) + F(1, 3) == F(5, 6)  # which is counted
        assert calls == ["__add__"]

    def test_predicted_bound(self, demo_profile, demo_eps, monkeypatch):
        stps = [demo_profile.val(c) for c in (25, 50, 100, 400, 1600)]
        want = [s.value / (1 << n) + n * demo_profile.delta
                for s, n in ((s, min_iterations_for_step(s, demo_eps))
                             for s in stps)]
        calls = count_fraction_arithmetic(monkeypatch)
        rows = balance_sweep(demo_eps, stps)
        got = [r.predicted_bound for r in rows]
        assert calls == []
        monkeypatch.undo()
        assert got == want
        assert all(math.gcd(b.numerator, b.denominator) == 1 for b in got)


class TestAnswer:
    """answer runs its mode's algorithm and decides the run's bound by the
    decision sqrt_verdict makes: its result and record are the run's, its
    verdict is sqrt_verdict's on that result, and a request the run
    refuses is refused in the same words."""

    @staticmethod
    def same(mode, y, eps, run, **kw):
        """answer(mode, y, eps, **kw) against run(), the algorithm it runs;
        the verdict's passed, or None for a refusal."""
        try:
            want = run()
        except CertisqrtError as exc:
            with pytest.raises(type(exc)) as got:
                answer(mode, y, eps, **kw)
            assert str(got.value) == str(exc)
            return None
        got_y, x, trace, verdict = answer(mode, y, eps, **kw)
        assert got_y is y and (x, trace) == want
        assert verdict == sqrt_verdict(mode, x, y, eps, n=kw.get("n"),
                                       fprof=kw.get("fprof"))
        return verdict.passed

    def test_exact_on_the_seed_1_corpus(self):
        outcomes = [self.same("exact", y, eps, lambda: sqr_exact(y, eps))
                    for y, eps in sample_rationals(40, 1)]
        assert outcomes == [True] * 40

    def test_grid_on_every_demo_input(self, demo_profile, demo_table,
                                      demo_eps):
        n_min = min_iterations_for_step(demo_table.stp, demo_eps)
        outcomes = []
        for count in (100, *grid_inputs(demo_profile), 801):
            y = demo_profile.val(count)
            outcomes.append(self.same(
                "mix", y, demo_eps, lambda: mix_sqr(y, demo_eps, demo_table),
                table=demo_table))
            for n in (n_min, n_min + 2):
                outcomes.append(self.same(
                    "fix", y, demo_eps,
                    lambda: fix_sqr(y, demo_eps, demo_table, n),
                    table=demo_table, n=n))
        assert outcomes.count(None) == 6
        assert outcomes.count(True) == len(outcomes) - 6

    @pytest.mark.parametrize("base", [2, 4])
    def test_float_on_every_demo_mantissa(self, demo_profile, demo_table,
                                          demo_eps, base_4, base):
        fprof, table = base_4 if base == 4 else (
            demo_float(demo_profile, 2), demo_table)
        eps = fprof.fix.val(25)
        outcomes = {True: 0, False: 0, None: 0}
        for y in [FloatVal.zero(), *demo_ys(fprof)]:
            outcomes[self.same("float", y, eps,
                               lambda: flt_sqr(y, eps, fprof, table),
                               table=table, fprof=fprof)] += 1
        assert outcomes[False] == 0
        assert outcomes[True] > 3000 and outcomes[None] > 0

    def test_grid_serve_requests(self, wide):
        """On the benchmark's grid_serve stream at seed 1, answer returns
        what the workload's own run and verdict copies return, refusals
        included, and each verdict is the oracle's re-decision."""
        bench = _perfbench_workloads()
        spec = json.loads((BENCH / "spec.json").read_text())
        doc, serve_spec = (spec["profiles"]["wide"],
                           spec["workloads"]["grid_serve"])
        table, _, _ = wide
        fix, beta = table.profile, F(2)
        assert (fix.delta_den, fix.sup_count, table.stp.count) == \
            (doc["fix"]["delta_den"], doc["fix"]["sup_count"],
             doc["step"]["stp_count"])
        serve = object.__new__(bench.GridServe)
        serve.fix, serve.table = fix, table
        serve.fprof = FloatProfile(doc["float"]["base"], fix, F(65536),
                                   F(65536))
        serve.requests = bench.grid_requests(
            1, serve_spec["inputs"], doc["fix"], doc["step"]["eps_count"],
            serve_spec["mix_share"])
        harness = serve.one_pass()
        assert harness.failed == 0 and len(serve.requests) == 4000
        decided = {"mix": 0, "float": 0, "refused": 0}
        for (mode, arg, eps_count), want in zip(serve.requests,
                                                harness.outputs):
            eps = fix.val(eps_count)
            try:
                y = (fix.val(arg) if mode == "mix"
                     else encode_rational(arg, serve.fprof)[0])
                x, verdict = answer(mode, y, eps, table=table,
                                    fprof=serve.fprof)[1::2]
            except CertisqrtError as exc:
                assert want == ("refused", type(exc).__name__)
                decided["refused"] += 1
                continue
            assert verdict.rule == f"sqrt.{mode}-bound"
            if mode == "mix":
                got = x.count
                assert verdict.witness == {"bound": eps.value}
                holds = bench.compare_abs_err(x.value, y.value, eps.value)
            else:
                got, h = (x.man.count, x.exp), y.exp // 2
                c1 = eps.value * beta ** h
                c2 = fix.delta / 2 * beta ** (h - 1)
                assert verdict.witness == {"c1": c1, "c2": c2, "base": 2}
                holds = bench.compare_abs_err(value_of(x), value_of(y), c1,
                                              c2, beta)
            assert (got, verdict.passed) == want[:2]
            assert verdict.passed is (holds < 0)
            decided[mode] += 1
        assert decided["refused"] == harness.refused
        assert min(decided["mix"], decided["float"]) > 1000

    def test_unknown_mode(self, demo_profile, demo_table, demo_eps):
        with pytest.raises(UsageError, match="^unknown sqrt mode 'nearest'$"):
            answer("nearest", demo_profile.val(300), demo_eps,
                   table=demo_table)

    @pytest.mark.parametrize("mode, inputs, kw, error, message", [
        ("exact", lambda g, a: (1.5, F(1, 4)), {}, DomainError,
         "y must be an int or a Fraction, got 1.5"),
        ("exact", lambda g, a: (F(2), "1/4"), {}, DomainError,
         "eps must be an int or a Fraction, got '1/4'"),
        ("mix", lambda g, a: (F(3), g.val(25)), {}, UsageError,
         "mix_sqr takes a FixVal y, got Fraction(3, 1)"),
        ("fix", lambda g, a: (g.val(300), 0.25), {"n": 3}, UsageError,
         "fix_sqr takes a FixVal eps, got 0.25"),
        ("mix", lambda g, a: (g.val(300), g.val(25)), {"table": None},
         UsageError, "mix_sqr takes a RootTable table, got None"),
        ("fix", lambda g, a: (g.val(300), g.val(25)), {"n": None},
         DomainError, "iteration count must be an integer, got None"),
        ("float", lambda g, a: (F(12), g.val(25)), {}, UsageError,
         "flt_sqr takes a FloatVal a, got Fraction(12, 1)"),
        ("float", lambda g, a: (a, 0.25), {}, UsageError,
         "flt_sqr takes a FixVal eps, got 0.25"),
        ("float", lambda g, a: (a, g.val(25)), {"fprof": None}, UsageError,
         "flt_sqr takes a FloatProfile profile, got None"),
    ], ids=["exact-y", "exact-eps", "mix-y", "fix-eps", "mix-table",
            "fix-n", "float-a", "float-eps", "float-profile"])
    def test_refusals_of_another_kind(self, demo_profile, demo_table,
                                      demo_float_profile, mode, inputs, kw,
                                      error, message):
        """A wrong kind is refused, typed and by name, by the run's request
        pass, as the run refuses it."""
        a = compose(demo_profile.val(300), 2, demo_float_profile)
        kw = {"table": demo_table, "fprof": demo_float_profile, **kw}
        with pytest.raises(error) as info:
            answer(mode, *inputs(demo_profile, a), **kw)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("mode", ["exact", "fix", "mix", "float"])
    def test_no_second_kind_or_grid_check(self, demo_profile, demo_table,
                                          demo_eps, demo_float_profile,
                                          monkeypatch, mode):
        """The run's request pass checked kinds and grids: the decision
        after it makes none of sqrt_verdict's checks again."""
        y, eps = demo_profile.val(300), demo_eps
        if mode == "exact":
            y, eps = y.value, eps.value
        elif mode == "float":
            y = compose(y, 3, demo_float_profile)
        for name in ("_takes", "require_same_grid", "_require_profile",
                     "_rational_parts"):
            monkeypatch.setattr(verify, name, None)  # a call would fail
        _, x, _, verdict = answer(mode, y, eps, table=demo_table, n=3,
                                  fprof=demo_float_profile)
        assert verdict.passed
        with pytest.raises(TypeError):
            sqrt_verdict(mode, x, y, eps, n=3, fprof=demo_float_profile)
