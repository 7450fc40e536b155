"""Mutation gate: small deliberate breaks in src/ that tier-1 tests must catch.

    python3 tools/mutants.py

Each mutant is one exact text replacement in one file under src/, and the
tier-1 tests that must fail on it.  First the runner collects the files
those tests are in, in one pytest --collect-only run, and exits 1 naming
each test id that collects no test.  For each mutant it then copies src/
to a temporary directory, applies the replacement there, runs each of
those tests against the copy in its own pytest run, on a hypothesis
database of its own that starts empty, and prints one line.  Every pytest
run loads the hypothesis plugin only, not every plugin installed, runs
under tests/conftest.py's no-shrink hypothesis profile, so a failing
example ends its test unshrunk, and is stopped after TIMEOUT_S seconds: a
run that takes longer is reported as ERROR (timeout), never as a kill.
The exit status is 1 when a mutant survives (one of its tests passes) or
cannot be run, else 0.  Before its last line, the count of mutants
killed, it prints the gate's wall time and its five slowest mutants.  The
working tree is never changed.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Iterable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CLI, LUT, EXACT, FIXARITH, FLOATMODEL, NEWTON, REPORT, VERIFY = (
    "certisqrt/cli.py", "certisqrt/lut.py", "certisqrt/exact.py",
    "certisqrt/fixarith.py", "certisqrt/floatmodel.py",
    "certisqrt/newton.py", "certisqrt/report.py", "certisqrt/verify.py")
LOAD_TESTS = "tests/test_cli.py::TestTableBuild::"
FILE_BYTES = "tests/test_cli.py::TestTableFileBytes::"
STEP_TESTS = "tests/test_newton.py::TestExactStep::"
DIGEST = "tests/test_newton.py::TestExactFamilyDigest"
PRODUCT_TESTS = "tests/test_exact.py::TestCmpProducts::"
CONTROL = "tests/test_rules.py::test_control"
GRID_CONTROL = "tests/test_one_grid.py::test_control"
ONE_FORM = "tests/test_newton.py::TestOneRecordForm::test_every_pass"
WITHIN = "tests/test_exact.py::TestWithinSigns::"
TYPED = "tests/test_verify.py::TestTypedRefusals::"
REDUCED = "tests/test_newton.py::TestReducedByCarriedContent::"
CLOSED = "tests/test_newton.py::TestClosedForm::"
NEWTON_STEP = "tests/test_fixarith.py::TestNewtonStep::"
WITNESSES = "tests/test_report.py::test_witnesses"
SUITES = "tests/test_verify.py::TestSuites::"
VERDICT = "tests/test_verify.py::TestSqrtVerdict::"
COUNTS = "tests/test_verify.py::TestCountVerdictsMatchFractionRoute::"
BALANCE = "tests/test_verify.py::TestBalanceSweep::"
FLOAT_COUNTS = "tests/test_verify.py::TestFloatVerdictOnCounts::"
ANSWER = "tests/test_verify.py::TestAnswer::"
OTHER_KIND = "tests/test_preconditions.py::test_grid_run_input_of_another_kind"
BY_NAME = "tests/test_boundary.py::test_non_rationals_refused_by_name"
EXPONENT = "tests/test_preconditions.py::test_exponent_not_an_int"
MANTISSA = "tests/test_preconditions.py::test_float_mantissa_of_another_kind"
MISMATCH = "tests/test_preconditions.py::test_profile_mismatch_message"
PUBLIC = "tests/test_preconditions.py::test_public_refusal"
SAME_GRID_FLOAT = ("tests/test_preconditions.py::"
                   "test_same_grid_float_request_checks_each_grid_once")
FIX_BOUND_NEGATIVE = ('        raise DomainError(f"iteration count must be '
                      '>= 0, got {n}")\n    return _lowest_terms(')


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    anchor: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # tier-1 test ids, each of which must fail


MUTANTS = (
    # a table file is accepted on byte equality with table-build's output
    Mutant("load_table accepts without the byte comparison", CLI,
           "if table_file_bytes(table, profile_hash) == data:", "if True:",
           (FILE_BYTES + "test_any_changed_byte_refused",
            "tests/test_cli.py::TestLoadCorruptions::"
            "test_same_fault_in_table_build_encoding")),
    Mutant("load_table reads the step after the tail's comma", CLI,
           '.partition(b",")[0]', '.partition(b",")[2]',
           (LOAD_TESTS + "test_load_binds_to_profile",
            FILE_BYTES + "test_writer_matches_json")),
    Mutant("the table writer drops the last root's last digit", CLI,
           "% roots)[:-1]", "% roots)[:-2]",
           (FILE_BYTES + "test_writer_matches_json",
            "tests/test_cli.py::TestGoldenDigests::test_demo_outputs")),
    Mutant("a valid file in another encoding passes the diagnosis", CLI,
           "    if bad is None:\n", "    if False:\n",
           (FILE_BYTES + "test_valid_file_in_another_encoding_refused",)),
    Mutant("load_table reads the fault without - table.k_min", CLI,
           "roots[bad - table.k_min]", "roots[bad]",
           (LOAD_TESTS + "test_load_reports_first_fault",
            "tests/test_cli.py::TestLoadCorruptions")),
    Mutant("_require without its object test", CLI,
           "if not isinstance(doc, dict):\n"
           '        raise FileFormatError(f"{where}: expected an object',
           "if False:\n"
           '        raise FileFormatError(f"{where}: expected an object',
           ("tests/test_cli.py::TestFileFieldRefusals::test_refused",)),
    Mutant("an empty grid-input range passes the suites and sweeps", VERIFY,
           "if not counts:", "if False:",
           ("tests/test_cli.py::TestEmptyGridInputs::test_verify_exit_1",
            "tests/test_cli.py::TestEmptyGridInputs::"
            "test_balance_refused_exit_1")),
    Mutant("balance_sweep runs a valid step on no grid input", VERIFY,
           "        _require_grid_inputs(profile)  # else the row",
           "        pass  # else the row",
           (BALANCE + "test_profile_without_grid_inputs_refused",
            "tests/test_cli.py::TestEmptyGridInputs::"
            "test_balance_refused_exit_1")),
    Mutant("main without its stdout handler", CLI,
           "except OSError as exc:  # stdout is a closed pipe",
           "except MemoryError as exc:  # stdout is a closed pipe",
           ("tests/test_cli.py::TestFailedWrites::test_closed_stdout",
            "tests/test_cli.py::TestFailedWrites::test_in_memory_stdout")),
    Mutant("trace_rows writes its last row from the first iterate", CLI,
           '**xs[-1], "correction": ""', '**xs[0], "correction": ""',
           ("tests/test_cli.py::TestGoldenDigests::test_sqrt_trace_bytes",)),
    Mutant("_write without its OSError mapping", CLI,
           'newline="")\n    except OSError as exc:',
           'newline="")\n    except MemoryError as exc:',
           ("tests/test_cli.py::TestUnwritableOutput::"
            "test_missing_directory_exit_2",)),
    Mutant("rational text parsed without the exponent check", CLI,
           'if "e" in low:', "if False:",
           ("tests/test_cli.py::TestRationalArguments::"
            "test_exponent_cap_boundary",
            "tests/test_cli.py::TestFileFieldRefusals::"
            "test_exponent_past_bit_cap")),
    Mutant("RootTable without its entry-count check", LUT,
           "if len(self.roots) != entries:", "if False:",
           (LOAD_TESTS + "test_wrong_length_refused",)),
    Mutant("the table cap counted with len(indices)", LUT,
           "entries = indices.stop - indices.start  # len() fails past 2**63\n"
           "    if entries > limit:",
           "entries = len(indices)\n    if entries > limit:",
           ("tests/test_cli.py::TestGridPastSsizeT::test_table_cap_refuses",)),
    Mutant("root_at reads one index past k_max", LUT,
           "if not self.k_min <= k <= self.k_max:",
           "if not self.k_min <= k <= self.k_max + 1:",
           ("tests/test_preconditions.py::"
            "test_public_refusal[root-at-above]",)),
    Mutant("RootTable's k_min one too high", LUT,
           '"k_min", indices.start)', '"k_min", indices.start + 1)',
           ("tests/test_lut.py::TestBuildTable::test_demo_size_and_bounds",
            "tests/test_lut.py::TestBuildTable::test_entries")),
    Mutant("step.min-two-units tested at >= 1", LUT,
           "stp.count >= 2, {", "stp.count >= 1, {",
           (CONTROL + "[step.min-two-units]",
            "tests/test_lut.py::TestValidateStep::"
            "test_single_grid_unit_fails")),
    Mutant("validate_step without its grid check", LUT,
           'require_same_grid(stp.profile, eps.profile,\n'
           '                      "step and accuracy from different grids")',
           "pass",
           ("tests/test_lut.py::TestValidateStep::"
            "test_eps_from_another_grid_refused",
            "tests/test_verify.py::TestTableProperties::"
            "test_eps_from_another_grid_refused")),
    Mutant("the seed is the table root even above u", LUT,
           "result = root if root < u else u", "result = root",
           ("tests/test_lut.py::TestSupFn::test_sandwich_exhaustive",)),
    Mutant("float.range-min always passes", FLOATMODEL,
           "all(r.numerator > 2 * r.denominator\n"
           "                      for r in (self.inf_f, self.sup_f)),",
           "True,",
           (CONTROL + "[float.range-min]",)),
    # the float-profile rules decide on integer parts; the controls of
    # float.sup-over-base-squared and float.range-min are ties
    Mutant("float.sup-over-base-squared read non-strict", FLOATMODEL,
           "fix.sup_count > base * base * d,",
           "fix.sup_count >= base * base * d,",
           (CONTROL + "[float.sup-over-base-squared]",
            "tests/test_floatmodel.py::TestProfile::"
            "test_report_flags_failures")),
    Mutant("an exponent or grid parameter that is no int passes", EXACT,
           "    if type(value) is not int:\n", "    if False:\n",
           (EXPONENT + "[compose-1.5]", EXPONENT + "[flt-sqr-True]",
            EXPONENT + "[float-verdict-y-1.5]",
            "tests/test_preconditions.py::"
            "test_fix_profile_parameter_not_an_int")),
    Mutant("FloatVal takes an exponent that is no int", FLOATMODEL,
           "if type(exp) is not int and man is not None:", "if False:",
           (EXPONENT + "[compose-1.5]", EXPONENT + "[value-of-True]",
            EXPONENT + "[float-verdict-x-None]")),
    Mutant("_enclosure's exact-square test inverted", EXACT,
           "lo + (lo * lo != scaled)", "lo + (lo * lo == scaled)",
           ("tests/test_exact.py::TestSqrtEnclosure::"
            "test_perfect_square_degenerate",
            "tests/test_exact.py::TestSqrtEnclosure::test_sqrt2_coarse")),
    # the midpoint depends on how y is written; both cases have an
    # unreduced y whose own enclosure prints another float
    Mutant("the display's enclosure taken on y as written", VERIFY,
           "g = math.gcd(a, b)", "g = 1",
           ("tests/test_verify.py::TestApproxAbsErr::test_unreduced_y",)),
    Mutant("_radicand refuses zero", EXACT,
           "if a < 0:", "if a <= 0:",
           ("tests/test_exact.py::TestSqrtEnclosure::test_zero",)),
    Mutant("_exact_run forms aqq as bpp + norm", NEWTON,
           "aqq = bpp - norm", "aqq = bpp + norm",
           (STEP_TESTS + "test_squarings_match_products", DIGEST)),
    # the one reduction rule of the loop's pairs and of correction(k)
    Mutant("_common_factor reads the numerator's content as 1", NEWTON,
           "return math.gcd(_content(num, small), den)",
           "return math.gcd(1, den)",
           (REDUCED + "test_one_rule_is_the_full_gcd",
            STEP_TESTS + "test_squarings_match_products", DIGEST)),
    Mutant("_common_factor reads the content as gcd(num, small)", NEWTON,
           "return math.gcd(_content(num, small), den)",
           "return math.gcd(math.gcd(num, small), den)",
           (REDUCED + "test_matches_reference",
            REDUCED + "test_one_rule_is_the_full_gcd")),
    Mutant("_norm_factors divides the norm by g, not h", NEWTON,
           "(g // h) ** 2, norm // h", "(g // h) ** 2, norm // g",
           ("tests/test_newton.py::TestCarriedNorm::"
            "test_g_not_dividing_the_norm",)),
    # the loop's exit test reads a pass's factors as Trace.factors(k)
    # does, so these two move the exits as well as every reading
    Mutant("factors(k) reads den as (b, p, q)", NEWTON,
           "self.m), (2 * b, p, q)", "self.m), (b, p, q)",
           (ONE_FORM, STEP_TESTS + "test_exit_pass_matches_products",
            DIGEST)),
    Mutant("factors(k) reads den without 2*b", NEWTON,
           "self.m), (2 * b, p, q)", "self.m), (p, q)",
           (ONE_FORM, STEP_TESTS + "test_squarings_match_products",
            STEP_TESTS + "test_exit_pass_matches_products", DIGEST)),
    Mutant("correction(k) reads the content as 1", NEWTON,
           "g = _common_factor(num, den, 2 * a * b)", "g = 1",
           ("tests/test_newton.py::TestExitCorrectionBuiltWhenRead::"
            "test_value_is_the_eager_correction",
            REDUCED + "test_one_rule_is_the_full_gcd", DIGEST)),
    Mutant("sqr_exact's correction sign read as +1", NEWTON,
           'sign = -1 if self.algorithm == "sqr_exact" else 1', "sign = 1",
           (ONE_FORM, "tests/test_newton.py::TestTraceRepr::test_pinned",
            DIGEST)),
    # the exact request decides on the parts of y = a/b and the seed sn/sd
    Mutant("the exact request's y < 1 read as a <= b", NEWTON,
           "if a < b or seeded and a == b:", "if a <= b or seeded and a == b:",
           ("tests/test_newton.py::TestSqrExact::test_trivial_one",)),
    Mutant("the exact request refuses a seed equal to y", NEWTON,
           "sn * b > a * sd", "sn * b >= a * sd",
           ("tests/test_newton.py::TestIsqrExact::test_degenerate_seed_y",)),
    # the until-loop's exit pass builds no next iterate
    Mutant("the exit pass builds the exit iterate again", NEWTON,
           "if stop and not c_style:", "if stop and c_style:",
           (STEP_TESTS + "test_until_loop_exit_builds_no_iterate",)),
    # the closed form of an applied pass, once I(p, q) holds
    Mutant("the closed form runs before I holds", NEWTON,
           "closed = math.gcd(p, ao) == 1 and math.gcd(q, bo2) == bo",
           "closed = True",
           (CLOSED + "test_runs_match_the_gcd_loop",
            CLOSED + "test_edges[b-1727/49]", DIGEST)),
    Mutant("I read as odd(b) dividing q", NEWTON,
           "math.gcd(q, bo2) == bo", "q % bo == 0",
           (CLOSED + "test_runs_match_the_gcd_loop",
            CLOSED + "test_edges[never-1727/49]")),
    Mutant("the closed form reads e from A only", NEWTON,
           "e = min(_twos(big), _twos(ad_den))", "e = _twos(big)",
           (CLOSED + "test_runs_match_the_gcd_loop",
            CLOSED + "test_edges[e-of-D-3]")),
    Mutant("the closed form reads f as e", NEWTON,
           "f = e if norm == 0 else min(_twos(norm), e)", "f = e",
           (CLOSED + "test_runs_match_the_gcd_loop",
            CLOSED + "test_edges[f-below-e-7/4]")),
    Mutant("the closed form takes q~ as q", NEWTON,
           "qt = q // bo", "qt = q",
           (CLOSED + "test_runs_match_the_gcd_loop",
            CLOSED + "test_edges[b-29/9]")),
    Mutant("the closed form without its zero-norm guard", NEWTON,
           "f = e if norm == 0 else min(_twos(norm), e)",
           "f = min(_twos(norm), e)",
           (CLOSED + "test_edges[fsqr-zero-norm]",
            CLOSED + "test_edges[c-style-zero-norm]")),
    Mutant("_exact_run without its first-norm guard", NEWTON,
           "if c < 0:", "if False:",
           (STEP_TESTS + "test_norm_below_the_root_exits",)),
    # 2**n over the formula's 2 is 2**(n - 1)
    Mutant("_legal_count shifts by n, not n - 1", NEWTON,
           "(en * sd << n)", "(en * sd << (n + 1))",
           ("tests/test_newton.py::TestLegalCountOnIntegers::"
            "test_int_inputs",)),
    Mutant("_legal_count at n = 0 on sn*ed, not 2*sn*ed", NEWTON,
           "2 * sn * ed - (en * sd << n)",
           "(2 - (n == 0)) * sn * ed - (en * sd << n)",
           ("tests/test_newton.py::TestIsqrExact::"
            "test_iteration_cap_with_tight_seed",)),
    Mutant("_legal_count strict at the root", NEWTON,
           "2 * sd * ed, a, b) <= 0", "2 * sd * ed, a, b) < 0",
           ("tests/test_newton.py::TestLegalCountOnIntegers::"
            "test_at_and_next_to_the_root",)),
    Mutant("derive_eps_for_ulp accepts a tie with ulp/2", NEWTON,
           "ud, base, 1) > 0", "ud, base, 1) >= 0",
           ("tests/test_newton.py::TestDeriveEps::"
            "test_margin_tie_on_base_4_is_infeasible",)),
    Mutant("fix_bound's 2*n read as n", NEWTON,
           "eps.count + 2 * n", "eps.count + n",
           ("tests/test_newton.py::TestAccuracyContracts::test_fix_bound",
            "tests/test_newton.py::TestAccuracyContracts::"
            "test_fix_bound_matches_fraction_formula")),
    Mutant("flt_sqr without the base shift of a result <= 1", NEWTON,
           "if x.count <= fix.delta_den:", "if False:",
           ("tests/test_newton.py::TestFltSqr::test_mantissa_collapse_shifts",
            "tests/test_newton.py::TestFltSqr::test_every_demo_mantissa")),
    Mutant("balance_sweep keeps all_within on a miss", VERIFY,
           "all_within = False", "pass",
           ("tests/test_cli.py::TestSweepCommand::"
            "test_balance_rows_outside_their_bound_exit_1",)),
    Mutant("halves holds on a tie", EXACT,
           "(*prev_num, *cur_den)) < 0", "(*prev_num, *cur_den)) <= 0",
           ("tests/test_verify.py::TestHalves",)),
    # the same break as the one above: the until-loop's exit is halves
    Mutant("until-loop exit on ad <= eps/2", EXACT,
           "(*prev_num, *cur_den)) < 0", "(*prev_num, *cur_den)) <= 0",
           ("tests/test_newton.py::TestExactLoopMatchesReference::"
            "test_exit_ties",)),
    Mutant("cmp_products' bit-length stage one bit loose", EXACT,
           "if lx <= ly - len(ys):", "if lx <= ly - len(ys) + 1:",
           (PRODUCT_TESTS + "test_exact_ties",
            PRODUCT_TESTS + "test_against_full_products")),
    Mutant("_bracket's hi without + (s > 0)", EXACT,
           "hi *= n + 1", "hi *= n",
           (PRODUCT_TESTS + "test_long_ties_and_neighbours",)),
    Mutant("cmp_sqrt returns the reversed ordering", EXACT,
           "return _sqrt_sign(qn, qd, *_radicand(a, b))",
           "return -_sqrt_sign(qn, qd, *_radicand(a, b))",
           ("tests/test_exact.py::TestCmpSqrt::test_examples",)),
    # the one rational edge, and the hot wrappers that call it only when
    # reading an input's parts fails
    Mutant("the rational edge accepts a float", EXACT,
           "isinstance(value, (int, Fraction))",
           "isinstance(value, (int, Fraction, float))",
           ("tests/test_preconditions.py::"
            "test_first_violation_reported[sqr-eps-float]", BY_NAME)),
    Mutant("within_of_sqrt re-raises without the edge", EXACT,
           "        lo, hi = _within_signs(*_rational_parts(q=q, bound=bound, "
           "y=y))", "        raise",
           (BY_NAME + "[within-bound-1.5]", BY_NAME + "[within-q-None]")),
    Mutant("sqrt_abs_err_lt re-raises without the edge", EXACT,
           "        return _abs_err_lt(*_rational_parts(q=q, y=y, c1=c1, c2=c2, "
           "m=m))", "        raise",
           (BY_NAME + "[abs-err-m-'3/2']",)),
    Mutant("encode_rational re-raises without the edge", FLOATMODEL,
           "        num, den = _rational_parts(q=q)", "        raise",
           ("tests/test_boundary.py::test_encode_rational_refuses_by_name",)),
    Mutant("_filtered_sign answers -1 when xs bracket above ys", EXACT,
           "if x_lo > y_hi:\n        return 1",
           "if x_lo > y_hi:\n        return -1",
           (PRODUCT_TESTS + "test_long_ties_and_neighbours",)),
    Mutant("encode_int without its sign prefix", EXACT,
           'return f"-0x{digits}" if n < 0 else f"0x{digits}"',
           'return f"0x{digits}"',
           ("tests/test_exact.py::TestLosslessEncoding::"
            "test_hex_above_the_threshold",)),
    Mutant("_within_signs' short path with rhs plus one", EXACT,
           "rhs = a * den * den", "rhs = a * den * den + 1",
           (WITHIN + "test_threshold",
            WITHIN + "test_equals_two_sqrt_sign_calls",
            WITHIN + "test_unreduced_parts",
            VERDICT + "test_grid_ties_on_both_sides")),
    Mutant("_within_signs' short path only below _SHORT_BITS", EXACT,
           "if (lo.bit_length() <= _SHORT_BITS and hi.bit_length() <= "
           "_SHORT_BITS\n            and den.bit_length() <= _SHORT_BITS):",
           "if (lo.bit_length() < _SHORT_BITS and hi.bit_length() < "
           "_SHORT_BITS\n            and den.bit_length() < _SHORT_BITS):",
           (WITHIN + "test_threshold",)),
    Mutant("_within_signs' short path reads a negative lo by its square",
           EXACT, "lo_sign = -1 if lo < 0 else (lhs > rhs) - (lhs < rhs)",
           "lo_sign = (lhs > rhs) - (lhs < rhs)",
           (WITHIN + "test_threshold", WITHIN + "test_unreduced_parts")),
    Mutant("encode_int keeps the leading 0 nibble", EXACT,
           '.hex().lstrip("0")', ".hex()",
           ("tests/test_exact.py::TestLosslessEncoding::test_hex_is_hex",)),
    Mutant("_lowest_terms skips its gcd", EXACT,
           "g = math.gcd(num, den)", "g = 1",
           ("tests/test_exact.py::TestLowestTerms::"
            "test_equals_fraction_in_lowest_terms",)),
    Mutant("the profile probe runs on past both witnesses", FIXARITH,
           "                break\n\n    def reported(",
           "                pass\n\n    def reported(",
           ("tests/test_fixarith.py::TestProbeMatchesReference::"
            "test_stops_once_both_witnesses_are_known",)),
    Mutant("FixVal.value skips its gcd", FIXARITH,
           "g = gcd(count, d)", "g = 1",
           ("tests/test_values.py::TestFixValValue::"
            "test_equals_lowest_terms",)),
    Mutant("_abs_err_lt decides its last radical on <= 0", EXACT,
           "_sqrt_sign(lead2, k, big_y * big_m, 1) < 0",
           "_sqrt_sign(lead2, k, big_y * big_m, 1) <= 0",
           ("tests/test_exact.py::TestIntegerPairPredicates::"
            "test_abs_err_ties",)),
    Mutant("_least_roots walks while sq <= t", LUT,
           "while sq < t:\n", "while sq <= t:\n",
           ("tests/test_lut.py::TestLeastRootsWalk::"
            "test_matches_isqrt_and_root_rule",)),
    # the grid roundings differ from the code only at ties, so each
    # names a test of the tie or refusal itself
    Mutant("fix_div rounds ties half up", FIXARITH,
           "return FixVal(round_half_even(num, den), profile)",
           "return FixVal((2 * num + den) // (2 * den), profile)",
           (NEWTON_STEP + "test_quotient_rounds_ties_to_even",
            NEWTON_STEP + "test_every_pair_of_a_small_grid")),
    Mutant("_newton_step's quotient rounds ties half up", FIXARITH,
           "round_half_even(num, twice)", "(2 * num + twice) // (2 * twice)",
           (NEWTON_STEP + "test_quotient_rounds_ties_to_even",
            NEWTON_STEP + "test_every_pair_of_a_small_grid")),
    Mutant("_newton_step without its sum range test", FIXARITH,
           "if not lo <= count <= hi:", "if False:",
           (NEWTON_STEP + "test_every_pair_of_a_small_grid",)),
    Mutant("round_half_even rounds ties up", FIXARITH,
           "return floor if floor % 2 == 0 else floor + 1",
           "return floor + 1",
           ("tests/test_fixarith.py::TestRoundHalfEven::test_examples",)),
    Mutant("_first_failure reports the last witness", VERIFY,
           "witness = next(failures, None)",
           "witness = ([None] + list(failures))[-1]",
           ("tests/test_verify.py::TestCheckSqr::"
            "test_two_broken_boundaries_report_the_first",)),
    Mutant("monotonicity_probe compares against counts[n - 2]", VERIFY,
           "counts[n], counts[n - 1], y.count",
           "counts[n], counts[n - 2], y.count",
           ("tests/test_verify.py::TestMonotonicityProbe::"
            "test_witness_fixture",)),
    Mutant("the probe's error order without the sign of a - b", VERIFY,
           "return ((a > b) - (a < b)) * _sqrt_sign(a + b, 2 * d, y, d)",
           "return _sqrt_sign(a + b, 2 * d, y, d)",
           ("tests/test_verify.py::TestErrOrder::test_ordering",
            "tests/test_verify.py::TestMonotonicityProbe::"
            "test_witness_fixture")),
    Mutant("monotonicity_probe skips its n_min run", VERIFY,
           "    fix_sqr(y, eps, table, n_min)  # a refusal",
           "    # a refusal",
           ("tests/test_verify.py::TestMonotonicityProbe::test_refusals",)),
    Mutant("table.round-up's lower bound with <=", VERIFY,
           "r - step < u <= r", "r - step <= u <= r",
           ("tests/test_verify.py::TestTableProperties::"
            "test_skipped_index_fails_only_round_up",)),
    Mutant("table.round-up takes a rounding off the step multiples", VERIFY,
           "(r := lut._round_up_count(u, step, profile)) % step == 0",
           "(r := lut._round_up_count(u, step, profile)) > 0",
           ("tests/test_verify.py::TestTableProperties::"
            "test_rounding_off_the_indices_fails_only_round_up",)),
    # the fix and mix verdicts decide on counts over d, in the decision
    # sqrt_verdict and answer share; the strict form differs from <= only
    # at ties, so a test of the ties themselves
    Mutant("the fix/mix count verdict read non-strict", VERIFY,
           "CheckResult(name, rule, lo < 0 < hi,",
           "CheckResult(name, rule, lo <= 0 <= hi,",
           (VERDICT + "test_grid_ties_on_both_sides",
            VERDICT + "test_grid_bound_is_strict")),
    Mutant("the shared decision reads mix non-strict", VERIFY,
           "CheckResult(name, rule, lo < 0 < hi,",
           'CheckResult(name, rule, lo < 0 < hi or mode == "mix" and '
           "lo <= 0 <= hi,",
           (VERDICT + "test_grid_ties_on_both_sides[mix-None]",
            VERDICT + "test_grid_bound_is_strict[mix-None-50]")),
    Mutant("the shared decision holds fix to eps, not fix_bound", VERIFY,
           'bound = eps.value if mode == "mix" else fix_bound(eps, n)',
           "bound = eps.value",
           (VERDICT + "test_grid[fix-3-bound1]",
            VERDICT + "test_grid_ties_on_both_sides[fix-1]")),
    Mutant("answer pairs mix with the fix bound", VERIFY,
           "        x, trace = mix_sqr(y, eps, table)\n",
           "        x, trace = mix_sqr(y, eps, table)\n"
           '        mode, n = "fix", len(trace.counts) - 1\n',
           (ANSWER + "test_grid_on_every_demo_input",
            ANSWER + "test_grid_serve_requests")),
    Mutant("the fix/mix count verdict reads y's denominator as 1", VERIFY,
           "bound.denominator, y.count, d)",
           "bound.denominator, y.count, 1)",
           (COUNTS + "test_every_demo_y", VERDICT + "test_grid",
            ANSWER + "test_grid_serve_requests")),
    Mutant("balance_sweep reads y's denominator as 1", VERIFY,
           "_within_signs(x.count, d, pn, pd, y.count, d)",
           "_within_signs(x.count, d, pn, pd, y.count, 1)",
           (COUNTS + "test_balance_sweep",)),
    # the float verdict, in the decision sqrt_verdict and answer share,
    # divides base**h out of both sides: each mutant below scales one side
    # only, or takes h off the floor at a negative odd exponent
    Mutant("the float verdict's h read as int(y.exp / 2)", VERIFY,
           "y.exp // 2", "int(y.exp / 2)",
           (FLOAT_COUNTS + "test_every_demo_mantissa",
            FLOAT_COUNTS + "test_depends_on_the_exponent_mod_2")),
    Mutant("the float verdict drops an odd exponent's base**t", VERIFY,
           "y.man.count * beta ** t", "y.man.count",
           (FLOAT_COUNTS + "test_every_demo_mantissa",
            ANSWER + "test_grid_serve_requests")),
    Mutant("the float verdict drops x's base**-s denominator", VERIFY,
           "d * beta ** max(-s, 0)", "d",
           (FLOAT_COUNTS + "test_every_demo_mantissa",
            "tests/test_cli.py::TestGoldenDigests::"
            "test_sqrt_outputs[float-result-at-most-1]",
            ANSWER + "test_grid_serve_requests")),
    Mutant("sqrt_verdict takes fix and mix values from two grids", VERIFY,
           "            require_same_grid(v.profile, y.profile,\n"
           '                              "inputs belong to different grids")',
           "            pass",
           (GRID_CONTROL + "[verify.sqrt_verdict-mix-y-eps]",
            GRID_CONTROL + "[verify.sqrt_verdict-fix-y]")),
    Mutant("sqrt_verdict takes a float eps from another grid", VERIFY,
           'require_same_grid(eps.profile, fprof.fix, "eps from another grid")',
           "pass",
           ("tests/test_verify.py::TestSqrtVerdict::"
            "test_float_eps_from_another_grid",
            GRID_CONTROL + "[verify.sqrt_verdict-float-eps]")),
    Mutant("a float input's mantissa grid goes unchecked", FLOATMODEL,
           "        require_same_grid(a.man.profile, profile.fix,\n"
           '                          "input belongs to a different grid")',
           "        pass",
           ("tests/test_preconditions.py::"
            "test_profile_mismatch_message[float-input]",
            GRID_CONTROL + "[verify.sqrt_verdict-float-y]")),
    # a grid run names an input of another kind where it used to raise
    # AttributeError
    Mutant("the grid loop reads inputs of another kind unnamed", NEWTON,
           "        _takes(algorithm, y=(y, FixVal), eps=(eps, FixVal),\n"
           "               table=(table, RootTable))\n", "",
           (OTHER_KIND, ANSWER + "test_refusals_of_another_kind")),
    Mutant("flt_sqr reads inputs of another kind unnamed", NEWTON,
           '        _takes("flt_sqr", a=(a, FloatVal), eps=(eps, FixVal),\n'
           "               profile=(profile, FloatProfile), "
           "table=(table, RootTable))\n", "",
           (OTHER_KIND, ANSWER + "test_refusals_of_another_kind")),
    Mutant("FloatVal takes a mantissa of another kind", FLOATMODEL,
           "        if type(man) is not FixVal and man is not None:\n"
           '            raise UsageError(f"FloatVal takes a FixVal mantissa, '
           'got {man!r}")\n', "",
           (MANTISSA,)),
    Mutant("value_of reads a value of another kind unnamed", FLOATMODEL,
           '        raise UsageError(f"value_of takes a FloatVal, '
           'got {a!r}") from None\n', "        raise\n",
           ("tests/test_preconditions.py::test_value_of_another_kind",)),
    Mutant("fix_bound takes a count that is no int", NEWTON,
           "    _check_count(n)\n    if n < 0:\n" + FIX_BOUND_NEGATIVE,
           "    if n < 0:\n" + FIX_BOUND_NEGATIVE,
           (PUBLIC + "[fix-bound-n-float]",)),
    Mutant("fix_bound takes a negative count", NEWTON,
           "    if n < 0:\n" + FIX_BOUND_NEGATIVE,
           "    return _lowest_terms(",
           (PUBLIC + "[fix-bound-n-negative]",)),
    # one count rule: a bool is no iteration count, in a run or a bound
    Mutant("_check_count takes a bool", NEWTON,
           " and not isinstance(n, bool)", "",
           (PUBLIC + "[fix-bound-n-bool]", PUBLIC + "[fix-sqr-n-bool]",
            PUBLIC + "[fsqr-n-bool]", PUBLIC + "[answer-fix-n-bool]",
            VERDICT + "test_fix_without_integer_count[True]")),
    # a table step or a seed input of another kind is named
    Mutant("the table config reads a stp of another kind unnamed", LUT,
           "    _takes(what, stp=(stp, FixVal))\n", "",
           (PUBLIC + "[build-root-table-stp-int]",)),
    Mutant("sup_fn reads an input of another kind unnamed", LUT,
           '    _takes("sup_fn", u=(u, FixVal), table=(table, RootTable))\n',
           "", (PUBLIC + "[sup-fn-u-int]",)),
    # flt_sqr and _require_profile call require_same_grid only when
    # identity fails
    Mutant("flt_sqr's identity pre-test skips the helper on another grid",
           NEWTON, "if eps_grid is not fix or table_grid is not fix:",
           "if False:",
           (MISMATCH + "[float-eps]", MISMATCH + "[float-table]")),
    Mutant("flt_sqr's identity pre-test reads the eps grid only", NEWTON,
           "if eps_grid is not fix or table_grid is not fix:",
           "if eps_grid is not fix:",
           (MISMATCH + "[float-table]",)),
    Mutant("flt_sqr calls the grid helper on its own grid", NEWTON,
           "if eps_grid is not fix or table_grid is not fix:", "if True:",
           (SAME_GRID_FLOAT,)),
    Mutant("_require_profile's identity pre-test skips the helper",
           FLOATMODEL, "if a.man.profile is not profile.fix:", "if False:",
           (MISMATCH + "[float-input]",)),
    Mutant("_require_profile calls the grid helper on its own grid",
           FLOATMODEL, "if a.man.profile is not profile.fix:", "if True:",
           (SAME_GRID_FLOAT,)),
    Mutant("compose's identity pre-test skips the helper on another grid",
           FLOATMODEL, "    if grid is not fix:  # identity settles",
           "    if False:  # identity settles",
           (MISMATCH + "[compose]", SAME_GRID_FLOAT)),
    Mutant("compose calls the grid helper on its own grid", FLOATMODEL,
           "    if grid is not fix:  # identity settles",
           "    if True:  # identity settles",
           (SAME_GRID_FLOAT,)),
    # flt_sqr scales by the base on counts: an odd exponent's radicand is
    # man*base, range-tested as fix_mul tested it
    Mutant("flt_sqr's odd radicand skips its range test", NEWTON,
           "        if not -grid.inf_count <= count <= grid.sup_count:\n",
           "        if False:\n",
           (PUBLIC + "[flt-odd-radicand-overflow]",
            PUBLIC + "[flt-odd-radicand-underflow]")),
    Mutant("flt_sqr's odd radicand left as man", NEWTON,
           "        man = FixVal(count, grid)\n", "",
           ("tests/test_newton.py::TestFltSqr::test_twelve",
            "tests/test_preconditions.py::test_first_violation_reported"
            "[flt-odd-radicand-and-y-at-most-one]")),
    # the grid operations and compose name an input of another kind where
    # they used to raise AttributeError
    Mutant("the grid operations read an input of another kind unnamed",
           FIXARITH, "        _takes(op, x=(x, FixVal), y=(y, FixVal))\n",
           "", (PUBLIC + "[fix-add-x-int]", PUBLIC + "[fix-mul-y-int]",
                PUBLIC + "[fix-div-y-fraction]", PUBLIC + "[fix-sub-x-none]",
                PUBLIC + "[fix-add-x-table]", PUBLIC + "[fix-div-x-table]")),
    Mutant("compose reads an input of another kind unnamed", FLOATMODEL,
           '        _takes("compose", man=(man, FixVal), '
           'profile=(profile, FloatProfile))\n', "",
           (PUBLIC + "[compose-man-fraction]",
            PUBLIC + "[compose-man-table]")),
    # the grid runs call require_same_grid only when identity fails
    Mutant("the grid identity pre-test skips the helper on another grid",
           NEWTON,
           "if eps_grid is not profile or table_grid is not profile:",
           "if False:",
           (GRID_CONTROL + "[newton.mix_sqr-eps]",
            MISMATCH + "[grid-eps]", MISMATCH + "[grid-table]")),
    Mutant("the grid identity pre-test reads the eps grid only", NEWTON,
           "if eps_grid is not profile or table_grid is not profile:",
           "if eps_grid is not profile:",
           (MISMATCH + "[grid-table]",)),
    Mutant("the grid trace is built with its fields out of order", NEWTON,
           "GridTrace, (algorithm, y, tuple(counts))",
           "GridTrace, (y, algorithm, tuple(counts))",
           ("tests/test_newton.py::TestGridLoopMatchesReference::"
            "test_demo_fix_and_mix",)),
    Mutant("a grid value takes a count that is no int", FIXARITH,
           "        if type(count) is not int:\n"
           '            _check_int("count", count)\n', "",
           ("tests/test_preconditions.py::test_grid_count_not_an_int",)),
    Mutant("run_fsqr_suite takes an eps off the table's grid", VERIFY,
           "    require_same_grid(eps.profile, table.profile,\n"
           '                      "accuracy belongs to a different grid")',
           "    pass",
           (GRID_CONTROL + "[verify.run_fsqr_suite-eps]",)),
    Mutant("fsqr.progress read from x_before", VERIFY,
           "enumerate(trace.pairs[1:], 1)", "enumerate(trace.pairs[:-1], 1)",
           ("tests/test_verify.py::TestCheckFsqr::test_single_step_pass",)),
    Mutant("fsqr.progress over 2**k, not 2**k - 1", VERIFY,
           "q * sd * (2**k - 1)", "q * sd * 2**k",
           ("tests/test_verify.py::TestIntegerDecisionsMatchFractionFormulas"
            "::test_near_bounds",)),
    Mutant("a checker reads a y or eps that is no int or Fraction", VERIFY,
           "    a, b, en, ed = _rational_parts(y=y, eps=eps)\n",
           "    a, b, en, ed = y.numerator, y.denominator, eps.numerator, "
           "eps.denominator\n",
           (TYPED + "test_non_rational_inputs",)),
    Mutant("a checker reads a pair with p below 1", VERIFY,
           "and min(map(min, trace.pairs)) > 0",
           "and min(q for _, q in trace.pairs) > 0",
           (TYPED + "test_pair_with_p_below_1",)),
    Mutant("a checker reads a correction with a negative factor", VERIFY,
           "\n            and min(map(min, trace.corrections), default=0) >= 0)",
           ")",
           (TYPED + "test_negative_factors",)),
    Mutant("a checker reads a grid record", VERIFY,
           "isinstance(trace, Trace) and len(", "(",
           (TYPED + "test_grid_records",)),
    Mutant("a checker takes a y or eps the record does not hold", VERIFY,
           " or (trace.y, trace.eps) != asked:", ":",
           ("tests/test_verify.py::TestCheckedAgainstItsRecord",)),
    Mutant("the seed left uncapped at y", VERIFY,
           "if sn * b <= a * sd else", "if True else",
           ("tests/test_verify.py::TestCheckSqr::"
            "test_raised_seed_and_boundary_fail_only_invariant",
            "tests/test_verify.py::TestCheckIsqr::"
            "test_seed_raised_past_y_fails_only_invariant",
            "tests/test_verify.py::TestCheckFsqr::"
            "test_seed_raised_past_y_fails_only_progress")),
    Mutant("gap compared with >=", VERIFY,
           "if (g := abs(p * d - c * q)) > k * q))",
           "if (g := abs(p * d - c * q)) >= k * q))",
           ("tests/test_verify.py::TestAdjustRuns::test_reference_gap",)),
    Mutant("gap bound read as (k + 1)*q", VERIFY,
           "> k * q))", "> (k + 1) * q))",
           (CONTROL + "[adjust.gap-bound]",)),
    Mutant("the suite reads count n's report off n - 1 passes", VERIFY,
           "_adjust_report(y, eps, n, *runs)",
           "_adjust_report(y, eps, n - 1, *runs)",
           (SUITES + "test_adjust_suite_equals_per_count_runs",)),
    Mutant("an adjust suite of no inputs passes", VERIFY,
           'if not ys:\n        raise DomainError("the adjust suite',
           'if False:\n        raise DomainError("the adjust suite',
           (SUITES + "test_adjust_suite_refuses_no_inputs",)),
    Mutant("writer skips escaping a str", REPORT,
           "        out.append(encode_basestring_ascii(value))",
           """        out.append(f'"{value}"')""",
           (WITNESSES,)),
    Mutant("writer writes a long int in decimal", REPORT,
           "n = encode_int(value)", "n = int(value)",
           (WITNESSES,)),
    # 2**14284 < 10**4300, the default int-to-str limit, not the least
    Mutant("encode_int's decimal bound sized for 4300 digits", EXACT,
           "_DECIMAL_MAX_BITS = 2126", "_DECIMAL_MAX_BITS = 14284",
           ("tests/test_cli.py::TestIntToStrLimit::test_long_exact_trace",
            "tests/test_cli.py::TestIntToStrLimit::test_sqr_report_json")),
)


def mutated_source(mutant: Mutant, text: str) -> str:
    """text with the mutant's anchor replaced; the anchor must occur once."""
    if text.count(mutant.anchor) != 1:
        raise ValueError(f"{mutant.name}: anchor {mutant.anchor!r} occurs "
                         f"{text.count(mutant.anchor)} times in "
                         f"src/{mutant.path}")
    return text.replace(mutant.anchor, mutant.replacement)


# the longest pytest run of the gate takes about 8 s on a 2-vCPU host;
# 300 s leaves room for slower runners and still ends a mutant that makes
# a loop endless
TIMEOUT_S = 300

# the one plugin the tests need; autoloading every installed plugin took
# about half of a one-test run.  The no-shrink profile of tests/conftest.py
# stops a hypothesis test at its first failing example: a kill needs no
# shrunk one, and shrinking took 24.8 s of the 153-s gate on the
# exact-square mutant of _enclosure
PYTEST = (sys.executable, "-m", "pytest",
          "-p", "hypothesis.extra.pytestplugin", "-p", "no:cacheprovider",
          "--hypothesis-profile", "no-shrink")


def _pytest_env(src: Path, **extra: str) -> dict[str, str]:
    """The environment of a pytest run against the package under src."""
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
            "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1", **extra,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def stale_ids(ids: Iterable[str]) -> list[str]:
    """The ids, sorted, that name no test collected from their files, in
    one pytest --collect-only run: an id names each test whose node id
    it is, or is a prefix of up to a '::' or a '['."""
    ids = sorted(set(ids))
    files = sorted({path for path in (i.split("::")[0] for i in ids)
                    if (ROOT / path).is_file()})
    collected = []
    if files:  # with no path pytest would collect every test
        collected = subprocess.run(
            [*PYTEST, "--collect-only", "-q", *files], cwd=ROOT,
            env=_pytest_env(ROOT / "src"), capture_output=True,
            text=True, timeout=TIMEOUT_S).stdout.splitlines()
    return [i for i in ids
            if not any(n == i or n.startswith((i + "::", i + "["))
                       for n in collected)]


def run_mutant(mutant: Mutant, scratch: Path) -> str:
    """'killed', 'SURVIVED' or an error note for one mutant."""
    src, storage = scratch / "src", scratch / "hypothesis"
    for fresh in (src, storage):
        shutil.rmtree(fresh, ignore_errors=True)
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = src / mutant.path
    target.write_text(mutated_source(mutant, target.read_text()))
    # hypothesis keeps its examples under the storage directory, by
    # default .hypothesis/ in the cwd; a mutant's own empty one means no
    # failing example saved by an earlier run is replayed
    env = _pytest_env(src, HYPOTHESIS_STORAGE_DIRECTORY=str(storage))
    # pytest exits 1 when tests ran and some failed, 0 when all passed
    for test in mutant.tests:
        try:
            code = subprocess.run(
                [*PYTEST, "-q", "-x", test], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return "ERROR (timeout) " + test
        if code != 1:
            return ("SURVIVED " if code == 0
                    else f"ERROR (pytest exit {code}) ") + test
    return "killed"


def main() -> int:
    gate_start = perf_counter()
    try:
        stale = stale_ids(test for mutant in MUTANTS for test in mutant.tests)
    except subprocess.TimeoutExpired:
        print("ERROR (timeout) collecting the named tests")
        return 1
    if stale:
        print("test ids that collect no test:", *stale, sep="\n  ")
        return 1
    failed, timed = 0, []
    with tempfile.TemporaryDirectory(prefix="certisqrt-mutants-") as tmp:
        for mutant in MUTANTS:
            start = perf_counter()
            verdict = run_mutant(mutant, Path(tmp))
            seconds = perf_counter() - start
            failed += verdict != "killed"
            line = f"{seconds:5.1f} s  src/{mutant.path}: {mutant.name}"
            timed.append((seconds, line))
            print(f"{verdict:<8} {line}", flush=True)
    print(f"gate wall time {perf_counter() - gate_start:.1f} s; "
          "slowest mutants:")
    for _, line in sorted(timed, key=lambda t: -t[0])[:5]:
        print(f"  {line}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
