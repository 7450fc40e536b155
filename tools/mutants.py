"""Mutation gate: small deliberate breaks in src/ that tier-1 tests must catch.

    python3 tools/mutants.py

Each mutant is one exact text replacement in one file under src/, and the
tier-1 tests that must fail on it.  First the runner collects the files
those tests are in, in one pytest --collect-only run, and exits 1 naming
each test id that collects no test.  For each mutant it then copies src/
to a temporary directory, applies the replacement there, runs each of
those tests against the copy in its own pytest run, on a hypothesis
database of its own that starts empty, and prints one line.  Every pytest
run loads the hypothesis plugin only, not every plugin installed.
The exit status is 1 when a mutant survives (one of its tests passes) or
cannot be run, else 0.  The working tree is never changed.
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
STEP_TESTS = "tests/test_newton.py::TestExactStep::"
DIGEST = "tests/test_newton.py::TestExactFamilyDigest"
PRODUCT_TESTS = "tests/test_exact.py::TestCmpProducts::"
CONTROL = "tests/test_rules.py::test_control"
GRID_CONTROL = "tests/test_one_grid.py::test_control"
ONE_FORM = "tests/test_newton.py::TestOneRecordForm::test_every_pass"
WITHIN = "tests/test_exact.py::TestWithinSigns::"
TYPED = "tests/test_verify.py::TestTypedRefusals::"
REDUCED = "tests/test_newton.py::TestReducedByCarriedContent::"
NEWTON_STEP = "tests/test_fixarith.py::TestNewtonStep::"
WITNESSES = "tests/test_report.py::test_witnesses"
SUITES = "tests/test_verify.py::TestSuites::"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    anchor: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # tier-1 test ids, each of which must fail


MUTANTS = (
    Mutant("load_table accepts without the type test", CLI,
           "if set(map(type, roots)) == {int} and table.roots == tuple(roots):",
           "if table.roots == tuple(roots):",
           (LOAD_TESTS + "test_load_rejects_non_integer_entry",)),
    Mutant("load_table accepts without the comparison", CLI,
           "if set(map(type, roots)) == {int} and table.roots == tuple(roots):",
           "if set(map(type, roots)) == {int}:",
           (LOAD_TESTS + "test_load_revalidation_catches_corruption",
            "tests/test_cli.py::TestLoadCorruptions")),
    Mutant("load_table returns the file's table", CLI,
           "        return table\n    bad = first_bad_root(",
           "        return RootTable(fix, table.stp, tuple(roots))\n"
           "    bad = first_bad_root(",
           (LOAD_TESTS + "test_loaded_table_holds_the_walk",)),
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
    Mutant("an empty grid-input range passes the suites and sweeps", CLI,
           "if not counts:", "if False:",
           ("tests/test_cli.py::TestEmptyGridInputs::test_verify_exit_1",
            "tests/test_cli.py::TestEmptyGridInputs::"
            "test_balance_writes_rows_then_exit_1")),
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
    Mutant("float.range-min always passes", FLOATMODEL,
           "self.inf_f > 2 and self.sup_f > 2,", "True,",
           (CONTROL + "[float.range-min]",)),
    Mutant("_radicand refuses zero", EXACT,
           "if y.numerator < 0:", "if y.numerator <= 0:",
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
           "c2 * c2 * beta) <= 0:", "c2 * c2 * beta) < 0:",
           ("tests/test_newton.py::TestDeriveEps::"
            "test_margin_tie_on_base_4_is_infeasible",)),
    Mutant("flt_sqr without the base shift of a result <= 1", NEWTON,
           "if x.count <= profile.fix.delta_den:", "if False:",
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
           "return _sqrt_sign(q.numerator, q.denominator, a, b)",
           "return -_sqrt_sign(q.numerator, q.denominator, a, b)",
           ("tests/test_exact.py::TestCmpSqrt::test_examples",)),
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
            WITHIN + "test_equals_two_sqrt_sign_calls")),
    Mutant("_within_signs' short path only below _SHORT_BITS", EXACT,
           "if (lo.bit_length() <= _SHORT_BITS and hi.bit_length() <= "
           "_SHORT_BITS\n            and den.bit_length() <= _SHORT_BITS):",
           "if (lo.bit_length() < _SHORT_BITS and hi.bit_length() < "
           "_SHORT_BITS\n            and den.bit_length() < _SHORT_BITS):",
           (WITHIN + "test_threshold",)),
    Mutant("_within_signs' short path reads a negative lo by its square",
           EXACT, "lo_sign = -1 if lo < 0 else (lhs > rhs) - (lhs < rhs)",
           "lo_sign = (lhs > rhs) - (lhs < rhs)",
           (WITHIN + "test_threshold",)),
    Mutant("encode_int keeps the leading 0 nibble", EXACT,
           '.hex().lstrip("0")', ".hex()",
           ("tests/test_exact.py::TestLosslessEncoding::test_hex_is_hex",)),
    Mutant("_lowest_terms skips its gcd", EXACT,
           "g = math.gcd(num, den)", "g = 1",
           ("tests/test_exact.py::TestLowestTerms::"
            "test_equals_fraction_in_lowest_terms",)),
    Mutant("FixVal.value skips its gcd", FIXARITH,
           "g = math.gcd(count, d)", "g = 1",
           ("tests/test_values.py::TestFixValValue::"
            "test_equals_lowest_terms",)),
    Mutant("_lt_radical decides on <= 0", EXACT,
           "_sqrt_sign(lhs, k, m, 1) < 0", "_sqrt_sign(lhs, k, m, 1) <= 0",
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
    Mutant("monotonicity_probe compares against xs[n - 2]", VERIFY,
           "xs[n - 1].value", "xs[n - 2].value",
           ("tests/test_verify.py::TestMonotonicityProbe::"
            "test_witness_fixture",)),
    Mutant("monotonicity_probe skips its n_min run", VERIFY,
           "    fix_sqr(y, eps, table, n_min)  # a refusal",
           "    # a refusal",
           ("tests/test_verify.py::TestMonotonicityProbe::test_refusals",)),
    Mutant("table.round-up's lower bound with <=", VERIFY,
           "r.count - step < u.count <= r.count",
           "r.count - step <= u.count <= r.count",
           ("tests/test_verify.py::TestTableProperties::"
            "test_skipped_index_fails_only_round_up",)),
    Mutant("sqrt_verdict takes fix and mix values from two grids", VERIFY,
           "        require_same_grid(v.profile, y.profile,\n"
           '                          "inputs belong to different grids")',
           "        pass",
           (GRID_CONTROL + "[verify.sqrt_verdict-mix-y-eps]",
            GRID_CONTROL + "[verify.sqrt_verdict-fix-y]")),
    Mutant("sqrt_verdict takes a float eps from another grid", VERIFY,
           'require_same_grid(eps.profile, fprof.fix, "eps from another grid")',
           "pass",
           ("tests/test_verify.py::TestSqrtVerdict::"
            "test_float_eps_from_another_grid",
            GRID_CONTROL + "[verify.sqrt_verdict-float-eps]")),
    Mutant("a float input's mantissa grid goes unchecked", FLOATMODEL,
           "    require_same_grid(a.man.profile, profile.fix,\n"
           '                      "input belongs to a different grid")',
           "    pass",
           ("tests/test_preconditions.py::"
            "test_profile_mismatch_message[float-input]",
            GRID_CONTROL + "[verify.sqrt_verdict-float-y]")),
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
           "    _check_rational(y=y, eps=eps)\n    expected",
           "    expected",
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


# the one plugin the tests need; autoloading every installed plugin took
# about half of a one-test run
PYTEST = (sys.executable, "-m", "pytest",
          "-p", "hypothesis.extra.pytestplugin", "-p", "no:cacheprovider")


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
            text=True).stdout.splitlines()
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
    codes = [subprocess.run(
        [*PYTEST, "-q", "-x", test], cwd=ROOT, env=env, capture_output=True,
        text=True).returncode
        for test in mutant.tests]
    for test, code in zip(mutant.tests, codes):
        if code != 1:
            return ("SURVIVED " if code == 0
                    else f"ERROR (pytest exit {code}) ") + test
    return "killed"


def main() -> int:
    stale = stale_ids(test for mutant in MUTANTS for test in mutant.tests)
    if stale:
        print("test ids that collect no test:", *stale, sep="\n  ")
        return 1
    failed = 0
    with tempfile.TemporaryDirectory(prefix="certisqrt-mutants-") as tmp:
        for mutant in MUTANTS:
            start = perf_counter()
            verdict = run_mutant(mutant, Path(tmp))
            failed += verdict != "killed"
            print(f"{verdict:<8} {perf_counter() - start:5.1f} s  "
                  f"src/{mutant.path}: {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
