"""Acceptance suite: one test per shipped correctness criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
enforces the criterion at its exact tolerance; timed criteria assert
their runtime budget.  Every verdict is decided by the exact oracle.
"""
import dataclasses
import json
from fractions import Fraction as F
from time import perf_counter

import pytest

from certisqrt.cli import main
from certisqrt.errors import DomainError
from certisqrt.exact import sqrt_abs_err_lt, within_of_sqrt
from certisqrt.fixarith import FixProfile, check_profile_assumptions
from certisqrt.floatmodel import compose, value_of
from certisqrt.lut import sup_fn
from certisqrt.newton import (
    fix_sqr,
    flt_sqr,
    fsqr_exact,
    min_legal_iterations,
    mix_sqr,
)
from certisqrt.verify import (
    check_table_properties,
    grid_values,
    monotonicity_probe,
)


def _report(num: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"\nACCEPTANCE {num:02d} {label}: {status}{suffix}")
    assert ok, f"acceptance criterion {num} failed"


@pytest.fixture(scope="module")
def demo_scan(demo_profile):
    """Exhaustive grid inputs y in (1, 8] of the demo profile."""
    return grid_values(demo_profile, F(8))


def test_criterion_1_until_loop_error_and_cap(sqr_corpus):
    runs, elapsed = sqr_corpus
    bad_post = [r for r in runs if not r[3]]
    bad_cap = [r for r in runs if not r[4]]
    ok = not bad_post and not bad_cap and elapsed < 30.0
    _report(1, "until-loop final error and iteration cap on 1000 runs", ok,
            f"{elapsed:.1f}s")


def _product_lt(a: int, b: int, c: int, d: int) -> bool:
    """a*b < c*d for integers a >= 0 and b, c, d > 0.  A product of an
    m-bit and an n-bit positive number has m+n-1 or m+n bits, so bit
    lengths two apart decide it; the full products decide the rest."""
    ab, cd = a.bit_length() + b.bit_length(), c.bit_length() + d.bit_length()
    if a == 0 or ab < cd - 1:
        return True
    if cd < ab - 1:
        return False
    return a * b < c * d


def test_criterion_2_halving(sqr_corpus):
    runs, _ = sqr_corpus
    failures = 0
    for _y, _eps, trace, _p, _c in runs:
        ds = [s.correction for s in trace.steps]
        for prev, cur in zip(ds, ds[1:]):
            # 2*|cur| < |prev| as 2*|cur.num|*prev.den < |prev.num|*cur.den
            if prev == 0 or not _product_lt(
                    2 * abs(cur.numerator), prev.denominator,
                    abs(prev.numerator), cur.denominator):
                failures += 1
    _report(2, "every consecutive correction pair halves", failures == 0,
            f"{sum(len(r[2].steps) for r in runs)} corrections")


def test_criterion_3_for_loop_half_eps(demo_scan, demo_table, demo_eps):
    eps = demo_eps.value
    t0 = perf_counter()
    failures = []
    for y in demo_scan:
        seed_value = sup_fn(y, demo_table).value
        n = min_legal_iterations(y.value, eps, seed_value)
        x, _ = fsqr_exact(y.value, eps, seed_value, n)
        if not within_of_sqrt(x, y.value, eps / 2):
            failures.append(y)
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(3, "seeded for-loop stays within eps/2 on the full grid scan",
            ok, f"{len(demo_scan)} inputs, {elapsed:.1f}s")


def test_criterion_4_run_adjustment(demo_scan, demo_table, demo_eps):
    from certisqrt.verify import adjust_runs

    t0 = perf_counter()
    failures = []
    for y in demo_scan:
        for n in range(1, 7):
            records, report = adjust_runs(y, demo_eps, demo_table, n)
            if not report.overall or \
                    any(r.gap > r.bound for r in records):
                failures.append((y, n))
    elapsed = perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(4, "exact and grid runs stay within k grid steps", ok,
            f"{len(demo_scan) * 6} runs, {elapsed:.1f}s")


def test_criterion_5_grid_bounds(demo_scan, demo_table, demo_eps,
                                 demo_profile):
    delta = demo_profile.delta
    eps = demo_eps.value
    failures = []
    for y in demo_scan:
        for n in range(1, 7):
            x, _ = fix_sqr(y, demo_eps, demo_table, n)
            if not within_of_sqrt(x.value, y.value, eps / 2 + n * delta,
                                  strict=True):
                failures.append(("fix", y, n))
        xm, _ = mix_sqr(y, demo_eps, demo_table)
        if not within_of_sqrt(xm.value, y.value, eps, strict=True):
            failures.append(("mix", y, None))
    _report(5, "grid runs meet the eps/2 + n*delta and eps bounds",
            not failures, f"{len(demo_scan)} inputs")


def test_criterion_6_float_bound(demo_profile, demo_float_profile,
                                 demo_table, demo_eps):
    beta = F(demo_float_profile.base)
    delta = demo_profile.delta
    t0 = perf_counter()
    bound_failures = []
    unexpected_errors = []
    checked = skipped_domain = 0
    for man_count in range(101, 800):
        for exp in range(-4, 5):
            a = compose(demo_profile.val(man_count), exp,
                        demo_float_profile)
            try:
                b, _ = flt_sqr(a, demo_eps, demo_float_profile, demo_table)
            except DomainError:
                # odd exponent doubles the mantissa past sup/2: the grid
                # algorithm's precondition excludes the derived radicand
                if exp % 2 != 0 and 2 * man_count > 800:
                    skipped_domain += 1
                else:
                    unexpected_errors.append((man_count, exp, "DomainError"))
                continue
            checked += 1
            half = exp // 2
            c1 = demo_eps.value * beta ** half
            c2 = (delta / 2) * beta ** (half - 1)
            if not sqrt_abs_err_lt(value_of(b), value_of(a), c1, c2, beta):
                bound_failures.append((man_count, exp))
    elapsed = perf_counter() - t0
    ok = (not bound_failures and not unexpected_errors
          and checked > 4000 and elapsed < 120.0)
    _report(6, "float runs meet the half-exponent-scaled bound", ok,
            f"{checked} checked, {skipped_domain} precondition-excluded, "
            f"{elapsed:.1f}s")


def test_criterion_7_table_properties(demo_table, demo_eps):
    report = check_table_properties(demo_table, demo_eps)
    roots = list(demo_table.roots)
    roots[11] -= 1
    corrupted = dataclasses.replace(demo_table, roots=tuple(roots))
    neg = check_table_properties(corrupted, demo_eps)
    neg_rules = {c.rule for c in neg.failures()}
    ok = report.overall and neg_rules == {"table.root"}
    _report(7, "table rules hold; corruption fails exactly the root rule",
            ok)


def test_criterion_8_more_may_be_worse(fixtures_dir, demo_profile, demo_eps,
                                       demo_table, tmp_path):
    doc = json.loads((fixtures_dir / "more_worse_witness.json").read_text())
    rows = monotonicity_probe(demo_profile.val(doc["y_count"]), demo_eps,
                              demo_table, doc["n_min"], doc["n_max"])
    increases = [r.n for r in rows if r.error_increased]
    api_ok = increases == doc["expect_increase_at"] and \
        all(r.within_bound for r in rows)

    out = tmp_path / "witness.csv"
    code = main(["sweep", str(fixtures_dir / "demo_profile.json"), str(out),
                 "--kind", "more-worse",
                 "--y", f"{doc['y_count']}/100",
                 "--n-min", str(doc["n_min"]),
                 "--n-max", str(doc["n_max"])])
    csv_rows = out.read_text().splitlines()[1:]
    csv_increases = [int(r.split(",")[0]) for r in csv_rows
                     if r.split(",")[-1] == "true"]
    cli_ok = code == 0 and csv_increases == doc["expect_increase_at"]
    _report(8, "shipped witness shows an error increase within bounds",
            api_ok and cli_ok, f"increases at n={increases}")


def test_criterion_9_rounding_contract_micro():
    micro = FixProfile(10, 40, 40)
    t0 = perf_counter()
    report = check_profile_assumptions(micro, budget="exhaustive")
    elapsed = perf_counter() - t0
    ok = report.overall and elapsed < 10.0
    _report(9, "exhaustive rounding contract on the micro grid", ok,
            f"{elapsed:.1f}s")


def test_criterion_10_determinism(fixtures_dir, tmp_path, capsys):
    profile = str(fixtures_dir / "demo_profile.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["table-build", profile, str(a)]) == 0
    assert main(["table-build", profile, str(b)]) == 0
    tables_equal = a.read_bytes() == b.read_bytes()

    capsys.readouterr()
    args = ["verify", profile, str(a), "--suite", "all",
            "--samples", "50", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    _report(10, "table build and verify outputs are byte-identical",
            tables_equal and first == second)
