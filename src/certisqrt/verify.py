"""Runtime verification of algorithm runs against the exact oracle.

Every function here consumes finished traces (or tables) and produces a
VerifyReport whose verdicts are decided exactly; floating-point numbers
appear only in display fields.  Deliberately corrupted inputs fail the
corresponding rule and no other, which the test suite exercises as
negative controls.  The annotation checkers decide on the trace's
integers and refuse a record, y or eps they cannot check, typed.  A rule
over every element of a run or table fails in _first_failure.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator, Sequence

from .errors import DomainError, UsageError
from .exact import (
    _lowest_terms,
    _rat_text,
    _sqrt_sign,
    _within_signs,
    cmp_sqrt,
    fraction_from_coprime,
    halves,
    rat_str,
    sqrt_abs_err_lt,
    sqrt_enclosure,
    within_of_sqrt,
)
from .fixarith import FixProfile, FixVal, require_same_grid
from .floatmodel import FloatProfile, _require_profile, value_of
from .lut import (RootTable, build_root_table, first_bad_root,
                  round_up_to_step, sup_fn, validate_step)
from .newton import (
    GridTrace,
    Trace,
    _check_rational,
    fix_bound,
    fix_sqr,
    float_bound,
    fsqr_exact,
    grid_inputs,
    min_iterations_for_step,
    min_legal_iterations,
    sqr_exact,
)
from .report import CheckResult, VerifyReport, check


def approx_abs_err(q: Fraction, y: Fraction) -> float:
    """Display-only magnitude of |q - sqrt(y)| from a 64-bit enclosure.

    |q - m/md| for the midpoint m/md is formed on integer parts, with no
    Fraction arithmetic (whose gcds on long parts would cost more than
    the display is worth); int/int true division rounds correctly, so
    the float is that of the exact difference, or inf past float range.
    """
    mid = sqrt_enclosure(y, 64).midpoint
    m, md, qn, qd = mid.numerator, mid.denominator, q.numerator, q.denominator
    try:
        return abs(qn * md - m * qd) / (qd * md)
    except OverflowError:
        return float("inf")


def cmp_abs_err(a: Fraction, b: Fraction, y: Fraction) -> int:
    """The sign of |a - sqrt(y)| - |b - sqrt(y)|, decided exactly.

    Uses err(a)**2 - err(b)**2 = (a - b) * (a + b - 2*sqrt(y)).
    """
    return ((a > b) - (a < b)) * cmp_sqrt((a + b) / 2, y)


def iteration_cap(y: Fraction, eps: Fraction) -> int:
    """max(0, 1 + ceil(log2((y - sqrt(y))/eps))) decided exactly, y > 1:
    the legal iteration count of a run seeded with y."""
    if y <= 1:
        raise DomainError(f"iteration cap defined for y > 1, "
                          f"got {_rat_text(y)}")
    return min_legal_iterations(y, eps, y)


def applied_corrections(trace: Trace) -> int:
    """Number of passes that applied their correction, one per iterate
    after the seed; an until-loop's exit pass applies none."""
    return len(trace.pairs) - 1


def _record_of(trace: Trace, y: Fraction, eps: Fraction,
               *algorithms: str) -> tuple[int, int, int, int]:
    """(a, b, sn, sd): y = a/b and the seed sn/sd capped at y, of a trace
    one of `algorithms` made for this y and eps with each pair's p, q > 0
    and each correction's c, m >= 0, else UsageError; a y or eps that is no
    int or Fraction is a DomainError."""
    _check_rational(y=y, eps=eps)
    expected = (f"expected a trace from {' or '.join(algorithms)} of y="
                f"{rat_str(y)} eps={rat_str(eps)}")
    if not (isinstance(trace, Trace) and len(trace.pairs) >= max(
            1, len(trace.corrections)) and min(map(min, trace.pairs)) > 0
            and min(map(min, trace.corrections), default=0) >= 0):
        raise UsageError(f"{expected}, got a {type(trace).__name__} that "
                         f"is no exact run's record")
    asked = (y.numerator, y.denominator), (eps.numerator, eps.denominator)
    if trace.algorithm not in algorithms or (trace.y, trace.eps) != asked:
        raise UsageError(
            f"{expected}, got one from {trace.algorithm} of y="
            f"{rat_str(Fraction(*trace.y))} eps="
            f"{rat_str(Fraction(*trace.eps))}")
    (a, b), (sn, sd) = trace.y, trace.pairs[0]
    return (a, b, sn, sd) if sn * b <= a * sd else (a, b, a, b)


def _first_failure(name: str, rule: str, counts: dict[str, Any],
                   failures: Iterator[dict[str, Any]]) -> CheckResult:
    """The rule passed with witness `counts` when the lazy search
    `failures` yields nothing, else failed with its first witness."""
    witness = next(failures, None)
    return check(name, rule, witness is None, counts, witness)


def _final_error(name: str, rule: str, x: Fraction, y: Fraction,
                 key: str, bound: Fraction) -> CheckResult:
    """|x - sqrt(y)| <= bound, recording whether the strict form holds;
    both forms are read off one pair of signs."""
    lo, hi = _within_signs(x, y, bound)
    return CheckResult(name, rule, lo <= 0 <= hi,
                       {"x": x, key: bound,
                        "err_display": approx_abs_err(x, y)},
                       strict=lo < 0 < hi)


def check_sqr_annotations(trace: Trace, y: Fraction,
                          eps: Fraction) -> VerifyReport:
    """Check an until-loop trace from sqr_exact (rules sqr.*, seed y) or
    isqr_exact (isqr.*) against its seed, capped at y: loop invariant
    sqrt(y) <= x <= seed, correction halving, final error <= eps, and
    applied corrections <= min_legal_iterations(y, eps, seed).  Failure
    witnesses are in lowest terms; the final-error x, built on every
    check, is the last pair as written (its gcd took 0.26-0.37 s on the
    40 seed-1 exact_certify runs, the runs 0.08-0.12 s, CPython 3.11)."""
    a, b, sn, sd = _record_of(trace, y, eps, "sqr_exact", "isqr_exact")
    family = trace.algorithm.removesuffix("_exact")
    pairs, corrections = trace.pairs, trace.corrections

    # a boundary before each pass and one after the last: an exit pass's
    # iterate is both, and is decided once
    top = "y" if family == "sqr" else "seed"
    invariant = _first_failure(
        f"sqrt(y) <= x <= {top} at every boundary", f"{family}.loop-invariant",
        {"boundaries": len(corrections) + 1},
        ({"k": k, "x": _lowest_terms(p, q)} for k, (p, q) in
         enumerate(pairs) if _sqrt_sign(p, q, a, b) < 0 or p * sd > sn * q))

    def built(k: int) -> Fraction:  # lowest terms for a forged c, m too
        d = trace.correction(k)
        return _lowest_terms(d.numerator, d.denominator)

    # decided on factors: a correction is built only for a failure's witness
    halving = _first_failure(
        "each correction below half its predecessor", f"{family}.halving",
        {"pairs": max(0, len(corrections) - 1)},
        ({"i": i, "d_i": built(i), "d_next": built(i + 1)}
         for i in range(len(corrections) - 1)
         if not halves(trace.factors(i), trace.factors(i + 1))))

    final = _final_error("final error within the accuracy",
                         f"{family}.final-error",
                         fraction_from_coprime(*pairs[-1]), y, "eps", eps)

    witness = {"vacuous": True} if y <= 1 else {
        "applied": applied_corrections(trace),
        "cap": min_legal_iterations(y, eps, fraction_from_coprime(sn, sd)),
        "loop_passes": len(corrections)}
    cap = check("applied corrections within the logarithmic cap",
                f"{family}.iteration-cap",
                y <= 1 or witness["applied"] <= witness["cap"], witness)

    subject = f"{trace.algorithm} y={rat_str(y)} eps={rat_str(eps)}"
    return VerifyReport(subject, (invariant, halving, final, cap))


def check_fsqr_annotations(trace: Trace, y: Fraction,
                           eps: Fraction) -> VerifyReport:
    """Check an fsqr_exact trace against its seed s (the trace's, capped
    at y): the progress bound x_k - sqrt(y) <= (s - sqrt(y))/2**k on the
    iterate after every pass, and the final eps/2 bound."""
    a, b, sn, sd = _record_of(trace, y, eps, "fsqr_exact")
    # (x_k*2**k - s)/(2**k - 1) <= sqrt(y), x_k = p/q the x after k passes
    progress = _first_failure(
        "progress bound holds at every boundary", "fsqr.progress",
        {"boundaries": len(trace.corrections) + 1},
        ({"k": k, "x": _lowest_terms(p, q)}
         for k, (p, q) in enumerate(trace.pairs[1:], 1)
         if _sqrt_sign((p << k) * sd - sn * q, q * sd * (2**k - 1), a, b) > 0))
    final = _final_error("final error within half the accuracy",
                         "fsqr.final-error",
                         fraction_from_coprime(*trace.pairs[-1]), y, "bound",
                         Fraction(eps, 2))
    subject = f"fsqr_exact y={rat_str(y)} eps={rat_str(eps)} " \
              f"n={len(trace.corrections)}"
    return VerifyReport(subject, (progress, final))


def sqrt_verdict(mode: str, x, y, eps, n: int | None = None,
                 fprof: FloatProfile | None = None) -> CheckResult:
    """Decide rule sqrt.<mode>-bound for a result x of sqrt(y):

    * exact (Fractions): |x - sqrt(y)| <= eps;
    * fix (FixVals, n iterations): |x - sqrt(y)| < fix_bound(eps, n);
    * mix (FixVals): |x - sqrt(y)| < eps;
    * float (FloatVals, eps a FixVal): |x - sqrt(y)| < c1 + c2*sqrt(base),
      (c1, c2) = float_bound(eps, exponent of y, base); a zero y passes
      exactly when x is zero.  The witness holds the bound or its terms.

    fix without an integer n, or float without fprof, is a UsageError.
    A fix or mix x or eps off y's grid, or a float eps, or a non-zero
    float x or y, off fprof's grid or base, is refused with
    ProfileMismatch, as the run that made x refuses it.
    """
    rule, name = f"sqrt.{mode}-bound", f"{mode} result within its bound"
    if mode == "exact":
        return check(name, rule, within_of_sqrt(x, y, eps), {"bound": eps})
    if mode == "float":
        if fprof is None:
            raise UsageError("a float verdict needs a float profile")
        require_same_grid(eps.profile, fprof.fix, "eps from another grid")
        for v in (y, x):
            _require_profile(v, fprof)
        if y.is_zero:
            return check(name, rule, x.is_zero, {"zero": True})
        c1, c2 = float_bound(eps, y.exp, fprof.base)
        ok = sqrt_abs_err_lt(value_of(x), value_of(y), c1, c2,
                             Fraction(fprof.base))
        return check(name, rule, ok, {"c1": c1, "c2": c2, "base": fprof.base})
    if mode not in ("fix", "mix"):
        raise UsageError(f"unknown sqrt mode {mode!r}")
    for v in (x, eps):
        require_same_grid(v.profile, y.profile,
                          "inputs belong to different grids")
    if mode == "fix" and not isinstance(n, int):
        raise UsageError(f"a fix verdict needs an integer iteration count, "
                         f"got {n!r}")
    bound = fix_bound(eps, n) if mode == "fix" else eps.value
    ok = within_of_sqrt(x.value, y.value, bound, strict=True)
    return check(name, rule, ok, {"bound": bound})


def _adjust_report(y: FixVal, eps: FixVal, n: int, grid: GridTrace,
                   exact: Trace) -> VerifyReport:
    """The adjust report of count n off the first n passes of the twin
    records: |x_exact_k - x_fix_k| <= k/d, for the k-th pair p/q and
    count c, is decided as |p*d - c*q| <= k*q."""
    d = y.profile.delta_den
    gap = _first_failure(
        "runs stay within k grid steps of each other", "adjust.gap-bound",
        {"iterations": n},
        ({"k": k, "gap": _lowest_terms(g, q * d), "bound": _lowest_terms(k, d)}
         for k, c, (p, q) in zip(range(n + 1), grid.counts, exact.pairs)
         if (g := abs(p * d - c * q)) > k * q))
    x = FixVal(grid.counts[n], y.profile)
    verdict = sqrt_verdict("fix", x, y, eps, n=n)
    final = CheckResult("grid result within eps/2 + n*step of the root",
                        "adjust.final-error", verdict.passed,
                        {"x": str(x), "bound": verdict.witness["bound"],
                         "err_display": approx_abs_err(x.value, y.value)},
                        strict=verdict.passed)
    return VerifyReport(f"adjust y={y} eps={eps} n={n}", (gap, final))


def adjust_runs(y: FixVal, eps: FixVal, table: RootTable, n: int
                ) -> tuple[tuple[GridTrace, Trace], VerifyReport]:
    """Run the grid for-loop algorithm, then its exact twin from the seed
    the grid record holds, and check |x_exact_k - x_fix_k| <= k *
    step_of_grid for all k, plus the combined final bound of the grid run.
    Returns both records, whose first m passes are each loop's run of m.

    fix_sqr's n >= n_min gives 2**(n-1) * eps >= stp >= seed - sqrt(y),
    so the exact run refuses no request fix_sqr accepts (short of the
    CERTISQRT_MAX_BITS cap on its operands), and a request is refused
    exactly as fix_sqr refuses it."""
    _, grid = fix_sqr(y, eps, table, n)
    seed = _lowest_terms(grid.counts[0], y.profile.delta_den)
    _, exact = fsqr_exact(y.value, eps.value, seed, n)
    return (grid, exact), _adjust_report(y, eps, n, grid, exact)


@dataclass(frozen=True)
class ProbeRow:
    """One iteration-count setting of the grid run for a fixed input."""

    n: int
    x: FixVal
    err_display: float
    bound: Fraction
    within_bound: bool
    error_increased: bool


def monotonicity_probe(y: FixVal, eps: FixVal, table: RootTable,
                       n_min: int, n_max: int) -> tuple[ProbeRow, ...]:
    """Sweep the iteration count and report, per n, the exact bound
    verdict and whether the error grew relative to n-1.

    No monotonicity is asserted: with grid rounding, more iterations may
    be worse, and the increase flag marks exactly where.
    """
    if n_min > n_max:
        raise DomainError(f"empty sweep range [{n_min}, {n_max}]")
    fix_sqr(y, eps, table, n_min)  # a refusal is the one n_min gets
    _, run = fix_sqr(y, eps, table, n_max)  # its n-th count: n passes
    xs = [FixVal(c, y.profile) for c in run.counts]
    rows: list[ProbeRow] = []
    for n, x in enumerate(xs[n_min:], n_min):
        verdict = sqrt_verdict("fix", x, y, eps, n=n)
        increased = (n > n_min
                     and cmp_abs_err(x.value, xs[n - 1].value, y.value) > 0)
        rows.append(ProbeRow(n, x, approx_abs_err(x.value, y.value),
                             verdict.witness["bound"], verdict.passed,
                             increased))
    return tuple(rows)


def check_table_properties(table: RootTable, eps: FixVal) -> VerifyReport:
    """Exhaustively re-check the table: the step rules for its step and
    eps, every root entry (least grid upper bound of the exact root), and
    the rounding-up function over every grid value in (1, sup]."""
    profile, stp = table.profile, table.stp
    checks: list[CheckResult] = list(validate_step(stp, eps).checks)

    bad = first_bad_root(table)
    checks.append(check(
        "every entry is the least grid upper root", "table.root",
        bad is None, {"entries": len(table)},
        None if bad is None else {"index": str(table.index_value(bad)),
                                  "root": str(table.root_at(bad))}))

    d, sup, step = profile.delta_den, profile.sup_count, stp.count
    units = (FixVal(c, profile) for c in range(d + 1, sup + 1))
    rounded = ((u, round_up_to_step(u, stp)) for u in units)
    checks.append(_first_failure(
        "rounding up lands on the next index", "table.round-up",
        {"grid_values": sup - d},
        ({"u": str(u), "rounded": str(r)} for u, r in rounded
         if not (r.count % step == 0 and d < r.count <= sup  # an index
                 and r.count - step < u.count <= r.count))))

    subject = f"table stp={stp} entries={len(table)}"
    return VerifyReport(subject, tuple(checks))


@dataclass(frozen=True)
class BalanceRow:
    """Table-size / iteration-count / accuracy trade-off for one step."""

    stp: FixVal
    valid: bool
    table_size: int
    n: int
    predicted_bound: Fraction
    worst_err_display: float
    all_within_predicted: bool


def _sample_grid_values(profile: FixProfile) -> list[FixVal]:
    """Deterministic spread of 64 of grid_inputs(profile), or all of them
    while there are at most 64, as the steps are then at most 1."""
    counts = grid_inputs(profile)
    last = counts.stop - counts.start - 1  # len() fails past 2**63
    picks = {counts[last * i // 63] for i in range(64 if counts else 0)}
    return [FixVal(c, profile) for c in sorted(picks)]


def balance_sweep(eps: FixVal,
                  stp_candidates: Sequence[FixVal]) -> tuple[BalanceRow, ...]:
    """For each candidate step on eps's grid: table size, minimal iteration
    count, the predicted bound stp/2**n + n*step_of_grid, and the worst
    observed error of the grid run over a deterministic sample of inputs."""
    rows: list[BalanceRow] = []
    profile, delta = eps.profile, eps.profile.delta
    ys = _sample_grid_values(profile)
    for stp in stp_candidates:
        if not validate_step(stp, eps).overall:
            rows.append(BalanceRow(stp, False, 0, 0, Fraction(0),
                                   float("nan"), False))
            continue
        table = build_root_table(profile, stp)
        n = min_iterations_for_step(stp, eps)
        predicted = stp.value / (1 << n) + n * delta
        worst = 0.0
        all_within = True
        for y in ys:
            x, _ = fix_sqr(y, eps, table, n)
            if not within_of_sqrt(x.value, y.value, predicted):
                all_within = False
            worst = max(worst, approx_abs_err(x.value, y.value))
        rows.append(BalanceRow(stp, True, profile.sup_count // stp.count,
                               n, predicted, worst, all_within))
    return tuple(rows)


def sample_rationals(count: int,
                     seed: int) -> list[tuple[Fraction, Fraction]]:
    """Seeded corpus of (y, eps) pairs with y in (1, 10**6) and
    eps in (1/10**6, 1)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        den = rng.randint(1, 1000)
        num = rng.randint(den + 1, 10 ** 6 * den - 1)
        eps = Fraction(rng.randint(2, 10 ** 6 - 1), 10 ** 6)
        out.append((Fraction(num, den), eps))
    return out


def grid_values(profile: FixProfile, hi: Fraction) -> list[FixVal]:
    """All grid values in (1, hi], ascending."""
    hi_count = int(hi * profile.delta_den)
    return [FixVal(c, profile)
            for c in range(profile.delta_den + 1, hi_count + 1)]


def _suite_check(name: str, rule: str, rep: VerifyReport) -> CheckResult:
    """One suite entry: an input's verdict, naming the rules it failed."""
    return check(name, rule, rep.overall, {},
                 {"failed": [c.rule for c in rep.failures()]})


def run_sqr_suite(inputs: Sequence[tuple[Fraction, Fraction]]) -> VerifyReport:
    """sqr_exact over a corpus, one verdict per input; none: DomainError."""
    if not inputs:
        raise DomainError("the sqr suite needs at least one input")
    checks = tuple(_suite_check(
        f"y={rat_str(y)} eps={rat_str(eps)}", "suite.sqr",
        check_sqr_annotations(sqr_exact(y, eps)[1], y, eps))
        for y, eps in inputs)
    return VerifyReport(f"sqr suite ({len(inputs)} inputs)", checks)


def run_fsqr_suite(table: RootTable, eps: FixVal,
                   ys: Sequence[FixVal]) -> VerifyReport:
    """fsqr_exact with table-derived seeds and minimal legal iteration
    counts over grid inputs; an eps off the table's grid is a
    ProfileMismatch, and no inputs a DomainError."""
    require_same_grid(eps.profile, table.profile,
                      "accuracy belongs to a different grid")
    if not ys:
        raise DomainError("the fsqr suite needs at least one input")
    checks = []
    for y in ys:
        y_val = y.value
        seed_value = sup_fn(y, table).value
        n = min_legal_iterations(y_val, eps.value, seed_value)
        _, trace = fsqr_exact(y_val, eps.value, seed_value, n)
        rep = check_fsqr_annotations(trace, y_val, eps.value)
        checks.append(_suite_check(f"y={y} n={n}", "suite.fsqr", rep))
    return VerifyReport(f"fsqr suite ({len(ys)} inputs)", tuple(checks))


def run_adjust_suite(table: RootTable, eps: FixVal,
                     ys: Sequence[FixVal]) -> VerifyReport:
    """Lockstep adjustment over grid inputs and six counts from fix_sqr's
    least one: each input runs its twins once, at the last count, whose
    first n passes are count n's runs.  No inputs is a DomainError."""
    n_min = min_iterations_for_step(table.stp, eps)
    counts = range(n_min, n_min + 6)
    if not ys:
        raise DomainError("the adjust suite needs at least one input")
    checks = []
    for y in ys:
        runs, last = adjust_runs(y, eps, table, counts[-1])
        reports = [_adjust_report(y, eps, n, *runs) for n in counts[:-1]]
        checks += (_suite_check(f"y={y} n={n}", "suite.adjust", rep)
                   for n, rep in zip(counts, [*reports, last]))
    return VerifyReport(
        f"adjust suite ({len(ys)} inputs x {len(counts)} counts)",
        tuple(checks))
