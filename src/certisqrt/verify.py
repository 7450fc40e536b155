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

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator, Sequence

from . import lut
from .errors import DomainError, UsageError
from .exact import (
    _abs_err_lt,
    _enclosure,
    _lowest_terms,
    _rat_text,
    _rational_parts,
    _sqrt_sign,
    _takes,
    _within_signs,
    fraction_from_coprime,
    halves,
    rat_str,
)
from .fixarith import FixProfile, FixVal, require_same_grid
from .floatmodel import FloatProfile, FloatVal, _require_profile
from .lut import (RootTable, build_root_table, first_bad_root, sup_fn,
                  validate_step)
from .newton import (
    _is_count,
    GridTrace,
    Trace,
    fix_bound,
    fix_sqr,
    float_bound,
    flt_sqr,
    fsqr_exact,
    grid_inputs,
    min_iterations_for_step,
    min_legal_iterations,
    mix_sqr,
    sqr_exact,
)
from .report import CheckResult, VerifyReport, check


def approx_abs_err(qn: int, qd: int, a: int, b: int) -> float:
    """Display-only |q - sqrt(y)|, q = qn/qd and y = a/b (qd, b > 0): the
    correctly rounded float of |q - m/md|, or inf past float range, for
    the midpoint m/md of the 64-bit _enclosure of y in lowest terms (it
    depends on how y is written), formed on integers."""
    g = math.gcd(a, b)
    lo, hi, den = _enclosure(a // g, b // g, 64)
    m, md = lo + hi, den << 1
    try:
        return abs(qn * md - m * qd) / (qd * md)
    except OverflowError:
        return float("inf")


def _err_order(a: int, b: int, y: int, d: int) -> int:
    """The sign of err(a) - err(b), err(c) = |c/d - sqrt(y/d)|, for counts
    a, b, y >= 0 over d, decided exactly: err(a)**2 - err(b)**2 is (a - b)/d
    times (a + b)/d - 2*sqrt(y/d), the sign of (a + b)/(2*d) - sqrt(y/d)."""
    return ((a > b) - (a < b)) * _sqrt_sign(a + b, 2 * d, y, d)


def iteration_cap(y: Fraction, eps: Fraction) -> int:
    """max(0, 1 + ceil(log2((y - sqrt(y))/eps))) decided exactly, y > 1:
    the legal iteration count of a run seeded with y."""
    a, b = _rational_parts(y=y)
    if a <= b:
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
    a, b, en, ed = _rational_parts(y=y, eps=eps)
    expected = (f"expected a trace from {' or '.join(algorithms)} of y="
                f"{rat_str(y)} eps={rat_str(eps)}")
    if not (isinstance(trace, Trace) and len(trace.pairs) >= max(
            1, len(trace.corrections)) and min(map(min, trace.pairs)) > 0
            and min(map(min, trace.corrections), default=0) >= 0):
        raise UsageError(f"{expected}, got a {type(trace).__name__} that "
                         f"is no exact run's record")
    asked = (a, b), (en, ed)
    if trace.algorithm not in algorithms or (trace.y, trace.eps) != asked:
        raise UsageError(
            f"{expected}, got one from {trace.algorithm} of y="
            f"{rat_str(Fraction(*trace.y))} eps="
            f"{rat_str(Fraction(*trace.eps))}")
    sn, sd = trace.pairs[0]
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
    xn, xd, a, b = x.numerator, x.denominator, y.numerator, y.denominator
    lo, hi = _within_signs(xn, xd, bound.numerator, bound.denominator, a, b)
    return CheckResult(name, rule, lo <= 0 <= hi,
                       {"x": x, key: bound,
                        "err_display": approx_abs_err(xn, xd, a, b)},
                       strict=lo < 0 < hi)


def check_sqr_annotations(trace: Trace, y: Fraction,
                          eps: Fraction) -> VerifyReport:
    """Check an until-loop trace from sqr_exact (rules sqr.*, seed y) or
    isqr_exact (isqr.*) against its seed, capped at y: loop invariant
    sqrt(y) <= x <= seed, correction halving, final error <= eps, and
    applied corrections <= min_legal_iterations(y, eps, seed).  Failure
    witnesses are in lowest terms; the final-error x, built on every
    check, is the last pair as written (its gcd took 0.32-0.34 s on the
    40 seed-1 exact_certify runs, the runs 0.08-0.10 s in the same five
    rounds, CPython 3.11)."""
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

    witness = {"vacuous": True} if a <= b else {
        "applied": applied_corrections(trace),
        "cap": min_legal_iterations(y, eps, fraction_from_coprime(sn, sd)),
        "loop_passes": len(corrections)}
    cap = check("applied corrections within the logarithmic cap",
                f"{family}.iteration-cap",
                a <= b or witness["applied"] <= witness["cap"], witness)

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
      (c1, c2) = float_bound(eps, e, base), e y's exponent; a zero y
      passes exactly when x is zero.  The witness holds the bound or its
      terms; the decision divides out base**h, h = floor(e/2), on the
      counts of x and y, so it depends on e only through e mod 2.

    An exact x, y or eps that is no int or Fraction is a DomainError, as
    the runs refuse it; a fix or mix x, y or eps that is no FixVal, a
    float x or y that is no FloatVal or eps that is no FixVal, fix
    without an integer n, or float without fprof, is a UsageError.  A fix
    or mix x or eps off y's grid, or a float eps, or a non-zero
    float x or y, off fprof's grid or base, is refused with
    ProfileMismatch, as the run that made x refuses it.  Past these
    refusals the verdict is _decide's: answer makes the same decision on
    its run, so the two share one decision per mode.
    """
    if mode not in ("exact", "fix", "mix", "float"):
        raise UsageError(f"unknown sqrt mode {mode!r}")
    if mode == "exact":
        _rational_parts(x=x, eps=eps, y=y)
    elif mode == "float":
        _takes("a float verdict", x=(x, FloatVal), y=(y, FloatVal),
               eps=(eps, FixVal))
        if fprof is None:
            raise UsageError("a float verdict needs a float profile")
        require_same_grid(eps.profile, fprof.fix, "eps from another grid")
        for v in (y, x):
            _require_profile(v, fprof)
    else:
        _takes(f"a {mode} verdict", x=(x, FixVal), y=(y, FixVal),
               eps=(eps, FixVal))
        for v in (x, eps):
            require_same_grid(v.profile, y.profile,
                              "inputs belong to different grids")
        if mode == "fix" and not _is_count(n):
            raise UsageError(f"a fix verdict needs an integer iteration "
                             f"count, got {n!r}")
    return _decide(mode, x, y, eps, n, fprof)


def _decide(mode: str, x, y, eps, n: int | None,
            fprof: FloatProfile | None) -> CheckResult:
    """Rule sqrt.<mode>-bound, the one decision of sqrt_verdict and
    answer, on inputs whose kinds, grids and base they have checked."""
    name, rule = f"{mode} result within its bound", f"sqrt.{mode}-bound"
    if mode == "mix" or mode == "fix":
        bound = eps.value if mode == "mix" else fix_bound(eps, n)
        d = y.profile.delta_den
        lo, hi = _within_signs(x.count, d, bound.numerator,
                               bound.denominator, y.count, d)
        return CheckResult(name, rule, lo < 0 < hi, {"bound": bound})
    if mode == "exact":
        lo, hi = _within_signs(x.numerator, x.denominator, eps.numerator,
                               eps.denominator, y.numerator, y.denominator)
        return CheckResult(name, rule, lo <= 0 <= hi, {"bound": eps})
    if y.is_zero:
        return CheckResult(name, rule, x.is_zero, {"zero": True})
    beta, d, h = fprof.base, fprof.fix.delta_den, y.exp // 2
    c1, c2 = float_bound(eps, y.exp, beta)  # a base below 2 refused first
    t, s = y.exp - 2 * h, x.exp - h
    # c1/beta**h and c2/beta**h are eps and delta/(2*beta) at h = 0
    ok = _abs_err_lt(0 if x.is_zero else x.man.count * beta ** max(s, 0),
                     d * beta ** max(-s, 0), y.man.count * beta ** t, d,
                     eps.count, d, 1, 2 * d * beta, beta, 1)
    return CheckResult(name, rule, ok, {"c1": c1, "c2": c2, "base": beta})


def answer(mode: str, y, eps, *, table: RootTable | None = None,
           n: int | None = None, fprof: FloatProfile | None = None
           ) -> tuple[Any, Any, Trace | GridTrace, CheckResult]:
    """(y, x, trace, verdict): x = sqrt(y) by sqr_exact (exact), fix_sqr
    (fix), mix_sqr (mix) or flt_sqr (float) on the inputs that run takes,
    its record, and the verdict sqrt_verdict gives on x.  The run's request
    pass refuses what it refuses, and _decide decides the rest with no
    second kind or grid check.  An unknown mode is a UsageError."""
    if mode == "mix":
        x, trace = mix_sqr(y, eps, table)
    elif mode == "float":
        x, trace = flt_sqr(y, eps, fprof, table)
    elif mode == "fix":
        x, trace = fix_sqr(y, eps, table, n)
    elif mode == "exact":
        x, trace = sqr_exact(y, eps)
    else:
        raise UsageError(f"unknown sqrt mode {mode!r}")
    return y, x, trace, _decide(mode, x, y, eps, n, fprof)


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
                         "err_display": approx_abs_err(x.count, d,
                                                      y.count, d)},
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
    counts, d = run.counts, y.profile.delta_den
    rows: list[ProbeRow] = []
    for n in range(n_min, n_max + 1):
        x = FixVal(counts[n], y.profile)
        verdict = sqrt_verdict("fix", x, y, eps, n=n)
        increased = (n > n_min and _err_order(
            counts[n], counts[n - 1], y.count, d) > 0)
        rows.append(ProbeRow(n, x, approx_abs_err(counts[n], d, y.count, d),
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

    # on counts, by the rounding sup_fn uses, as lut holds it at the call
    d, sup, step = profile.delta_den, profile.sup_count, stp.count
    checks.append(_first_failure(
        "rounding up lands on the next index", "table.round-up",
        {"grid_values": sup - d},
        ({"u": str(FixVal(u, profile)), "rounded": str(FixVal(r, profile))}
         for u in range(d + 1, sup + 1)
         if not ((r := lut._round_up_count(u, step, profile)) % step == 0
                 and d < r <= sup  # an index
                 and r - step < u <= r))))

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


def _require_grid_inputs(profile: FixProfile) -> range:
    """grid_inputs(profile); empty, a suite or sweep would check nothing."""
    counts = grid_inputs(profile)
    if not counts:
        raise DomainError(f"no grid value in (1, {profile.sup_value / 2}]: "
                          f"the grid runs accept no input on this profile")
    return counts


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
    profile, d = eps.profile, eps.profile.delta_den
    ys = _sample_grid_values(profile)
    for stp in stp_candidates:
        if not validate_step(stp, eps).overall:
            rows.append(BalanceRow(stp, False, 0, 0, Fraction(0),
                                   float("nan"), False))
            continue
        _require_grid_inputs(profile)  # else the row would check nothing
        table = build_root_table(profile, stp)
        n = min_iterations_for_step(stp, eps)
        pn, pd = stp.count + (n << n), d << n  # stp/2**n + n/d
        worst, all_within = 0.0, True
        for y in ys:
            x, _ = fix_sqr(y, eps, table, n)
            lo, hi = _within_signs(x.count, d, pn, pd, y.count, d)
            if not lo <= 0 <= hi:
                all_within = False
            worst = max(worst, approx_abs_err(x.count, d, y.count, d))
        rows.append(BalanceRow(stp, True, profile.sup_count // stp.count,
                               n, _lowest_terms(pn, pd), worst, all_within))
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
    hn, hd = _rational_parts(hi=hi)
    hi_count = hn * profile.delta_den // hd
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
