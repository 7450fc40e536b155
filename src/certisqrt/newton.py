"""Newton square-root algorithms over exact, grid, and float arithmetic.

Six variants share the iteration x -> (x + y/x)/2:

* sqr_exact    - exact rationals, seed y, until-loop on the correction;
* isqr_exact   - exact rationals, seeded, loop on the non-negative
                 correction computed directly;
* fsqr_exact   - exact rationals, seeded, fixed iteration count;
* fix_sqr      - grid arithmetic, table seed, fixed iteration count;
* mix_sqr      - fix_sqr with the minimal sufficient iteration count;
* flt_sqr      - mantissa/exponent wrapper around mix_sqr.

Every run returns the result together with a complete per-iteration
trace; all correctness checks live in the verify module and operate on
those traces after the fact.

The three exact variants share one integer-pair step, _newton_steps,
and differ only in their seed and exit rule.  It keeps the pairs in
lowest terms by stripping common factors of 2*num(y)*den(y) each step
(the only primes a common factor can contain), because a full gcd at the
sizes reached by long runs is quadratic and would dominate the runtime.
fix_sqr, mix_sqr and flt_sqr share one grid loop, stepped on counts
through the primitives fix_div and fix_add wrap, and their per-request
checks; the table checked its profile and step when it was made.
fix_bound and float_bound state the grid and float accuracy contracts.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import (
    DomainError,
    EpsTooSmall,
    InternalInvariantError,
    IterationBudgetError,
    NoFeasibleEps,
    SeedContractError,
)
from .exact import Ordering, cmp_sqrt, decide_radical_lt, fraction_from_coprime
from .fixarith import (FixVal, _add_count, _div_count, fix_mul,
                       require_same_grid)
from .floatmodel import FloatProfile, FloatVal, compose, decompose
from .lut import (RootTable, _check_table_config, _seed_count,
                  step_multiple_of_eps)

SeedFn = Callable[[Fraction], Fraction]


@dataclass(frozen=True)
class TraceStep:
    """One loop pass: value before, the computed correction, value after.

    For until-loop runs the final pass records the correction that met the
    exit test with x_after == x_before.  sqr_exact corrections are signed;
    the seeded variants record the directly computed non-negative
    correction, applied by subtraction.
    """

    k: int
    x_before: Fraction | FixVal
    correction: Fraction
    x_after: Fraction | FixVal


@dataclass(frozen=True)
class Trace:
    algorithm: str
    y: Fraction | FixVal | None
    eps: Fraction | FixVal | None
    final_x: Fraction | FixVal | None
    steps: tuple[TraceStep, ...] = ()
    stp: FixVal | None = None
    n_planned: int | None = None
    seed: Fraction | FixVal | None = None
    notes: dict = field(default_factory=dict)


def _strip_small(p: int, q: int, small: int) -> tuple[int, int]:
    """Divide out every common factor of p, q whose primes divide small."""
    while True:
        g = math.gcd(small, p)
        if g > 1:
            g = math.gcd(g, q)
        if g <= 1:
            return p, q
        p //= g
        q //= g


def _reduced(num: int, den: int, small: int) -> Fraction:
    """Fraction num/den (den > 0) whose common primes all divide small."""
    if num == 0:
        return Fraction(0)
    p, q = _strip_small(num, den, small)
    return fraction_from_coprime(p, q)


def _check_seed(s: Fraction, y: Fraction) -> None:
    if cmp_sqrt(s, y) is Ordering.LESS or s > y:
        raise SeedContractError(
            f"seed {s} violates sqrt({y}) <= seed <= {y}")


def _pow2(k: int) -> Fraction:
    return Fraction(2) ** k


def _newton_steps(y: Fraction, x: Fraction, passes: int):
    """Up to `passes` exact steps x -> x - (x*x - y)/(2x) from x > 0.

    Yields (k, x, ad, ad_num, ad_den, x_next) per pass: the iterate, the
    correction magnitude ad = (x*x - y)/(2x), also as the unreduced pair
    ad_num/ad_den with ad_den > 0, and the next iterate x - ad.
    """
    a, b = y.numerator, y.denominator
    small = 2 * a * b
    p, q = x.numerator, x.denominator
    for k in range(passes):
        if p <= 0:
            raise InternalInvariantError("iterate left the positive half-line")
        bpp, aqq = b * p * p, a * q * q
        ad_num, ad_den = bpp - aqq, 2 * b * p * q
        p, q = _strip_small(bpp + aqq, ad_den, small)
        x_next = fraction_from_coprime(p, q)
        yield k, x, _reduced(ad_num, ad_den, small), ad_num, ad_den, x_next
        x = x_next


def _until_passes(y: Fraction, eps: Fraction) -> int:
    """Pass cap of the until-loops; reaching it means the run diverged."""
    return (y.numerator * eps.denominator).bit_length() + 65


def sqr_exact(y: Fraction, eps: Fraction,
              c_style: bool = False) -> tuple[Fraction, Trace]:
    """Until-loop Newton square root in exact rational arithmetic.

    Semantics: x := y; repeat { d := (y - x*x)/(2x); exit when
    |d| < eps/2; x := x + d }.  The default exit leaves the final
    correction unapplied; c_style=True applies the correction before
    testing (compatibility behaviour with no accuracy claim attached).
    Defined for y >= 1, eps > 0; the result satisfies |x - sqrt(y)| <= eps.
    """
    if y < 1:
        raise DomainError(f"sqr_exact requires y >= 1, got {y}")
    if eps <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")
    en, ed = eps.numerator, eps.denominator
    steps: list[TraceStep] = []
    for k, x, ad, ad_num, ad_den, x_next in _newton_steps(
            y, y, _until_passes(y, eps)):
        stop = 2 * ed * abs(ad_num) < en * ad_den
        if stop and not c_style:
            steps.append(TraceStep(k, x, -ad, x))
            final = x
            break
        steps.append(TraceStep(k, x, -ad, x_next))
        if stop:
            final = x_next
            break
    else:
        raise InternalInvariantError("iteration guard exceeded")
    trace = Trace("sqr_exact", y=y, eps=eps, final_x=final,
                  steps=tuple(steps), seed=y,
                  notes={"exit_style": "c" if c_style else "flowchart"})
    return final, trace


def isqr_exact(y: Fraction, eps: Fraction,
               seed: SeedFn) -> tuple[Fraction, Trace]:
    """Seeded until-loop variant computing the correction magnitude
    directly: x := seed(y); repeat { ad := (x*x - y)/(2x); exit when
    ad < eps/2; x := x - ad }.

    The seed must satisfy sqrt(y) <= seed(y) <= y; this is enforced per
    call through the exact oracle.
    """
    if y <= 1:
        raise DomainError(f"isqr_exact requires y > 1, got {y}")
    if eps <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")
    s = seed(y)
    _check_seed(s, y)
    en, ed = eps.numerator, eps.denominator
    steps: list[TraceStep] = []
    for k, x, ad, ad_num, ad_den, x_next in _newton_steps(
            y, s, _until_passes(y, eps)):
        if 2 * ed * ad_num < en * ad_den:
            steps.append(TraceStep(k, x, ad, x))
            final = x
            break
        steps.append(TraceStep(k, x, ad, x_next))
    else:
        raise InternalInvariantError("iteration guard exceeded")
    trace = Trace("isqr_exact", y=y, eps=eps, final_x=final,
                  steps=tuple(steps), seed=s)
    return final, trace


def _ceil_log2_ratio(num: int, den: int) -> int:
    """ceil(log2(num/den)) for integers num >= den >= 1."""
    t = -((-num) // den)
    return (t - 1).bit_length()


def min_iterations_for_step(stp: FixVal, eps: FixVal) -> int:
    """Smallest n >= 1 with 2**(n-1) * eps >= stp; requires stp >= eps > 0."""
    require_same_grid(stp.profile, eps.profile,
                      "step and accuracy from different grids")
    if eps.count <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")
    if stp.count < eps.count:
        raise DomainError(f"step {stp} must be at least the accuracy {eps}")
    return 1 + _ceil_log2_ratio(stp.count, eps.count)


def _legal_count(y: Fraction, eps: Fraction, seed: Fraction, n: int) -> bool:
    """fsqr_exact's rule for n: seed - eps*2**(n-1) <= sqrt(y)."""
    return cmp_sqrt(seed - eps * _pow2(n - 1), y) is not Ordering.GREATER


def _least_legal_count(y: Fraction, eps: Fraction, seed: Fraction) -> int:
    """Least n >= 0 that _legal_count accepts (eps > 0), a monotone rule:
    0 after one test, else doubling upward, then bisection in (hi/2, hi]."""
    def legal(n: int) -> bool:
        return _legal_count(y, eps, seed, n)

    if legal(0):
        return 0
    hi = 1
    while not legal(hi):
        hi *= 2
    return bisect_left(range(hi), True, hi // 2 + 1, key=legal)


def min_legal_iterations(y: Fraction, eps: Fraction,
                         seed_value: Fraction) -> int:
    """Smallest n >= 0 with 2**(n-1) * eps >= seed_value - sqrt(y),
    decided exactly; 0 whenever the seed is already within eps/2."""
    if eps <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")
    return _least_legal_count(y, eps, seed_value)


def fsqr_exact(y: Fraction, eps: Fraction, seed: SeedFn,
               n: int) -> tuple[Fraction, Trace]:
    """For-loop Newton square root in exact rational arithmetic.

    Runs exactly n iterations from the checked seed.  n is legal when
    2**(n-1) * eps >= seed(y) - sqrt(y) (any larger count is also legal);
    an illegal count raises IterationBudgetError.  The result satisfies
    |x - sqrt(y)| <= eps/2.
    """
    if y <= 1:
        raise DomainError(f"fsqr_exact requires y > 1, got {y}")
    if eps <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")
    if n < 0:
        raise DomainError(f"iteration count must be >= 0, got {n}")
    s = seed(y)
    _check_seed(s, y)
    if not _legal_count(y, eps, s, n):
        raise IterationBudgetError(
            f"n={n} below the legal minimum for seed {s}")
    steps = [TraceStep(k, x, ad, x_next)
             for k, x, ad, _, _, x_next in _newton_steps(y, s, n)]
    final = steps[-1].x_after if steps else s
    trace = Trace("fsqr_exact", y=y, eps=eps, final_x=final,
                  steps=tuple(steps), n_planned=n, seed=s)
    return final, trace


def _check_grid_config(y: FixVal, eps: FixVal, table: RootTable) -> None:
    """Per-request preconditions fix_sqr and mix_sqr share."""
    for other in (eps.profile, table.profile):
        require_same_grid(other, y.profile, "inputs belong to different grids")
    if eps.count <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")
    if not step_multiple_of_eps(table.stp, eps):
        raise DomainError("step configuration invalid: step.multiple-of-eps")


def _grid_newton(algorithm: str, y: FixVal, eps: FixVal, table: RootTable,
                 n: int, n_min: int) -> tuple[FixVal, Trace]:
    """fix_sqr after _check_grid_config: the checks on y and on n against
    the minimal count n_min, then the table-seeded grid loop on counts."""
    profile = y.profile
    yc, d = y.count, profile.delta_den
    if yc <= d:
        raise DomainError(f"{algorithm} requires y > 1, got {y}")
    if 2 * yc > profile.sup_count:
        raise DomainError(f"{algorithm} requires y <= {profile.sup_value}/2 "
                          f"so the loop's x + x stays in range, got {y}")
    if n < n_min:
        raise IterationBudgetError(f"n={n} below the minimum {n_min} for "
                                   f"stp={table.stp}, eps={eps}")
    x = _seed_count(yc, table)
    seed = before = FixVal(x, profile)
    steps: list[TraceStep] = []
    for k in range(n):
        if x <= 0:
            raise InternalInvariantError("iterate left the positive half-line")
        x_new = _add_count(_div_count(x, 2 * d, profile),
                           _div_count(yc, _add_count(x, x, profile), profile),
                           profile)
        after = FixVal(x_new, profile)
        steps.append(TraceStep(k, before, Fraction(x_new - x, d), after))
        x, before = x_new, after
    return before, Trace(algorithm, y=y, eps=eps, final_x=before, seed=seed,
                         steps=tuple(steps), stp=table.stp, n_planned=n)


def fix_sqr(y: FixVal, eps: FixVal, table: RootTable,
            n: int) -> tuple[FixVal, Trace]:
    """For-loop Newton square root in grid arithmetic.

    x := seed(y); then exactly n iterations of
    x := (x / 2) + (y / (x + x)) with correctly rounded grid division and
    exact addition.  Requires 1 < y <= sup/2 (so x + x cannot overflow), a
    step configuration valid for eps, and n at least
    min_iterations_for_step(stp, eps).  The result satisfies
    |x - sqrt(y)| < fix_bound(eps, n).
    """
    _check_grid_config(y, eps, table)
    return _grid_newton("fix_sqr", y, eps, table, n,
                        min_iterations_for_step(table.stp, eps))


def fix_bound(eps: FixVal, n: int) -> Fraction:
    """fix_sqr's accuracy contract after n iterations: eps/2 + n*delta."""
    return eps.value / 2 + n * eps.profile.delta


def mix_sqr(y: FixVal, eps: FixVal, table: RootTable) -> tuple[FixVal, Trace]:
    """fix_sqr with the minimal sufficient iteration count.

    Additionally requires eps >= 2*step_of_grid*(2 + ceil(log2(stp/eps)));
    when that fails no iteration count can meet both the convergence and
    the rounding-error budget, and EpsTooSmall is raised.  The result
    satisfies |x - sqrt(y)| < eps.
    """
    return _mix_newton("mix_sqr", y, eps, table)


def _mix_newton(algorithm: str, y: FixVal, eps: FixVal,
                table: RootTable) -> tuple[FixVal, Trace]:
    """mix_sqr, its trace and refusals named after algorithm."""
    _check_grid_config(y, eps, table)
    n = min_iterations_for_step(table.stp, eps)
    need = 2 * (n + 1)  # the accuracy's least count
    if eps.count < need:
        raise EpsTooSmall(
            f"eps={eps} below 2*delta*(2 + ceil(log2(stp/eps))) = "
            f"{Fraction(need, y.profile.delta_den)}")
    return _grid_newton(algorithm, y, eps, table, n, n)


def flt_sqr(a: FloatVal, eps: FixVal, profile: FloatProfile,
            table: RootTable) -> tuple[FloatVal, Trace]:
    """Square root in the float model: extract the mantissa, even out the
    exponent, run mix_sqr on the adjusted mantissa, halve the exponent.

    Zero maps to zero.  For a = man*base**e the result satisfies
    |b - sqrt(a)| < c1 + c2*sqrt(base), (c1, c2) = float_bound(eps, e,
    profile).
    """
    profile.validate()
    require_same_grid(eps.profile, profile.fix,
                      "accuracy belongs to a different grid")
    require_same_grid(table.profile, profile.fix,
                      "table belongs to a different grid")
    if a.is_zero:
        return FloatVal.zero(), Trace("flt_sqr", y=None, eps=eps,
                                      final_x=None, notes={"zero": True})
    man, e = decompose(a)
    require_same_grid(man.profile, profile.fix,
                      "input belongs to a different grid")
    y_fix, z = (fix_mul(man, profile.base_fix), e - 1) if e % 2 else (man, e)
    x, trace = _mix_newton("flt_sqr", y_fix, eps, table)
    b = compose(x, z // 2, profile)
    # the notes dict was made with this trace and is shared with nothing
    trace.notes.update({"input": {"man": str(man), "exp": e},
                        "radicand": str(y_fix),
                        "result": {"man": str(b.man), "exp": b.exp}})
    return b, trace


def float_bound(eps: FixVal, exp: int,
                profile: FloatProfile) -> tuple[Fraction, Fraction]:
    """flt_sqr's accuracy contract for exponent exp: (c1, c2) of the bound
    c1 + c2*sqrt(base), c1 = eps*base**h, c2 = (delta/2)*base**(h - 1),
    h = floor(exp/2)."""
    beta, h = Fraction(profile.base), exp // 2
    return eps.value * beta ** h, profile.fix.delta / 2 * beta ** (h - 1)


def _divisors_descending(n: int) -> list[int]:
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return sorted(out, reverse=True)


def derive_eps_for_ulp(ulp: Fraction, profile: FloatProfile,
                       stp: FixVal) -> FixVal:
    """Largest grid accuracy eps compatible with a half-ulp target.

    Constraints: the exponent-0 float bound eps + delta/(2*sqrt(base))
    stays below ulp/2 (decided exactly), eps divides stp, and the mix_sqr
    iteration-budget precondition holds.  Raises NoFeasibleEps when the
    set is empty.
    """
    profile.validate()
    if ulp <= 0:
        raise DomainError(f"ulp must be positive, got {ulp}")
    _check_table_config(profile.fix, stp)
    half_ulp = ulp / 2
    beta = Fraction(profile.base)
    for count in _divisors_descending(stp.count):
        eps = FixVal(count, profile.fix)
        c1, c2 = float_bound(eps, 0, profile)
        # c1 + c2*sqrt(base) < ulp/2, as c1 < ulp/2 - c2*sqrt(base)
        if not decide_radical_lt(c1, half_ulp, -c2, beta):
            continue
        if count < 2 * (min_iterations_for_step(stp, eps) + 1):
            continue
        return eps
    raise NoFeasibleEps(f"no grid accuracy below ulp/2 = {half_ulp} "
                        f"with step {stp} on a {profile.fix.delta} grid")
