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
and differ only in their seed and exit rule.  It forms each pass from
three squarings, p**2, q**2 and (p + q)**2 for x = p/q, using
2*p*q = (p + q)**2 - p**2 - q**2, and builds no next iterate on a pass
whose correction the caller does not apply.  It keeps the pairs in
lowest terms by stripping common factors of 2*num(y)*den(y) each step
(the only primes a common factor can contain), because a full gcd at the
sizes reached by long runs is quadratic and would dominate the runtime.
CERTISQRT_MAX_BITS caps the size of the integers a pass may form.
fix_sqr, mix_sqr and flt_sqr share one grid loop on counts, through the
primitives fix_div and fix_add wrap, headed by one request pass that
checks each precondition once (a table checked its step when made).
fix_bound and float_bound state the grid and float accuracy contracts.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DomainError,
    EpsTooSmall,
    InternalInvariantError,
    IterationBudgetError,
    NoFeasibleEps,
    ResourceLimit,
    SeedContractError,
)
from .exact import Ordering, cmp_sqrt, decide_radical_lt, fraction_from_coprime
from .fixarith import (FixVal, _add_count, _div_count, fix_mul,
                       require_same_grid)
from .floatmodel import FloatProfile, FloatVal, compose, decompose
from .lut import (RootTable, _check_table_config, _env_limit, _seed_count,
                  step_multiple_of_eps)

ENV_MAX_BITS = "CERTISQRT_MAX_BITS"
DEFAULT_MAX_BITS = 1 << 21


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


def _check_rational(**inputs) -> None:
    """Refuse, by name, the first exact input that is no int or Fraction."""
    for name, value in inputs.items():
        if not isinstance(value, (int, Fraction)):
            raise DomainError(f"{name} must be an int or a Fraction, "
                              f"got {value!r}")


def _check_seed(s: Fraction, y: Fraction) -> None:
    if cmp_sqrt(s, y) is Ordering.LESS or s > y:
        raise SeedContractError(
            f"seed {s} violates sqrt({y}) <= seed <= {y}")


def _pow2(k: int) -> Fraction:
    return Fraction(2) ** k


def _newton_steps(y: Fraction, x: Fraction, passes: int):
    """Up to `passes` exact steps x -> x - (x*x - y)/(2x) from x > 0.

    Each pass yields (k, x, ad, ad_num, ad_den): the iterate, the
    correction magnitude ad = (x*x - y)/(2x), also as the unreduced pair
    ad_num/ad_den with ad_den > 0.  The caller then calls send(apply) and
    gets x_after: the next iterate x - ad when apply is true, and the
    loop goes on from it; else x itself, and the loop ends.  So a pass
    whose correction is not applied builds no next iterate.

    With x = p/q and y = a/b, x - ad = (b*p**2 + a*q**2)/(2*b*p*q).  The
    pass forms its integers from three squarings, which cost less than
    general products at these sizes: p**2, q**2 and (p + q)**2, since
    2*p*q = (p + q)**2 - p**2 - q**2.  Before it squares anything it
    refuses, with ResourceLimit, a pass whose pair could exceed the
    CERTISQRT_MAX_BITS cap: b*p**2 + a*q**2 and 2*b*p*q have at most
    2*max(bits(p), bits(q)) + bits(max(a, b)) + 1 bits.
    """
    a, b = y.numerator, y.denominator
    small, y_bits = 2 * a * b, max(a, b).bit_length()
    limit = _env_limit(ENV_MAX_BITS, DEFAULT_MAX_BITS)
    p, q = x.numerator, x.denominator
    for k in range(passes):
        if p <= 0:
            raise InternalInvariantError("iterate left the positive half-line")
        bits = 2 * max(p.bit_length(), q.bit_length()) + y_bits + 1
        if bits > limit:
            raise ResourceLimit(
                f"exact Newton pass {k} may form {bits}-bit operands, "
                f"above {ENV_MAX_BITS} = {limit}")
        pp, qq = p * p, q * q
        bpp, aqq = b * pp, a * qq
        ad_num, ad_den = bpp - aqq, b * ((p + q) ** 2 - pp - qq)
        apply = yield k, x, _reduced(ad_num, ad_den, small), ad_num, ad_den
        if not apply:
            yield x
            return
        p, q = _strip_small(bpp + aqq, ad_den, small)
        x = fraction_from_coprime(p, q)
        yield x


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
    _check_rational(y=y, eps=eps)
    if y < 1:
        raise DomainError(f"sqr_exact requires y >= 1, got {y}")
    if eps <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")
    en, ed = eps.numerator, eps.denominator
    steps: list[TraceStep] = []
    newton = _newton_steps(y, y, _until_passes(y, eps))
    for k, x, ad, ad_num, ad_den in newton:
        stop = 2 * ed * abs(ad_num) < en * ad_den
        x_after = newton.send(c_style or not stop)
        steps.append(TraceStep(k, x, -ad, x_after))
        if stop:
            final = x_after
            break
    else:
        raise InternalInvariantError("iteration guard exceeded")
    trace = Trace("sqr_exact", y=y, eps=eps, final_x=final,
                  steps=tuple(steps), seed=y,
                  notes={"exit_style": "c" if c_style else "flowchart"})
    return final, trace


def isqr_exact(y: Fraction, eps: Fraction,
               seed: Fraction) -> tuple[Fraction, Trace]:
    """Seeded until-loop variant computing the correction magnitude
    directly: x := seed; repeat { ad := (x*x - y)/(2x); exit when
    ad < eps/2; x := x - ad }.

    The seed must satisfy sqrt(y) <= seed <= y; this is enforced per
    call through the exact oracle.
    """
    _check_rational(y=y, eps=eps, seed=seed)
    if y <= 1:
        raise DomainError(f"isqr_exact requires y > 1, got {y}")
    if eps <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")
    _check_seed(seed, y)
    en, ed = eps.numerator, eps.denominator
    steps: list[TraceStep] = []
    newton = _newton_steps(y, seed, _until_passes(y, eps))
    for k, x, ad, ad_num, ad_den in newton:
        stop = 2 * ed * ad_num < en * ad_den
        steps.append(TraceStep(k, x, ad, newton.send(not stop)))
        if stop:
            final = x
            break
    else:
        raise InternalInvariantError("iteration guard exceeded")
    trace = Trace("isqr_exact", y=y, eps=eps, final_x=final,
                  steps=tuple(steps), seed=seed)
    return final, trace


def _least_count(stp_count: int, eps_count: int) -> int:
    """1 + ceil(log2(stp/eps)) on counts stp >= eps >= 1: the least n >= 1
    with 2**(n-1) * eps >= stp."""
    return 1 + (-((-stp_count) // eps_count) - 1).bit_length()


def _mix_eps_floor(n: int) -> int:
    """mix_sqr's budget: the least eps count it accepts for n iterations."""
    return 2 * (n + 1)


def min_iterations_for_step(stp: FixVal, eps: FixVal) -> int:
    """Smallest n >= 1 with 2**(n-1) * eps >= stp; requires stp >= eps > 0."""
    require_same_grid(stp.profile, eps.profile,
                      "step and accuracy from different grids")
    if eps.count <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")
    if stp.count < eps.count:
        raise DomainError(f"step {stp} must be at least the accuracy {eps}")
    return _least_count(stp.count, eps.count)


def _legal_count(y: Fraction, eps: Fraction, seed: Fraction, n: int) -> bool:
    """fsqr_exact's rule for n: seed - eps*2**(n-1) <= sqrt(y)."""
    return cmp_sqrt(seed - eps * _pow2(n - 1), y) is not Ordering.GREATER


def min_legal_iterations(y: Fraction, eps: Fraction,
                         seed_value: Fraction) -> int:
    """Smallest n >= 0 with 2**(n-1) * eps >= seed_value - sqrt(y),
    decided exactly; 0 whenever the seed is already within eps/2.  The
    rule is monotone in n: 0 after one test, else doubling upward, then
    bisection in (hi/2, hi]."""
    _check_rational(y=y, eps=eps, seed_value=seed_value)
    if eps <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")

    def legal(n: int) -> bool:
        return _legal_count(y, eps, seed_value, n)

    if legal(0):
        return 0
    hi = 1
    while not legal(hi):
        hi *= 2
    return bisect_left(range(hi), True, hi // 2 + 1, key=legal)


def _check_count(n: int) -> None:
    if not isinstance(n, int):
        raise DomainError(f"iteration count must be an integer, got {n!r}")


def fsqr_exact(y: Fraction, eps: Fraction, seed: Fraction,
               n: int) -> tuple[Fraction, Trace]:
    """For-loop Newton square root in exact rational arithmetic.

    Runs exactly n iterations from the checked seed.  n is legal when
    2**(n-1) * eps >= seed - sqrt(y) (any larger count is also legal);
    an illegal count raises IterationBudgetError.  The result satisfies
    |x - sqrt(y)| <= eps/2.
    """
    _check_rational(y=y, eps=eps, seed=seed)
    if y <= 1:
        raise DomainError(f"fsqr_exact requires y > 1, got {y}")
    if eps <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")
    _check_count(n)
    if n < 0:
        raise DomainError(f"iteration count must be >= 0, got {n}")
    _check_seed(seed, y)
    if not _legal_count(y, eps, seed, n):
        raise IterationBudgetError(
            f"n={n} below the legal minimum for seed {seed}")
    newton = _newton_steps(y, seed, n)
    steps = [TraceStep(k, x, ad, newton.send(True))
             for k, x, ad, _, _ in newton]
    final = steps[-1].x_after if steps else seed
    trace = Trace("fsqr_exact", y=y, eps=eps, final_x=final,
                  steps=tuple(steps), n_planned=n, seed=seed)
    return final, trace


def _grid_newton(algorithm: str, y: FixVal, eps: FixVal, table: RootTable,
                 n: int | None = None, *,
                 mix: bool = False) -> tuple[FixVal, Trace]:
    """The request pass of fix_sqr, mix_sqr and flt_sqr, then their
    table-seeded loop.  The pass refuses the first rule broken, in order:
    one grid; eps > 0; eps divides stp; with mix, n := n_min and eps meets
    the budget (else EpsTooSmall); y > 1; y <= sup/2; integer n >= n_min."""
    profile = y.profile
    for other in (eps.profile, table.profile):
        require_same_grid(other, profile, "inputs belong to different grids")
    if eps.count <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")
    if not step_multiple_of_eps(table.stp, eps):
        raise DomainError("step configuration invalid: step.multiple-of-eps")
    n_min = _least_count(table.stp.count, eps.count)
    if mix:
        n, need = n_min, _mix_eps_floor(n_min)
        if eps.count < need:
            raise EpsTooSmall(
                f"eps={eps} below 2*delta*(2 + ceil(log2(stp/eps))) = "
                f"{Fraction(need, profile.delta_den)}")
    yc, d = y.count, profile.delta_den
    if yc <= d:
        raise DomainError(f"{algorithm} requires y > 1, got {y}")
    if 2 * yc > profile.sup_count:
        raise DomainError(f"{algorithm} requires y <= {profile.sup_value}/2 "
                          f"so the loop's x + x stays in range, got {y}")
    _check_count(n)
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
    return _grid_newton("fix_sqr", y, eps, table, n)


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
    return _grid_newton("mix_sqr", y, eps, table, mix=True)


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
    x, trace = _grid_newton("flt_sqr", y_fix, eps, table, mix=True)
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
        if count < _mix_eps_floor(_least_count(stp.count, count)):
            continue
        return eps
    raise NoFeasibleEps(f"no grid accuracy below ulp/2 = {half_ulp} "
                        f"with step {stp} on a {profile.fix.delta} grid")
