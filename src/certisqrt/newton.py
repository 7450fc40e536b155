"""Newton square-root algorithms over exact, grid, and float arithmetic.

Six variants share the iteration x -> (x + y/x)/2:

* sqr_exact    - exact rationals, seed y, until-loop on the correction;
* isqr_exact   - the same until-loop from a given seed;
* fsqr_exact   - exact rationals, seeded, fixed iteration count;
* fix_sqr      - grid arithmetic, table seed, fixed iteration count;
* mix_sqr      - fix_sqr with the minimal sufficient iteration count;
* flt_sqr      - mix_sqr's request pass and loop on the radicand count of
                 a mantissa/exponent pair.

Every run returns the result together with a record of its iterates;
all correctness checks live in the verify module and operate on those
records after the fact.  The exact variants return a Trace, which holds
y, eps and each iterate from the seed on as integer pairs, and what each
pass decided as a Correction (c, m), the factors of the norm of the pair
the pass starts from.  The grid variants return a GridTrace, which holds
only the radicand, the seed count and each iterate count (flt_sqr's is
the record of the loop it ran on its radicand).  Readers read those
integers; a request builds no record that nothing reads.  Each record's
steps view, in one TraceStep form, is kept for the benchmark's tracer.

Each exact variant is one request pass, _exact_request, and one call of
the exact loop, _exact_run: n passes for fsqr_exact, the until-loop for
sqr_exact and isqr_exact.  _exact_run states how a pass carries the
norm of its iterate and decides its exit on factors.  Until its pair
meets an inductive invariant, I, a pass puts the next pair in lowest
terms by _common_factor, which also reduces Trace's corrections, and
splits the next norm by _norm_factors; from then on it does both in
closed form, from the common factor odd(b)*2**e it knows, with one short
division and no gcd.
fix_sqr, mix_sqr and flt_sqr share one grid loop on counts, headed by
one request pass that checks each precondition once (a table checked
its step when made).  Each pass is one call of fixarith._newton_step,
which a test holds equal to fix_add(fix_div(x, 2), fix_div(y, fix_add(x,
x))), refusals included, so the loop runs the arithmetic that
check_profile_assumptions probes.
fix_bound and float_bound state the grid and float accuracy contracts.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DomainError,
    EpsTooSmall,
    InternalInvariantError,
    IterationBudgetError,
    NoFeasibleEps,
    RangeOverflow,
    ResourceLimit,
    SeedContractError,
)
from .exact import (Factors, _lowest_terms, _radicand, _rat_text,
                    _rational_parts, _sqrt_sign, _takes, encode_int,
                    fraction_from_coprime, halves)
from .fixarith import FixProfile, FixVal, _newton_step, require_same_grid
from .floatmodel import FloatProfile, FloatVal, _require_profile, compose
from .lut import RootTable, _check_table_config, _env_limit, _seed_count

ENV_MAX_BITS = "CERTISQRT_MAX_BITS"
DEFAULT_MAX_BITS = 1 << 21


def max_bits() -> int:
    """The CERTISQRT_MAX_BITS cap on the integers an exact pass may form."""
    return _env_limit(ENV_MAX_BITS, DEFAULT_MAX_BITS)


def _record_repr(value) -> str:
    """repr(value) for a record or a part of one, as the NamedTuple repr
    writes it, with each int, a Fraction's parts too, as encode_int
    writes it: in decimal while every interpreter setting prints it, as
    a hex literal beyond, so a long run has a repr on Python 3.11 too."""
    if type(value) is int:
        return str(encode_int(value))
    if type(value) is Fraction:
        return f"Fraction{_record_repr((value.numerator, value.denominator))}"
    if not isinstance(value, tuple):
        return repr(value)
    parts = [_record_repr(v) for v in value]
    if hasattr(value, "_fields"):
        body = ", ".join(f"{name}={part}"
                         for name, part in zip(value._fields, parts))
        return f"{type(value).__name__}({body})"
    return f"({', '.join(parts)}{',' if len(parts) == 1 else ''})"


class Correction(NamedTuple):
    """What one pass decided: the factors (c, m), c, m >= 0, of the norm
    c*m**2 = b*p**2 - a*q**2 >= 0 of the iterate p/q >= sqrt(y) it starts
    from, for y = a/b.  A Trace reads it against that pair, by factors(k)
    and correction(k), which takes its sign from the algorithm."""

    c: int
    m: int

    def over(self, b: int, p: int, q: int) -> Factors:
        """(num, den) = ((c, m, m), (2*b, p, q)), read against p/q."""
        return (self.c, self.m, self.m), (2 * b, p, q)

    __repr__ = _record_repr


class TraceStep(NamedTuple):
    """One loop pass as a record's steps view builds it: value before, the
    correction, value after (an until-loop's exit pass keeps x).  No
    module of the package reads it: the steps views and this form are
    kept for the Newton probe of perfbench/tracer.py, until the benchmark
    change that moves that probe onto the records."""

    k: int
    x_before: Fraction | FixVal
    correction: Fraction
    x_after: Fraction | FixVal

    __repr__ = _record_repr


class Trace(NamedTuple):
    """A run of sqr_exact, isqr_exact or fsqr_exact as it is recorded:
    the algorithm, y and eps as (numerator, denominator) pairs, each
    iterate once as its pair (p, q) in lowest terms from the seed on, and
    each pass's Correction.  An applied pass adds the next iterate, an
    until-loop's exit pass none: so pass k starts from pairs[k], and
    fsqr_exact's count is len(corrections).  Every part is an int, so a
    long run pickles on every Python version; its repr writes a long
    part in hex.  steps is a view, built on every read (see TraceStep).
    """

    algorithm: str
    y: tuple[int, int]
    eps: tuple[int, int]
    pairs: tuple[tuple[int, int], ...]
    corrections: tuple[Correction, ...]

    def factors(self, k: int) -> Factors:
        """(num, den) with |correction k| = prod(num)/prod(den), read off
        the record without building it."""
        return self.corrections[k].over(self.y[1], *self.pairs[k])

    def correction(self, k: int) -> Fraction:
        """Pass k's correction: the norm c*(m*m), formed as an applied
        pass forms it, over 2*b*p*q, reduced by _common_factor; sqr_exact
        adds it, so it is negated there, and the seeded runs subtract it."""
        c, m = self.corrections[k]
        (a, b), (p, q) = self.y, self.pairs[k]
        num, den = c * (m * m), 2 * b * p * q
        if num == 0:
            return Fraction(0)
        g = _common_factor(num, den, 2 * a * b)
        sign = -1 if self.algorithm == "sqr_exact" else 1
        return fraction_from_coprime(sign * (num // g), den // g)

    @property
    def steps(self) -> tuple[TraceStep, ...]:
        xs = [fraction_from_coprime(p, q) for p, q in self.pairs]
        xs.append(xs[-1])  # an exit pass ends where it starts
        return tuple(TraceStep(k, xs[k], self.correction(k), xs[k + 1])
                     for k in range(len(self.corrections)))

    __repr__ = _record_repr


class GridTrace(NamedTuple):
    """A run of fix_sqr, mix_sqr or flt_sqr as it is recorded: the
    algorithm, its radicand y and counts, the seed count followed by each
    iterate count on the grid of y.  flt_sqr's y is the radicand the loop
    ran on, and a zero input records y None and no counts.  So pass k
    goes from counts[k] to counts[k + 1], and counts[-1] is the result.
    steps is a view, built from the counts on every read (see TraceStep).
    """

    algorithm: str
    y: FixVal | None
    counts: tuple[int, ...]

    @property
    def steps(self) -> tuple[TraceStep, ...]:
        counts = self.counts
        if not counts:
            return ()
        profile = self.y.profile
        d = profile.delta_den
        xs = [FixVal(c, profile) for c in counts]
        return tuple(TraceStep(k, xs[k],
                               _lowest_terms(counts[k + 1] - counts[k], d),
                               xs[k + 1])
                     for k in range(len(counts) - 1))


def _content(n: int, small: int) -> int:
    """The largest divisor of n > 0 whose primes all divide small (small
    itself at n = 0), by squaring: gcd(n, h*h) holds each prime of h to
    twice its power in h, or to its power in n, the least of the two."""
    h = math.gcd(n, small)
    while h > 1 and n and (g := math.gcd(n, h * h)) != h:
        h = g
    return h


def _common_factor(num: int, den: int, small: int) -> int:
    """gcd(num, den), num > 0, when each prime common to both divides
    small: such a prime divides _content(num, small) to its power in num.
    No gcd takes num and den both, which is quadratic at long runs' sizes.
    It reduces the exact loop's pairs and Trace.correction."""
    return math.gcd(_content(num, small), den)


def _norm_factors(norm: int, g: int, b: int) -> tuple[int, int]:
    """(c, m), c, m >= 0, with c*m**2 = b*(norm/g)**2, the norm >= 0 of
    the next iterate, for the factor g stripped from its pair.  g need not
    divide norm, but g**2 divides the integer b*norm**2: so for h =
    gcd(norm, g), (g/h)**2 divides b, c = b // (g/h)**2, m = norm // h,
    and no integer formed here is longer than norm or b."""
    h = math.gcd(norm, g)
    return b // (g // h) ** 2, norm // h


_LOW_WORD = (1 << 64) - 1


def _twos(n: int) -> int:
    """v2(n), the exponent of 2 in n > 0; -1 at n = 0.  It reads n's low
    word while that is not 0: n & -n copies all of a long n, and so cost
    3% of sqr_exact on the 40 seed-1 exact_certify pairs."""
    low = n & _LOW_WORD or n & -n
    return (low & -low).bit_length() - 1


def _is_count(n: object) -> bool:
    """The one rule of an iteration count's kind: an int, and no bool."""
    return isinstance(n, int) and not isinstance(n, bool)


def _check_count(n: int) -> None:
    if not _is_count(n):
        raise DomainError(f"iteration count must be an integer, got {n!r}")


def _exact_request(algorithm: str, y: Fraction, eps: Fraction,
                   seed: Fraction, n: int = 0) -> None:
    """The request pass of the exact runs: it refuses the first rule
    broken, in order: y, eps and the seed (y for sqr_exact) are ints or
    Fractions; y >= 1 for sqr_exact, else y > 1; eps > 0; n is an
    integer >= 0; sqrt(y) <= seed <= y, each on integer parts."""
    seeded = algorithm != "sqr_exact"
    a, b, en, _, sn, sd = _rational_parts(y=y, eps=eps, seed=seed)
    if a < b or seeded and a == b:
        raise DomainError(f"{algorithm} requires y {'>' if seeded else '>='}"
                          f" 1, got {_rat_text(y)}")
    if en <= 0:
        raise DomainError(f"accuracy must be positive, got {_rat_text(eps)}")
    _check_count(n)
    if n < 0:
        raise DomainError(f"iteration count must be >= 0, got {n}")
    if seeded and (_sqrt_sign(sn, sd, a, b) < 0 or sn * b > a * sd):
        raise SeedContractError(f"seed {_rat_text(seed)} violates sqrt("
                                f"{_rat_text(y)}) <= seed <= {_rat_text(y)}")


def _exact_run(algorithm: str, y: Fraction, eps: Fraction, seed: Fraction,
               n: int | None = None,
               c_style: bool = False) -> tuple[Fraction, Trace]:
    """The loop of the exact runs, after their request pass: from x :=
    seed > 0, each pass forms ad := (x*x - y)/(2x) and x := x - ad.  With
    n it makes n passes (fsqr_exact).  Without, it is the until-loop of
    sqr_exact and isqr_exact: it exits on the first pass with ad < eps/2,
    leaving x as it is (c_style applies that pass too), under a pass cap
    that only a diverging run reaches.  As x - ad - sqrt(y) = (x -
    sqrt(y))**2/(2x), no iterate falls below sqrt(y), so ad >= 0; a seed
    below, which the request passes refuse, is an InternalInvariantError.
    Returns the result, the one Fraction the loop builds (the seed itself
    when no pass moved x), and the Trace.

    With x = p/q and y = a/b, ad = c*m**2/(2*b*p*q) for the norm c*m**2 =
    b*p**2 - a*q**2 of x in Q(sqrt(y)), c, m >= 0.  The norm is
    multiplicative: the next pair is (b*p**2 + a*q**2, 2*b*p*q) over their
    gcd g, and the next pass keeps its norm b*norm**2/g**2 as the factors
    (c, m) = (b // (g/h)**2, norm // h), h = gcd(norm, g), with no
    squaring (on pass 0, m is 1): the loop carries its pair and these
    factors only.  Each pass records them, the Correction (c, m), then
    exits when exact.halves, on the factors of eps and of ad as
    Trace.factors reads them, gives 2*ad < eps.  halves forms those
    products only when bit lengths and 128-bit brackets leave it open, so
    the exit pass forms no product above its inputs and builds no next
    iterate.

    An applied pass takes g and the next (c, m) by one of two rules.
    Write b = bo*2**t with bo odd, and ao for the odd part of a.  A pass
    takes the closed form once I(p, q) holds: gcd(p, ao) = 1, bo divides
    q, and gcd(q~, bo) = 1 for q~ = q // bo, the pass's one division; the
    last two say that each prime of bo divides q exactly as often as bo,
    so I is tested as gcd(p, ao) = 1 and gcd(q, bo**2) = bo.  Then
    b*p**2 + a*q**2 = bo*A and 2*b*p*q = bo*D for A = (p**2 << t) +
    a*bo*q~**2 and D = ((p + q)**2 - p**2 - q**2) << t, and the norm is
    bo*B, B = (p**2 << t) - a*bo*q~**2.  Lemma: under I, g = bo*2**e,
    e = min(v2(A), v2(D)), and gcd(norm, g) = bo*2**f, f = min(v2(B), e)
    (f = e at B = 0).  For an odd prime r of both A and D = 2**(t+1)*p*
    bo*q~: r dividing p divides a*bo*q~**2, but not q, so it divides ao,
    against I; r dividing bo or q~ divides q, so it divides 2**t*p**2 and
    p, against gcd(p, q) = 1.  So no odd prime of A divides D, and the
    next pair is (A >> e, D >> e), the next factors (b >> 2*(e - f), B >>
    f).  Induction: the next q~ is D >> e over bo, 2**(t+1-e)*p*q~, prime
    to bo; and an odd prime of ao dividing A >> e divides 2**t*p**2, so
    p.  So a pass tests I until it holds, then never again.  sqr_exact's
    pass 0, from (a, b), fails it unless ao = 1, and gives ((a + b)/h,
    2*b/h), h = gcd(a + b, 2), which meets it; a seed can fail it on
    every pass.  Before I holds, _common_factor takes g (a common
    prime divides 2*b, or p and so a, or q and so b) and _norm_factors
    the next (c, m): the gcd rule.  Both rules give the same pairs and
    records.

    Either rule makes three squarings: the closed form squares q~, p and
    p + q; the other forms the norm c*(m*m), p**2 and (p + q)**2, gets
    q**2 = (b*p**2 - norm)/a by exact division and 2*p*q = (p + q)**2 -
    p**2 - q**2, a short product since c <= b after pass 0.  CPython
    squares only when both operands are one object, and a general product
    of the same size costs 1.35x to 1.47x a squaring (CPython 3.11, 20K
    to 120K bits).  The gcd rule adds seven long divisions by short
    integers a pass (aqq // a, the gcds of _common_factor and
    _norm_factors and their quotients), the closed form one, q // bo, and
    shifts.

    Before it forms anything, each pass refuses, with ResourceLimit, a
    pair that could exceed the CERTISQRT_MAX_BITS cap: b*p**2 + a*q**2,
    2*b*p*q and the norm have at most 2*max(bits(p), bits(q)) +
    bits(max(a, b)) + 1 bits, and so do A, D and B; the pass forms its
    integers, and splits a norm, only after that test.
    """
    a, b = y.numerator, y.denominator
    en, ed = eps.numerator, eps.denominator
    eps_factors = ((en,), (ed,))
    small, y_bits = 2 * a * b, max(a, b).bit_length()
    t = _twos(b)
    ao, bo = a >> _twos(a), b >> t
    abo, bo2 = a * bo, bo * bo
    limit = max_bits()
    p, q = seed.numerator, seed.denominator
    pairs, corrections = [(p, q)], []
    closed = False
    for k in range((a * ed).bit_length() + 65 if n is None else n):
        if p <= 0:
            raise InternalInvariantError("iterate left the positive half-line")
        bits = 2 * max(p.bit_length(), q.bit_length()) + y_bits + 1
        if bits > limit:
            raise ResourceLimit(
                f"exact Newton pass {k} may form {bits}-bit operands, "
                f"above {ENV_MAX_BITS} = {limit}")
        if k == 0:
            c, m = b * p * p - a * q * q, 1
            if c < 0:
                raise InternalInvariantError("seed below sqrt(y)")
        elif not closed:
            c, m = _norm_factors(norm, g, b)
        record = Correction(c, m)
        corrections.append(record)
        stop = n is None and halves(eps_factors, record.over(b, p, q))
        if stop and not c_style:
            break
        if not closed:  # I(p, q), inductive: tested until it holds
            closed = math.gcd(p, ao) == 1 and math.gcd(q, bo2) == bo
        if closed:  # A (big), D (ad_den) and B (norm) of the lemma above
            qt = q // bo
            qq = qt * qt
            pp = p * p
            ppt = pp << t
            aqq = abo * qq
            big, norm = ppt + aqq, ppt - aqq
            ad_den = ((p + q) ** 2 - pp - bo2 * qq) << t
            e = min(_twos(big), _twos(ad_den))
            f = e if norm == 0 else min(_twos(norm), e)
            p, q = big >> e, ad_den >> e
            c, m = b >> 2 * (e - f), norm >> f
        else:
            norm = c * (m * m)
            pp = p * p
            bpp = b * pp
            aqq = bpp - norm
            ad_den = b * ((p + q) ** 2 - pp - aqq // a)
            num = bpp + aqq
            g = _common_factor(num, ad_den, small)
            p, q = num // g, ad_den // g
        pairs.append((p, q))
        if stop:
            break
    else:
        if n is None:
            raise InternalInvariantError("iteration guard exceeded")
    x = seed if len(pairs) == 1 else fraction_from_coprime(p, q)
    return x, Trace(algorithm, (a, b), (en, ed), tuple(pairs),
                    tuple(corrections))


def sqr_exact(y: Fraction, eps: Fraction,
              c_style: bool = False) -> tuple[Fraction, Trace]:
    """Until-loop Newton square root in exact rational arithmetic.

    Semantics: x := y; repeat { d := (y - x*x)/(2x); exit when
    |d| < eps/2; x := x + d }.  The default exit leaves the final
    correction unapplied; c_style=True applies the correction before
    testing (compatibility behaviour with no accuracy claim attached).
    Defined for y >= 1, eps > 0; the result satisfies |x - sqrt(y)| <= eps.
    """
    _exact_request("sqr_exact", y, eps, y)
    return _exact_run("sqr_exact", y, eps, y, c_style=c_style)


def isqr_exact(y: Fraction, eps: Fraction,
               seed: Fraction) -> tuple[Fraction, Trace]:
    """Seeded until-loop variant computing the correction magnitude
    directly: x := seed; repeat { ad := (x*x - y)/(2x); exit when
    ad < eps/2; x := x - ad }.

    The seed must satisfy sqrt(y) <= seed <= y; this is enforced per
    call through the exact oracle.
    """
    _exact_request("isqr_exact", y, eps, seed)
    return _exact_run("isqr_exact", y, eps, seed)


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
    """fsqr_exact's rule for n >= 0: seed - eps*2**(n-1) <= sqrt(y),
    decided by _sqrt_sign on the unreduced integer parts of the left
    side, (2*sn*ed - (en*sd << n))/(2*sd*ed), so no Fraction is built."""
    a, b = _radicand(y.numerator, y.denominator)
    sn, sd = seed.numerator, seed.denominator
    en, ed = eps.numerator, eps.denominator
    return _sqrt_sign(2 * sn * ed - (en * sd << n), 2 * sd * ed, a, b) <= 0


def min_legal_iterations(y: Fraction, eps: Fraction,
                         seed_value: Fraction) -> int:
    """Smallest n >= 0 with 2**(n-1) * eps >= seed_value - sqrt(y),
    decided exactly; 0 whenever the seed is already within eps/2.  The
    rule is monotone in n: 0 after one test, else doubling upward, then
    bisection in (hi/2, hi]."""
    en = _rational_parts(y=y, eps=eps, seed_value=seed_value)[2]
    if en <= 0:
        raise DomainError(f"accuracy must be positive, got {_rat_text(eps)}")

    def legal(n: int) -> bool:
        return _legal_count(y, eps, seed_value, n)

    if legal(0):
        return 0
    hi = 1
    while not legal(hi):
        hi *= 2
    return bisect_left(range(hi), True, hi // 2 + 1, key=legal)


def fsqr_exact(y: Fraction, eps: Fraction, seed: Fraction,
               n: int) -> tuple[Fraction, Trace]:
    """For-loop Newton square root in exact rational arithmetic.

    Runs exactly n iterations from the checked seed.  n is legal when
    2**(n-1) * eps >= seed - sqrt(y) (any larger count is also legal);
    an illegal count raises IterationBudgetError.  The result satisfies
    |x - sqrt(y)| <= eps/2.
    """
    _exact_request("fsqr_exact", y, eps, seed, n)
    if not _legal_count(y, eps, seed, n):
        raise IterationBudgetError(
            f"n={n} below the legal minimum for seed {_rat_text(seed)}")
    return _exact_run("fsqr_exact", y, eps, seed, n)


def grid_inputs(profile: FixProfile) -> range:
    """The counts d + 1 ... sup // 2 of the values in (1, sup/2], the
    radicands the grid runs accept.  _grid_newton's two refusals state
    this domain inline, so that a request makes no call here."""
    return range(profile.delta_den + 1, profile.sup_count // 2 + 1)


def _grid_newton(algorithm: str, y: FixVal, eps: FixVal, table: RootTable,
                 n: int | None = None, *,
                 mix: bool = False) -> tuple[FixVal, GridTrace]:
    """The request pass of fix_sqr, mix_sqr and flt_sqr, then their
    table-seeded loop.  The pass refuses the first rule broken, in order:
    one grid; eps > 0; eps divides stp; with mix, n := n_min and eps meets
    the budget (else EpsTooSmall); y > 1; y <= sup/2; integer n >= n_min.
    The loop records each iterate count and nothing more.  A y or eps that
    is no FixVal, or a table that is no RootTable, is a UsageError."""
    try:
        profile, yc, ec = y.profile, y.count, eps.count
        eps_grid, table_grid = eps.profile, table.profile
        stp = table.stp.count
    except AttributeError:  # an input of another kind: named here
        _takes(algorithm, y=(y, FixVal), eps=(eps, FixVal),
               table=(table, RootTable))
        raise
    # identity settles the usual case; require_same_grid states the rule
    if eps_grid is not profile or table_grid is not profile:
        for other in (eps_grid, table_grid):
            require_same_grid(other, profile,
                              "inputs belong to different grids")
    if ec <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")
    if stp % ec:
        raise DomainError("step configuration invalid: step.multiple-of-eps")
    n_min = _least_count(stp, ec)
    if mix:
        n, need = n_min, _mix_eps_floor(n_min)
        if ec < need:
            raise EpsTooSmall(
                f"eps={eps} below 2*delta*(2 + ceil(log2(stp/eps))) = "
                f"{_lowest_terms(need, profile.delta_den)}")
    if yc <= profile.delta_den:
        raise DomainError(f"{algorithm} requires y > 1, got {y}")
    if 2 * yc > profile.sup_count:
        raise DomainError(f"{algorithm} requires y <= {profile.sup_value}/2 "
                          f"so the loop's x + x stays in range, got {y}")
    _check_count(n)
    if n < n_min:
        raise IterationBudgetError(f"n={n} below the minimum {n_min} for "
                                   f"stp={table.stp}, eps={eps}")
    x = _seed_count(yc, table)
    counts = [x]
    for _ in range(n):
        if x <= 0:
            raise InternalInvariantError("iterate left the positive half-line")
        x = _newton_step(x, yc, profile)
        counts.append(x)
    # tuple.__new__ makes no frame of the generated constructor
    return FixVal(x, profile), tuple.__new__(
        GridTrace, (algorithm, y, tuple(counts)))


def fix_sqr(y: FixVal, eps: FixVal, table: RootTable,
            n: int) -> tuple[FixVal, GridTrace]:
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
    """fix_sqr's accuracy contract after n iterations: eps/2 + n*delta,
    (E + 2*n)/(2*d) for eps = E/d; n is an int >= 0, not a bool."""
    _check_count(n)
    if n < 0:
        raise DomainError(f"iteration count must be >= 0, got {n}")
    return _lowest_terms(eps.count + 2 * n, 2 * eps.profile.delta_den)


def mix_sqr(y: FixVal, eps: FixVal,
            table: RootTable) -> tuple[FixVal, GridTrace]:
    """fix_sqr with the minimal sufficient iteration count.

    Additionally requires eps >= 2*step_of_grid*(2 + ceil(log2(stp/eps)));
    when that fails no iteration count can meet both the convergence and
    the rounding-error budget, and EpsTooSmall is raised.  The result
    satisfies |x - sqrt(y)| < eps.
    """
    return _grid_newton("mix_sqr", y, eps, table, mix=True)


def flt_sqr(a: FloatVal, eps: FixVal, profile: FloatProfile,
            table: RootTable) -> tuple[FloatVal, GridTrace]:
    """Square root in the float model: extract the mantissa, even out the
    exponent, run mix_sqr's request pass and loop on the radicand count,
    halve the exponent.  The base is an integer, so each scaling by it is
    exact on counts: count*base on the same grid, never a rounded product.

    Zero maps to zero; a positive a must carry the profile's base, else
    ProfileMismatch; an input of another kind than the signature's is a
    UsageError.  For a = man*base**e the result satisfies
    |b - sqrt(a)| < c1 + c2*sqrt(base), (c1, c2) = float_bound(eps, e,
    base).

    Domain: every positive a of the profile's base whose loop radicand,
    man at an even e and man*base at an odd e, is at most sup/2; an odd e
    with man*base outside [-inf, sup] is refused with RangeOverflow, and
    one with man > sup/(2*base) inside it with DomainError.  A loop
    result x <= 1, which a radicand just above 1 can round onto, is no
    mantissa: b is then x*base at exponent floor(e/2) - 1, the same
    value, and x*base*base <= base**2 < sup keeps it in compose's range.
    That mantissa exceeds 1 whenever x > 1/base, which |x - sqrt(y)| <
    eps gives for eps <= 1 - 1/base; past that compose refuses it with
    MantissaRange.
    """
    try:
        profile.validate()
        fix, eps_grid, table_grid = profile.fix, eps.profile, table.profile
        # identity settles the usual case; require_same_grid states the rule
        if eps_grid is not fix or table_grid is not fix:
            require_same_grid(eps_grid, fix,
                              "accuracy belongs to a different grid")
            require_same_grid(table_grid, fix,
                              "table belongs to a different grid")
        if a.is_zero:
            return FloatVal.zero(), GridTrace("flt_sqr", None, ())
    except AttributeError:  # an input of another kind: named here
        _takes("flt_sqr", a=(a, FloatVal), eps=(eps, FixVal),
               profile=(profile, FloatProfile), table=(table, RootTable))
        raise
    _require_profile(a, profile)
    man, e, base = a.man, a.exp, profile.base
    if e % 2:  # an odd e runs on man*base at e - 1, and (e - 1)//2 == e//2
        grid, count = man.profile, man.count * base
        if not -grid.inf_count <= count <= grid.sup_count:
            d = grid.delta_den
            raise RangeOverflow(f"{man} * {base * d}/{d} overflows the range")
        man = FixVal(count, grid)
    x, trace = _grid_newton("flt_sqr", man, eps, table, mix=True)
    h = e // 2
    if x.count <= fix.delta_den:  # x <= 1: the same value as x*base
        # no range test: x <= 1, and base*d <= sup by float.base-in-grid,
        # which profile.validate() checked above
        x, h = FixVal(x.count * base, x.profile), h - 1
    return compose(x, h, profile), trace


def float_bound(eps: FixVal, exp: int, base: int) -> tuple[Fraction, Fraction]:
    """flt_sqr's accuracy contract for exponent exp and base >= 2: (c1, c2)
    of the bound c1 + c2*sqrt(base), c1 = eps*base**h and c2 = (delta/2) *
    base**(h - 1), h = floor(exp/2), delta = 1/d the step of eps's grid,
    each one integer pair: E*base**h/d and base**h/(2*d*base), eps = E/d."""
    if base < 2:
        raise DomainError(f"float_bound requires base >= 2, got {base}")
    h, d = exp // 2, eps.profile.delta_den
    up, down = base ** max(h, 0), base ** max(-h, 0)
    return (_lowest_terms(eps.count * up, d * down),
            _lowest_terms(up, 2 * d * base * down))


MAX_DIVISOR_TRIALS = 1 << 20  # derive_eps_for_ulp's trial divisions


def _divisors_below(n: int, bound: int) -> list[int]:
    """The divisors of n below bound, descending.  Each pairs an i <=
    isqrt(n) with n//i >= isqrt(n), so while bound <= isqrt(n) only the
    trials i < bound find one; past MAX_DIVISOR_TRIALS, ResourceLimit."""
    root = math.isqrt(n)
    last = root if bound > root else bound - 1
    if last > MAX_DIVISOR_TRIALS:
        raise ResourceLimit(f"the divisors of {encode_int(n)} below "
                            f"{encode_int(bound)} need {encode_int(last)} "
                            f"trial divisions, cap {MAX_DIVISOR_TRIALS}")
    return sorted({c for i in range(1, last + 1) if n % i == 0
                   for c in (i, n // i) if c < bound}, reverse=True)


def derive_eps_for_ulp(ulp: Fraction | int, profile: FloatProfile,
                       stp: FixVal) -> FixVal:
    """Largest grid accuracy eps compatible with a half-ulp target.

    Constraints: the exponent-0 float bound eps + delta/(2*sqrt(base))
    stays below ulp/2, for ulp = un/ud and eps = E/d (un*d - 2*E*ud)/ud >
    1/sqrt(base), decided by one _sqrt_sign call on integers; eps divides
    stp; the mix_sqr iteration-budget precondition holds.  ulp is an int
    or a Fraction, else DomainError.  NoFeasibleEps when none is left.
    """
    profile.validate()
    un, ud = _rational_parts(ulp=ulp)
    if un <= 0:
        raise DomainError(f"ulp must be positive, got {_rat_text(ulp)}")
    _check_table_config(profile.fix, stp, "derive_eps_for_ulp")
    base, d = profile.base, profile.fix.delta_den
    # eps >= ulp/2 fails the margin, as c2*sqrt(base) > 0
    for count in _divisors_below(stp.count, -(-un * d // (2 * ud))):
        # (un*d - 2*E*ud)*base/ud > sqrt(base); a negative side reads -1
        if _sqrt_sign((un * d - 2 * count * ud) * base, ud, base, 1) > 0 \
                and count >= _mix_eps_floor(_least_count(stp.count, count)):
            return FixVal(count, profile.fix)
    raise NoFeasibleEps(f"no grid accuracy below ulp/2 = "
                        f"{_rat_text(_lowest_terms(un, 2 * ud))} with step "
                        f"{stp} on a {profile.fix.delta} grid")
