"""Software model of a fix-point numeric grid.

Values are integer multiples of a step 1/d confined to [-inf, sup].
Addition, subtraction and comparison are exact (overflow excepted);
multiplication and division round to the nearest grid point, ties to the
even count, so the rounding error is at most half a grid step and zero
whenever the exact result is representable.  fix_add and fix_div wrap
the count primitives _add_count and _div_count that the grid loop runs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import (
    DivisionByZero,
    DomainError,
    ProfileMismatch,
    RangeOverflow,
)
from .report import CheckResult, VerifyReport, check, require


@dataclass(frozen=True)
class FixProfile:
    """Grid parameters: step 1/delta_den on [-inf_count/d, sup_count/d].

    Construction only checks positivity so that deliberately broken
    profiles can still be fed to check_profile_assumptions; the grid
    assumptions are decided once, on first use, into rule_checks.
    """

    delta_den: int
    inf_count: int
    sup_count: int

    def __post_init__(self) -> None:
        if self.delta_den < 1 or self.inf_count < 1 or self.sup_count < 1:
            raise DomainError("profile parameters must be positive integers")

    @property
    def delta(self) -> Fraction:
        return Fraction(1, self.delta_den)

    @property
    def inf_value(self) -> Fraction:
        """Magnitude of the lower range bound."""
        return Fraction(self.inf_count, self.delta_den)

    @property
    def sup_value(self) -> Fraction:
        return Fraction(self.sup_count, self.delta_den)

    @cached_property
    def rule_checks(self) -> tuple[CheckResult, ...]:
        d = self.delta_den
        # every integer in range must be a grid point inside the count range
        int_lo = -(self.inf_count // d)
        int_hi = self.sup_count // d
        ints_ok = self.contains_count(int_lo * d) and \
            self.contains_count(int_hi * d)
        return (
            check("grid step below one half", "profile.delta-range",
                  d >= 3, {"delta": self.delta}),
            check("lower bound above two", "profile.inf-min",
                  self.inf_count > 2 * d, {"inf": self.inf_value}),
            check("upper bound above two", "profile.sup-min",
                  self.sup_count > 2 * d, {"sup": self.sup_value}),
            check("reciprocal step is a natural number", "profile.delta-unit",
                  d >= 1, {"delta_den": d}),
            check("integers in range are grid points",
                  "profile.integers-on-grid", ints_ok,
                  {"smallest": int_lo, "largest": int_hi}),
        )

    def is_valid(self) -> bool:
        return all(c.passed for c in self.rule_checks)

    def validate(self) -> None:
        require("grid profile", self.rule_checks)

    def contains_count(self, count: int) -> bool:
        return -self.inf_count <= count <= self.sup_count

    def val(self, count: int) -> "FixVal":
        if not self.contains_count(count):
            raise RangeOverflow(
                f"count {count} outside [-{self.inf_count}, {self.sup_count}]")
        return FixVal(count, self)

    def from_int(self, k: int) -> "FixVal":
        return self.val(k * self.delta_den)


@dataclass(frozen=True)
class FixVal:
    """One grid point: the real value count/delta_den."""

    count: int
    profile: FixProfile

    @property
    def value(self) -> Fraction:
        return Fraction(self.count, self.profile.delta_den)

    def __str__(self) -> str:
        # deliberately unreduced: count/delta_den names the grid point
        return f"{self.count}/{self.profile.delta_den}"


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
    d = profile.delta_den
    num = q.numerator * d
    den = q.denominator
    if mode == "nearest":
        count = round_half_even(num, den)
    elif mode == "up":
        count = -((-num) // den)
    elif mode == "down":
        count = num // den
    else:
        raise DomainError(f"unknown rounding mode {mode!r}")
    if not profile.contains_count(count):
        raise RangeOverflow(f"{q} quantizes to count {count}, outside range")
    return FixVal(count, profile)


def _add_count(nx: int, ny: int, profile: FixProfile) -> int:
    """Count of nx/d + ny/d: exact, or RangeOverflow outside the range."""
    count = nx + ny
    if not -profile.inf_count <= count <= profile.sup_count:
        d = profile.delta_den
        raise RangeOverflow(f"{nx}/{d} + {ny}/{d} overflows the range")
    return count


def fix_add(x: FixVal, y: FixVal) -> FixVal:
    return FixVal(_add_count(x.count, y.count, _same_profile(x, y)), x.profile)


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


def _div_count(nx: int, ny: int, profile: FixProfile) -> int:
    """Count of the correctly rounded quotient (nx/d) / (ny/d)."""
    d = profile.delta_den
    if ny == 0:
        raise DivisionByZero(f"{nx}/{d} / {ny}/{d}")
    # the exact quotient in counts is num/den, den > 0
    num, den = (nx * d, ny) if ny > 0 else (-nx * d, -ny)
    if not -profile.inf_count * den <= num <= profile.sup_count * den:
        raise RangeOverflow(f"{nx}/{d} / {ny}/{d} overflows the range")
    return round_half_even(num, den)


def fix_div(x: FixVal, y: FixVal) -> FixVal:
    """Correctly rounded quotient under the fix_mul contract."""
    return FixVal(_div_count(x.count, y.count, _same_profile(x, y)), x.profile)


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
