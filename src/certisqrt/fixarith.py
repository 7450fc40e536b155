"""Software model of a fix-point numeric grid.

Values are integer multiples of a step 1/d confined to [-inf, sup].
Addition, subtraction and comparison are exact (overflow excepted);
multiplication and division round to the nearest grid point, ties to the
even count, so the rounding error is at most half a grid step and zero
whenever the exact result is representable.
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
    num, den = x.count * profile.delta_den, y.count
    if den < 0:
        num, den = -num, -den
    # the exact quotient in counts is num/den, den > 0
    if not -profile.inf_count * den <= num <= profile.sup_count * den:
        raise RangeOverflow(f"{x} / {y} overflows the range")
    return FixVal(round_half_even(num, den), profile)


def _check_rounding_contract(profile: FixProfile, nx: int, ny: int,
                             check_div: bool) -> tuple[bool, dict]:
    """One (x, y) probe of the mul/div contracts; returns (ok, witness)."""
    d = profile.delta_den
    delta = profile.delta
    x, y = FixVal(nx, profile), FixVal(ny, profile)
    exact_mul = x.value * y.value
    if -profile.inf_value <= exact_mul <= profile.sup_value:
        got = fix_mul(x, y)
        err = abs(got.value - exact_mul)
        tie = (2 * (nx * ny % d)) == d
        on_grid = (nx * ny) % d == 0
        if err > delta / 2 or (on_grid and got.value != exact_mul) \
                or (not tie and not on_grid and err >= delta / 2):
            return False, {"op": "mul", "x": str(x), "y": str(y),
                           "result": str(got), "exact": exact_mul}
    if check_div and ny != 0:
        exact_div = Fraction(nx, ny)
        if -profile.inf_value <= exact_div <= profile.sup_value:
            got = fix_div(x, y)
            err = abs(got.value - exact_div)
            num, den = nx * d, abs(ny)
            tie = (2 * (num * (1 if ny > 0 else -1) % den)) == den
            on_grid = (nx * d) % ny == 0
            if err > delta / 2 or (on_grid and got.value != exact_div) \
                    or (not tie and not on_grid and err >= delta / 2):
                return False, {"op": "div", "x": str(x), "y": str(y),
                               "result": str(got), "exact": exact_div}
    return True, {}


def check_profile_assumptions(profile: FixProfile,
                              budget: int | str = 4096,
                              seed: int = 0) -> VerifyReport:
    """Check the grid assumptions every later correctness claim rests on.

    Structural rules are always checked; the arithmetic rounding contracts
    are probed either exhaustively (budget="exhaustive") or over a seeded
    deterministic sample of the given size.
    """
    add_ok, add_witness = True, {}
    contract_ok, contract_witness = True, {}
    if not profile.is_valid():
        add_witness = contract_witness = {"skipped":
                                          "structural assumptions failed"}
    else:
        if budget == "exhaustive":
            pairs = ((nx, ny)
                     for nx in range(-profile.inf_count, profile.sup_count + 1)
                     for ny in range(-profile.inf_count, profile.sup_count + 1))
            total = (profile.inf_count + profile.sup_count + 1) ** 2
        else:
            rng = random.Random(seed)
            total = int(budget)
            pairs = ((rng.randint(-profile.inf_count, profile.sup_count),
                      rng.randint(-profile.inf_count, profile.sup_count))
                     for _ in range(total))
        for nx, ny in pairs:
            if add_ok:
                for op, want in ((fix_add, nx + ny), (fix_sub, nx - ny)):
                    if profile.contains_count(want):
                        got = op(FixVal(nx, profile), FixVal(ny, profile))
                        if got.count != want:
                            add_ok = False
                            add_witness = {"x": nx, "y": ny, "got": got.count}
            if contract_ok:
                ok, witness = _check_rounding_contract(profile, nx, ny, True)
                if not ok:
                    contract_ok = False
                    contract_witness = witness
        add_witness = dict(add_witness, pairs=total)
        contract_witness = dict(contract_witness, pairs=total)
    checks = profile.rule_checks + (
        check("addition and subtraction exact", "fix.add-exact",
              add_ok, add_witness),
        check("multiply/divide correctly rounded", "fix.rounding-contract",
              contract_ok, contract_witness),
    )
    subject = f"fix-profile delta=1/{profile.delta_den} " \
              f"inf={profile.inf_value} sup={profile.sup_value}"
    return VerifyReport(subject, checks)
