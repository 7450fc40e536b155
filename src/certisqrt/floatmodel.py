"""Software model of a floating-point type over the fix-point grid.

A positive value is an exact pair (mantissa, exponent) with value
mantissa * base**exponent; the mantissa is a grid value in the open
interval (1, sup/base) and the exponent an integer whose admissible range
depends on the grid bounds.  Zero is modeled; negative values are not.

Like a machine float, a value is worked on as integers: value_of builds
count*base**exponent/d in lowest terms from the integer parts with one
gcd, and encode_rational brackets the exponent by bit lengths before an
integer bisection and builds its value without compose's re-checks.  A
profile's exponent range, its base as a grid value and its validity are
each decided once, on first use.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    DomainError,
    ExponentRange,
    MantissaRange,
    ProfileMismatch,
    RangeOverflow,
    UsageError,
)
from .exact import _check_int, _lowest_terms, _rat_text, _rational_parts
from .fixarith import FixProfile, FixVal, require_same_grid, round_half_even
from .report import CheckResult, VerifyReport, check, require


@dataclass(frozen=True)
class FloatProfile:
    """Exponent base plus the underlying grid and outer range bounds;
    like FixProfile, it decides its rules once, on first use."""

    base: int
    fix: FixProfile
    inf_f: Fraction
    sup_f: Fraction

    def __post_init__(self) -> None:
        _check_int("base", self.base)
        if not isinstance(self.fix, FixProfile):
            raise DomainError(f"fix must be a FixProfile, got {self.fix!r}")
        _rational_parts(inf_f=self.inf_f, sup_f=self.sup_f)

    @cached_property
    def rule_checks(self) -> tuple[CheckResult, ...]:
        fix, base, d = self.fix, self.base, self.fix.delta_den
        return (
            check("underlying grid valid", "float.fix-valid",
                  fix.is_valid(), {}),
            check("base at least two", "float.base-min",
                  base >= 2, {"base": base}),
            check("base inside the grid integers", "float.base-in-grid",
                  base * d <= fix.sup_count,
                  {"base": base, "sup": fix.sup_value}),
            check("grid bound exceeds base squared",
                  "float.sup-over-base-squared",
                  fix.sup_count > base * base * d,
                  {"sup": fix.sup_value, "base_squared": base ** 2}),
            check("float range bounds above two", "float.range-min",
                  all(r.numerator > 2 * r.denominator
                      for r in (self.inf_f, self.sup_f)),
                  {"inf_f": self.inf_f, "sup_f": self.sup_f}),
        )

    @cached_property
    def _valid(self) -> bool:
        # a raised DomainError is not cached, so an invalid profile
        # raises on every read
        require("float profile", self.rule_checks)
        return True

    def validate(self) -> None:
        self._valid

    @cached_property
    def exp_min(self) -> int:
        """Smallest admissible exponent.

        When the grid's lower bound is an odd integer the bound is strict,
        which keeps exponent-parity adjustment (subtracting 1 from an odd
        exponent) inside the admissible range.
        """
        fix = self.fix
        inf_is_odd_integer = (fix.inf_count % fix.delta_den == 0
                              and (fix.inf_count // fix.delta_den) % 2 == 1)
        if inf_is_odd_integer:
            return -(fix.inf_count // fix.delta_den) + 1
        return -(fix.inf_count // fix.delta_den)

    @cached_property
    def exp_max(self) -> int:
        return self.fix.sup_count // self.fix.delta_den

    @cached_property
    def base_fix(self) -> FixVal:
        return self.fix.from_int(self.base)


@dataclass(frozen=True, slots=True, init=False)
class FloatVal:
    """Zero, or a positive (mantissa, exponent) pair with its base.

    Immutable, with no per-instance __dict__: the three fields are
    slots, and equality, hashing and repr follow them.  Like FixVal's,
    __init__ has the generated one's signature and defaults, refuses a
    mantissa that is no FixVal and an exponent that is no int, and stores
    each field through its slot's descriptor.
    """

    man: FixVal | None = None
    exp: int = 0
    base: int = 2

    def __init__(self, man: FixVal | None = None, exp: int = 0,
                 base: int = 2) -> None:
        if type(man) is not FixVal and man is not None:
            raise UsageError(f"FloatVal takes a FixVal mantissa, got {man!r}")
        if type(exp) is not int and man is not None:
            _check_int("exponent", exp)
        _set_man(self, man)
        _set_exp(self, exp)
        _set_base(self, base)

    @property
    def is_zero(self) -> bool:
        return self.man is None

    @staticmethod
    def zero() -> "FloatVal":
        return FloatVal(None, 0)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return f"{self.man}*{self.base}^{self.exp}"


# the setters of the three slots' descriptors, which bypass the frozen
# __setattr__; only FloatVal.__init__ calls them
_set_man = FloatVal.__dict__["man"].__set__
_set_exp = FloatVal.__dict__["exp"].__set__
_set_base = FloatVal.__dict__["base"].__set__


def _require_profile(a: FloatVal, profile: FloatProfile) -> None:
    """Refuse a positive value whose grid, then base, is not the
    profile's."""
    if a.is_zero:
        return
    if a.man.profile is not profile.fix:  # identity settles the usual case
        require_same_grid(a.man.profile, profile.fix,
                          "input belongs to a different grid")
    if a.base != profile.base:
        raise ProfileMismatch(f"input base {a.base} differs from the "
                              f"profile base {profile.base}")


def compose(man: FixVal, exp: int, profile: FloatProfile) -> FloatVal:
    """Couple a mantissa and an exponent into a positive value."""
    require_same_grid(man.profile, profile.fix,
                      "mantissa belongs to a different grid")
    d = profile.fix.delta_den
    if not (man.count > d and man.count * profile.base < profile.fix.sup_count):
        raise MantissaRange(
            f"mantissa {man} outside (1, "
            f"{profile.fix.sup_value}/{profile.base})")
    try:  # a number out of range keeps this refusal; FloatVal names the rest
        if not (profile.exp_min <= exp <= profile.exp_max):
            raise ExponentRange(f"exponent {exp} outside "
                                f"[{profile.exp_min}, {profile.exp_max}]")
    except TypeError:
        pass
    return FloatVal(man, exp, profile.base)


def value_of(a: FloatVal) -> Fraction:
    """Exact rational value: mantissa * base**exponent, or 0 for zero.

    The pair count*base**exponent/d is built from the integer parts and
    reduced by exact._lowest_terms.  Its denominator d*base**-exponent is
    positive only for base >= 1, so a smaller base with a negative
    exponent is refused, and a value of another kind is a UsageError.
    """
    try:
        if a.is_zero:
            return Fraction(0)
    except AttributeError:  # a value of another kind: named here
        raise UsageError(f"value_of takes a FloatVal, got {a!r}") from None
    num, den, base, e = a.man.count, a.man.profile.delta_den, a.base, a.exp
    if e >= 0:
        num *= base ** e
    elif base >= 1:
        den *= base ** -e
    else:
        raise DomainError(f"base {base} has no negative powers")
    return _lowest_terms(num, den)


def _exponent_below(num: int, den: int, base: int) -> tuple[int, int, int]:
    """(e, man_num, man_den) for the unique e with base**e < num/den <=
    base**(e+1), for num, den >= 1 and base >= 2, by bisection with
    integer comparisons; man_num/man_den is the mantissa num/den over
    base**e as an unreduced pair, and the search forms no power of base
    twice.

    The bisection starts from a bracket read off bit lengths.  With
    t = bitlen(num) - bitlen(den), 2**(t-1) < q < 2**(t+1) for q =
    num/den, since 2**(bitlen(n)-1) <= n < 2**bitlen(n).  With kl =
    bitlen(base) - 1 and ku = bitlen(base - 1), 2**kl <= base <= 2**ku,
    so 2**(kl*e) <= base**e <= 2**(ku*e) for e >= 0 and 2**(ku*e) <=
    base**e <= 2**(kl*e) for e < 0.  Hence base**lo <= 2**(t-1) < q for
    lo = floor((t-1)/ku) when t >= 1 and lo = floor((t-1)/kl) otherwise,
    and base**hi >= 2**(t+1) > q for hi = ceil((t+1)/kl) when t >= 0 and
    hi = ceil((t+1)/ku) otherwise.  For base 2 the bracket is [t-1, t+1]
    whatever t is; no host float is used, not even as an estimate.  A
    narrower bracket is widened to [hi-2, hi], so the bisection forms at
    least one mantissa, and the last one it forms is that of lo or of
    hi = lo + 1, which is base times smaller.
    """
    t = num.bit_length() - den.bit_length()
    kl, ku = base.bit_length() - 1, (base - 1).bit_length()
    hi = -(-(t + 1) // (kl if t >= 0 else ku))
    lo = min((t - 1) // (ku if t >= 1 else kl), hi - 2)
    while hi - lo > 1:
        e = (lo + hi) // 2
        if e >= 0:
            man_num, man_den = num, den * base ** e
        else:
            man_num, man_den = num * base ** -e, den
        if man_den < man_num:  # base**e < num/den
            lo = e
        else:
            hi = e
    if e == hi:
        man_num *= base
    return lo, man_num, man_den


def encode_rational(q: Fraction, profile: FloatProfile) -> tuple[FloatVal, bool]:
    """Normalize a non-negative rational into the model.

    Picks the unique exponent e with q/base**e in (1, base], quantizes the
    mantissa to the grid (nearest, nudged up if that collapses onto the
    excluded endpoint 1), and reports whether the encoding is exact.
    """
    profile.validate()
    try:
        num, den = q.numerator, q.denominator
    except AttributeError:  # no int or Fraction: the edge names it
        num, den = _rational_parts(q=q)
    if num < 0:
        raise DomainError(f"only non-negative values are modeled, "
                          f"got {_rat_text(q)}")
    if num == 0:
        return FloatVal.zero(), True
    base = profile.base
    # the exact mantissa q/base**e as the unreduced pair man_num/man_den
    e, man_num, man_den = _exponent_below(num, den, base)
    if e > profile.exp_max or e < profile.exp_min:
        raise RangeOverflow(f"{_rat_text(q)} needs exponent {e}, outside "
                            f"[{profile.exp_min}, {profile.exp_max}]")
    d = profile.fix.delta_den
    # nearest rounding can collapse onto the excluded endpoint 1 only
    # from (1, 1 + 1/(2d)], whose rounding up is the next grid point
    count = max(round_half_even(man_num * d, man_den), d + 1)
    # compose's checks hold: e is in range, the grid is the profile's, and
    # d < count <= base*d, so count*base <= base**2*d < sup_count
    encoded = FloatVal(FixVal(count, profile.fix), e, base)
    return encoded, count * man_den == man_num * d


def check_float_profile(profile: FloatProfile) -> VerifyReport:
    """Reportable version of the float-profile validity rules."""
    return VerifyReport(f"float-profile base={profile.base}",
                        profile.rule_checks)
