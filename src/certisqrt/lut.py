"""Step configuration, the pre-computed root table, and the seed function.

The table stores, for every step multiple v in (1, sup], the least grid
value g with g**2 >= v, so g - step_of_grid < sqrt(v) <= g.  The seed of
the table-backed square-root algorithms is min(u, root[round_up(u)]),
which is sandwiched between sqrt(u) and u and lies within one table step
of sqrt(u).  A RootTable checks its configuration once, when it is made.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .errors import (
    DomainError,
    InternalInvariantError,
    RangeOverflow,
    ResourceLimit,
)
from .fixarith import FixProfile, FixVal, require_same_grid
from .report import VerifyReport, check, require

ENV_MAX_TABLE = "CERTISQRT_MAX_TABLE"
DEFAULT_MAX_TABLE = 1_000_000


@dataclass(frozen=True)
class StepConfig:
    """Table step and target accuracy, both grid values."""

    stp: FixVal
    eps: FixVal


@dataclass(frozen=True)
class RootTable:
    """Root counts for index values k*stp in (1, sup], k >= k_min; made
    only for a legal configuration.

    Construction checks the configuration and the entry count, not the
    roots.  build_root_table checks the configuration and the size cap,
    so a bad one is refused before any root is computed, then computes
    the roots by the upward walk, whose loop invariant is the root rule.
    The CLI's table file is loaded as that build, accepted when the
    file's roots equal it.  first_bad_root is the per-entry check for
    tables made any other way, a refused file's roots included.
    """

    profile: FixProfile
    stp: FixVal
    roots: tuple[int, ...]
    k_min: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        indices = _check_table_config(self.profile, self.stp)
        entries = indices.stop - indices.start  # len() fails past 2**63
        if len(self.roots) != entries:
            raise DomainError(f"table has {len(self.roots)} entries, "
                              f"expected {entries}")
        object.__setattr__(self, "k_min", indices.start)

    @property
    def k_max(self) -> int:
        return self.k_min + len(self.roots) - 1

    def __len__(self) -> int:
        return len(self.roots)

    def index_value(self, k: int) -> FixVal:
        return FixVal(k * self.stp.count, self.profile)

    def root_at(self, k: int) -> FixVal:
        if not self.k_min <= k <= self.k_max:
            raise DomainError(f"table index {k} outside "
                              f"[{self.k_min}, {self.k_max}]")
        return FixVal(self.roots[k - self.k_min], self.profile)


def validate_step(stp: FixVal, eps: FixVal) -> VerifyReport:
    """Report whether (stp, eps) is a legal step configuration; an eps
    off stp's grid is a ProfileMismatch.  With eps = stp it decides
    whether stp alone is a legal table step, since a positive step is a
    multiple of itself."""
    require_same_grid(stp.profile, eps.profile,
                      "step and accuracy from different grids")
    checks = (
        check("step positive", "step.positive",
              stp.count > 0, {"stp": str(stp)}),
        check("accuracy positive", "step.eps-positive",
              eps.count > 0, {"eps": str(eps)}),
        check("step is a multiple of the accuracy", "step.multiple-of-eps",
              eps.count > 0 and stp.count % eps.count == 0,
              {"stp": str(stp), "eps": str(eps)}),
        check("step divides the range bound", "step.divides-sup",
              stp.count > 0 and stp.profile.sup_count % stp.count == 0,
              {"stp": str(stp), "sup": stp.profile.sup_value}),
        check("step spans at least two grid units", "step.min-two-units",
              stp.count >= 2, {"stp_count": stp.count}),
    )
    return VerifyReport(f"step stp={stp} eps={eps}", checks)


def table_indices(profile: FixProfile, stp_count: int) -> range:
    """Indices k of the step multiples k*stp in (1, sup]."""
    if stp_count <= 0:
        raise DomainError(f"table step must be positive, got count "
                          f"{stp_count}")
    return range(profile.delta_den // stp_count + 1,
                 profile.sup_count // stp_count + 1)


def first_bad_root(table: RootTable) -> int | None:
    """Index of the first entry that is not an int (a bool is not) or not
    the least count g with g**2 >= k*stp*d, or None when every entry is.
    The one per-entry fault search: the table suite runs it, and a load
    on a file whose roots differ from the build."""
    scale = table.stp.count * table.profile.delta_den
    for k, g in enumerate(table.roots, table.k_min):
        target = k * scale
        if type(g) is not int or not g * g >= target > (g - 1) * (g - 1):
            return k
    return None


def _check_table_config(profile: FixProfile, stp: FixVal) -> range:
    """table_indices of stp, once the grid, profile and step rules pass."""
    require_same_grid(stp.profile, profile,
                      "step value belongs to a different grid")
    profile.validate()
    require("step configuration", validate_step(stp, stp).checks)
    return table_indices(profile, stp.count)


def _env_limit(name: str, default: int) -> int:
    """The integer cap set by environment variable `name`, else default."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise DomainError(f"{name} must be an integer, got {raw!r}") from exc


def _least_roots(profile: FixProfile, stp_count: int) -> tuple[int, ...]:
    """The least count g with g**2 >= t for each target t = k*stp*d, in
    index order, by one upward walk over the counts.

    The walk starts at g = isqrt(t - 1) + 1, the least root of its first
    target by the definition of isqrt.  For each later target the loop
    ``while sq < t: sq += 2*g + 1; g += 1`` keeps sq == g**2 and the
    invariant (g - 1)**2 < t <= g**2 on exit.  That invariant is the
    root rule, so every entry is proved as it is computed and needs no
    second check.  Targets are k*stp*d apart, so the loop takes at most
    eight steps a target once g >= stp*d/16, that is once t >=
    (stp*d/16)**2; the roots of the targets below that come from isqrt
    one by one, which keeps the cost linear in the entry count however
    coarse the step.
    """
    indices = table_indices(profile, stp_count)
    scale = stp_count * profile.delta_den
    # the first k with k*scale >= (scale/16)**2, within the indices
    walk_from = min(max(indices.start, -(-scale // 256)), indices.stop)
    roots = [math.isqrt(k * scale - 1) + 1
             for k in range(indices.start, walk_from)]
    first = walk_from * scale
    g = math.isqrt(first - 1) + 1
    sq = g * g
    append = roots.append
    for t in range(first, indices.stop * scale, scale):
        while sq < t:
            sq += 2 * g + 1
            g += 1
        append(g)
    return tuple(roots)


def build_root_table(profile: FixProfile, stp: FixVal) -> RootTable:
    """Pre-compute least-upper-root entries for every step multiple.

    For index value v = count_v/d the entry is ceil(sqrt(count_v*d)) in
    grid counts: the least count g with (g/d)**2 >= v, that is
    (g - 1)**2 < k*stp*d <= g**2.  _least_roots computes the entries on
    an upward walk whose loop invariant is exactly that rule, so the
    table needs no separate pass over its roots.
    """
    indices = _check_table_config(profile, stp)
    limit = _env_limit(ENV_MAX_TABLE, DEFAULT_MAX_TABLE)
    entries = indices.stop - indices.start  # len() fails past 2**63
    if entries > limit:
        raise ResourceLimit(f"table would need {entries} entries, "
                            f"cap {limit}")
    return RootTable(profile, stp, _least_roots(profile, stp.count))


def _round_up_count(count: int, stp_count: int, profile: FixProfile) -> int:
    """Least multiple of stp_count >= count, within the range bound."""
    up = -((-count) // stp_count) * stp_count
    if up > profile.sup_count:
        raise RangeOverflow(f"rounded value {up}/{profile.delta_den} "
                            f"exceeds the range bound")
    return up


def round_up_to_step(u: FixVal, stp: FixVal) -> FixVal:
    """Smallest step multiple >= u; defined for u > 1."""
    profile = u.profile
    require_same_grid(stp.profile, profile,
                      "step value belongs to a different grid")
    if u.count <= profile.delta_den:
        raise DomainError(f"round up to step requires u > 1, got {u}")
    return FixVal(_round_up_count(u.count, stp.count, profile), profile)


def _seed_count(u: int, table: RootTable) -> int:
    """sup_fn on the count u of a value on the table's grid; requires
    d < u <= sup, so k_min <= k <= k_max below."""
    profile, stp, d = table.profile, table.stp.count, table.profile.delta_den
    k = _round_up_count(u, stp, profile) // stp
    result = min(u, table.roots[k - table.k_min])
    # for r >= 0, sign(r/d - sqrt(u/d)) = sign(r*r - u*d); a negative r
    # is below the root
    ud = u * d
    if result < 0 or result * result < ud:
        raise InternalInvariantError(f"seed {result}/{d} fell below "
                                     f"sqrt({u}/{d})")
    low = result - stp
    if low > 0 and low * low > ud:
        raise InternalInvariantError(f"seed {result}/{d} more than one step "
                                     f"above sqrt({u}/{d})")
    return result


def sup_fn(u: FixVal, table: RootTable) -> FixVal:
    """Seed value min(u, root[round_up(u)]) for 1 < u <= sup.

    The result s satisfies sqrt(u) <= s <= u and s - sqrt(u) <= stp; both
    are re-asserted on every call, on grid counts by integer squarings.
    """
    require_same_grid(table.profile, u.profile,
                      "table belongs to a different grid")
    if not u.profile.delta_den < u.count <= u.profile.sup_count:
        raise DomainError(f"seed function requires 1 < u <= "
                          f"{u.profile.sup_value}, got {u}")
    return FixVal(_seed_count(u.count, table), u.profile)
