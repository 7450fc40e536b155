"""Exception type of every single violated precondition of the grid
algorithms, the table constructor and builder and the accuracy
derivation.

Each case breaks one precondition of an otherwise valid call on the demo
profile; the one deliberate exception is mix_sqr with both an illegal
step and an accuracy small enough for EpsTooSmall, which pins that the
step is checked first.  MULTI_VIOLATION_CASES break two at once and pin
the type and message of the first in the order the grid algorithms state
their preconditions.  PUBLIC_REFUSALS pin the type and message of the
public refusals outside the grid algorithms, and the WRONG_KINDS cases
those of an exponent, a profile field or a grid verdict input of the
wrong kind; a float mantissa and a value_of argument of another kind
are named too.
"""
import dataclasses
from decimal import Decimal
from fractions import Fraction as F

import pytest

from certisqrt.errors import (
    DomainError,
    EpsTooSmall,
    ExponentRange,
    IterationBudgetError,
    NoFeasibleEps,
    ProfileMismatch,
    ResourceLimit,
    UsageError,
)
from certisqrt.exact import sqrt_abs_err_lt, sqrt_enclosure
from certisqrt.fixarith import (FixProfile, FixVal, fix_add, fix_div,
                                require_same_grid)
from certisqrt.floatmodel import FloatProfile, FloatVal, compose, value_of
from certisqrt.lut import RootTable, build_root_table, round_up_to_step, sup_fn
from certisqrt.newton import (
    derive_eps_for_ulp,
    fix_bound,
    fix_sqr,
    float_bound,
    flt_sqr,
    fsqr_exact,
    isqr_exact,
    min_iterations_for_step,
    min_legal_iterations,
    mix_sqr,
    sqr_exact,
)
from certisqrt.verify import iteration_cap, sqrt_verdict

DEMO = FixProfile(100, 1600, 1600)
MICRO = FixProfile(10, 40, 40)
FLOAT = FloatProfile(2, DEMO, F(65536), F(65536))
TABLE = build_root_table(DEMO, DEMO.val(25))
MICRO_TABLE = build_root_table(MICRO, MICRO.val(8))
# a grid whose step is not below 1/2
COARSE = FixProfile(2, 40, 40)


def coarse_table():
    """A table on COARSE: making it raises, so a request on that grid
    fails before it reaches the algorithm."""
    return RootTable(COARSE, FixVal(4, COARSE), (0,) * 10)


def _made(table):
    return table() if callable(table) else table


Y, EPS = DEMO.val(300), DEMO.val(25)

FIX_CASES = {
    "eps-other-grid": (Y, MICRO.val(8), TABLE, 2, ProfileMismatch),
    "table-other-grid": (Y, EPS, MICRO_TABLE, 2, ProfileMismatch),
    "invalid-profile": (FixVal(5, COARSE), FixVal(4, COARSE), coarse_table,
                        2, DomainError),
    "y-at-most-one": (DEMO.val(100), EPS, TABLE, 2, DomainError),
    "y-above-half-sup": (DEMO.val(801), EPS, TABLE, 2, DomainError),
    "eps-zero": (Y, DEMO.val(0), TABLE, 2, DomainError),
    "step-not-multiple-of-eps": (Y, DEMO.val(10), TABLE, 3, DomainError),
    "n-below-minimum": (Y, EPS, TABLE, 0, IterationBudgetError),
}

MIX_CASES = {
    "eps-other-grid": (Y, MICRO.val(8), TABLE, ProfileMismatch),
    "table-other-grid": (Y, EPS, MICRO_TABLE, ProfileMismatch),
    "invalid-profile": (FixVal(5, COARSE), FixVal(4, COARSE), coarse_table,
                        DomainError),
    "eps-zero": (Y, DEMO.val(0), TABLE, DomainError),
    "step-not-multiple-of-eps": (Y, DEMO.val(10), TABLE, DomainError),
    "eps-too-small": (Y, DEMO.val(5), TABLE, EpsTooSmall),
    "illegal-step-and-eps-too-small": (Y, DEMO.val(2), TABLE, DomainError),
    "y-at-most-one": (DEMO.val(100), EPS, TABLE, DomainError),
    "y-above-half-sup": (DEMO.val(801), EPS, TABLE, DomainError),
}

A = FloatVal(DEMO.val(300), 2, 2)

FLT_CASES = {
    "invalid-float-profile": (A, EPS, FloatProfile(1, DEMO, F(65536),
                                                   F(65536)), TABLE,
                              DomainError),
    "eps-other-grid": (A, MICRO.val(8), FLOAT, TABLE, ProfileMismatch),
    "table-other-grid": (A, EPS, FLOAT, MICRO_TABLE, ProfileMismatch),
    "input-other-grid": (FloatVal(MICRO.val(30), 2, 2), EPS, FLOAT, TABLE,
                         ProfileMismatch),
    "input-other-base": (FloatVal(DEMO.val(300), 2, 3), EPS, FLOAT, TABLE,
                         ProfileMismatch),
    "step-not-multiple-of-eps": (A, DEMO.val(10), FLOAT, TABLE, DomainError),
    "eps-too-small": (A, DEMO.val(5), FLOAT, TABLE, EpsTooSmall),
    "result-exponent-above-max": (FloatVal(DEMO.val(300), 40, 2), EPS,
                                  FLOAT, TABLE, ExponentRange),
}

# a table with an illegal configuration cannot be made, so no request
# can receive one
TABLE_CASES = {
    "invalid-profile": (COARSE, FixVal(4, COARSE), (0,) * 10, DomainError),
    "step-other-grid": (DEMO, MICRO.val(8), TABLE.roots, ProfileMismatch),
    "step-zero": (DEMO, DEMO.val(0), TABLE.roots, DomainError),
    "step-negative": (DEMO, DEMO.val(-25), TABLE.roots, DomainError),
    "step-not-dividing-sup": (DEMO, DEMO.val(30), TABLE.roots, DomainError),
    "step-one-unit": (DEMO, DEMO.val(1), TABLE.roots, DomainError),
    "one-root-short": (DEMO, DEMO.val(25), TABLE.roots[:-1], DomainError),
    "one-root-over": (DEMO, DEMO.val(25), TABLE.roots + (401,), DomainError),
}

BUILD_CASES = {
    "invalid-profile": (COARSE, FixVal(4, COARSE), None, DomainError),
    "step-other-grid": (DEMO, MICRO.val(8), None, ProfileMismatch),
    "step-zero": (DEMO, DEMO.val(0), None, DomainError),
    "step-negative": (DEMO, DEMO.val(-25), None, DomainError),
    "step-not-dividing-sup": (DEMO, DEMO.val(30), None, DomainError),
    "step-one-unit": (DEMO, DEMO.val(1), None, DomainError),
    "over-size-cap": (DEMO, DEMO.val(25), 10, ResourceLimit),
}

DERIVE_CASES = {
    "invalid-float-profile": (F(1), FloatProfile(1, DEMO, F(65536),
                                                 F(65536)),
                              DEMO.val(25), DomainError),
    "ulp-zero": (F(0), FLOAT, DEMO.val(25), DomainError),
    "step-other-grid": (F(1), FLOAT, MICRO.val(8), ProfileMismatch),
    "step-not-dividing-sup": (F(1), FLOAT, DEMO.val(30), DomainError),
    "step-one-unit": (F(1), FLOAT, DEMO.val(1), DomainError),
    "no-feasible-eps": (F(1, 10 ** 6), FLOAT, DEMO.val(25), NoFeasibleEps),
    # an ulp that is no int or Fraction, refused by name
    "ulp-float": (0.5, FLOAT, DEMO.val(25), DomainError),
    "ulp-text": ("1/2", FLOAT, DEMO.val(25), DomainError),
}


@pytest.mark.parametrize("y,eps,table,n,error", FIX_CASES.values(),
                         ids=FIX_CASES.keys())
def test_fix_sqr(y, eps, table, n, error):
    with pytest.raises(error):
        fix_sqr(y, eps, _made(table), n)


@pytest.mark.parametrize("y,eps,table,error", MIX_CASES.values(),
                         ids=MIX_CASES.keys())
def test_mix_sqr(y, eps, table, error):
    with pytest.raises(error):
        mix_sqr(y, eps, _made(table))


@pytest.mark.parametrize("a,eps,profile,table,error", FLT_CASES.values(),
                         ids=FLT_CASES.keys())
def test_flt_sqr(a, eps, profile, table, error):
    with pytest.raises(error):
        flt_sqr(a, eps, profile, table)


@pytest.mark.parametrize("profile,stp,roots,error", TABLE_CASES.values(),
                         ids=TABLE_CASES.keys())
def test_root_table(profile, stp, roots, error):
    with pytest.raises(error):
        RootTable(profile, stp, roots)


@pytest.mark.parametrize("profile,stp,cap,error", BUILD_CASES.values(),
                         ids=BUILD_CASES.keys())
def test_build_root_table(profile, stp, cap, error, monkeypatch):
    if cap is not None:
        monkeypatch.setenv("CERTISQRT_MAX_TABLE", str(cap))
    with pytest.raises(error):
        build_root_table(profile, stp)


@pytest.mark.parametrize("ulp,profile,stp,error", DERIVE_CASES.values(),
                         ids=DERIVE_CASES.keys())
def test_derive_eps_for_ulp(ulp, profile, stp, error):
    with pytest.raises(error):
        derive_eps_for_ulp(ulp, profile, stp)


def test_derive_eps_for_ulp_int_ulp():
    """An int ulp is taken as the exact runs take one."""
    for ulp in (1, 2):
        assert derive_eps_for_ulp(ulp, FLOAT, DEMO.val(25)) == \
            derive_eps_for_ulp(F(ulp), FLOAT, DEMO.val(25))


def test_valid_baselines(monkeypatch):
    """The calls the cases above break one precondition of all succeed."""
    monkeypatch.setenv("CERTISQRT_MAX_TABLE", "100")
    fix_sqr(Y, EPS, TABLE, 2)
    mix_sqr(Y, EPS, TABLE)
    flt_sqr(A, EPS, FLOAT, TABLE)
    RootTable(DEMO, DEMO.val(25), TABLE.roots)
    build_root_table(DEMO, DEMO.val(25))
    derive_eps_for_ulp(F(1), FLOAT, DEMO.val(25))


# every grid-match site, with the message it raised before the sites
# shared one test
MISMATCH_CASES = {
    "table-step": (lambda: RootTable(DEMO, MICRO.val(8), TABLE.roots),
                   "step value belongs to a different grid"),
    "round-up-step": (lambda: round_up_to_step(Y, MICRO.val(8)),
                      "step value belongs to a different grid"),
    "seed-table": (lambda: sup_fn(Y, MICRO_TABLE),
                   "table belongs to a different grid"),
    "min-iterations": (lambda: min_iterations_for_step(EPS, MICRO.val(8)),
                       "step and accuracy from different grids"),
    "grid-eps": (lambda: mix_sqr(Y, MICRO.val(8), TABLE),
                 "inputs belong to different grids"),
    "grid-table": (lambda: fix_sqr(Y, EPS, MICRO_TABLE, 2),
                   "inputs belong to different grids"),
    "float-eps": (lambda: flt_sqr(A, MICRO.val(8), FLOAT, TABLE),
                  "accuracy belongs to a different grid"),
    "float-table": (lambda: flt_sqr(A, EPS, FLOAT, MICRO_TABLE),
                    "table belongs to a different grid"),
    "float-input": (lambda: flt_sqr(FloatVal(MICRO.val(30), 2, 2), EPS,
                                    FLOAT, TABLE),
                    "input belongs to a different grid"),
    "compose": (lambda: compose(MICRO.val(30), 0, FLOAT),
                "mantissa belongs to a different grid"),
    "fix-add": (lambda: fix_add(Y, MICRO.val(30)),
                f"values from different grids: {DEMO} vs {MICRO}"),
    "fix-div": (lambda: fix_div(MICRO.val(30), Y),
                f"values from different grids: {MICRO} vs {DEMO}"),
}


@pytest.mark.parametrize("call,message", MISMATCH_CASES.values(),
                         ids=MISMATCH_CASES.keys())
def test_profile_mismatch_message(call, message):
    with pytest.raises(ProfileMismatch) as info:
        call()
    assert str(info.value) == message


def test_equal_profiles_match():
    """Two equal profiles that are distinct objects are one grid."""
    twin = FixProfile(100, 1600, 1600)
    assert twin is not DEMO
    assert fix_add(Y, twin.val(30)).count == 330
    assert mix_sqr(twin.val(300), EPS, TABLE)[0].count == 173


# the messages of flt_sqr's eps and table checks and _require_profile's
FLOAT_GRID_CHECKS = {"accuracy belongs to a different grid",
                     "table belongs to a different grid",
                     "input belongs to a different grid"}


def test_same_grid_float_request_checks_each_grid_once(monkeypatch):
    """flt_sqr's eps and table checks and _require_profile settle a
    request on the profile's own grid by identity, as _grid_newton's do:
    none calls require_same_grid, which a float request once called four
    to five times.  On an equal grid that is another object each calls
    it, and the request passes."""
    from certisqrt import floatmodel, newton
    messages = []

    def counted(a, b, message):
        messages.append(message)
        require_same_grid(a, b, message)

    monkeypatch.setattr(newton, "require_same_grid", counted)
    monkeypatch.setattr(floatmodel, "require_same_grid", counted)
    for a in (A, FloatVal(DEMO.val(150), 3, 2)):
        flt_sqr(a, EPS, FLOAT, TABLE)
    assert not FLOAT_GRID_CHECKS & set(messages)
    twin = FixProfile(100, 1600, 1600)
    flt_sqr(FloatVal(twin.val(300), 2, 2), twin.val(25), FLOAT,
            build_root_table(twin, twin.val(25)))
    assert FLOAT_GRID_CHECKS <= set(messages)


# two preconditions broken at once: the request reports the first one in
# the order grid match, eps > 0, step.multiple-of-eps, EpsTooSmall (mix and
# flt), y > 1, y <= sup/2, n an integer and n >= n_min (fix)
MULTI_VIOLATION_CASES = {
    "fix-grid-and-eps-zero": (
        lambda: fix_sqr(Y, MICRO.val(0), TABLE, 2),
        ProfileMismatch, "inputs belong to different grids"),
    "fix-table-grid-and-eps-zero": (
        lambda: fix_sqr(Y, DEMO.val(0), MICRO_TABLE, 2),
        ProfileMismatch, "inputs belong to different grids"),
    "mix-grid-and-eps-negative": (
        lambda: mix_sqr(Y, MICRO.val(-8), TABLE),
        ProfileMismatch, "inputs belong to different grids"),
    "fix-eps-zero-and-n-below-minimum": (
        lambda: fix_sqr(Y, DEMO.val(0), TABLE, 0),
        DomainError, "accuracy must be positive, got 0/100"),
    "fix-step-and-y-at-most-one": (
        lambda: fix_sqr(DEMO.val(100), DEMO.val(10), TABLE, 3),
        DomainError, "step configuration invalid: step.multiple-of-eps"),
    "mix-step-and-y-at-most-one": (
        lambda: mix_sqr(DEMO.val(100), DEMO.val(10), TABLE),
        DomainError, "step configuration invalid: step.multiple-of-eps"),
    "mix-eps-too-small-and-y-above-half-sup": (
        lambda: mix_sqr(DEMO.val(801), DEMO.val(5), TABLE),
        EpsTooSmall,
        "eps=5/100 below 2*delta*(2 + ceil(log2(stp/eps))) = 1/10"),
    "fix-n-below-minimum-and-y-at-most-one": (
        lambda: fix_sqr(DEMO.val(100), EPS, TABLE, 0),
        DomainError, "fix_sqr requires y > 1, got 100/100"),
    "fix-n-below-minimum-and-y-above-half-sup": (
        lambda: fix_sqr(DEMO.val(801), EPS, TABLE, 0),
        DomainError, "fix_sqr requires y <= 16/2 so the loop's x + x "
                     "stays in range, got 801/100"),
    # a count that is no integer is refused just before n >= n_min
    "fix-n-none-and-y-at-most-one": (
        lambda: fix_sqr(DEMO.val(100), EPS, TABLE, None),
        DomainError, "fix_sqr requires y > 1, got 100/100"),
    "fix-n-none": (
        lambda: fix_sqr(Y, EPS, TABLE, None),
        DomainError, "iteration count must be an integer, got None"),
    "fix-n-float": (
        lambda: fix_sqr(Y, EPS, TABLE, 3.0),
        DomainError, "iteration count must be an integer, got 3.0"),
    # fsqr_exact states y > 1, eps > 0, n an integer, n >= 0, the seed
    "fsqr-n-none-and-eps-zero": (
        lambda: fsqr_exact(F(3), F(0), F(2), None),
        DomainError, "accuracy must be positive, got 0"),
    "fsqr-n-none-and-seed": (
        lambda: fsqr_exact(F(3), F(1, 4), F(1), None),
        DomainError, "iteration count must be an integer, got None"),
    "fsqr-n-none": (
        lambda: fsqr_exact(F(3), F(1, 4), F(2), None),
        DomainError, "iteration count must be an integer, got None"),
    # the exact variants refuse a y, eps or seed that is no int or
    # Fraction before any other rule
    "sqr-eps-float": (
        lambda: sqr_exact(F(3), 0.25),
        DomainError, "eps must be an int or a Fraction, got 0.25"),
    "sqr-y-none-and-eps-float": (
        lambda: sqr_exact(None, 0.25),
        DomainError, "y must be an int or a Fraction, got None"),
    "isqr-seed-float": (
        lambda: isqr_exact(F(3), F(1, 4), 1.75),
        DomainError, "seed must be an int or a Fraction, got 1.75"),
    "isqr-seed-none-and-y-at-most-one": (
        lambda: isqr_exact(F(1), F(1, 4), None),
        DomainError, "seed must be an int or a Fraction, got None"),
    "fsqr-seed-float": (
        lambda: fsqr_exact(F(3), F(1, 4), 1.75, 3),
        DomainError, "seed must be an int or a Fraction, got 1.75"),
    "fsqr-seed-none-and-eps-zero": (
        lambda: fsqr_exact(F(3), F(0), None, 3),
        DomainError, "seed must be an int or a Fraction, got None"),
    "min-legal-eps-float": (
        lambda: min_legal_iterations(F(3), 0.25, F(3)),
        DomainError, "eps must be an int or a Fraction, got 0.25"),
    "min-legal-seed-none": (
        lambda: min_legal_iterations(F(3), F(1, 4), None),
        DomainError, "seed_value must be an int or a Fraction, got None"),
    "flt-eps-grid-and-eps-zero": (
        lambda: flt_sqr(A, MICRO.val(0), FLOAT, TABLE),
        ProfileMismatch, "accuracy belongs to a different grid"),
    "flt-table-grid-and-eps-zero": (
        lambda: flt_sqr(A, DEMO.val(0), FLOAT, MICRO_TABLE),
        ProfileMismatch, "table belongs to a different grid"),
    "flt-input-grid-and-base": (
        lambda: flt_sqr(FloatVal(MICRO.val(30), 2, 3), EPS, FLOAT, TABLE),
        ProfileMismatch, "input belongs to a different grid"),
    "flt-base-and-y-at-most-one": (
        lambda: flt_sqr(FloatVal(DEMO.val(100), 0, 3), EPS, FLOAT, TABLE),
        ProfileMismatch, "input base 3 differs from the profile base 2"),
    "flt-eps-zero-and-y-at-most-one": (
        lambda: flt_sqr(FloatVal(DEMO.val(100), 0, 2), DEMO.val(0), FLOAT,
                        TABLE),
        DomainError, "accuracy must be positive, got 0/100"),
    "flt-step-and-y-at-most-one": (
        lambda: flt_sqr(FloatVal(DEMO.val(100), 0, 2), DEMO.val(10), FLOAT,
                        TABLE),
        DomainError, "step configuration invalid: step.multiple-of-eps"),
    "flt-eps-too-small-and-y-above-half-sup": (
        lambda: flt_sqr(FloatVal(DEMO.val(500), 1, 2), DEMO.val(5), FLOAT,
                        TABLE),
        EpsTooSmall,
        "eps=5/100 below 2*delta*(2 + ceil(log2(stp/eps))) = 1/10"),
    "flt-y-at-most-one": (
        lambda: flt_sqr(FloatVal(DEMO.val(100), 0, 2), EPS, FLOAT, TABLE),
        DomainError, "flt_sqr requires y > 1, got 100/100"),
    "flt-y-above-half-sup": (
        lambda: flt_sqr(FloatVal(DEMO.val(500), 1, 2), EPS, FLOAT, TABLE),
        DomainError, "flt_sqr requires y <= 16/2 so the loop's x + x "
                     "stays in range, got 1000/100"),
    "seed-grid-and-u-at-most-one": (
        lambda: sup_fn(MICRO.val(5), TABLE),
        ProfileMismatch, "table belongs to a different grid"),
    "seed-u-at-most-one": (
        lambda: sup_fn(DEMO.val(100), TABLE),
        DomainError, "seed function requires 1 < u <= 16, got 100/100"),
    "seed-u-negative": (
        lambda: sup_fn(DEMO.val(-3), TABLE),
        DomainError, "seed function requires 1 < u <= 16, got -3/100"),
    "seed-u-above-sup": (
        lambda: sup_fn(FixVal(1601, DEMO), TABLE),
        DomainError, "seed function requires 1 < u <= 16, got 1601/100"),
}


@pytest.mark.parametrize("call,error,message",
                         MULTI_VIOLATION_CASES.values(),
                         ids=MULTI_VIOLATION_CASES.keys())
def test_first_violation_reported(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


# each breaks one precondition of a public function, at its boundary
PUBLIC_REFUSALS = {
    "enclosure-precision": (lambda: sqrt_enclosure(F(2), -1),
                            "precision must be >= 0, got -1"),
    "abs-err-m-zero": (lambda: sqrt_abs_err_lt(F(1), F(2), F(1), F(1), F(0)),
                       "sqrt_abs_err_lt requires m > 0, got 0"),
    "abs-err-m-negative": (
        lambda: sqrt_abs_err_lt(F(1), F(2), F(1), F(1), F(-3, 2)),
        "sqrt_abs_err_lt requires m > 0, got -3/2"),
    "root-at-below": (lambda: TABLE.root_at(TABLE.k_min - 1),
                      "table index 4 outside [5, 64]"),
    "root-at-above": (lambda: TABLE.root_at(TABLE.k_max + 1),
                      "table index 65 outside [5, 64]"),
    "legal-iterations-eps-zero": (
        lambda: min_legal_iterations(F(2), F(0), F(2)),
        "accuracy must be positive, got 0"),
    "legal-iterations-eps-negative": (
        lambda: min_legal_iterations(F(2), F(-1, 3), F(2)),
        "accuracy must be positive, got -1/3"),
    "iteration-cap-y-one": (lambda: iteration_cap(F(1), F(1, 10)),
                            "iteration cap defined for y > 1, got 1"),
    "iteration-cap-y-below-one": (lambda: iteration_cap(F(1, 2), F(1, 10)),
                                  "iteration cap defined for y > 1, got 1/2"),
    # a base below 2 has no float model, and base**-h no positive
    # denominator at base 0 or below
    "float-bound-base-one": (lambda: float_bound(EPS, -3, 1),
                             "float_bound requires base >= 2, got 1"),
    "float-bound-base-zero": (lambda: float_bound(EPS, -3, 0),
                              "float_bound requires base >= 2, got 0"),
    "float-bound-base-negative": (lambda: float_bound(EPS, -3, -2),
                                  "float_bound requires base >= 2, got -2"),
    "derive-eps-ulp-float": (
        lambda: derive_eps_for_ulp(0.5, FLOAT, DEMO.val(25)),
        "ulp must be an int or a Fraction, got 0.5"),
    "derive-eps-ulp-text": (
        lambda: derive_eps_for_ulp("1/2", FLOAT, DEMO.val(25)),
        "ulp must be an int or a Fraction, got '1/2'"),
    # once a TypeError from the gcd of a float sum
    "fix-bound-n-float": (lambda: fix_bound(EPS, 1.5),
                          "iteration count must be an integer, got 1.5"),
    # once -3/40 and 27/200
    "fix-bound-n-negative": (lambda: fix_bound(EPS, -20),
                             "iteration count must be >= 0, got -20"),
    "fix-bound-n-bool": (lambda: fix_bound(EPS, True),
                         "iteration count must be an integer, got True"),
    # a value of another kind, once an AttributeError; a table load runs
    # build_root_table
    "build-root-table-stp-int": (
        lambda: build_root_table(DEMO, 25),
        "build_root_table takes a FixVal stp, got 25", UsageError),
    "sup-fn-u-int": (lambda: sup_fn(3, TABLE),
                     "sup_fn takes a FixVal u, got 3", UsageError),
}


@pytest.mark.parametrize("case", PUBLIC_REFUSALS.values(),
                         ids=PUBLIC_REFUSALS.keys())
def test_public_refusal(case):
    """Each case is (call, message), refused with DomainError, or (call,
    message, error)."""
    call, message, error = (*case, DomainError)[:3]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_public_refusal_baselines():
    """The calls next to each boundary above succeed."""
    assert sqrt_enclosure(F(4), 0).lo == 2
    assert sqrt_abs_err_lt(F(3, 2), F(2), F(1, 10), F(0), F(1, 10**9))
    assert TABLE.root_at(TABLE.k_min) == DEMO.val(112)
    assert TABLE.root_at(TABLE.k_max) == DEMO.val(400)
    assert min_legal_iterations(F(2), F(1, 10**9), F(2)) > 0
    assert iteration_cap(F(101, 100), F(1, 10)) >= 0
    assert float_bound(EPS, -3, 2) == (F(1, 16), F(1, 1600))
    assert fix_bound(EPS, 2) == F(29, 200)
    assert fix_bound(EPS, 0) == F(1, 8)
    assert build_root_table(DEMO, DEMO.val(25)) == TABLE
    assert sup_fn(DEMO.val(300), TABLE) == DEMO.val(174)
    # an int exponent, and an int range bound, as a profile file has
    assert compose(DEMO.val(150), 3, FLOAT).exp == 3
    assert flt_sqr(FloatVal(DEMO.val(150), 3, 2), EPS, FLOAT, TABLE)[0].exp \
        == 1
    assert value_of(FloatVal(DEMO.val(150), -1, 2)) == F(3, 4)
    assert FloatProfile(2, DEMO, 65536, 65536).rule_checks == \
        FLOAT.rule_checks


# inputs of the wrong kind: each is refused, typed and by name, where it
# enters; a bool is no int here
WRONG_KINDS = [1.5, "2", None, Decimal("2"), True]


def _float(exp):
    return FloatVal(DEMO.val(150), exp, 2)


@pytest.mark.parametrize("exp", WRONG_KINDS, ids=repr)
@pytest.mark.parametrize("call", [
    lambda e: compose(DEMO.val(150), e, FLOAT),
    lambda e: flt_sqr(_float(e), EPS, FLOAT, TABLE),
    lambda e: value_of(_float(e)),
    lambda e: sqrt_verdict("float", A, _float(e), EPS, fprof=FLOAT),
    lambda e: sqrt_verdict("float", _float(e), A, EPS, fprof=FLOAT),
], ids=["compose", "flt-sqr", "value-of", "float-verdict-y",
        "float-verdict-x"])
def test_exponent_not_an_int(call, exp):
    """An exponent that is no int would give base**exp a float or a
    bool's power: flt_sqr once returned 173/100*2^0.0 for 1.5*2^1.5."""
    with pytest.raises(DomainError) as info:
        call(exp)
    assert str(info.value) == f"exponent must be an int, got {exp!r}"


@pytest.mark.parametrize("value", WRONG_KINDS, ids=repr)
@pytest.mark.parametrize("field", ["delta_den", "inf_count", "sup_count"])
def test_fix_profile_parameter_not_an_int(field, value):
    params = {"delta_den": 100, "inf_count": 1600, "sup_count": 1600}
    with pytest.raises(DomainError) as info:
        FixProfile(**{**params, field: value})
    assert str(info.value) == f"{field} must be an int, got {value!r}"


@pytest.mark.parametrize("value", [0.5, 0.0, False, Decimal("0.5"), F(1, 2)],
                         ids=repr)
def test_fix_profile_parameter_below_one_keeps_its_refusal(value):
    """A number below 1 of any kind is refused as before the int check."""
    with pytest.raises(DomainError,
                       match="^profile parameters must be positive integers$"):
        FixProfile(value, 1600, 1600)


@pytest.mark.parametrize("exp", [1e9, -1e9, Decimal(10**9)], ids=repr)
def test_exponent_out_of_range_keeps_its_refusal(exp):
    """An exponent number out of range is refused as before the int
    check."""
    with pytest.raises(ExponentRange) as info:
        compose(DEMO.val(150), exp, FLOAT)
    assert str(info.value) == f"exponent {exp} outside [-16, 16]"


@pytest.mark.parametrize("value", WRONG_KINDS[:4], ids=repr)
@pytest.mark.parametrize("field, message", [
    ("base", "base must be an int"),
    ("fix", "fix must be a FixProfile"),
    ("inf_f", "inf_f must be an int or a Fraction"),
    ("sup_f", "sup_f must be an int or a Fraction"),
])
def test_float_profile_field_of_another_kind(field, message, value):
    params = {"base": 2, "fix": DEMO, "inf_f": F(65536), "sup_f": F(65536)}
    with pytest.raises(DomainError) as info:
        FloatProfile(**{**params, field: value})
    assert str(info.value) == f"{message}, got {value!r}"


def test_float_profile_base_bool():
    with pytest.raises(DomainError, match="^base must be an int, got True$"):
        FloatProfile(True, DEMO, F(65536), F(65536))


@pytest.mark.parametrize("mode, kind", [("fix", "FixVal"), ("mix", "FixVal"),
                                        ("float", "FloatVal")])
@pytest.mark.parametrize("value", [F(3, 2), *WRONG_KINDS[:4]], ids=repr)
def test_grid_verdict_input_of_another_kind(mode, kind, value):
    """A fix, mix or float verdict names the kind its mode takes."""
    good = A if mode == "float" else Y
    for args, name in (((value, good, EPS), "x"), ((good, value, EPS), "y"),
                       ((good, good, value), "eps")):
        with pytest.raises(UsageError) as info:
            sqrt_verdict(mode, *args, n=2, fprof=FLOAT)
        want = "FixVal" if name == "eps" else kind
        assert str(info.value) == \
            f"a {mode} verdict takes a {want} {name}, got {value!r}"


@pytest.mark.parametrize("value", WRONG_KINDS, ids=repr)
def test_grid_count_not_an_int(value):
    """FixProfile.val once returned FixVal(count=1.5)."""
    with pytest.raises(DomainError) as info:
        DEMO.val(value)
    assert str(info.value) == f"count must be an int, got {value!r}"


# each grid run's parameters, and a valid call that puts a value in one
RUN_PARAMETERS = {
    "fix_sqr": ({"y": FixVal, "eps": FixVal, "table": RootTable},
                lambda y=Y, eps=EPS, table=TABLE: fix_sqr(y, eps, table, 2)),
    "mix_sqr": ({"y": FixVal, "eps": FixVal, "table": RootTable},
                lambda y=Y, eps=EPS, table=TABLE: mix_sqr(y, eps, table)),
    "flt_sqr": ({"a": FloatVal, "eps": FixVal, "profile": FloatProfile,
                 "table": RootTable},
                lambda a=A, eps=EPS, profile=FLOAT, table=TABLE:
                flt_sqr(a, eps, profile, table)),
}


OTHER_KINDS = [
    (run, name, value) for run, (kinds, _) in RUN_PARAMETERS.items()
    for name, kind in kinds.items()
    for value in (F(3), 0.25, None, Y, A, DEMO, TABLE)
    if not isinstance(value, kind)]


@pytest.mark.parametrize("run, name, value", OTHER_KINDS, ids=[
    f"{run}-{name}-{type(value).__name__}" for run, name, value in
    OTHER_KINDS])
def test_grid_run_input_of_another_kind(run, name, value):
    """A grid run names, typed, an input that is not the kind its
    signature takes, where it once raised AttributeError."""
    kinds, call = RUN_PARAMETERS[run]
    with pytest.raises(UsageError) as info:
        call(**{name: value})
    assert str(info.value) == \
        f"{run} takes a {kinds[name].__name__} {name}, got {value!r}"


@pytest.mark.parametrize("run, name, kind", [
    ("fix_sqr", "y", FixVal), ("mix_sqr", "eps", FixVal),
    ("flt_sqr", "a", FloatVal)])
def test_grid_run_input_without_its_fields(run, name, kind):
    """An input of the right kind whose fields were never set is no wrong
    kind: its AttributeError is not renamed."""
    with pytest.raises(AttributeError):
        RUN_PARAMETERS[run][1](**{name: object.__new__(kind)})


@pytest.mark.parametrize("man", [F(3), 3, 1.5, "150"], ids=repr)
@pytest.mark.parametrize("call", [
    lambda m: FloatVal(m, 1, 2),
    lambda m: dataclasses.replace(A, man=m)], ids=["FloatVal", "replace"])
def test_float_mantissa_of_another_kind(call, man):
    """FloatVal refuses a mantissa that is no FixVal where it is made, so
    no float run or verdict reads one: flt_sqr, and answer("float", ...),
    once raised AttributeError for FloatVal(Fraction(3), 1, 2)."""
    with pytest.raises(UsageError) as info:
        call(man)
    assert str(info.value) == f"FloatVal takes a FixVal mantissa, got {man!r}"


@pytest.mark.parametrize("value", [3, F(3), None, Y], ids=repr)
def test_value_of_another_kind(value):
    """value_of names a value that is no FloatVal, where it once raised
    AttributeError."""
    with pytest.raises(UsageError) as info:
        value_of(value)
    assert str(info.value) == f"value_of takes a FloatVal, got {value!r}"
