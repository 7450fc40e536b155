"""Fraction is a boundary type: the package parses into it, returns it,
prints it and builds it for witnesses, but decides nothing with its
operators.

The counting test patches Fraction's comparison, arithmetic and
conversion operators to record the package frame that calls each, then
runs the CLI command set on the demo profile and the library calls the
benchmark and the suites make.  Only cli._display, which renders a
bound as a float, may call one.
"""
from collections import Counter
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path
import sys

import pytest

import certisqrt
from certisqrt import cli
from certisqrt.errors import DomainError
from certisqrt.exact import (cmp_sqrt, sqrt_abs_err_lt, sqrt_enclosure,
                             within_of_sqrt)
from certisqrt.fixarith import FixProfile, quantize
from certisqrt.floatmodel import FloatVal, encode_rational
from certisqrt.lut import build_root_table
from certisqrt.newton import (derive_eps_for_ulp, flt_sqr,
                              min_legal_iterations, sqr_exact)
from certisqrt.verify import (adjust_runs, check_sqr_annotations,
                              iteration_cap, run_fsqr_suite, sample_rationals,
                              sqrt_verdict)

PACKAGE = Path(certisqrt.__file__).resolve().parent
FRACTIONS = sys.modules[F.__module__].__file__
OPERATORS = [
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__",
    "__rpow__", "__pos__", "__neg__", "__abs__",
    "__bool__", "__float__", "__complex__", "__int__", "__trunc__",
    "__floor__", "__ceil__", "__round__",
]


@pytest.fixture
def operator_calls(monkeypatch):
    """A Counter of "module.function:line" for each Fraction operator call
    made from a frame of the package, fractions.py's own frames skipped."""
    calls = Counter()

    def counting(original):
        def operator(*args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_code.co_filename == FRACTIONS:
                frame = frame.f_back
            path = Path(frame.f_code.co_filename).resolve()
            if path.parent == PACKAGE:
                calls[f"{path.stem}.{frame.f_code.co_name}:"
                      f"{frame.f_lineno}"] += 1
            return original(*args, **kwargs)
        return operator

    for name in OPERATORS:  # __float__ is numbers.Rational's
        if hasattr(F, name):
            monkeypatch.setattr(F, name, counting(getattr(F, name)))
    return calls


def test_patched_operators_are_counted(operator_calls):
    """The probe sees a decision the package makes on a Fraction."""
    assert cli._display(F(1, 3)) == "0.333333"
    assert [site.partition(":")[0] for site in operator_calls] == \
        ["cli._display"]
    assert sum(operator_calls.values()) == 2


def test_no_decision_on_fraction_operators(operator_calls, tmp_path,
                                           capsys, fixtures_dir):
    profile, table = str(fixtures_dir / "demo_profile.json"), \
        str(tmp_path / "table.json")
    commands = [
        ["table-build", profile, table],
        ["profile-check", profile],
        ["sqrt", profile, "--mode", "exact", "--value", "2", "--eps", "1/100"],
        ["sqrt", profile, "--mode", "exact", "--value", "2", "--ulp", "1"],
        ["sqrt", profile, table, "--mode", "fix", "--value", "3",
         "--eps", "1/4", "--n", "3"],
        ["sqrt", profile, table, "--mode", "mix", "--value", "3",
         "--ulp", "1"],
        ["sqrt", profile, table, "--mode", "float", "--value", "1000.5",
         "--eps", "1/4"],
        ["sqrt", profile, table, "--mode", "float", "--value", "1/1000",
         "--ulp", "1"],
        ["verify", profile, table, "--suite", "all", "--exhaustive"],
        ["verify", profile, table, "--suite", "all", "--samples", "50"],
        ["sweep", profile, str(tmp_path / "mw.csv"), "--kind", "more-worse"],
        ["sweep", profile, str(tmp_path / "bal.csv"), "--kind", "balance"],
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()

    fix, fprof, step = cli.load_profile(profile)
    for y, eps in sample_rationals(40, seed=1):
        x, trace = sqr_exact(y, eps)
        report = check_sqr_annotations(trace, y, eps)
        assert report.overall and report.to_json()
        assert iteration_cap(y, eps) >= 0
    built = build_root_table(fix, step.stp)
    ys = [fix.val(c) for c in range(101, 801, 50)]
    assert run_fsqr_suite(built, step.eps, ys).overall
    for y in ys:
        assert adjust_runs(y, step.eps, built, 4)[1].overall
    eps = derive_eps_for_ulp(F(1), fprof, step.stp)
    for exp in (-3, 0, 5):
        a = FloatVal(fix.val(150), exp, 2)
        b, _ = flt_sqr(a, eps, fprof, built)
        assert sqrt_verdict("float", b, a, eps, fprof=fprof).passed

    others = {site: n for site, n in operator_calls.items()
              if not site.startswith("cli._display:")}
    assert others == {}
    assert sum(operator_calls.values()) > 0


NON_RATIONALS = [1.5, "3/2", None, Decimal("1.5")]


@pytest.mark.parametrize("value", NON_RATIONALS, ids=repr)
@pytest.mark.parametrize("call, name", [
    (lambda v: cmp_sqrt(v, F(2)), "q"),
    (lambda v: cmp_sqrt(F(3, 2), v), "y"),
    (lambda v: within_of_sqrt(v, F(2), F(1, 10)), "q"),
    (lambda v: within_of_sqrt(F(3, 2), v, F(1, 10)), "y"),
    (lambda v: within_of_sqrt(F(3, 2), F(2), v), "bound"),
    (lambda v: sqrt_abs_err_lt(v, F(2), F(1), F(1), F(2)), "q"),
    (lambda v: sqrt_abs_err_lt(F(3, 2), F(2), F(1), v, F(2)), "c2"),
    (lambda v: sqrt_abs_err_lt(F(3, 2), F(2), F(1), F(1), v), "m"),
    (lambda v: sqrt_enclosure(v, 8), "y"),
    (lambda v: quantize(v, FixProfile(100, 1600, 1600)), "q"),
    (lambda v: sqrt_verdict("exact", v, F(2), F(1, 10)), "x"),
    (lambda v: sqrt_verdict("exact", F(3, 2), F(2), v), "eps"),
    (lambda v: iteration_cap(v, F(1, 10)), "y"),
    (lambda v: min_legal_iterations(F(2), F(1, 10), v), "seed_value"),
], ids=["cmp-q", "cmp-y", "within-q", "within-y", "within-bound",
        "abs-err-q", "abs-err-c2", "abs-err-m", "enclosure-y", "quantize-q",
        "verdict-x",
        "verdict-eps", "iteration-cap-y", "min-legal-seed"])
def test_non_rationals_refused_by_name(call, name, value):
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == \
        f"{name} must be an int or a Fraction, got {value!r}"


@pytest.mark.parametrize("value", NON_RATIONALS, ids=repr)
def test_encode_rational_refuses_by_name(value, demo_float_profile):
    with pytest.raises(DomainError) as info:
        encode_rational(value, demo_float_profile)
    assert str(info.value) == \
        f"q must be an int or a Fraction, got {value!r}"


def test_rational_api_takes_ints(demo_float_profile):
    """An int is a rational at every edge: the answers equal the
    Fraction's."""
    assert cmp_sqrt(2, 4) == cmp_sqrt(F(2), F(4)) == 0
    assert within_of_sqrt(1, 2, 1) and not within_of_sqrt(1, 2, 0)
    assert sqrt_abs_err_lt(1, 2, 1, 0, 1)
    assert sqrt_enclosure(4, 3).lo == 2
    assert sqrt_verdict("exact", 1, 2, 1).passed
    assert encode_rational(3, demo_float_profile) == \
        encode_rational(F(3), demo_float_profile)
