"""Every rule id the package can report, each held to a negative control.

The ids are read from the package source by ast: each string, or
f-string of a known field, given as the rule of a callable that takes
one (report.check, report.CheckResult and the verify helpers that pass
it on).  CONTROLS maps each id to a control: an input on which it fails,
or, for a rule that checks code rather than input, a seeded defect made
with monkeypatch.  A control names the exact set of rules it fails.  So
an id without a control, or a control whose rule cannot fail, fails
here.  Below the registry: README's rule table, and exhaustive sweeps of
the three rule implications README states.
"""
import ast
import dataclasses
import re
from fractions import Fraction as F
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import pytest

import certisqrt
from certisqrt import fixarith, lut, newton, verify
from certisqrt.errors import DomainError
from certisqrt.fixarith import FixProfile, FixVal, check_profile_assumptions
from certisqrt.floatmodel import FloatProfile, FloatVal, check_float_profile
from certisqrt.lut import build_root_table, validate_step
from certisqrt.newton import fsqr_exact, isqr_exact, sqr_exact
from certisqrt.report import CheckResult
from certisqrt.verify import (adjust_runs, check_fsqr_annotations,
                              check_sqr_annotations, check_table_properties,
                              run_adjust_suite, run_fsqr_suite, run_sqr_suite,
                              sqrt_verdict)

PACKAGE = Path(certisqrt.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"

# the one field of each f-string rule id, and the values it takes
FIELDS = {"family": ("sqr", "isqr"), "mode": ("exact", "fix", "mix", "float")}


def _rule_positions(trees: Iterable[ast.Module]) -> dict[str, int]:
    """Each function or dataclass with a rule parameter or field, and its
    position."""
    positions = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                names = [a.arg for a in node.args.args]
            elif isinstance(node, ast.ClassDef):
                names = [s.target.id for s in node.body
                         if isinstance(s, ast.AnnAssign)
                         and isinstance(s.target, ast.Name)]
            else:
                continue
            if "rule" in names:
                positions[node.name] = names.index("rule")
    return positions


def _assigned(name: str, scope: ast.AST) -> list[ast.expr]:
    """The values `scope` assigns to `name`, tuple unpacking included."""
    values = []
    for node in _own_nodes(scope):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == name:
                values.append(node.value)
            elif (isinstance(target, ast.Tuple)
                  and isinstance(node.value, ast.Tuple)):
                values += [v for t, v in zip(target.elts, node.value.elts)
                           if isinstance(t, ast.Name) and t.id == name]
    return values


def _texts(node: ast.expr, scope: ast.AST) -> list[str]:
    """The rule ids an argument can hold; [] for a parameter passed on."""
    where = f"line {node.lineno}: {ast.unparse(node)}"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        fields = [v for v in node.values if isinstance(v, ast.FormattedValue)]
        assert len(fields) == 1 and isinstance(fields[0].value, ast.Name) \
            and fields[0].value.id in FIELDS, f"unknown template at {where}"
        field = fields[0].value.id
        template = "".join(f"{{{field}}}" if v is fields[0] else v.value
                           for v in node.values)
        return [template.format(**{field: value}) for value in FIELDS[field]]
    if isinstance(node, ast.Name):
        if isinstance(scope, (ast.FunctionDef, ast.Lambda)) and \
                node.id in [a.arg for a in scope.args.args]:
            return []
        values = _assigned(node.id, scope)
        assert values, f"unresolved rule at {where}"
        return [t for v in values for t in _texts(v, scope)]
    raise AssertionError(f"rule neither a string nor a name at {where}")


def _own_nodes(scope: ast.AST) -> Iterable[ast.AST]:
    """The nodes of a module, function or lambda outside the functions
    and lambdas nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            yield node
            todo.extend(ast.iter_child_nodes(node))


@cache
def emitted_rule_ids() -> frozenset[str]:
    """Every rule id the package source can put in a report."""
    trees = [ast.parse(p.read_text(), str(p))
             for p in sorted(PACKAGE.glob("*.py"))]
    positions = _rule_positions(trees)
    ids = set()
    for scope in (n for t in trees for n in ast.walk(t)
                  if isinstance(n, (ast.Module, ast.FunctionDef,
                                    ast.Lambda))):
        for call in _own_nodes(scope):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name not in positions:
                continue
            args = [k.value for k in call.keywords if k.arg == "rule"]
            if len(call.args) > positions[name]:
                args.append(call.args[positions[name]])
            for arg in args:
                ids.update(_texts(arg, scope))
    return frozenset(ids)


# ---------------------------------------------------------------------------
# the controls
# ---------------------------------------------------------------------------

INPUT, DEFECT = "input", "seeded defect"
DEMO = FixProfile(100, 1600, 1600)  # 1/100 grid on [-16, 16]
RANGE = F(65536)


class Control(NamedTuple):
    kind: str  # INPUT or DEFECT
    fails: frozenset[str]  # exactly the rules the control fails
    checks: Callable[[pytest.MonkeyPatch], Iterable[CheckResult]]


@cache
def demo_table():
    return build_root_table(DEMO, DEMO.val(25))


def _input(checks, *fails: str) -> Control:
    return Control(INPUT, frozenset(fails), checks)


def _defect(checks, *fails: str) -> Control:
    return Control(DEFECT, frozenset(fails), checks)


def _profile(*counts: int):
    return lambda mp: check_profile_assumptions(FixProfile(*counts),
                                                budget=64).checks


def _float(base: int, fix: FixProfile = DEMO, inf_f: F = RANGE):
    return lambda mp: check_float_profile(
        FloatProfile(base, fix, inf_f, RANGE)).checks


def _step(stp_count: int, eps_count: int):
    return lambda mp: validate_step(DEMO.val(stp_count),
                                    DEMO.val(eps_count)).checks


# sqr_exact(2, 1/100) has three iterates and three passes, isqr_exact(3,
# 1/10**6, 2) four and four; with the record's eps raised to 1, each
# applied more passes than the cap allows
UNTIL_LOOPS = {"sqr": lambda: sqr_exact(F(2), F(1, 100)),
               "isqr": lambda: isqr_exact(F(3), F(1, 10 ** 6), F(2))}
TAMPERS = {
    # iterate 1 at 1, below the root
    "loop-invariant": lambda t: t._replace(
        pairs=(t.pairs[0], (1, 1), *t.pairs[2:])),
    # correction 1 equal to correction 0
    "halving": lambda t: t._replace(
        corrections=t.corrections[:1] * 2 + t.corrections[2:]),
    # the result replaced by the seed, inside [sqrt(y), seed]
    "final-error": lambda t: t._replace(pairs=(*t.pairs[:-1], t.pairs[0])),
    "iteration-cap": lambda t: t._replace(eps=(1, 1)),
}


def _until_loop(family: str, rule: str):
    def checks(mp):
        _, trace = UNTIL_LOOPS[family]()
        bad = TAMPERS[rule](trace)
        return check_sqr_annotations(bad, F(*bad.y), F(*bad.eps)).checks
    return checks


# (k, x) for the record of fsqr_exact(3, 1/10, 3, 5) with iterate k
# replaced by x
FSQR_TAMPERS = {
    # the iterate after two passes raised back to the seed
    "progress": (2, (3, 1)),
    # the result moved to 1, below the root, which keeps the progress bound
    "final-error": (-1, (1, 1)),
}


def fsqr_tampered(rule: str):
    _, trace = fsqr_exact(F(3), F(1, 10), F(3), 5)
    k, x = FSQR_TAMPERS[rule]
    pairs = list(trace.pairs)
    pairs[k] = x
    return trace._replace(pairs=tuple(pairs))


def _fsqr(rule: str):
    def checks(mp):
        bad = fsqr_tampered(rule)
        return check_fsqr_annotations(bad, F(*bad.y), F(*bad.eps)).checks
    return checks


def _sqrt(mode: str):
    """The result 2 for sqrt(2), 0.58 from the root."""
    def checks(mp):
        two, eps = DEMO.val(200), DEMO.val(25)
        if mode == "exact":
            return [sqrt_verdict(mode, F(2), F(2), F(1, 100))]
        if mode == "float":
            y = FloatVal(two, 0, 2)
            return [sqrt_verdict(mode, y, y, eps,
                                 fprof=FloatProfile(2, DEMO, RANGE, RANGE))]
        return [sqrt_verdict(mode, two, two, eps, n=1)]
    return checks


def _table(roots=lambda roots: roots):
    def checks(mp):
        table = demo_table()
        table = dataclasses.replace(table, roots=roots(table.roots))
        return check_table_properties(table, DEMO.val(25)).checks
    return checks


def _floored(mp):
    mp.setattr(fixarith, "round_half_even", lambda num, den: num // den)


def _tight_fix_bound(mp):
    mp.setattr(verify, "fix_bound", lambda eps, n: F(1, 1000))


def _fix_add_subtracts(mp):
    mp.setattr(fixarith, "fix_add", fixarith.fix_sub)
    return check_profile_assumptions(FixProfile(10, 40, 40), budget=64).checks


def _rounding_floored(mp):
    _floored(mp)
    return check_profile_assumptions(FixProfile(10, 40, 40), budget=64).checks


def _adjust_gap(mp):
    # the first floored pass lands more than one grid step from its exact
    # twin, yet the result keeps its bound
    profile = FixProfile(1000, 200000, 200000)
    table = build_root_table(profile, profile.val(32))
    _floored(mp)
    return adjust_runs(profile.val(1092), profile.val(8), table, 3)[1].checks


def _adjust_final(mp):
    _tight_fix_bound(mp)
    return adjust_runs(DEMO.val(300), DEMO.val(25), demo_table(), 3)[1].checks


def _round_up_skips(mp):
    # 301/100 rounds up to 350/100, one index too far
    round_up = lut._round_up_count
    mp.setattr(lut, "_round_up_count", lambda count, stp, profile:
               round_up(count, stp, profile) + stp * (count == 301))
    return _table()(mp)


def _sqr_suite_early(mp):
    # each run exits at its first pass, with x = y = 2 far from the root
    mp.setattr(newton, "halves", lambda prev, cur: True)
    return run_sqr_suite([(F(2), F(1, 100))]).checks


def _fsqr_suite_short(mp):
    # each run makes one pass fewer than the least legal count: y = 3 has
    # the seed 174/100 and the count 1 at eps 1/100
    mp.setattr(verify, "fsqr_exact", lambda y, eps, seed, n:
               newton._exact_run("fsqr_exact", y, eps, seed, n - 1))
    return run_fsqr_suite(demo_table(), DEMO.val(1), [DEMO.val(300)]).checks


def _adjust_suite_tight(mp):
    _tight_fix_bound(mp)
    return run_adjust_suite(demo_table(), DEMO.val(25),
                            [DEMO.val(300)]).checks


CONTROLS = {
    "profile.delta-range": _input(_profile(2, 100, 100),
                                  "profile.delta-range"),
    "profile.inf-min": _input(_profile(100, 200, 1600), "profile.inf-min"),
    "profile.sup-min": _input(_profile(100, 1600, 200), "profile.sup-min"),
    "fix.add-exact": _defect(_fix_add_subtracts, "fix.add-exact"),
    "fix.rounding-contract": _defect(_rounding_floored,
                                     "fix.rounding-contract"),
    "float.fix-valid": _input(_float(2, FixProfile(2, 1600, 1600)),
                              "float.fix-valid"),
    "float.base-min": _input(_float(1), "float.base-min"),
    # on sup 4, base 5 fails both rules, base 2 only the square
    "float.base-in-grid": _input(_float(5, FixProfile(10, 40, 40)),
                                 "float.base-in-grid",
                                 "float.sup-over-base-squared"),
    "float.sup-over-base-squared": _input(_float(2, FixProfile(10, 40, 40)),
                                          "float.sup-over-base-squared"),
    "float.range-min": _input(_float(2, inf_f=F(2)), "float.range-min"),
    "step.positive": _input(_step(0, 25), "step.positive",
                            "step.divides-sup", "step.min-two-units"),
    "step.eps-positive": _input(_step(25, 0), "step.eps-positive",
                                "step.multiple-of-eps"),
    "step.multiple-of-eps": _input(_step(25, 10), "step.multiple-of-eps"),
    "step.divides-sup": _input(_step(30, 10), "step.divides-sup"),
    "step.min-two-units": _input(_step(1, 1), "step.min-two-units"),
    **{f"{family}.{rule}": _input(_until_loop(family, rule),
                                  f"{family}.{rule}")
       for family in UNTIL_LOOPS for rule in TAMPERS},
    **{f"fsqr.{rule}": _input(_fsqr(rule), f"fsqr.{rule}")
       for rule in FSQR_TAMPERS},
    **{f"sqrt.{mode}-bound": _input(_sqrt(mode), f"sqrt.{mode}-bound")
       for mode in FIELDS["mode"]},
    "adjust.gap-bound": _defect(_adjust_gap, "adjust.gap-bound"),
    "adjust.final-error": _defect(_adjust_final, "adjust.final-error"),
    # one root a grid step low
    "table.root": _input(_table(lambda roots: (
        *roots[:7], roots[7] - 1, *roots[8:])), "table.root"),
    "table.round-up": _defect(_round_up_skips, "table.round-up"),
    "suite.sqr": _defect(_sqr_suite_early, "suite.sqr"),
    "suite.fsqr": _defect(_fsqr_suite_short, "suite.fsqr"),
    "suite.adjust": _defect(_adjust_suite_tight, "suite.adjust"),
}


def test_every_emitted_id_has_a_control():
    emitted = emitted_rule_ids()
    assert sorted(emitted - set(CONTROLS)) == [], "ids without a control"
    assert sorted(set(CONTROLS) - emitted) == [], "controls of no emitted id"


@pytest.mark.parametrize("rule", sorted(CONTROLS))
def test_control(rule, monkeypatch):
    control = CONTROLS[rule]
    assert rule in control.fails
    checks = list(control.checks(monkeypatch))
    assert {c.rule for c in checks if not c.passed} == control.fails


def test_collector_reads_forwarded_and_templated_rules():
    """The collector finds the ids of both f-string families, a rule
    bound to a name first (sqrt_verdict), and refuses what it cannot
    read."""
    ids = emitted_rule_ids()
    assert {"isqr.halving", "sqr.iteration-cap", "sqrt.float-bound",
            "suite.adjust", "table.round-up"} <= ids
    scope = ast.parse("def f(x):\n    check('n', f'{x}.r', True, {})\n"
                      ).body[0]
    with pytest.raises(AssertionError, match="unknown template"):
        _texts(scope.body[0].value.args[1], scope)
    scope = ast.parse("def f():\n    check('n', rule, True, {})\n").body[0]
    with pytest.raises(AssertionError, match="unresolved rule"):
        _texts(scope.body[0].value.args[1], scope)


# ---------------------------------------------------------------------------
# README's rule table
# ---------------------------------------------------------------------------

def readme_rule_table() -> dict[str, str]:
    """The README rule table's ids, each with its control's kind."""
    rows = re.findall(r"^\| `([a-z]+\.[a-z-]+)` \|[^|]*\| ([a-z ]+) \|$",
                      README.read_text(), re.MULTILINE)
    assert len(rows) == len(dict(rows)), "an id listed twice"
    return dict(rows)


def test_readme_names_exactly_the_registry():
    assert readme_rule_table() == {rule: control.kind
                                   for rule, control in CONTROLS.items()}


# ---------------------------------------------------------------------------
# the rules that fail only with another, and the facts kept by construction
# ---------------------------------------------------------------------------

def _failed(checks: Iterable[CheckResult]) -> set[str]:
    return {c.rule for c in checks if not c.passed}


def test_base_in_grid_fails_only_with_the_square_rule():
    """Over every float profile with d <= 11, sup <= 59 and a base from -3
    to 9: float.base-in-grid fails only where sup > base**2 fails."""
    seen = 0
    for d in range(1, 12):
        for sup in range(1, 60):
            fix = FixProfile(d, sup, sup)
            for base in range(-3, 10):
                failed = _failed(FloatProfile(base, fix, RANGE,
                                              RANGE).rule_checks)
                if "float.base-in-grid" in failed:
                    seen += 1
                    assert "float.sup-over-base-squared" in failed, \
                        (d, sup, base)
    assert seen  # the implication is not vacuous on this scope


def test_step_rules_fail_only_with_their_clearer_causes():
    """Over every (stp, eps) with counts in -2..sup, on the grids with d
    <= 4 and sup <= 24: step.positive fails only with
    step.min-two-units, step.eps-positive only with step.multiple-of-eps."""
    seen = set()
    for d in range(1, 5):
        for sup in range(1, 25):
            profile = FixProfile(d, sup, sup)
            vals = [FixVal(c, profile) for c in range(-2, sup + 1)]
            for stp in vals:
                for eps in vals:
                    failed = _failed(validate_step(stp, eps).checks)
                    for rule, cause in (
                            ("step.positive", "step.min-two-units"),
                            ("step.eps-positive", "step.multiple-of-eps")):
                        if rule in failed:
                            seen.add(rule)
                            assert cause in failed, (d, sup, stp, eps)
    assert seen == {"step.positive", "step.eps-positive"}


def test_profile_facts_kept_by_construction():
    """A profile refuses d < 1 when made, and the least and greatest
    integers in its range are grid points in its count range."""
    for d in (0, -1):
        with pytest.raises(DomainError, match="positive integers"):
            FixProfile(d, 10, 10)
    for d in range(1, 12):
        for inf in range(1, 41):
            for sup in range(1, 41, 3):
                profile = FixProfile(d, inf, sup)
                profile.from_int(-(inf // d))
                profile.from_int(sup // d)
