"""Every public function that takes two or more grid values refuses values
from two grids.

The functions are read from the package source by ast: each public
function whose signature annotates two or more parameters with FixVal,
FloatVal, RootTable or FixProfile (a Sequence of them included), and
sqrt_verdict and answer by name, whose y and eps carry no annotation.  CONTROLS
holds, for each such function, calls that take one of those values from
the grid g they are given.  On the demo grid each call must pass that
check, on a finer grid it must raise ProfileMismatch.  So a new such
function without a control fails here.
"""
import ast
import importlib
import inspect
import re
from fractions import Fraction as F
from functools import cache
from pathlib import Path

import pytest

import certisqrt
from certisqrt.errors import ProfileMismatch
from certisqrt.fixarith import (FixProfile, fix_add, fix_div, fix_mul,
                                fix_sub, require_same_grid)
from certisqrt.floatmodel import FloatProfile, compose
from certisqrt.lut import (build_root_table, round_up_to_step, sup_fn,
                           validate_step)
from certisqrt.newton import (fix_sqr, flt_sqr, min_iterations_for_step,
                              mix_sqr)
from certisqrt.verify import (adjust_runs, answer, balance_sweep,
                              check_table_properties, monotonicity_probe,
                              run_adjust_suite, run_fsqr_suite, sqrt_verdict)

PACKAGE = Path(certisqrt.__file__).resolve().parent
GRID_TYPES = {"FixVal", "FloatVal", "RootTable", "FixProfile"}
UNANNOTATED = {"verify.sqrt_verdict", "verify.answer"}


@cache
def grid_functions() -> frozenset[str]:
    """module.name of every public function with two or more parameters
    annotated with a grid type, and of the UNANNOTATED ones."""
    names = set(UNANNOTATED)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.FunctionDef) or \
                    node.name.startswith("_"):
                continue
            args = node.args.posonlyargs + node.args.args + \
                node.args.kwonlyargs
            typed = [a for a in args if a.annotation is not None and
                     GRID_TYPES & set(re.findall(r"\w+",
                                                 ast.unparse(a.annotation)))]
            if len(typed) >= 2:
                names.add(f"{path.stem}.{node.name}")
    return frozenset(names)


DEMO = FixProfile(100, 1600, 1600)
FINE = FixProfile(1000, 16000, 16000)
TABLE = build_root_table(DEMO, DEMO.val(25))
FPROF = FloatProfile(2, DEMO, F(65536), F(65536))


def at(g: FixProfile, value: F):
    """value on grid g."""
    return g.val(int(value * g.delta_den))


def float_at(g: FixProfile, man: F, exp: int):
    """man*2**exp with its mantissa on grid g."""
    return compose(at(g, man), exp, FloatProfile(2, g, F(65536), F(65536)))


Y, EPS, STP = DEMO.val(300), DEMO.val(25), DEMO.val(25)

# (function, label, call on the grid g of one of its values)
CONTROLS = [
    ("fixarith.require_same_grid", "b",
     lambda g: require_same_grid(DEMO, g, "{} vs {}")),
    ("fixarith.fix_add", "y", lambda g: fix_add(Y, at(g, F(1, 4)))),
    ("fixarith.fix_sub", "y", lambda g: fix_sub(Y, at(g, F(1, 4)))),
    ("fixarith.fix_mul", "y", lambda g: fix_mul(Y, at(g, F(1, 4)))),
    ("fixarith.fix_div", "y", lambda g: fix_div(Y, at(g, F(1, 4)))),
    ("lut.validate_step", "eps",
     lambda g: validate_step(STP, at(g, F(1, 4)))),
    ("lut.build_root_table", "stp",
     lambda g: build_root_table(DEMO, at(g, F(1, 4)))),
    ("lut.round_up_to_step", "stp",
     lambda g: round_up_to_step(DEMO.val(130), at(g, F(1, 4)))),
    ("lut.sup_fn", "u", lambda g: sup_fn(at(g, F(3)), TABLE)),
    ("newton.min_iterations_for_step", "eps",
     lambda g: min_iterations_for_step(STP, at(g, F(1, 4)))),
    ("newton.fix_sqr", "eps",
     lambda g: fix_sqr(Y, at(g, F(1, 4)), TABLE, 3)),
    ("newton.fix_sqr", "y", lambda g: fix_sqr(at(g, F(3)), EPS, TABLE, 3)),
    ("newton.mix_sqr", "eps", lambda g: mix_sqr(Y, at(g, F(1, 4)), TABLE)),
    ("newton.flt_sqr", "eps",
     lambda g: flt_sqr(compose(Y, 0, FPROF), at(g, F(1, 4)), FPROF, TABLE)),
    ("newton.flt_sqr", "a",
     lambda g: flt_sqr(float_at(g, F(3), 0), EPS, FPROF, TABLE)),
    ("verify.adjust_runs", "eps",
     lambda g: adjust_runs(Y, at(g, F(1, 4)), TABLE, 3)),
    ("verify.monotonicity_probe", "eps",
     lambda g: monotonicity_probe(Y, at(g, F(1, 4)), TABLE, 1, 3)),
    ("verify.check_table_properties", "eps",
     lambda g: check_table_properties(TABLE, at(g, F(1, 4)))),
    ("verify.balance_sweep", "stp",
     lambda g: balance_sweep(EPS, [at(g, F(1, 4))])),
    ("verify.run_fsqr_suite", "eps",
     lambda g: run_fsqr_suite(TABLE, at(g, F(1, 4)), [Y])),
    ("verify.run_fsqr_suite", "ys",
     lambda g: run_fsqr_suite(TABLE, EPS, [at(g, F(3))])),
    ("verify.run_adjust_suite", "eps",
     lambda g: run_adjust_suite(TABLE, at(g, F(1, 4)), [Y])),
    ("verify.run_adjust_suite", "ys",
     lambda g: run_adjust_suite(TABLE, EPS, [at(g, F(3))])),
    ("verify.sqrt_verdict", "mix-y-eps",
     lambda g: sqrt_verdict("mix", DEMO.val(173), at(g, F(3)),
                            at(g, F(1, 4)))),
    ("verify.sqrt_verdict", "mix-x",
     lambda g: sqrt_verdict("mix", at(g, F(173, 100)), Y, EPS)),
    ("verify.sqrt_verdict", "fix-y",
     lambda g: sqrt_verdict("fix", DEMO.val(173), at(g, F(3)), EPS, n=3)),
    ("verify.sqrt_verdict", "fix-eps",
     lambda g: sqrt_verdict("fix", DEMO.val(173), Y, at(g, F(1, 4)), n=3)),
    ("verify.sqrt_verdict", "float-eps",
     lambda g: sqrt_verdict("float", float_at(DEMO, F(173, 100), 1),
                            float_at(DEMO, F(3), 2), at(g, F(1, 4)),
                            fprof=FPROF)),
    ("verify.sqrt_verdict", "float-y",
     lambda g: sqrt_verdict("float", float_at(DEMO, F(173, 100), 1),
                            float_at(g, F(3), 2), EPS, fprof=FPROF)),
    ("verify.sqrt_verdict", "float-x",
     lambda g: sqrt_verdict("float", float_at(g, F(173, 100), 1),
                            float_at(DEMO, F(3), 2), EPS, fprof=FPROF)),
    ("verify.answer", "mix-eps",
     lambda g: answer("mix", Y, at(g, F(1, 4)), table=TABLE)),
    ("verify.answer", "fix-y",
     lambda g: answer("fix", at(g, F(3)), EPS, table=TABLE, n=3)),
    ("verify.answer", "float-y",
     lambda g: answer("float", float_at(g, F(3), 2), EPS, table=TABLE,
                      fprof=FPROF)),
]


def test_every_grid_function_has_a_control():
    assert {name for name, _, _ in CONTROLS} == grid_functions()


def test_registry_finds_the_known_functions():
    # a sample the ast reading must find: FixVal, RootTable and
    # Sequence[FixVal] annotations, and one function named
    assert {"fixarith.fix_add", "lut.sup_fn", "newton.flt_sqr",
            "verify.balance_sweep", "verify.sqrt_verdict"} <= \
        grid_functions()
    assert "newton.fix_bound" not in grid_functions()
    # each name is a module's function, whose signature shows the types
    for name in grid_functions() - UNANNOTATED:
        module, _, attr = name.partition(".")
        fn = getattr(importlib.import_module(f"certisqrt.{module}"), attr)
        typed = [p for p in inspect.signature(fn).parameters.values()
                 if GRID_TYPES & set(re.findall(r"\w+", str(p.annotation)))]
        assert len(typed) >= 2, name


@pytest.mark.parametrize("name,label,call", CONTROLS,
                         ids=[f"{n}-{label}" for n, label, _ in CONTROLS])
def test_control(name, label, call):
    call(DEMO)
    with pytest.raises(ProfileMismatch):
        call(FINE)
