"""The value types and the Fraction builders the grid layers share.

FixVal and FloatVal are immutable records whose equality, hashing, repr
and str follow their fields, and which carry no per-instance __dict__;
their hand-written __init__ keeps the generated one's signature.
exact.fraction_from_coprime, which exact._lowest_terms and FixVal.value
call after one gcd, builds Fractions that behave exactly like
Fraction(n, d) without running Fraction's constructor, so reading a grid
value costs no constructor call.  It is the one function in src/ that
sets a Fraction's slots.
"""
import ast
import copy
import dataclasses
import inspect
import math
import operator
import pickle
import typing
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certisqrt import exact
from certisqrt.exact import fraction_from_coprime, within_of_sqrt
from certisqrt.fixarith import FixProfile, FixVal
from certisqrt.floatmodel import FloatVal
from certisqrt.lut import build_root_table
from certisqrt.newton import mix_sqr

P100 = FixProfile(100, 1600, 1600)
OTHER = FixProfile(100, 1600, 1700)

# each value differs from the first of its group in exactly one field
FIX_VARIANTS = [FixVal(150, P100), FixVal(151, P100), FixVal(150, OTHER)]
FLOAT_VARIANTS = [FloatVal(FixVal(150, P100), 3, 2),
                  FloatVal(FixVal(151, P100), 3, 2),
                  FloatVal(FixVal(150, OTHER), 3, 2),
                  FloatVal(FixVal(150, P100), -3, 2),
                  FloatVal(FixVal(150, P100), 3, 10),
                  FloatVal.zero()]
VALUES = [*FIX_VARIANTS, *FLOAT_VARIANTS]


def _rebuilt(v):
    """An equal value built anew, sharing no object with v."""
    if isinstance(v, FixVal):
        return FixVal(v.count, FixProfile(v.profile.delta_den,
                                          v.profile.inf_count,
                                          v.profile.sup_count))
    return FloatVal(None if v.man is None else _rebuilt(v.man), v.exp, v.base)


class TestValueContract:
    @pytest.mark.parametrize("variants", [FIX_VARIANTS, FLOAT_VARIANTS],
                             ids=["FixVal", "FloatVal"])
    def test_equality_and_hash_follow_fields(self, variants):
        for i, a in enumerate(variants):
            b = _rebuilt(a)
            assert a == b and hash(a) == hash(b)
            assert a is not b
            for c in variants[i + 1:]:
                assert a != c
        assert len(set(variants)) == len(variants)

    def test_not_a_tuple(self):
        assert FixVal(150, P100) != (150, P100)
        assert FloatVal.zero() != (None, 0, 2)

    @pytest.mark.parametrize("v", VALUES, ids=str)
    def test_frozen(self, v):
        before = repr(v)
        for f in dataclasses.fields(v):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(v, f.name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(v, f.name)
        # A name that is not a field has no slot.  The frozen __setattr__
        # of a slots dataclass refers to the class before slots were
        # added, so CPython 3.10-3.13 raise TypeError here.
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            v.other = 1
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            del v.other
        assert repr(v) == before

    @pytest.mark.parametrize("v", VALUES, ids=str)
    def test_no_instance_dict(self, v):
        assert not hasattr(v, "__dict__")

    @pytest.mark.parametrize("v", VALUES, ids=str)
    def test_copies_are_equal(self, v):
        for got in (dataclasses.replace(v), copy.copy(v), copy.deepcopy(v),
                    pickle.loads(pickle.dumps(v))):
            assert type(got) is type(v)
            assert got == v and hash(got) == hash(v)

    def test_repr_and_str_pinned(self):
        profile = ("FixProfile(delta_den=100, inf_count=1600, "
                   "sup_count=1600)")
        man = FixVal(150, P100)
        assert repr(man) == f"FixVal(count=150, profile={profile})"
        assert str(man) == "150/100"
        assert str(FixVal(-300, P100)) == "-300/100"
        a = FloatVal(man, -3, 2)
        assert repr(a) == f"FloatVal(man=FixVal(count=150, " \
                          f"profile={profile}), exp=-3, base=2)"
        assert str(a) == "150/100*2^-3"
        assert repr(FloatVal.zero()) == "FloatVal(man=None, exp=0, base=2)"
        assert str(FloatVal.zero()) == "0"


def _generated_init(cls):
    """__init__ of a frozen, slotted dataclass with cls's fields and
    defaults, as dataclass generates it."""
    specs = [(f.name, f.type) if f.default is dataclasses.MISSING
             else (f.name, f.type, dataclasses.field(default=f.default))
             for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True,
                                      slots=True).__init__


class TestHandWrittenInit:
    """FixVal and FloatVal store their fields through the slots'
    descriptors in a hand-written __init__; callers see the generated
    constructor's contract."""

    @pytest.mark.parametrize("cls", [FixVal, FloatVal])
    def test_signature_is_the_generated_one(self, cls):
        ours, generated = (inspect.signature(cls.__init__),
                           inspect.signature(_generated_init(cls)))
        assert ours.parameters == generated.parameters
        # the generated one holds None, ours the postponed text "None"
        assert generated.return_annotation is None
        names = {"FixVal": FixVal, "FixProfile": FixProfile}
        hints = typing.get_type_hints(cls.__init__, localns=names)
        assert hints["return"] is type(None)
        assert inspect.signature(cls).parameters == \
            dict(list(generated.parameters.items())[1:])

    def test_keyword_and_default_construction(self):
        man = FixVal(count=150, profile=P100)
        assert man == FixVal(150, P100)
        assert FloatVal(man=man, exp=-3, base=10) == FloatVal(man, -3, 10)
        assert FloatVal(exp=4) == FloatVal(None, 4, 2)
        assert FloatVal() == FloatVal.zero() == FloatVal(None, 0, 2)
        assert repr(FloatVal()) == "FloatVal(man=None, exp=0, base=2)"
        with pytest.raises(TypeError):
            FixVal(150)
        with pytest.raises(TypeError):
            FixVal(150, P100, 3)
        with pytest.raises(TypeError):
            FloatVal(man, mantissa=3)

    @pytest.mark.parametrize("v", VALUES, ids=str)
    def test_replace_runs_the_constructor(self, v):
        field = dataclasses.fields(v)[1].name
        got = dataclasses.replace(v, **{field: 9})
        assert type(got) is type(v) and getattr(got, field) == 9
        assert not hasattr(got, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, field, 1)


class TestFixValValue:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_lowest_terms(self, data):
        d = data.draw(st.sampled_from([1, 2, 3, 100, 997, 1000, 1024,
                                       10 ** 6, 2 ** 70]))
        inf = data.draw(st.integers(1, 40 * d))
        sup = data.draw(st.integers(1, 40 * d))
        count = data.draw(st.integers(-inf, sup))
        got = FixVal(count, FixProfile(d, inf, sup)).value
        want = exact._lowest_terms(count, d)
        assert type(got) is type(want) is F
        assert (got.numerator, got.denominator) == \
            (want.numerator, want.denominator)
        assert got.denominator > 0
        assert math.gcd(got.numerator, got.denominator) == 1
        assert got == F(count, d) and hash(got) == hash(F(count, d))


OTHERS = [3, 0.5, F(7, 3)]
ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
COMPARE = [operator.eq, operator.lt, operator.ge]


def _same(got, want):
    assert type(got) is type(want)
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want) and str(got) == str(want)


def _behaves_like(got, want):
    """got behaves as want in arithmetic and comparisons with an int, a
    float and a Fraction, from either side."""
    for other in OTHERS:
        for op in ARITHMETIC:
            r, w = op(got, other), op(want, other)
            assert type(r) is type(w) and r == w
            if want:
                r, w = op(other, got), op(other, want)
                assert type(r) is type(w) and r == w
        for op in COMPARE:
            assert op(got, other) is op(want, other)
            assert op(other, got) is op(other, want)


class _SlotWriters(ast.NodeVisitor):
    """The dotted scopes (module, class, function) of a module that call
    object.__new__(Fraction), store to an attribute _numerator or
    _denominator, or name either slot in a string, as setattr would."""

    SLOTS = ("_numerator", "_denominator")

    def __init__(self, module):
        self.scope, self.found = [module], set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr == "__new__"
                and isinstance(f.value, ast.Name) and f.value.id == "object"
                and any(isinstance(a, ast.Name) and a.id == "Fraction"
                        for a in node.args)):
            self.found.add(".".join(self.scope))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if node.attr in self.SLOTS and isinstance(node.ctx, ast.Store):
            self.found.add(".".join(self.scope))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if node.value in self.SLOTS:
            self.found.add(".".join(self.scope))


class TestFractionBuilders:
    def test_one_function_sets_fraction_slots(self):
        """Only exact.fraction_from_coprime relies on CPython keeping a
        Fraction's parts in the slots _numerator and _denominator."""
        writers = set()
        for path in sorted(Path(exact.__file__).parent.glob("*.py")):
            visitor = _SlotWriters(path.stem)
            visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
            writers |= visitor.found
        assert writers == {"exact.fraction_from_coprime"}

    @pytest.mark.parametrize("d", [1, 100, 997, 1000])
    def test_equal_to_fraction(self, d):
        for n in range(-2000, 2001):
            want = F(n, d)
            got = exact._lowest_terms(n, d)
            _same(got, want)
            _behaves_like(got, want)
            _same(fraction_from_coprime(want.numerator, want.denominator),
                  want)

    def test_grid_values_build_no_fraction(self, monkeypatch):
        """A mix request, its verdict and a second read of each value call
        Fraction's constructor 0 times."""
        fix = FixProfile(1000, 20000, 20000)
        table = build_root_table(fix, fix.val(16))
        calls = []
        real = F.__new__

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counted))
        y, eps = fix.val(6434), fix.val(8)
        x, _ = mix_sqr(y, eps, table)
        ok = within_of_sqrt(x.value, y.value, eps.value, strict=True)
        values = (x.value, y.value, eps.value)
        monkeypatch.undo()
        assert calls == []
        assert F.__new__ is real  # the constructor is restored
        assert ok
        assert values == (F(x.count, 1000), F(3217, 500), F(1, 125))
