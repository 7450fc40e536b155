"""The coverage map's list of unrun statements stays readable and aimed.

tools/covmap.py itself traces all of tier-1 and runs as its own CI step;
these tests check, without tracing, that each listed statement exists and
carries a reason, and how the map names and spans statements.
"""
import importlib.util
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("covmap",
                                               ROOT / "tools" / "covmap.py")
covmap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(covmap)


def test_every_listed_statement_exists_with_a_reason():
    listed = covmap.read_listed()
    keys = {s.key for path in covmap.PACKAGE.glob("*.py")
            for s in covmap.statements(path)}
    assert listed
    assert set(listed) <= keys, sorted(set(listed) - keys)
    assert all(reason.strip() for reason in listed.values())


def test_an_entry_without_a_reason_is_refused(tmp_path):
    listed = tmp_path / "unrun.txt"
    listed.write_text("# the reason\nexact.py f: a = 1\n\nexact.py f: b\n")
    with pytest.raises(ValueError, match=r"unrun.txt:4: 'exact.py f: b'"):
        covmap.read_listed(listed)
    listed.write_text("# one reason for both\nexact.py f: a\nexact.py f: b\n")
    assert covmap.read_listed(listed) == {
        "exact.py f: a": "one reason for both",
        "exact.py f: b": "one reason for both"}


def test_statements_are_named_and_spanned(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(textwrap.dedent('''\
        """Module docstring."""
        import functools


        @functools.cache
        def f(x):
            """Docstring."""
            global G
            try:
                y = (x +
                     1)
            except TypeError:
                raise
            return y


        class C:
            def g(self):
                return 1
        '''))
    got = [(s.key, s.first, s.last) for s in covmap.statements(module)]
    assert got == [
        ("m.py <module>: import functools", 2, 2),
        ("m.py <module>: def f(x):", 5, 6),
        ("m.py f: try:", 9, 9),
        ("m.py f: y = (x +", 10, 11),
        ("m.py f: raise", 13, 13),
        ("m.py f: return y", 14, 14),
        ("m.py <module>: class C:", 17, 17),
        ("m.py C: def g(self):", 18, 18),
        ("m.py C.g: return 1", 19, 19),
    ]


def test_arguments_are_refused(capsys):
    """Tracing part of tier-1 always leaves statements unrun, so the map
    takes no test selection."""
    assert covmap.main(["tests/test_exact.py"]) == 2
    assert "no arguments" in capsys.readouterr().err
