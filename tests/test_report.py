"""report.json_text, the one indented-JSON writer, held byte-equal to
json.dumps(reference(value), indent=2, sort_keys=True), where reference
is the witness mapping the package used before it had its own writer."""
import ast
import json
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import certisqrt
from certisqrt import cli
from certisqrt.cli import main, trace_rows
from certisqrt.exact import encode_int, rat_str
from certisqrt.newton import fsqr_exact, isqr_exact, sqr_exact
from certisqrt.report import CheckResult, VerifyReport, json_text
from certisqrt.verify import check_fsqr_annotations, check_sqr_annotations
from test_rules import CONTROLS
from test_verify import DIGEST_INPUTS, isqr_seeds

PACKAGE = Path(certisqrt.__file__).resolve().parent


def reference(value):
    """A witness value made JSON-ready: rationals become rat_str strings
    and integers take encode_int's form."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, F):
        return rat_str(value)
    if isinstance(value, int):
        return encode_int(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [reference(v) for v in value]
    if isinstance(value, dict):
        return {str(k): reference(v) for k, v in value.items()}
    return str(value)


def dumped(value) -> str:
    return json.dumps(reference(value), indent=2, sort_keys=True)


def assert_written_as_dumped(value):
    assert json_text(value) == dumped(value)


# ---------------------------------------------------------------------------
# every report tier-1's suites build
# ---------------------------------------------------------------------------

@pytest.fixture
def recorded_documents(monkeypatch):
    """Each value the CLI hands json_text, recorded as it writes it."""
    documents = []

    def recording(value):
        documents.append(value)
        return json_text(value)

    monkeypatch.setattr(cli, "json_text", recording)
    return documents


@pytest.mark.parametrize("command", [
    ["verify", "{profile}", "{table}", "--suite", "all"],
    ["verify", "{profile}", "{table}", "--suite", "all", "--exhaustive"],
    ["verify", "{profile}", "{table}", "--suite", "sqr", "--samples", "20",
     "--seed", "3"],
    ["profile-check", "{profile}"],
    ["sqrt", "{profile}", "--mode", "exact", "--value", "26066/3", "--eps",
     "1/1000", "--trace", "{out}.json"],
    ["sqrt", "{profile}", "{table}", "--mode", "mix", "--value", "3.00",
     "--eps", "0.25", "--trace", "{out}.json"],
    ["sqrt", "{profile}", "{table}", "--mode", "float", "--value", "12",
     "--eps", "0.25", "--trace", "{out}.json"],
], ids=lambda command: " ".join(a for a in command if "{" not in a))
def test_cli_documents(command, recorded_documents, fixtures_dir, tmp_path,
                       capsys):
    """The CLI's report documents and --trace JSON files, as the CLI
    writes them, are json.dumps' bytes."""
    profile = str(fixtures_dir / "demo_profile.json")
    table = str(tmp_path / "table.json")
    assert main(["table-build", profile, table]) == 0
    capsys.readouterr()
    args = [a.format(profile=profile, table=table, out=tmp_path / "trace")
            for a in command]
    assert main(args) in (0, 1)
    assert len(recorded_documents) == 1
    doc = recorded_documents[0]
    written = capsys.readouterr().out
    if "--trace" in command:
        written = Path(args[-1]).read_text()
    assert written == dumped(doc) + "\n"


@pytest.mark.parametrize("rule", sorted(CONTROLS))
def test_control_reports(rule, monkeypatch):
    """Each rule's negative control, whose failed checks carry the
    witnesses a failure reports."""
    report = VerifyReport(rule, tuple(CONTROLS[rule].checks(monkeypatch)))
    assert report.to_json() == dumped(report.fields())
    assert report.as_dict() == reference(report.fields())


def test_exact_run_reports():
    """The reports of the sqr, isqr and fsqr checkers on the inputs of
    the sqr report digest, long parts written in hex among them."""
    for y, eps in DIGEST_INPUTS:
        _, trace = sqr_exact(y, eps)
        assert_written_as_dumped(check_sqr_annotations(trace, y, eps).fields())
        assert_written_as_dumped(trace_rows(trace))
        if y > 1:
            seed = isqr_seeds(y)[1]
            _, trace = isqr_exact(y, eps, seed)
            assert_written_as_dumped(
                check_sqr_annotations(trace, y, eps).fields())
            _, trace = fsqr_exact(y, eps, seed, 6)
            assert_written_as_dumped(
                check_fsqr_annotations(trace, y, eps).fields())


# ---------------------------------------------------------------------------
# witness values of every kind
# ---------------------------------------------------------------------------

class Count(int):
    """An int subclass that prints as neither json nor encode_int would."""

    def __repr__(self):
        return f"Count({int(self)})"


# ints of 2,126 bits are written in decimal, of 2,127 bits in hex
LONG_INTS = [sign * n for sign in (1, -1) for n in (
    (1 << 2125), (1 << 2126) - 1, 1 << 2126, (1 << 2127) - 1)]
texts = st.text() | st.sampled_from(
    ['"', "\\", "\n\t\x00\x1f\x7f", "café", " ", "\U0001f600",
     "0x1f/3", ""])
ints = st.integers() | st.sampled_from(LONG_INTS)
leaves = (st.none() | st.booleans() | texts | ints
          | st.builds(Count, st.integers() | st.sampled_from(LONG_INTS))
          | st.floats(allow_nan=True, allow_infinity=True)
          | st.fractions() | st.builds(F, ints, st.sampled_from(LONG_INTS[:4]))
          | st.decimals(allow_nan=False) | st.complex_numbers())
keys = texts | st.integers() | st.fractions() | st.booleans() | st.none()
witnesses = st.dictionaries(texts, st.recursive(
    leaves, lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(keys, children, max_size=4), max_leaves=12))


@given(witnesses)
@settings(max_examples=200, deadline=None)
@example({"": [], "a": {}, "b": ((), {1: [], "1": None}), "c": [[[]]]})
@example({"n": LONG_INTS, "q": [F(LONG_INTS[2], 3), F(-1, LONG_INTS[1])],
          "k": [Count(7), Count(LONG_INTS[2]), True, False, None],
          "x": [float("inf"), float("-inf"), float("nan"), -0.0, 1e300]})
def test_witnesses(witness):
    check = CheckResult("a \"name\"\n", "rule.id", False, witness)
    report = VerifyReport("subject é", (check, check))
    assert report.to_json() == dumped(report.fields())
    assert check.as_dict() == reference(check.fields())
    assert_written_as_dumped(witness)


@pytest.mark.parametrize("value", [None, True, 0, -5, "s", 1.5, F(1, 3),
                                   [], {}, (), Decimal("1.50")])
def test_top_level_values(value):
    assert_written_as_dumped(value)


# ---------------------------------------------------------------------------
# the one writer
# ---------------------------------------------------------------------------

def _indented_dumps(path: Path) -> list[int]:
    """The lines of path that call json.dumps with an indent."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dumps"
            and any(k.arg == "indent" for k in node.keywords)]


def test_no_other_indented_json_writer():
    """No module calls json.dumps(..., indent=...): json_text is the one
    writer of indented JSON."""
    found = {p.name: _indented_dumps(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_finder_sees_an_indented_dumps(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import json\nx = 1\n"
                      "json.dumps(x, sort_keys=True, indent=2)\n"
                      "json.dumps(x, separators=(',', ':'))\n")
    assert _indented_dumps(source) == [3]
