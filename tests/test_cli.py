import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from collections.abc import Sequence
from fractions import Fraction as F
from pathlib import Path
from time import perf_counter

import pytest

from certisqrt.cli import (
    MAX_BALANCE_TABLE,
    FileFormatError,
    _rational,
    _sample_scan_ys,
    load_profile,
    load_table,
    main,
    profile_digest,
    run,
    table_file_bytes,
    trace_rows,
)
from certisqrt.errors import DomainError, ResourceLimit
from certisqrt.exact import rat_str
from certisqrt.fixarith import FixProfile, FixVal
from certisqrt.lut import RootTable
from certisqrt.newton import _divisors_below, fix_sqr, sqr_exact
from certisqrt.verify import check_sqr_annotations, grid_values


# a profile whose grid step is 1/2, not below it
HALF_STEP_PROFILE = {
    "fix": {"delta_den": 2, "inf_count": 100, "sup_count": 100},
    "float": {"base": 2, "inf_F": "8/1", "sup_F": "8/1"},
    "step": {"stp_count": 25, "eps_count": 25},
}


@pytest.fixture
def demo_profile_path(fixtures_dir):
    return str(fixtures_dir / "demo_profile.json")


@pytest.fixture
def demo_table_path(tmp_path, demo_profile_path):
    out = tmp_path / "table.json"
    assert main(["table-build", demo_profile_path, str(out)]) == 0
    return str(out)


class TestProfileCheck:
    def test_demo_passes(self, demo_profile_path, capsys):
        assert main(["profile-check", demo_profile_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"] is True

    def test_half_step_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(HALF_STEP_PROFILE))
        assert main(["profile-check", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        rules = {c["rule"] for r in doc["reports"] for c in r["checks"]
                 if not c["passed"]}
        assert "profile.delta-range" in rules

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["profile-check", str(path)]) == 2

    def test_missing_field(self, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"fix": {"delta_den": 100}}))
        assert main(["profile-check", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["profile-check", str(tmp_path / "nope.json")]) == 2


class TestTableBuild:
    def test_builds_sixty_entries(self, demo_table_path):
        doc = json.loads(Path(demo_table_path).read_text())
        assert len(doc["roots"]) == 60
        assert doc["stp_count"] == 25

    def test_idempotent_bytes(self, tmp_path, demo_profile_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["table-build", demo_profile_path, str(a)]) == 0
        assert main(["table-build", demo_profile_path, str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_step_violation_exit_1(self, tmp_path, demo_profile_path):
        doc = json.loads(Path(demo_profile_path).read_text())
        doc["step"]["stp_count"] = 30  # does not divide 1600
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["table-build", str(path), str(tmp_path / "t.json")]) == 1

    def test_load_binds_to_profile(self, demo_profile_path, demo_table_path,
                                   tmp_path):
        from certisqrt.lut import build_root_table
        fix, fprof, step = load_profile(demo_profile_path)
        table = load_table(demo_table_path, fix,
                           profile_digest(fix, fprof, step))
        assert len(table) == 60
        assert table == build_root_table(fix, step.stp)  # bit-exact I/O
        with pytest.raises(DomainError):
            load_table(demo_table_path, fix, "0" * 64)

    def test_loaded_table_holds_the_walk(self, tmp_path):
        """A loaded table equals the built one, every entry an int, and
        holds one int object per distinct root, as the walk does, not one
        per parsed entry; on this grid a third of the entries repeat the
        root before them, all above the interpreter's small-int cache."""
        from certisqrt.lut import build_root_table
        fix = FixProfile(10000, 40000, 40000)
        built = build_root_table(fix, fix.val(2))
        path = tmp_path / "table.json"
        path.write_bytes(table_file_bytes(built, "digest"))
        table = load_table(str(path), fix, "digest")
        assert table == built and type(table.roots) is tuple
        assert {type(g) for g in table.roots} == {int}
        distinct = len(set(table.roots))
        assert distinct < len(table.roots) and min(table.roots) > 256
        assert len({id(g) for g in table.roots}) == distinct

    def test_one_walk_per_load(self, demo_profile_path, demo_table_path,
                               monkeypatch):
        """An accepted load walks the roots once, after a check of the
        profile and step, and the table checks them as it is made; so
        does a build.  The table rules live in lut alone: cli imports no
        private name from it."""
        import ast
        import inspect

        from certisqrt import cli, lut
        fix, fprof, step = load_profile(demo_profile_path)
        calls = []

        def counted(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        monkeypatch.setattr(lut, "_check_table_config",
                            counted("check", lut._check_table_config))
        monkeypatch.setattr(lut, "_least_roots",
                            counted("walk", lut._least_roots))
        table = load_table(demo_table_path, fix,
                           profile_digest(fix, fprof, step))
        assert calls == ["check", "walk", "check"]
        calls.clear()
        assert lut.build_root_table(fix, step.stp) == table
        assert calls == ["check", "walk", "check"]
        imported = [alias.name
                    for node in ast.walk(ast.parse(inspect.getsource(cli)))
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "lut"
                    for alias in node.names]
        assert "build_root_table" in imported
        assert not [name for name in imported if name.startswith("_")]

    @pytest.mark.parametrize("change", [
        lambda roots: roots[:-1],
        lambda roots: roots + roots[-1:],
        lambda roots: [],
        # the count is refused before any entry is read
        lambda roots: ["x"] + roots[2:],
    ])
    def test_wrong_length_refused(self, demo_profile_path, demo_table_path,
                                  tmp_path, change):
        fix, fprof, step = load_profile(demo_profile_path)
        doc = json.loads(Path(demo_table_path).read_text())
        roots = change(doc["roots"])
        path = tmp_path / "table.json"
        path.write_text(json.dumps({**doc, "roots": roots}))
        with pytest.raises(DomainError) as exc:
            load_table(str(path), fix, profile_digest(fix, fprof, step))
        assert str(exc.value) == f"table has {len(roots)} entries, expected 60"

    def test_size_cap_env(self, demo_profile_path, tmp_path, monkeypatch):
        monkeypatch.setenv("CERTISQRT_MAX_TABLE", "10")
        code = main(["table-build", demo_profile_path,
                     str(tmp_path / "t.json")])
        assert code == 1

    def test_size_cap_env_on_load(self, demo_profile_path, demo_table_path,
                                  monkeypatch, capsys):
        """A load builds its table, so the cap refuses it as it refuses
        the build, with the same text."""
        fix, fprof, step = load_profile(demo_profile_path)
        monkeypatch.setenv("CERTISQRT_MAX_TABLE", "10")
        with pytest.raises(ResourceLimit) as exc:
            load_table(demo_table_path, fix, profile_digest(fix, fprof, step))
        assert str(exc.value) == "table would need 60 entries, cap 10"
        capsys.readouterr()
        assert main(["verify", demo_profile_path, demo_table_path,
                     "--suite", "table"]) == 1
        assert capsys.readouterr().err == (
            "error: ResourceLimit: table would need 60 entries, cap 10\n")

    def test_bit_cap_env(self, demo_profile_path, monkeypatch, capsys):
        monkeypatch.setenv("CERTISQRT_MAX_BITS", "4096")
        capsys.readouterr()
        assert main(["sqrt", demo_profile_path, "--mode", "exact",
                     "--value", "10000000000", "--eps", "1/1000000"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: ResourceLimit: exact Newton pass 7 may form 4289-bit "
            "operands, above CERTISQRT_MAX_BITS = 4096\n")
        assert captured.out == ""

    def test_load_revalidation_catches_corruption(self, demo_profile_path,
                                                  demo_table_path, tmp_path):
        fix, fprof, step = load_profile(demo_profile_path)
        digest = profile_digest(fix, fprof, step)
        doc = json.loads(Path(demo_table_path).read_text())
        doc["roots"][3] -= 1
        bad = tmp_path / "bad_table.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            load_table(str(bad), fix, digest)

    @pytest.mark.parametrize("entry", [True, 1.5, "7", 174.0],
                             ids=["bool", "float", "string", "float-root"])
    def test_load_rejects_non_integer_entry(self, demo_profile_path,
                                            demo_table_path, tmp_path,
                                            capsys, entry):
        # the entry of index k = 12 (3.00) is the root 174; 174.0 == 174
        # in Python, so only the type test refuses the float
        fix, fprof, step = load_profile(demo_profile_path)
        doc = json.loads(Path(demo_table_path).read_text())
        assert doc["roots"][12 - 5] == 174
        doc["roots"][12 - 5] = entry
        bad = tmp_path / "bad_table.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError,
                           match="table.roots: expected a list of integers"):
            load_table(str(bad), fix, profile_digest(fix, fprof, step))
        capsys.readouterr()
        assert main(["verify", demo_profile_path, str(bad),
                     "--suite", "table"]) == 2
        assert "table.roots: expected a list of integers" in \
            capsys.readouterr().err

    def test_load_reports_first_fault(self, demo_profile_path,
                                      demo_table_path, tmp_path):
        fix, fprof, step = load_profile(demo_profile_path)
        doc = json.loads(Path(demo_table_path).read_text())
        doc["roots"][3] -= 1
        # the fault is index 8 (position 3); a later non-int entry sits at
        # position 8, where an index read without k_min would land
        doc["roots"][8] = "7"
        bad = tmp_path / "bad_table.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match="at index 8$"):
            load_table(str(bad), fix, profile_digest(fix, fprof, step))

    @pytest.mark.parametrize("command", [
        ["sqrt", "--mode", "mix", "--value", "3", "--eps", "1/4"],
        ["verify", "--suite", "table"],
    ], ids=["sqrt", "verify"])
    def test_table_bound_to_profile_step(self, demo_profile_path, tmp_path,
                                         capsys, command):
        from certisqrt.lut import build_root_table
        fix, fprof, step = load_profile(demo_profile_path)
        other = tmp_path / "other_step.json"
        other.write_bytes(table_file_bytes(
            build_root_table(fix, fix.val(50)),
            profile_digest(fix, fprof, step)))
        capsys.readouterr()
        assert main(command[:1] + [demo_profile_path, str(other)]
                    + command[1:]) == 1
        captured = capsys.readouterr()
        assert "DomainError" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("stp_count", [0, -25])
    def test_load_rejects_nonpositive_step(self, demo_profile_path,
                                           demo_table_path, tmp_path,
                                           stp_count):
        doc = json.loads(Path(demo_table_path).read_text())
        doc["stp_count"], doc["roots"] = stp_count, []
        bad = tmp_path / "bad_table.json"
        bad.write_text(json.dumps(doc))
        assert main(["sqrt", demo_profile_path, str(bad), "--mode", "mix",
                     "--value", "3", "--eps", "1/4"]) == 1


def _reference_load_fault(path, roots, k_min, scale):
    """Type and message of the first faulty entry in index order, decided
    one entry at a time, or None when every entry is the least root."""
    for k, g in enumerate(roots, k_min):
        if isinstance(g, bool) or not isinstance(g, int):
            return FileFormatError, "table.roots: expected a list of integers"
        if not (g - 1) ** 2 < k * scale <= g * g:
            return DomainError, f"table {path} failed revalidation at index {k}"
    return None


_CORRUPTIONS = {
    "plus-one": lambda g: g + 1,
    "minus-one": lambda g: g - 1,
    "true": lambda g: True,
    "float": lambda g: g + 0.5,
    "string": lambda g: str(g),
}


class TestLoadCorruptions:
    """load_table against the per-entry reference on seeded corruptions
    of the demo table (60 entries, k_min 5, k*stp*d = 2500*k)."""

    @pytest.mark.parametrize("kind", [*_CORRUPTIONS, "two-faults"])
    def test_same_fault_as_reference(self, demo_profile_path,
                                     demo_table_path, tmp_path, kind):
        fix, fprof, step = load_profile(demo_profile_path)
        digest = profile_digest(fix, fprof, step)
        doc = json.loads(Path(demo_table_path).read_text())
        clean = doc["roots"]
        for seed in range(20):
            rng = random.Random(seed)
            kinds = (rng.choices(list(_CORRUPTIONS), k=2)
                     if kind == "two-faults" else [kind])
            roots = list(clean)
            for each, i in zip(kinds, rng.sample(range(len(roots)),
                                                 len(kinds))):
                roots[i] = _CORRUPTIONS[each](roots[i])
            bad = tmp_path / f"bad_{seed}.json"
            bad.write_text(json.dumps({**doc, "roots": roots}))
            expected = _reference_load_fault(str(bad), roots, 5, 2500)
            assert expected is not None
            with pytest.raises(expected[0]) as exc:
                load_table(str(bad), fix, digest)
            assert str(exc.value) == expected[1]


_UNPARSEABLE = {
    # an integer over Python's 4300-digit int-string limit
    "long-int": lambda key: f'{{"{key}": 1{"0" * 5000}}}'.encode(),
    "invalid-utf8": lambda key: f'{{"{key}": "'.encode() + b"\xff\xfe\"}",
    "deep-nesting": lambda key: (f'{{"{key}": ' + "[" * 200_000
                                 + "]" * 200_000 + "}").encode(),
}


class TestUnparseableFiles:
    """Files json cannot turn into a document exit 2, not 1 with a
    traceback."""

    @pytest.mark.parametrize("case", _UNPARSEABLE)
    def test_profile(self, tmp_path, capsys, case):
        path = tmp_path / "profile.json"
        path.write_bytes(_UNPARSEABLE[case]("fix"))
        with pytest.raises(FileFormatError):
            load_profile(str(path))
        assert main(["profile-check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("case", _UNPARSEABLE)
    def test_table(self, demo_profile_path, tmp_path, capsys, case):
        path = tmp_path / "table.json"
        path.write_bytes(_UNPARSEABLE[case]("roots"))
        assert main(["verify", demo_profile_path, str(path),
                     "--suite", "table"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestGoldenDigests:
    """SHA-256 of the demo profile's table file, of two reports' bytes,
    of the sqrt request path's output, taken before the rules were each
    given one home and decided once, and of the grid trace files, taken
    while grid runs still built their trace records eagerly; a change that
    keeps behaviour keeps them."""

    def test_demo_outputs(self, demo_profile_path, demo_table_path, capsys):
        def digest(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()

        capsys.readouterr()
        assert digest(Path(demo_table_path).read_bytes()) == \
            "f0ac122dacb20b5d7b3ba1c0761abbf9e5b40e7f1bbdbb364df42ce9d441fa5e"
        assert main(["verify", demo_profile_path, demo_table_path,
                     "--suite", "all", "--exhaustive"]) == 0
        # retaken once the table suite read its profile and step from the
        # table and dropped table.consistent, which only they could fail
        assert digest(capsys.readouterr().out.encode()) == \
            "79762341bca14fdd4ebfd2772fdcf153a69d61244cb3b5a9ecf76fb5b55a20ae"
        assert main(["profile-check", demo_profile_path]) == 0
        # retaken once the two profile rules no profile can fail were gone
        assert digest(capsys.readouterr().out.encode()) == \
            "f72ff1b8229895e3362fc6b6ad40e53e95c809b6d7b12ed9d44859e217748c36"

    @pytest.mark.parametrize("args,expected", [
        (["--mode", "mix", "--value", "3.00", "--eps", "0.25"],
         "d3c7e3218da6cd0c37333ef58f81f906c7adcfb85e0a41db94ba2cf5df313a01"),
        (["--mode", "float", "--value", "12", "--eps", "0.25"],
         "35fc3f612c398cddc228c41b3b650a5c98709b8cf5814e0e87762cc73354df43"),
        (["--mode", "fix", "--value", "3.00", "--eps", "0.25", "--n", "3"],
         "e80fcd1769c9e4f7b3c4091b3f9b0049b9c2dd4c17c7c521bced9ada8a83143c"),
        (["--mode", "exact", "--value", "2", "--eps", "1/100"],
         "2d16dac6b1639084f119e839d41126816bea64535b17f75ef2a40180173eee36"),
        (["--mode", "float", "--value", "12", "--ulp", "1"],
         "35fc3f612c398cddc228c41b3b650a5c98709b8cf5814e0e87762cc73354df43"),
        (["--mode", "float", "--value", "0", "--eps", "0.25"],
         "f4e4db5942e429763ab7b50f16573ab61c0619ceb1cdd461a0e9f181486ad870"),
    ], ids=["mix", "float", "fix", "exact", "float-ulp", "float-zero"])
    def test_sqrt_outputs(self, demo_profile_path, demo_table_path, capsys,
                          args, expected):
        capsys.readouterr()
        assert main(["sqrt", demo_profile_path, demo_table_path] + args) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() \
            == expected

    @pytest.mark.parametrize("args,csv_digest,json_digest", [
        (["--mode", "mix", "--value", "3.00", "--eps", "0.25"],
         "4a9cb2eee2c9089872207ea13e38e91ff6f7a1c4c3e19afb7e636b849f8a7546",
         "057d4168ac7c87792af9ebe085b4f56d29e1771e81e53ad22a53a8227e07b89d"),
        (["--mode", "fix", "--value", "3.00", "--eps", "0.25", "--n", "3"],
         "ab908967128966e514883a8838d444095bee0c13891c56bdd1c8ca060cc9f763",
         "081befde96f949f862b58025f329cec69fd41c448acb6803b1ec32da0f77ed4f"),
        (["--mode", "float", "--value", "12", "--eps", "0.25"],
         "50cec10dd163d882df0f48263ab95b13acdb2e644920b4f7b4ea3430cbfaf453",
         "554ebcde13d69983568b88c1f019453b57571dd077a7fb94ffe36bc4bed4cb83"),
        (["--mode", "float", "--value", "0", "--eps", "0.25"],
         "53a664026c71f10bc9ec1d10f1480996fdc2949fd1850f03cd461c54e61cd41b",
         "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
        (["--mode", "exact", "--value", "2", "--eps", "1/100"],
         "b329f41c01e73dd4963c3d85f6ae862bbdc18719bbbe7c67c1bea9dd7215d45e",
         "65fbc28f3d5b13b4f11d269e11d0f2c2866b644913be339d8edf7695e47fb5ec"),
        # a 52,397-bit result, whose long parts are written in hex; taken
        # while trace_rows still read the steps view
        (["--mode", "exact", "--value", "99999989/991", "--eps", "1/1000"],
         "e38aeb007cfc00e2d298eeea540eeadcf02074440b17b0e7aa86c9982157453a",
         "817ac6c638d58fbdc6796f940584abfc51fe51e02ad1ec6bd6ec4f624f971f75"),
    ], ids=["mix", "fix", "float", "float-zero", "exact", "exact-long"])
    def test_sqrt_trace_bytes(self, demo_profile_path, demo_table_path,
                              tmp_path, args, csv_digest, json_digest):
        for suffix, expected in (("csv", csv_digest), ("json", json_digest)):
            out = tmp_path / f"trace.{suffix}"
            assert main(["sqrt", demo_profile_path, demo_table_path] + args
                        + ["--trace", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == expected

    # float requests at exponents -3..3 and two inexact ones, taken while
    # value_of still built its rationals through Fraction powers; a trace
    # file holds the mantissa run only, so values whose halved exponents
    # share a mantissa share its digests
    _CSV_EVEN = \
        "28f48657f49fa52e1546ef32f54488f335dae50e31344cb9f79cdacc3dca9077"
    _JSON_EVEN = \
        "eb896061d615805992d5114f3ffa5c67a1101045e980a31e4de057e5fe95dae6"
    _CSV_ODD = \
        "50cec10dd163d882df0f48263ab95b13acdb2e644920b4f7b4ea3430cbfaf453"
    _JSON_ODD = \
        "554ebcde13d69983568b88c1f019453b57571dd077a7fb94ffe36bc4bed4cb83"

    @pytest.mark.parametrize("value,out_digest,csv_digest,json_digest", [
        ("0.1875",
         "fbbd8e55244f0518456ad8824feb99c80b74fccad7b03292955b0bcc98261c41",
         _CSV_ODD, _JSON_ODD),
        ("0.375",
         "81835bf3ee6972e3c7057cad215ecc5c37725ac48cea1c688f356f0be8a906f0",
         _CSV_EVEN, _JSON_EVEN),
        ("0.75",
         "b8182e83828016f9126fb8dd996cba646df0d9ee97d7c0a02a03532ae226cdb9",
         _CSV_ODD, _JSON_ODD),
        ("1.5",
         "a3ea13b40514ce79fb9c9981d4e47968d20ba04f3dac2c6b55f8765738c69e03",
         _CSV_EVEN, _JSON_EVEN),
        ("3",
         "46aea236ad64b7202886c2d416aa0bf208dab4847861ef2a6dd4c3158984b70f",
         _CSV_ODD, _JSON_ODD),
        ("6",
         "1e9778d5b4d5f285131b09d3df21eb5f6a07d7d9a0648023566ce6b1f75c5696",
         _CSV_EVEN, _JSON_EVEN),
        ("12",
         "35fc3f612c398cddc228c41b3b650a5c98709b8cf5814e0e87762cc73354df43",
         _CSV_ODD, _JSON_ODD),
        ("0.3",
         "03b524c069916fea8063af176a20303ec86892e5deef3775656cc7ec05eb6dc1",
         "c4a701d7fc5cecb5423e5ee3d4b143928acdb736c48c3938534ad48097e82fa7",
         "c5c264f27e31c43a9914b7484d8de20e353fb6eb278c0adfbb85d82b01337f89"),
        ("5",
         "551e67ff253fd96b6c2a61eebaca1fa3788d2e4d86696031b30a4d05b555e13d",
         "16374eca26b5728edc75d3e90631cb2aec196b38f96e432731d41444c97546b1",
         "41f4238333a08c73d2a5bbd53906f76040ef4707e64e64bb477b28d0b0ca3a28"),
    ], ids=["e-3", "e-2", "e-1", "e0", "e1", "e2", "e3", "inexact-0.3",
            "inexact-5"])
    def test_float_sqrt_bytes(self, demo_profile_path, demo_table_path,
                              tmp_path, capsys, value, out_digest,
                              csv_digest, json_digest):
        args = ["sqrt", demo_profile_path, demo_table_path, "--mode",
                "float", "--value", value, "--eps", "0.25"]
        capsys.readouterr()
        assert main(args) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() \
            == out_digest
        for suffix, expected in (("csv", csv_digest), ("json", json_digest)):
            out = tmp_path / f"trace.{suffix}"
            assert main(args + ["--trace", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == expected

    def test_invalid_profile_check(self, tmp_path, capsys):
        # retaken as test_demo_outputs' profile-check digest
        expected = \
            "57e8c1b1faf56e6b1309f7899781d2a5096ac684179c83e7b385a325174fcd45"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(HALF_STEP_PROFILE))
        capsys.readouterr()
        assert main(["profile-check", str(path)]) == 1
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() \
            == expected


class TestSqrt:
    def test_mix_three(self, demo_profile_path, demo_table_path, capsys):
        code = main(["sqrt", demo_profile_path, demo_table_path,
                     "--mode", "mix", "--value", "3.00", "--eps", "0.25"])
        out = capsys.readouterr().out
        assert code == 0
        assert "x = 173/100" in out
        assert "bound = 1/4" in out
        assert "check = PASS" in out

    def test_float_twelve(self, demo_profile_path, demo_table_path, capsys):
        code = main(["sqrt", demo_profile_path, demo_table_path,
                     "--mode", "float", "--value", "12", "--eps", "0.25"])
        out = capsys.readouterr().out
        assert code == 0
        assert "b = 173/100 * 2^1" in out
        assert "check = PASS" in out

    def test_fix_below_one_rejected(self, demo_profile_path,
                                    demo_table_path):
        code = main(["sqrt", demo_profile_path, demo_table_path,
                     "--mode", "fix", "--value", "0.5", "--eps", "0.25",
                     "--n", "1"])
        assert code == 1

    def test_fix_requires_n(self, demo_profile_path, demo_table_path):
        code = main(["sqrt", demo_profile_path, demo_table_path,
                     "--mode", "fix", "--value", "3.00", "--eps", "0.25"])
        assert code == 2

    def test_exact_without_table(self, demo_profile_path, capsys):
        code = main(["sqrt", demo_profile_path, "--mode", "exact",
                     "--value", "2", "--eps", "1/100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "x = 17/12" in out

    def test_mix_requires_table(self, demo_profile_path):
        code = main(["sqrt", demo_profile_path, "--mode", "mix",
                     "--value", "3.00", "--eps", "0.25"])
        assert code == 2

    def test_eps_too_small_exit_1(self, demo_profile_path, demo_table_path,
                                  capsys):
        code = main(["sqrt", demo_profile_path, demo_table_path,
                     "--mode", "mix", "--value", "3.00", "--eps", "0.01"])
        assert code == 1
        assert "EpsTooSmall" in capsys.readouterr().err

    def test_ulp_mode(self, demo_profile_path, demo_table_path, capsys):
        code = main(["sqrt", demo_profile_path, demo_table_path,
                     "--mode", "float", "--value", "12", "--ulp", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "check = PASS" in out

    @pytest.mark.parametrize("flags,message", [
        (["--eps", "1/2", "--ulp", "1"],
         "argument --ulp: not allowed with argument --eps"),
        ([], "one of the arguments --eps --ulp is required"),
    ], ids=["both", "neither"])
    def test_one_accuracy_flag(self, demo_profile_path, demo_table_path,
                               capsys, flags, message):
        capsys.readouterr()
        assert main(["sqrt", demo_profile_path, demo_table_path, "--mode",
                     "mix", "--value", "3", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_trace_csv(self, demo_profile_path, demo_table_path, tmp_path,
                       capsys):
        out = tmp_path / "trace.csv"
        code = main(["sqrt", demo_profile_path, demo_table_path,
                     "--mode", "mix", "--value", "3.00", "--eps", "0.25",
                     "--trace", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "algorithm,k,x_num,x_den,x_count,correction,exact_flag"
        assert len(lines) == 3  # one iteration plus the final row

    def test_trace_json(self, demo_profile_path, demo_table_path, tmp_path):
        out = tmp_path / "trace.json"
        main(["sqrt", demo_profile_path, demo_table_path,
              "--mode", "mix", "--value", "3.00", "--eps", "0.25",
              "--trace", str(out)])
        rows = json.loads(out.read_text())
        assert rows[0]["x_count"] == 174
        assert rows[-1]["x_count"] == 173


# the 1/1000 grid on [-4000, 4000]: float exponents reach +-4000
WIDE_PROFILE = {
    "fix": {"delta_den": 1000, "inf_count": 4000000, "sup_count": 4000000},
    "float": {"base": 2, "inf_F": "65536/1", "sup_F": "65536/1"},
    "step": {"stp_count": 16, "eps_count": 8},
}


@pytest.fixture(scope="module")
def wide_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("wide")
    profile, table = root / "profile.json", root / "table.json"
    profile.write_text(json.dumps(WIDE_PROFILE))
    assert main(["table-build", str(profile), str(table)]) == 0
    return str(profile), str(table)


class TestWideFloatBound:
    """A float result whose bound terms exceed the host float range still
    prints its bound; the display falls back, the verdict is exact."""

    @pytest.mark.parametrize("power,display", [
        (2000, "(~4.47545e+298)"), (2300, "(~out-of-float-range)")])
    def test_bound_prints(self, wide_paths, capsys, power, display):
        profile, table = wide_paths
        capsys.readouterr()
        code = main(["sqrt", profile, table, "--mode", "float",
                     "--value", str(2 ** power), "--eps", "0.008"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        lines = dict(line.split(" = ", 1)
                     for line in captured.out.splitlines())
        assert lines["bound"].endswith(display)
        assert lines["check"] == "PASS"


class TestWideExactResult:
    """An exact result with parts far past 4300 decimal digits prints and
    traces in the lossless hex form."""

    ARGS = ["--mode", "exact", "--value", "1000000", "--eps", "1/1000000"]

    @staticmethod
    def parse(text):
        num, den = text.split("/")
        return F(int(num, 0), int(den, 0))

    def test_prints_hex(self, demo_profile_path, capsys):
        code = main(["sqrt", demo_profile_path, *self.ARGS])
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        lines = dict(line.split(" = ", 1)
                     for line in captured.out.splitlines())
        x = self.parse(lines["x"].split(" ")[0])
        assert x == sqr_exact(F(10 ** 6), F(1, 10 ** 6))[0]
        assert x.denominator.bit_length() > 14300
        assert lines["check"] == "PASS"

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_trace_written(self, demo_profile_path, tmp_path, capsys,
                           suffix):
        out = tmp_path / f"trace.{suffix}"
        code = main(["sqrt", demo_profile_path, *self.ARGS,
                     "--trace", str(out)])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        if suffix == "json":
            last = json.loads(out.read_text())[-1]
        else:
            header, *_, row = out.read_text().splitlines()
            last = dict(zip(header.split(","), row.split(",")))
        x = F(int(last["x_num"], 0), int(last["x_den"], 0))
        assert x == sqr_exact(F(10 ** 6), F(1, 10 ** 6))[0]


class TestNegativeSamples:
    @pytest.mark.parametrize("command", [
        ["verify", "TABLE", "--suite", "adjust"],
        ["profile-check"],
    ], ids=["verify", "profile-check"])
    def test_usage_error(self, demo_profile_path, demo_table_path, capsys,
                         command):
        argv = [command[0], demo_profile_path] + [
            demo_table_path if a == "TABLE" else a for a in command[1:]]
        capsys.readouterr()
        assert main(argv + ["--samples", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --samples: expected an integer >= 1, got '-5'" \
            in captured.err
        assert main(argv + ["--samples", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --samples: expected an integer >= 1, got '0'" \
            in captured.err


class TestVerifyCommand:
    def test_samples_deterministic(self, demo_profile_path, demo_table_path,
                                   capsys):
        args = ["verify", demo_profile_path, demo_table_path,
                "--suite", "all", "--samples", "20", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["overall"] is True
        assert len(doc["reports"]) == 4

    def test_single_suite(self, demo_profile_path, demo_table_path, capsys):
        assert main(["verify", demo_profile_path, demo_table_path,
                     "--suite", "table"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["reports"]) == 1

    @pytest.mark.parametrize("suite,flags,unread", [
        ("table", [], ["sample_rationals", "_sample_scan_ys", "grid_inputs"]),
        ("table", ["--exhaustive"], ["grid_values", "grid_inputs"]),
        ("sqr", [], ["_sample_scan_ys", "grid_inputs"]),
        ("fsqr", [], ["sample_rationals"]),
        ("adjust", [], ["sample_rationals"]),
    ])
    def test_builds_only_the_inputs_its_suite_reads(
            self, demo_profile_path, demo_table_path, monkeypatch, suite,
            flags, unread):
        def refuse(*_args):
            raise AssertionError(f"--suite {suite} built unread inputs")

        for name in unread:
            monkeypatch.setattr(f"certisqrt.cli.{name}", refuse)
        assert main(["verify", demo_profile_path, demo_table_path,
                     "--suite", suite, "--samples", "5", *flags]) == 0

    def test_corrupted_table_exit_1(self, demo_profile_path, demo_table_path,
                                    tmp_path, capsys):
        doc = json.loads(Path(demo_table_path).read_text())
        doc["roots"][0] -= 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", demo_profile_path, str(bad),
                     "--suite", "table"]) == 1
        # the first index is k_min = 5
        assert capsys.readouterr().err == (
            f"error: DomainError: table {bad} failed revalidation at index "
            f"5\n")


class TestSweepCommand:
    def test_more_worse_six_rows(self, demo_profile_path, tmp_path, capsys):
        out = tmp_path / "mw.csv"
        code = main(["sweep", demo_profile_path, str(out),
                     "--kind", "more-worse", "--y", "2.00",
                     "--n-min", "1", "--n-max", "6"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7  # header + 6 rows
        assert lines[0].startswith("n,")

    def test_witness_reverified(self, demo_profile_path, tmp_path,
                                fixtures_dir):
        doc = json.loads((fixtures_dir / "more_worse_witness.json")
                         .read_text())
        out = tmp_path / "w.csv"
        y = F(doc["y_count"], 100)
        code = main(["sweep", demo_profile_path, str(out),
                     "--kind", "more-worse", "--y", str(y),
                     "--n-min", str(doc["n_min"]),
                     "--n-max", str(doc["n_max"])])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        increased = [int(r.split(",")[0]) for r in rows
                     if r.split(",")[-1] == "true"]
        assert increased == doc["expect_increase_at"]
        assert all(r.split(",")[-2] == "true" for r in rows)  # bound holds

    def test_scan_reports_fixture_witness(self, tmp_path, fixtures_dir,
                                          capsys):
        """Without --y the sweep's first witness is the shipped fixture."""
        doc = json.loads((fixtures_dir / "more_worse_witness.json")
                         .read_text())
        d = json.loads((fixtures_dir / doc["profile"]).read_text())[
            "fix"]["delta_den"]
        out = tmp_path / "scan.csv"
        code = main(["sweep", str(fixtures_dir / doc["profile"]), str(out),
                     "--kind", "more-worse",
                     "--n-min", str(doc["n_min"]),
                     "--n-max", str(doc["n_max"])])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (f"witness: y={doc['y_count']}/{d} "
                            f"increases at n={doc['expect_increase_at']}")
        assert lines[1].startswith(f"wrote {out}: ")

    def test_scan_csv_equals_explicit_y(self, demo_profile_path, tmp_path):
        scan, explicit = tmp_path / "scan.csv", tmp_path / "y.csv"
        assert main(["sweep", demo_profile_path, str(scan),
                     "--kind", "more-worse"]) == 0
        assert main(["sweep", demo_profile_path, str(explicit),
                     "--kind", "more-worse", "--y", "102/100"]) == 0
        assert scan.read_bytes() == explicit.read_bytes()

    def test_scan_builds_each_value_when_probed(self, demo_profile_path,
                                                tmp_path, monkeypatch,
                                                capsys):
        """The scan walks the counts of (1, sup/2] and builds no list of
        every grid value before its first probe."""
        def refuse(*_args):
            raise AssertionError("the scan built every grid value")

        monkeypatch.setattr("certisqrt.cli.grid_values", refuse)
        out = tmp_path / "scan.csv"
        assert main(["sweep", demo_profile_path, str(out),
                     "--kind", "more-worse"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == \
            "witness: y=102/100 increases at n=[2, 4, 6]"

    def test_scan_without_witness_exit_1(self, demo_profile_path, tmp_path,
                                         capsys):
        """One iteration count gives one row, so no error can grow."""
        out = tmp_path / "none.csv"
        code = main(["sweep", demo_profile_path, str(out),
                     "--kind", "more-worse", "--n-min", "1", "--n-max", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no grid value in (1, 8] ")
        assert not out.exists()

    def test_balance_three_rows(self, demo_profile_path, tmp_path):
        out = tmp_path / "bal.csv"
        code = main(["sweep", demo_profile_path, str(out),
                     "--kind", "balance", "--stp", "1/4,1/2,1"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert all(line.split(",")[6] == "true" for line in lines[1:])

    def test_balance_default_candidates(self, demo_profile_path, tmp_path):
        """Without --stp: every multiple of eps dividing sup with a table
        of at most 256 entries, each row within its predicted bound."""
        out = tmp_path / "bal.csv"
        code = main(["sweep", demo_profile_path, str(out),
                     "--kind", "balance"])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["1/4", "1/2", "1/1", "2/1", "4/1",
                                        "8/1", "16/1"]
        assert all(r[6] == "true" for r in rows)

    @pytest.mark.parametrize("fix,eps", [
        ((100, 1600, 1600), 25), ((1000, 4_000_000, 4_000_000), 8),
        ((10, 40, 40), 1), ((4, 40, 5120), 2), ((3, 30, 48), 3),
    ], ids=["demo", "wide", "micro", "past-256", "third"])
    def test_balance_default_candidates_walk(self, tmp_path, fix, eps):
        """The candidates sup/t, t = 256 down to 1, are the divisors of sup
        that are multiples of eps with a table of at most 256 entries."""
        d, inf, sup = fix
        profile, out = tmp_path / "p.json", tmp_path / "bal.csv"
        profile.write_text(json.dumps({
            "fix": {"delta_den": d, "inf_count": inf, "sup_count": sup},
            "float": {"base": 2, "inf_F": "65536/1", "sup_F": "65536/1"},
            "step": {"stp_count": eps, "eps_count": eps}}))
        assert main(["sweep", str(profile), str(out), "--kind",
                     "balance"]) in (0, 1)
        want = [rat_str(F(c, d))
                for c in reversed(_divisors_below(sup, sup + 1))
                if c % eps == 0 and sup // c <= MAX_BALANCE_TABLE]
        assert [line.split(",")[0] for line in
                out.read_text().splitlines()[1:]] == want

    def test_balance_rows_outside_their_bound_exit_1(
            self, demo_profile_path, tmp_path, capsys, monkeypatch):
        """Negative control: a grid run 50 steps high at y = 101/100, the
        first sampled input, leaves every row outside its bound."""
        def high(y, eps, table, n):
            x, trace = fix_sqr(y, eps, table, n)
            return (FixVal(x.count + 50, x.profile) if y.count == 101
                    else x), trace

        monkeypatch.setattr("certisqrt.verify.fix_sqr", high)
        out = tmp_path / "bal.csv"
        capsys.readouterr()
        assert main(["sweep", demo_profile_path, str(out),
                     "--kind", "balance"]) == 1
        assert capsys.readouterr() == (f"wrote {out}: 7 rows\n", "")
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 7
        assert all(r[1] == "true" and r[6] == "false" for r in rows)

    @pytest.fixture
    def zero_eps_profile(self, demo_profile_path, tmp_path):
        """The demo profile with eps_count 0."""
        doc = json.loads(Path(demo_profile_path).read_text())
        doc["step"]["eps_count"] = 0
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps(doc))
        return str(profile)

    def test_balance_default_needs_positive_eps(self, zero_eps_profile,
                                                tmp_path, capsys):
        out = tmp_path / "bal.csv"
        assert main(["sweep", zero_eps_profile, str(out),
                     "--kind", "balance"]) == 1
        assert "accuracy must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_balance_empty_candidates(self, demo_profile_path, tmp_path,
                                      capsys):
        out = tmp_path / "x.csv"
        code = main(["sweep", demo_profile_path, str(out),
                     "--kind", "balance", "--stp", ""])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: kind balance requires a non-empty --stp list\n")
        assert not out.exists()

    def test_invalid_candidate_row(self, demo_profile_path, tmp_path,
                                   capsys):
        out = tmp_path / "inv.csv"
        code = main(["sweep", demo_profile_path, str(out),
                     "--kind", "balance", "--stp", "0.30"])
        assert code == 1  # the only row is invalid: nothing was checked
        line = out.read_text().splitlines()[1]
        assert line.split(",")[1] == "false"
        assert capsys.readouterr().err == (
            "error: no candidate step is valid for eps=25/100; "
            "nothing was checked\n")

    def test_every_candidate_invalid_at_zero_eps(self, zero_eps_profile,
                                                 tmp_path, capsys):
        out = tmp_path / "bal.csv"
        assert main(["sweep", zero_eps_profile, str(out), "--kind",
                     "balance", "--stp", "1/4,1/2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out}: 2 rows\n"
        assert captured.err.startswith("error: no candidate step is valid")
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == ["false", "false"]

    def test_one_valid_candidate_decides(self, demo_profile_path, tmp_path):
        out = tmp_path / "mixed.csv"
        assert main(["sweep", demo_profile_path, str(out), "--kind",
                     "balance", "--stp", "0.30,1/4"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == ["false", "true"]


# each rational flag, with the text that precedes its last item
RATIONAL_FLAGS = pytest.mark.parametrize("command,flag,text", [
    (["sqrt", "PROFILE", "TABLE", "--mode", "mix", "--eps", "1/4"],
     "--value", ""),
    (["sqrt", "PROFILE", "TABLE", "--mode", "mix", "--value", "3"],
     "--eps", ""),
    (["sqrt", "PROFILE", "TABLE", "--mode", "float", "--value", "3"],
     "--ulp", ""),
    (["sweep", "PROFILE", "OUT", "--kind", "more-worse"], "--y", ""),
    (["sweep", "PROFILE", "OUT", "--kind", "balance"], "--stp", "1/4, "),
], ids=["value", "eps", "ulp", "y", "stp"])


class TestRationalArguments:
    """A rational flag whose text is no rational, a zero denominator
    included, is a usage error; so is one whose decimal exponent would
    build a power of ten past the CERTISQRT_MAX_BITS cap."""

    @staticmethod
    def _usage_error(paths, tmp_path, capsys, command, flag, text):
        """main's stderr for command with flag text; it must exit 2 with
        nothing on stdout and no output file."""
        out = tmp_path / "out.csv"
        argv = [{**paths, "OUT": str(out)}.get(a, a) for a in command]
        capsys.readouterr()
        assert main(argv + [flag, text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        return captured.err

    @RATIONAL_FLAGS
    def test_zero_denominator_exit_2(self, demo_profile_path,
                                     demo_table_path, tmp_path, capsys,
                                     command, flag, text):
        paths = {"PROFILE": demo_profile_path, "TABLE": demo_table_path}
        err = self._usage_error(paths, tmp_path, capsys, command, flag,
                                text + "1/0")
        assert f"argument {flag}: expected a rational, got '1/0'" in err

    @RATIONAL_FLAGS
    def test_exponent_past_bit_cap_exit_2(self, demo_profile_path,
                                          demo_table_path, tmp_path,
                                          capsys, monkeypatch, command,
                                          flag, text):
        paths = {"PROFILE": demo_profile_path, "TABLE": demo_table_path}
        monkeypatch.setenv("CERTISQRT_MAX_BITS", "64")
        err = self._usage_error(paths, tmp_path, capsys, command, flag,
                                text + "1e100")
        assert err.endswith(f"argument {flag}: rational '1e100' needs "
                            f"10**100, past CERTISQRT_MAX_BITS = 64\n")

    def test_exponent_cap_boundary(self, monkeypatch):
        """10**|e| is refused exactly when its bit length passes the cap:
        10**19 has 64 bits and 10**20 has 67."""
        monkeypatch.setenv("CERTISQRT_MAX_BITS", "64")
        for e in range(100):
            for text in (f"1e{e}", f"-2.5E-{e}", f" 1e+0_{e} "):
                if (10 ** e).bit_length() > 64:
                    with pytest.raises(argparse.ArgumentTypeError,
                                       match="CERTISQRT_MAX_BITS = 64$"):
                        _rational(text)
                else:
                    assert _rational(text) == F(text.replace("_", ""))
        assert _rational("1e10") == 10 ** 10
        assert _rational("1e0000000000000000019") == 10 ** 19
        monkeypatch.setenv("CERTISQRT_MAX_BITS", "64 bits")
        assert _rational("1/4") == F(1, 4)
        with pytest.raises(argparse.ArgumentTypeError, match="^CERTISQRT_MAX"
                           "_BITS must be an integer, got '64 bits'$"):
            _rational("1e10")

    @pytest.mark.parametrize("text", ["1e10000000", "-1E-10000000",
                                      "1e" + "9" * 5000])
    def test_huge_exponent_refused_at_the_default_cap(self, text,
                                                      monkeypatch):
        """Fraction would build 10**10000000 whole, in seconds; an
        exponent of 16 or more digits is refused without reading it."""
        monkeypatch.delenv("CERTISQRT_MAX_BITS", raising=False)
        with pytest.raises(argparse.ArgumentTypeError,
                           match="past CERTISQRT_MAX_BITS = 2097152$"):
            _rational(text)


class TestHugeRationalRefusals:
    """A refusal that names a rational or a grid count of 5,000 digits
    writes its long parts in hex and exits 1 with a typed error, not a
    traceback from the interpreter's int-to-str digit limit."""

    @pytest.mark.parametrize("command,error", [
        (["sqrt", "PROFILE", "--mode", "exact", "--value", "1e-5000",
          "--eps", "1"], "DomainError"),
        (["sqrt", "PROFILE", "--mode", "exact", "--value", "2",
          "--eps=-1e-5000"], "DomainError"),
        (["sqrt", "PROFILE", "TABLE", "--mode", "mix", "--value", "1e-5000",
          "--eps", "0.25"], "DomainError"),
        (["sqrt", "PROFILE", "TABLE", "--mode", "mix", "--value", "3",
          "--eps", "1e-5000"], "DomainError"),
        (["sqrt", "PROFILE", "TABLE", "--mode", "float", "--value", "1e5000",
          "--eps", "0.25"], "RangeOverflow"),
        (["sqrt", "PROFILE", "TABLE", "--mode", "float", "--value", "3",
          "--ulp", "1e-5000"], "NoFeasibleEps"),
        (["sweep", "PROFILE", "OUT", "--kind", "more-worse", "--y",
          "1e-5000"], "DomainError"),
        (["sweep", "PROFILE", "OUT", "--kind", "balance", "--stp",
          "1e-5000"], "DomainError"),
        # grid values whose counts are 5,000 digits long
        (["sqrt", "PROFILE", "TABLE", "--mode", "mix", "--value", "1e5000",
          "--eps", "0.25"], "RangeOverflow"),
        (["sqrt", "PROFILE", "TABLE", "--mode", "mix", "--value", "3",
          "--eps", "1e5000"], "RangeOverflow"),
        (["sweep", "PROFILE", "OUT", "--kind", "more-worse", "--y",
          "1e5000"], "RangeOverflow"),
        (["sweep", "PROFILE", "OUT", "--kind", "balance", "--stp",
          "1e5000"], "RangeOverflow"),
    ], ids=["exact-value", "exact-eps", "mix-value", "mix-eps",
            "float-value", "float-ulp", "more-worse-y", "balance-stp",
            "mix-value-count", "mix-eps-count", "more-worse-y-count",
            "balance-stp-count"])
    def test_exit_1_typed(self, demo_profile_path, demo_table_path,
                          tmp_path, capsys, command, error):
        out = tmp_path / "out.csv"
        argv = [{"PROFILE": demo_profile_path, "TABLE": demo_table_path,
                 "OUT": str(out)}.get(a, a) for a in command]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {error}: ")
        assert "0x" in captured.err and "Traceback" not in captured.err
        assert not out.exists()


class TestUnwritableOutput:
    """An output path in a missing directory is a usage error that names
    the path."""

    @pytest.mark.parametrize("command,name", [
        (["table-build", "PROFILE", "OUT"], "table.json"),
        (["sweep", "PROFILE", "OUT", "--kind", "more-worse", "--y", "2"],
         "mw.csv"),
        (["sweep", "PROFILE", "OUT", "--kind", "balance", "--stp", "1/4"],
         "bal.csv"),
        (["sqrt", "PROFILE", "TABLE", "--mode", "mix", "--value", "3",
          "--eps", "1/4", "--trace", "OUT"], "trace.csv"),
        (["sqrt", "PROFILE", "TABLE", "--mode", "mix", "--value", "3",
          "--eps", "1/4", "--trace", "OUT"], "trace.json"),
    ], ids=["table-build", "sweep-more-worse", "sweep-balance",
            "sqrt-trace-csv", "sqrt-trace-json"])
    def test_missing_directory_exit_2(self, demo_profile_path,
                                      demo_table_path, tmp_path, capsys,
                                      command, name):
        out = tmp_path / "missing" / name
        argv = [{"PROFILE": demo_profile_path, "TABLE": demo_table_path,
                 "OUT": str(out)}.get(a, a) for a in command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "No such file or directory" in err
        assert not out.parent.exists()


def _run_cli(argv: list[str], stdout, cwd: Path,
             **kwargs) -> subprocess.CompletedProcess:
    """certisqrt run as its own process, so the flush of stdout at
    interpreter exit happens as it does for the console script; it
    imports the certisqrt these tests import."""
    import certisqrt
    where = str(Path(certisqrt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [where, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "certisqrt.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          cwd=cwd, env=env, check=False, **kwargs)


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this system")


class TestFailedWrites:
    """A write that fails, to stdout or to an output file, ends like any
    other refusal: exit 2 and one error line, with no traceback and no
    error from the flush at interpreter exit."""

    SQRT = ["sqrt", "PROFILE", "--mode", "exact", "--value", "2", "--eps",
            "1/100"]

    @staticmethod
    def _argv(argv, demo_profile_path, demo_table_path):
        return [{"PROFILE": demo_profile_path,
                 "TABLE": demo_table_path}.get(a, a) for a in argv]

    @staticmethod
    def _one_line(proc, target):
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: cannot write {target}: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        SQRT, ["verify", "PROFILE", "TABLE", "--suite", "table"],
    ], ids=["sqrt", "verify"])
    def test_closed_stdout(self, demo_profile_path, demo_table_path,
                           tmp_path, argv):
        """stdout a pipe whose read end is closed before the process
        starts, so the first write fails, as under `| head -1`."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _run_cli(
                self._argv(argv, demo_profile_path, demo_table_path),
                write_end, tmp_path)
        finally:
            os.close(write_end)
        self._one_line(proc, "standard output")
        assert "Broken pipe" in proc.stderr

    @needs_dev_full
    @pytest.mark.parametrize("argv", [["profile-check", "PROFILE"], SQRT],
                             ids=["profile-check", "sqrt"])
    def test_stdout_on_full_device(self, demo_profile_path, tmp_path, argv):
        with open("/dev/full", "w") as full:
            proc = _run_cli(self._argv(argv, demo_profile_path, None),
                            full, tmp_path)
        self._one_line(proc, "standard output")

    @needs_dev_full
    @pytest.mark.parametrize("argv", [
        ["sqrt", "PROFILE", "TABLE", "--mode", "mix", "--value", "3",
         "--eps", "1/4", "--trace", "/dev/full"],
        ["table-build", "PROFILE", "/dev/full"],
        ["sweep", "PROFILE", "/dev/full", "--kind", "more-worse", "--y", "2"],
        ["sweep", "PROFILE", "/dev/full", "--kind", "balance", "--stp",
         "1/4"],
    ], ids=["sqrt-trace", "table-build", "sweep-more-worse", "sweep-balance"])
    def test_output_on_full_device(self, demo_profile_path, demo_table_path,
                                   tmp_path, argv):
        proc = _run_cli(self._argv(argv, demo_profile_path, demo_table_path),
                        subprocess.DEVNULL, tmp_path)
        self._one_line(proc, "/dev/full")

    def test_started_without_stdout(self, demo_profile_path, tmp_path):
        """Started with fd 1 closed (`>&-`), the interpreter gives no
        stdout object and print writes nothing: the lost report ends as
        a failed write, not as a success."""
        proc = _run_cli(["profile-check", demo_profile_path], None, tmp_path,
                        preexec_fn=lambda: os.close(1))
        self._one_line(proc, "standard output")
        assert "Bad file descriptor" in proc.stderr

    def test_in_memory_stdout(self, demo_profile_path, capsys, monkeypatch):
        """In process, as perfbench's call_main calls it, a stdout with no
        file descriptor sees only the status and the line: no descriptor
        is redirected."""
        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        dup2 = []
        monkeypatch.setattr(os, "dup2", lambda *fds: dup2.append(fds))
        capsys.readouterr()
        with contextlib.redirect_stdout(FullStdout()):
            assert main(["profile-check", demo_profile_path]) == 2
        assert capsys.readouterr().err == ("error: cannot write standard "
                                           "output: [Errno 28] No space "
                                           "left on device\n")
        assert dup2 == []


class _LazyGridValues(Sequence):
    """grid_values(fix, hi) as a sequence that makes each value when it is
    read, so the list-based draw can be replayed on a grid whose list
    would not fit in a test's memory."""

    def __init__(self, fix, hi):
        self.fix = fix
        self.counts = range(fix.delta_den + 1, int(hi * fix.delta_den) + 1)

    def __len__(self):
        return len(self.counts)

    def __getitem__(self, i):
        return FixVal(self.counts[i], self.fix)


# sup = 2*d + 1: the grid rules pass and a table builds, but no grid value
# lies in (1, sup/2] = (1, 21/20], so the grid runs accept no input
EMPTY_INPUTS_PROFILE = {
    "fix": {"delta_den": 10, "inf_count": 40, "sup_count": 21},
    "float": {"base": 2, "inf_F": "8/1", "sup_F": "8/1"},
    "step": {"stp_count": 3, "eps_count": 3},
}
EMPTY_INPUTS_ERROR = ("error: DomainError: no grid value in (1, 21/20]: the "
                      "grid runs accept no input on this profile\n")


class TestEmptyGridInputs:
    """A suite or sweep over the grid runs' inputs refuses a profile that
    has none, with exit 1 and one error line, rather than pass having
    checked nothing."""

    @pytest.fixture
    def paths(self, tmp_path):
        profile, table = tmp_path / "p.json", tmp_path / "t.json"
        profile.write_text(json.dumps(EMPTY_INPUTS_PROFILE))
        assert main(["table-build", str(profile), str(table)]) == 0
        return str(profile), str(table)

    @pytest.mark.parametrize("suite", ["fsqr", "adjust", "all"])
    @pytest.mark.parametrize("flags", [[], ["--exhaustive"]],
                             ids=["sampled", "exhaustive"])
    def test_verify_exit_1(self, paths, capsys, suite, flags):
        capsys.readouterr()
        assert main(["verify", *paths, "--suite", suite, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == EMPTY_INPUTS_ERROR

    def test_other_suites_run(self, paths, capsys):
        for suite in ("table", "sqr"):
            assert main(["verify", *paths, "--suite", suite,
                         "--samples", "3"]) == 0

    def test_balance_writes_rows_then_exit_1(self, paths, tmp_path, capsys):
        out = tmp_path / "bal.csv"
        capsys.readouterr()
        assert main(["sweep", paths[0], str(out), "--kind", "balance"]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out}: 2 rows\n"
        assert captured.err == EMPTY_INPUTS_ERROR
        assert len(out.read_text().splitlines()) == 3

    def test_more_worse_exit_1(self, paths, tmp_path, capsys):
        capsys.readouterr()
        assert main(["sweep", paths[0], str(tmp_path / "mw.csv"),
                     "--kind", "more-worse"]) == 1
        assert capsys.readouterr().err == (
            "error: no grid value in (1, 21/20] shows an error increase "
            "within its bound for n in [1, 6]\n")


class TestGridPastSsizeT:
    """The demo profile with sup_count 10**30: its table indices and grid
    inputs are ranges longer than len() takes.  Each command that builds
    the table is refused by the cap, and the default balance sweep finds
    its candidates without a divisor search of sup."""

    CAP = ("error: ResourceLimit: table would need "
           "39999999999999999999999999996 entries, cap 1000000\n")

    @pytest.fixture
    def paths(self, demo_profile_path, tmp_path, monkeypatch):
        monkeypatch.delenv("CERTISQRT_MAX_TABLE", raising=False)
        doc = json.loads(Path(demo_profile_path).read_text())
        doc["fix"]["sup_count"] = 10 ** 30
        profile, table = tmp_path / "huge.json", tmp_path / "t.json"
        profile.write_text(json.dumps(doc))
        table.write_text(json.dumps({
            "profile_hash": profile_digest(*load_profile(str(profile))),
            "delta_den": 100, "sup_count": 10 ** 30, "stp_count": 25,
            "roots": []}))
        return {"PROFILE": str(profile), "TABLE": str(table),
                "OUT": str(tmp_path / "out")}

    @pytest.mark.parametrize("argv", [
        ["table-build", "PROFILE", "OUT"],
        ["sweep", "PROFILE", "OUT", "--kind", "more-worse", "--y", "2"],
        ["sweep", "PROFILE", "OUT", "--kind", "balance", "--stp", "1/4"],
        ["verify", "PROFILE", "TABLE", "--suite", "table"],
    ], ids=["table-build", "sweep-more-worse", "sweep-balance", "load"])
    def test_table_cap_refuses(self, paths, capsys, argv):
        capsys.readouterr()
        assert main([paths.get(a, a) for a in argv]) == 1
        assert capsys.readouterr() == ("", self.CAP)
        assert not Path(paths["OUT"]).exists()

    def test_root_table_counts_its_indices(self):
        fix = FixProfile(100, 1600, 10 ** 30)
        with pytest.raises(DomainError, match="^table has 0 entries, "
                           "expected 39999999999999999999999999996$"):
            RootTable(fix, fix.val(25), ())

    def test_default_balance_sweep(self, paths, capsys):
        capsys.readouterr()
        assert main(["sweep", paths["PROFILE"], paths["OUT"],
                     "--kind", "balance"]) == 0
        rows = [line.split(",") for line in
                Path(paths["OUT"]).read_text().splitlines()[1:]]
        # table sizes t = 2**a * 5**b <= 256, descending
        assert [int(r[2]) for r in rows] == [
            256, 250, 200, 160, 128, 125, 100, 80, 64, 50, 40, 32, 25, 20,
            16, 10, 8, 5, 4, 2, 1]
        assert all(r[1] == r[6] == "true" for r in rows)


class TestSampledSuitesPastSsizeT:
    """The demo profile with sup, step and eps counts all 10**30: a
    1-entry table and 5*10**29 - 100 grid inputs, more than
    random.sample takes.  The sampled fsqr and adjust suites draw their
    inputs by randrange instead, and pass."""

    @pytest.mark.parametrize("suite,checks", [("fsqr", 3), ("adjust", 18)])
    def test_sampled_suite_exit_0(self, demo_profile_path, tmp_path, capsys,
                                  suite, checks):
        doc = json.loads(Path(demo_profile_path).read_text())
        doc["fix"]["sup_count"] = 10 ** 30
        doc["step"] = {"stp_count": 10 ** 30, "eps_count": 10 ** 30}
        profile, table = tmp_path / "huge.json", tmp_path / "t.json"
        profile.write_text(json.dumps(doc))
        assert main(["table-build", str(profile), str(table)]) == 0
        proc = _run_cli(["verify", str(profile), str(table), "--suite",
                         suite, "--samples", "3"], subprocess.PIPE, tmp_path,
                        timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        out = json.loads(proc.stdout)
        assert out["overall"] is True
        assert len(out["reports"][0]["checks"]) == checks


class TestUlpDivisorSearch:
    """--ulp on the demo grid with sup_count 10**30 and a step of
    2.5*10**29 counts: the accuracy search tries only the step's divisors
    below ulp/2, and refuses a search past its trial cap before it
    starts."""

    @pytest.fixture
    def profile(self, demo_profile_path, tmp_path):
        doc = json.loads(Path(demo_profile_path).read_text())
        doc["fix"]["sup_count"] = 10 ** 30
        doc["step"] = {"stp_count": 25 * 10 ** 28, "eps_count": 25 * 10 ** 28}
        path = tmp_path / "huge_step.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_unit_ulp_refused_quickly(self, profile, tmp_path):
        start = perf_counter()
        proc = _run_cli(["sqrt", profile, "--mode", "exact", "--value", "2",
                         "--ulp", "1"], subprocess.PIPE, tmp_path, timeout=60)
        elapsed = perf_counter() - start
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: NoFeasibleEps: ")
        assert proc.stderr.count("\n") == 1
        assert elapsed < 2

    def test_search_past_the_cap_refused(self, profile, capsys):
        capsys.readouterr()
        assert main(["sqrt", profile, "--mode", "exact", "--value", "2",
                     "--ulp", str(10 ** 40)]) == 1
        assert capsys.readouterr() == ("", (
            f"error: ResourceLimit: the divisors of {25 * 10 ** 28} below "
            f"{5 * 10 ** 41} need {5 * 10 ** 14} trial divisions, "
            f"cap 1048576\n"))


class TestSampledScanDraw:
    """The sampled verify suites draw their grid inputs on counts; the draw
    is the one random.sample makes from the list of every grid value."""

    @staticmethod
    def list_draw(pool, samples, seed):
        picked = random.Random(seed).sample(pool, min(samples, len(pool)))
        return sorted(picked, key=lambda v: v.count)

    def test_demo_matches_list(self, demo_profile):
        pool = grid_values(demo_profile, demo_profile.sup_value / 2)
        assert list(_LazyGridValues(demo_profile,
                                    demo_profile.sup_value / 2)) == pool
        for seed in range(4):
            for samples in (1, 50, 699, 700, 5000):
                assert _sample_scan_ys(demo_profile, samples, seed) == \
                    self.list_draw(pool, samples, seed)

    def test_wide_matches_list(self):
        fix = FixProfile(**WIDE_PROFILE["fix"])
        pool = _LazyGridValues(fix, fix.sup_value / 2)
        assert len(pool) == 1_999_000
        for seed in range(4):
            for samples in (1, 100, 5000):
                drawn = _sample_scan_ys(fix, samples, seed)
                assert drawn == self.list_draw(pool, samples, seed)

    def test_past_ssize_t_draws_distinct_inputs(self):
        # 5*10**29 - 100 inputs: random.sample would take their len()
        fix = FixProfile(100, 1600, 10 ** 30)
        for seed in range(4):
            drawn = [y.count for y in _sample_scan_ys(fix, 5, seed)]
            assert drawn == [y.count for y in _sample_scan_ys(fix, 5, seed)]
            assert drawn == sorted(set(drawn)) and len(drawn) == 5
            assert 100 < drawn[0] and drawn[-1] <= 5 * 10 ** 29


class TestTraceRows:
    def test_exact_trace_columns(self):
        _, trace = sqr_exact(F(2), F(1, 100))
        rows = trace_rows(trace)
        assert rows[0]["x_num"] == 2 and rows[0]["x_den"] == 1
        assert rows[0]["x_count"] == ""
        assert rows[0]["exact_flag"] == "true"
        assert rows[-1]["correction"] == ""


def test_usage_error_exit_2():
    assert main(["sqrt"]) == 2
    assert main(["no-such-command"]) == 2


class TestStepAboveAccuracy:
    """On the demo grid with a table step twice the accuracy, fix_sqr's
    least count is 2: the adjust suite runs its six counts from 2, and
    the more-worse sweep starts at 2 when no --n-min is given."""

    def test_verify_all_and_sweep(self, fixtures_dir, tmp_path, capsys):
        doc = json.loads((fixtures_dir / "demo_profile.json").read_text())
        doc["step"]["stp_count"] = 2 * doc["step"]["eps_count"]
        profile, table = str(tmp_path / "p.json"), str(tmp_path / "t.json")
        Path(profile).write_text(json.dumps(doc))
        assert main(["table-build", profile, table]) == 0
        capsys.readouterr()
        assert main(["verify", profile, table, "--suite", "all"]) == 0
        adjust = json.loads(capsys.readouterr().out)["reports"][-1]
        assert adjust["subject"] == "adjust suite (100 inputs x 6 counts)"
        assert {c["name"].split(" n=")[1] for c in adjust["checks"]} == \
            {"2", "3", "4", "5", "6", "7"}
        out = tmp_path / "mw.csv"
        assert main(["sweep", profile, str(out), "--kind", "more-worse"]) == 0
        assert [row.split(",")[0] for row in out.read_text().splitlines()] \
            == ["n", "2", "3", "4", "5", "6"]


@pytest.fixture
def int_digits_640():
    """The interpreter's int-to-str limit at 640 digits, the least it can
    be set to, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("interpreter without an int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestIntToStrLimit:
    """Under the least int-to-str limit, a long exact trace and a sampled
    sqr verify still exit 0, and every integer part they write reads back
    with int(text, 0): encode_int writes parts past 640 digits in hex."""

    @pytest.mark.parametrize("suffix", ["json", "csv"])
    def test_long_exact_trace(self, demo_profile_path, tmp_path, capsys,
                              int_digits_640, suffix):
        out = tmp_path / f"long.{suffix}"
        assert main(["sqrt", demo_profile_path, "--mode", "exact",
                     "--value", "26066/3", "--eps", "1/1000",
                     "--trace", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        if suffix == "json":
            rows = json.loads(out.read_text())
        else:
            header, *lines = out.read_text().splitlines()
            rows = [dict(zip(header.split(","), line.split(",")))
                    for line in lines]
        parts = [str(r[k]) for r in rows for k in ("x_num", "x_den")]
        parts += [p for r in rows if r["correction"]
                  for p in r["correction"].split("/")]
        for text in parts:
            int(text, 0)
        assert any(text.startswith("0x") for text in parts)

    def test_sampled_sqr_verify(self, demo_profile_path, demo_table_path,
                                capsys, int_digits_640):
        capsys.readouterr()
        assert main(["verify", demo_profile_path, demo_table_path,
                     "--suite", "sqr", "--samples", "40"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = [c["name"] for r in doc["reports"] for c in r["checks"]]
        assert doc["overall"] is True and len(names) == 40
        for name in names:
            for pair in re.findall(r"[-\w]+/[-\w]+", name):
                for text in pair.split("/"):
                    int(text, 0)


    def test_sqr_report_json(self, int_digits_640):
        """The library report of a long run: check_sqr_annotations names
        the 7,526-bit final x, and every rational part of its JSON reads
        back."""
        y, eps = F(26066, 3), F(1, 1000)
        _, trace = sqr_exact(y, eps)
        assert trace.final_x.numerator.bit_length() == 7526
        doc = json.loads(check_sqr_annotations(trace, y, eps).to_json())
        texts = {key: value.split("/") for c in doc["checks"]
                 for key, value in c["witness"].items() if key in ("x", "eps")}
        assert F(*(int(t, 0) for t in texts["x"])) == trace.final_x
        assert F(*(int(t, 0) for t in texts["eps"])) == eps
        assert all(t.startswith("0x") for t in texts["x"])
        assert doc["overall"] is True


class TestRunExits:
    """run(), the console script's entry point, exits through SystemExit
    with main's status and its error line."""

    @pytest.mark.parametrize("argv,code,err", [
        (["profile-check", "PROFILE"], 0, None),
        (["sqrt", "PROFILE", "--mode", "exact", "--value", "1e-5000",
          "--eps", "1"], 1, "error: DomainError: "),
        (["sqrt", "PROFILE", "--mode", "mix", "--value", "3", "--eps", "1/4"],
         2, "error: modes fix/mix/float require a table file\n"),
    ], ids=["pass", "refusal", "usage"])
    def test_exit_status(self, demo_profile_path, monkeypatch, capsys, argv,
                         code, err):
        monkeypatch.setattr(sys, "argv", ["certisqrt"] + [
            demo_profile_path if a == "PROFILE" else a for a in argv])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == code
        captured = capsys.readouterr()
        if err is None:
            assert captured.err == ""
        else:
            assert captured.err.startswith(err) and \
                captured.err.count("\n") == 1


def _set_in(doc, path, value):
    *parents, key = path
    for name in parents:
        doc = doc[name]
    doc[key] = value


class TestFileFieldRefusals:
    """A profile or table file whose field has the wrong kind exits with
    one error line, 2 for a malformed file and 1 for a table that does
    not fit the profile, and prints no traceback."""

    @pytest.mark.parametrize("file,path,value,code,message", [
        ("profile", ("fix", "delta_den"), "100", 2,
         "profile.fix.delta_den: expected an integer, got '100'"),
        ("profile", ("fix", "delta_den"), True, 2,
         "profile.fix.delta_den: expected an integer, got True"),
        ("profile", ("float", "inf_F"), True, 2,
         "profile.float.inf_F: expected a rational, got True"),
        ("profile", ("float", "inf_F"), 1.5, 2,
         "profile.float.inf_F: expected a rational, got 1.5"),
        ("profile", ("float", "inf_F"), "1/0", 2,
         "profile.float.inf_F: not a rational: '1/0'"),
        ("profile", ("float", "inf_F"), [1], 2,
         "profile.float.inf_F: expected a rational, got [1]"),
        ("profile", (), [], 2, "PATH: expected a JSON object"),
        ("profile", ("fix",), [100, 1600, 1600], 2,
         "profile.fix: expected an object, got [100, 1600, 1600]"),
        ("profile", ("float",), "2", 2,
         "profile.float: expected an object, got '2'"),
        ("profile", ("step",), 25, 2,
         "profile.step: expected an object, got 25"),
        ("table", ("delta_den",), 1000, 1,
         "DomainError: table PATH grid does not match the profile"),
        ("table", ("roots",), {"5": 150}, 2,
         "table.roots: expected a list of integers"),
    ], ids=["int-as-string", "int-as-bool", "rational-as-bool",
            "rational-as-float", "zero-denominator", "rational-as-list",
            "top-level-array", "fix-as-list", "float-as-string",
            "step-as-int", "table-grid", "roots-not-a-list"])
    def test_refused(self, demo_profile_path, demo_table_path, tmp_path,
                     capsys, file, path, value, code, message):
        source = demo_profile_path if file == "profile" else demo_table_path
        doc = json.loads(Path(source).read_text())
        if path:
            _set_in(doc, path, value)
        else:
            doc = value
        bad = tmp_path / f"{file}.json"
        bad.write_text(json.dumps(doc))
        argv = (["profile-check", str(bad)] if file == "profile" else
                ["verify", demo_profile_path, str(bad), "--suite", "table"])
        capsys.readouterr()
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: {message.replace('PATH', str(bad))}\n"

    @pytest.mark.parametrize("key", ["inf_F", "sup_F"])
    def test_exponent_past_bit_cap(self, demo_profile_path, tmp_path,
                                   capsys, monkeypatch, key):
        """A profile rational whose power of ten would pass the
        CERTISQRT_MAX_BITS cap is a parse failure; 1e10 is read."""
        monkeypatch.setenv("CERTISQRT_MAX_BITS", "64")
        doc = json.loads(Path(demo_profile_path).read_text())
        path = tmp_path / "profile.json"
        doc["float"][key] = "1e100"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["profile-check", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: profile.float.{key}: rational '1e100' needs 10**100, "
            f"past CERTISQRT_MAX_BITS = 64\n"))
        doc["float"][key] = "1e10"
        path.write_text(json.dumps(doc))
        assert getattr(load_profile(str(path))[1], key.lower()) == 10 ** 10

    def test_int_rational_accepted(self, demo_profile_path, tmp_path):
        """A plain int where a rational is read is that rational: the
        profile it gives has the digest of the one written "65536/1"."""
        digests = []
        for written in (65536, "65536/1"):
            doc = json.loads(Path(demo_profile_path).read_text())
            doc["float"]["inf_F"] = written
            path = tmp_path / "profile.json"
            path.write_text(json.dumps(doc))
            digests.append(profile_digest(*load_profile(str(path))))
            assert main(["profile-check", str(path)]) == 0
        assert digests[0] == digests[1]
