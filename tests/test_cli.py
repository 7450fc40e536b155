import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from certisqrt.cli import (
    FileFormatError,
    load_profile,
    load_table,
    main,
    profile_digest,
    table_file_bytes,
    trace_rows,
)
from certisqrt.errors import DomainError
from certisqrt.newton import sqr_exact


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

    def test_size_cap_env(self, demo_profile_path, tmp_path, monkeypatch):
        monkeypatch.setenv("CERTISQRT_MAX_TABLE", "10")
        code = main(["table-build", demo_profile_path,
                     str(tmp_path / "t.json")])
        assert code == 1

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

    @pytest.mark.parametrize("entry", [True, 1.5, "7"],
                             ids=["bool", "float", "string"])
    def test_load_rejects_non_integer_entry(self, demo_profile_path,
                                            demo_table_path, tmp_path,
                                            capsys, entry):
        fix, fprof, step = load_profile(demo_profile_path)
        doc = json.loads(Path(demo_table_path).read_text())
        doc["roots"][5] = entry
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
        doc["roots"][9] = "7"
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


class TestGoldenDigests:
    """SHA-256 of the demo profile's table file, of two reports' bytes and
    of the sqrt request path's output, taken before the rules were each
    given one home and decided once; a change that keeps behaviour keeps
    them."""

    def test_demo_outputs(self, demo_profile_path, demo_table_path, capsys):
        def digest(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()

        capsys.readouterr()
        assert digest(Path(demo_table_path).read_bytes()) == \
            "f0ac122dacb20b5d7b3ba1c0761abbf9e5b40e7f1bbdbb364df42ce9d441fa5e"
        assert main(["verify", demo_profile_path, demo_table_path,
                     "--suite", "all", "--exhaustive"]) == 0
        assert digest(capsys.readouterr().out.encode()) == \
            "b23d910e4a0165df72f3784e738eeaf02e3945193acf34626e78506e596bdbb4"
        assert main(["profile-check", demo_profile_path]) == 0
        assert digest(capsys.readouterr().out.encode()) == \
            "70582321cbf878abe8f9e4ee70e577adc848ef03320d85f7e2ba21c2ccd36cc6"

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

    def test_invalid_profile_check(self, tmp_path, capsys):
        expected = \
            "ee2c99545fd4c82d65e3fa68b6bc125164281092dd6d0a1cd805852f78c02e90"
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

    def test_corrupted_table_exit_1(self, demo_profile_path, demo_table_path,
                                    tmp_path):
        doc = json.loads(Path(demo_table_path).read_text())
        doc["roots"][0] -= 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", demo_profile_path, str(bad),
                     "--suite", "table"]) == 1


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

    def test_balance_three_rows(self, demo_profile_path, tmp_path):
        out = tmp_path / "bal.csv"
        code = main(["sweep", demo_profile_path, str(out),
                     "--kind", "balance", "--stp", "1/4,1/2,1"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert all(line.split(",")[6] == "true" for line in lines[1:])

    def test_balance_empty_candidates(self, demo_profile_path, tmp_path):
        code = main(["sweep", demo_profile_path, str(tmp_path / "x.csv"),
                     "--kind", "balance", "--stp", ""])
        assert code == 1

    def test_invalid_candidate_row(self, demo_profile_path, tmp_path):
        out = tmp_path / "inv.csv"
        code = main(["sweep", demo_profile_path, str(out),
                     "--kind", "balance", "--stp", "0.30"])
        assert code == 0  # row is marked invalid, nothing failed
        line = out.read_text().splitlines()[1]
        assert line.split(",")[1] == "false"


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
