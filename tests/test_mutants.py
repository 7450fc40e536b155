"""The mutation gate's mutants stay aimed at the code they break."""
import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants",
                                               ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS,
                         ids=[m.name for m in mutants.MUTANTS])
def test_anchor_occurs_once(mutant):
    assert (ROOT / "src" / mutant.path).read_text().count(mutant.anchor) == 1


def test_each_mutant_on_its_own_empty_database(tmp_path, monkeypatch):
    """Every pytest run of a mutant stores hypothesis examples under the
    runner's temp dir, in a directory that is empty when the mutant
    starts, so no example saved in the repo or by an earlier mutant is
    replayed."""
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        storage = Path(env["HYPOTHESIS_STORAGE_DIRECTORY"])
        seen.append((storage, storage.exists() and any(storage.iterdir())))
        storage.mkdir(parents=True, exist_ok=True)
        (storage / f"saved-{len(seen)}").write_text("a failing example")
        return subprocess.CompletedProcess(cmd, 1)

    monkeypatch.setattr(mutants.subprocess, "run", fake_run)
    two = [m for m in mutants.MUTANTS if len(m.tests) == 2][:2]
    assert [mutants.run_mutant(m, tmp_path) for m in two] == ["killed"] * 2
    assert len(seen) == 4
    assert all(s.resolve().is_relative_to(tmp_path.resolve())
               for s, _ in seen)
    # the first run of each mutant finds the directory empty
    assert [saved for _, saved in seen] == [False, True, False, True]


def test_stale_test_id_stops_the_run(monkeypatch, capsys):
    """A test id that collects no test stops the runner before its first
    mutant, and is named: one pytest --collect-only run decides it."""
    bogus = "tests/test_exact.py::TestWithinSigns::test_no_such_test"
    mutant = mutants.MUTANTS[0]._replace(
        tests=("tests/test_exact.py::TestWithinSigns", bogus))
    monkeypatch.setattr(mutants, "MUTANTS", (mutant,))
    runs = []
    monkeypatch.setattr(mutants, "run_mutant",
                        lambda *args: runs.append(args) or "killed")
    assert mutants.main() == 1
    assert capsys.readouterr().out == \
        f"test ids that collect no test:\n  {bogus}\n"
    assert runs == []


def test_pytest_runs_load_only_hypothesis(tmp_path, monkeypatch):
    """Every pytest run of the gate, the --collect-only run included,
    turns plugin autoloading off and loads the hypothesis plugin by
    name, so no other installed plugin slows or changes a run."""
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        seen.append((cmd, env["PYTEST_DISABLE_PLUGIN_AUTOLOAD"]))
        return subprocess.CompletedProcess(cmd, 1, stdout="")

    monkeypatch.setattr(mutants.subprocess, "run", fake_run)
    mutant = mutants.MUTANTS[0]
    mutants.stale_ids(mutant.tests)
    assert mutants.run_mutant(mutant, tmp_path) == "killed"
    assert len(seen) == 1 + len(mutant.tests)
    for cmd, autoload in seen:
        assert autoload == "1"
        assert cmd[1:5] == ["-m", "pytest",
                            "-p", "hypothesis.extra.pytestplugin"]
