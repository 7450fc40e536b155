"""The mutation gate's mutants stay aimed at the code they break."""
import importlib.util
import subprocess
from pathlib import Path

import pytest
from hypothesis import Phase, settings

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


def test_pytest_runs_do_not_shrink(tmp_path, monkeypatch):
    """Every pytest run of the gate selects the no-shrink profile, which
    has every hypothesis phase but shrink; a test's own @settings, made
    while that profile is loaded, inherits its phases.  The default
    profile, which tier-1 runs, still shrinks."""
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        seen.append(cmd)
        return subprocess.CompletedProcess(cmd, 1, stdout="")

    monkeypatch.setattr(mutants.subprocess, "run", fake_run)
    mutant = mutants.MUTANTS[0]
    mutants.stale_ids(mutant.tests)
    mutants.run_mutant(mutant, tmp_path)
    assert len(seen) == 1 + len(mutant.tests)
    for cmd in seen:
        at = cmd.index("--hypothesis-profile")
        assert cmd[at + 1] == "no-shrink"
    assert set(settings.get_profile("no-shrink").phases) == \
        set(Phase) - {Phase.shrink}
    current = settings.get_current_profile_name()
    settings.load_profile("no-shrink")
    try:
        own = settings(max_examples=300, deadline=None)
    finally:
        settings.load_profile(current)
    assert Phase.shrink not in own.phases
    assert Phase.shrink in settings.get_profile("default").phases


def test_a_run_past_its_timeout_fails_the_gate(tmp_path, monkeypatch,
                                                capsys):
    """A pytest run that outlasts TIMEOUT_S is stopped, reported as
    ERROR (timeout) with its test id, and fails the gate: it is never
    counted as a kill.  The collect-only run is bounded the same way."""
    asked = []

    def stuck(cmd, cwd, env, **kwargs):
        asked.append(kwargs["timeout"])
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(mutants.subprocess, "run", stuck)
    mutant = mutants.MUTANTS[0]
    assert mutants.run_mutant(mutant, tmp_path) == \
        f"ERROR (timeout) {mutant.tests[0]}"
    assert mutants.main() == 1
    assert capsys.readouterr().out == \
        "ERROR (timeout) collecting the named tests\n"
    monkeypatch.setattr(mutants, "stale_ids", lambda ids: [])
    monkeypatch.setattr(mutants, "MUTANTS", (mutant,))
    assert mutants.main() == 1
    out = capsys.readouterr().out
    assert out.startswith(f"ERROR (timeout) {mutant.tests[0]}")
    assert out.endswith("\n0 of 1 mutants killed\n")
    assert asked == [mutants.TIMEOUT_S] * 3


def test_gate_ends_with_its_cost(monkeypatch, capsys):
    """Before its count of kills the gate prints its wall time and its
    five slowest mutants, slowest first, each with its time as the
    mutant's own line gives it."""
    clock, costs = [100.0], iter([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])

    def fake_run(cmd, cwd, env, **kwargs):
        clock[0] += next(costs)
        return subprocess.CompletedProcess(cmd, 1)

    monkeypatch.setattr(mutants.subprocess, "run", fake_run)
    monkeypatch.setattr(mutants, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(mutants, "stale_ids", lambda ids: [])
    first = mutants.MUTANTS[0]
    monkeypatch.setattr(mutants, "MUTANTS", tuple(
        first._replace(name=f"m{i}", tests=first.tests[:1])
        for i in range(6)))
    assert mutants.main() == 0
    lines = capsys.readouterr().out.splitlines()
    where = f"src/{first.path}"
    assert lines[:6] == [f"killed   {cost:5.1f} s  {where}: m{i}" for i, cost
                         in enumerate([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])]
    assert lines[6:] == [
        "gate wall time 21.1 s; slowest mutants:",
        f"    9.0 s  {where}: m4", f"    4.0 s  {where}: m2",
        f"    3.0 s  {where}: m0", f"    2.6 s  {where}: m5",
        f"    1.5 s  {where}: m3", "6 of 6 mutants killed"]
