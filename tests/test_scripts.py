"""The scripts under scripts/ run against the library as it stands: each
runs as its own process and the witness search finds the frozen witness
first."""
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, str(REPO / "scripts" / script)],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=False)


def test_find_more_worse_witness(fixtures_dir):
    doc = json.loads((fixtures_dir / "more_worse_witness.json").read_text())
    profile = json.loads((fixtures_dir / doc["profile"]).read_text())
    proc = _run("find_more_worse_witness.py")
    assert proc.returncode == 0, proc.stderr
    d = profile["fix"]["delta_den"]
    assert proc.stdout.splitlines()[0] == (
        f"witness: y={doc['y_count']}/{d} "
        f"increases at n={doc['expect_increase_at']}")


def test_balance_report():
    proc = _run("balance_report.py")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["stp", "size", "n", "predicted", "worst_err",
                              "ok"]
    assert len(rows) == 7
    assert all(row.split()[-1] == "yes" for row in rows)
