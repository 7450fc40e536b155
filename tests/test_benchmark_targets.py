"""The per-layer targets BENCHMARK.json names must resolve in the library.

The traced benchmark run wraps each ``<name>.calls`` target, written
``layer.fn`` or ``layer.Class.fn``, through perfbench/tracer.py; a
refactor that renames or deletes one must fail here rather than in that
run.
"""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [m["name"][:-len(".calls")] for m in
           json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
           if m["name"].endswith(".calls")]


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves(target):
    _owner, _attr, fn = _load_tracer()._resolve(target)
    assert callable(fn)
