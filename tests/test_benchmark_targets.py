"""The per-layer targets BENCHMARK.json names must resolve in the library.

The traced benchmark run wraps each ``<name>.calls`` target, written
``layer.fn`` or ``layer.Class.fn``, through perfbench/tracer.py; a
refactor that renames or deletes one must fail here rather than in that
run.  So must one that breaks what the tracer's probes read of a run.
"""
import importlib.util
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from certisqrt.fixarith import FixProfile
from certisqrt.lut import build_root_table
from certisqrt.newton import GridTrace, fix_sqr, fsqr_exact, sqr_exact

ROOT = Path(__file__).resolve().parent.parent
DEMO = FixProfile(100, 1600, 1600)


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


@pytest.mark.parametrize("run", [
    lambda: sqr_exact(F(99999989, 991), F(1, 1000)),
    lambda: fsqr_exact(F(3), F(1, 4), F(3), 4),
    lambda: fix_sqr(DEMO.val(300), DEMO.val(25),
                    build_root_table(DEMO, DEMO.val(25)), 4),
], ids=["sqr_exact", "fsqr_exact", "fix_sqr"])
def test_newton_probe_reads_the_record(run):
    """The traced run's Newton probe counts each pass and the longest
    iterate a pass ends at, as the record's pairs or counts show them.
    The probe reads the runs' steps views, so they stay until the
    benchmark moves it off them."""
    tracer = _load_tracer()
    result = run()
    trace = result[1]
    counters = tracer.Tracer._fresh_counters()
    tracer.PROBES[f"newton.{trace.algorithm}"](counters, (), result)
    if isinstance(trace, GridTrace):
        passes = len(trace.counts) - 1
        bits = [c.bit_length() for c in trace.counts[1:]]
    else:
        passes = len(trace.corrections)
        bits = [max(p.bit_length(), q.bit_length())
                for p, q in trace.pairs[1:]]
    assert passes >= 3
    assert counters["newton.iterations"] == passes
    assert counters["newton.iterate_bits_max"] == max(bits)
