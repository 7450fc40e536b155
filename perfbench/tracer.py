"""Span tracing installed from outside the library.

While active, the tracer replaces each traced public function by a
wrapper that records one span (function, parent span, start, end) and
rebinds the name in every ``certisqrt`` module that holds the function,
so calls between modules are attributed too.  Spans stay in memory
while a pass runs; ``fold`` turns them into per-function call counts and
self time (span duration minus the time covered by its direct children)
after the pass has been timed.
"""
from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _raise_max(counters: dict, key: str, value: int) -> None:
    if value > counters.get(key, 0):
        counters[key] = value


def _cmp_sqrt_probe(counters: dict, args, _result) -> None:
    q, y = args[0], args[1]
    _raise_max(counters, "exact.cmp_sqrt.operand_bits_max",
               max(_bits(q), _bits(y)))


def _newton_probe(counters: dict, _args, result) -> None:
    _x, trace = result
    counters["newton.iterations"] += len(trace.steps)
    for step in trace.steps:
        after = step.x_after
        bits = (after.count.bit_length() if hasattr(after, "count")
                else _bits(after))
        _raise_max(counters, "newton.iterate_bits_max", bits)


# Counters taken from arguments and results.  mix_sqr and flt_sqr
# delegate to fix_sqr, so iterations are counted in the inner loops only.
PROBES = {
    "exact.cmp_sqrt": _cmp_sqrt_probe,
    "newton.sqr_exact": _newton_probe,
    "newton.fsqr_exact": _newton_probe,
    "newton.fix_sqr": _newton_probe,
}


def _resolve(target: str):
    """(owner, attribute, original) for "layer.fn" or "layer.Class.fn"."""
    layer, _, path = target.partition(".")
    owner = importlib.import_module(f"certisqrt.{layer}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Context manager wrapping the named functions while active."""

    def __init__(self, targets: list[str]):
        self.targets = list(targets)
        self.fids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = self._fresh_counters()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @staticmethod
    def _fresh_counters() -> dict:
        return {"exact.cmp_sqrt.operand_bits_max": 0,
                "newton.iterations": 0, "newton.iterate_bits_max": 0}

    def _wrap(self, fid: int, fn, probe):
        fids, parents, starts, ends = (self.fids, self.parents,
                                       self.starts, self.ends)
        stack, counters, clock = self._stack, self.counters, perf_counter

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(counters, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for fid, target in enumerate(self.targets):
            owner, attr, original = _resolve(target)
            wrapper = self._wrap(fid, original, PROBES.get(target))
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                holders = [(module, key)
                           for name, module in list(sys.modules.items())
                           if name.partition(".")[0] == "certisqrt"
                           for key, value in list(vars(module).items())
                           if value is original]
            for holder, key in holders:
                self._patches.append((holder, key, original))
                setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def fold(self) -> tuple[dict[str, int], dict[str, float]]:
        """Call counts and self seconds per target of the spans recorded
        since the last fold; the spans are then dropped."""
        calls = [0] * len(self.targets)
        self_s = [0.0] * len(self.targets)
        fids, parents = self.fids, self.parents
        for i, (fid, start, end) in enumerate(zip(fids, self.starts,
                                                   self.ends)):
            dur = end - start
            calls[fid] += 1
            self_s[fid] += dur
            if parents[i] >= 0:
                self_s[fids[parents[i]]] -= dur
        for spans in (self.fids, self.parents, self.starts, self.ends):
            del spans[:]
        return dict(zip(self.targets, calls)), dict(zip(self.targets, self_s))

    def take_counters(self) -> dict[str, int]:
        """Counters gathered since the last call; they restart at zero."""
        taken = dict(self.counters)
        self.counters.update(self._fresh_counters())
        return taken
