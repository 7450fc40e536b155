"""The four benchmark workloads.

Each workload is a closed loop with one client in this process: it
generates its inputs from the seed, sets the program up, and then runs
passes over the same fixed input set, one operation after another.  The
program is reached through module attributes at call time, so a tracer
that rebinds those attributes sees every call.

Operations end in a result, a typed refusal (a ``CertisqrtError``) or a
failure (a FAIL verdict, a wrong output or an untyped exception).  The
first pass is checked in full; later passes must reproduce its outputs
exactly and inherit its verdicts.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from certisqrt import cli, exact, floatmodel, lut, newton, verify
from certisqrt.errors import CertisqrtError

from oracle import Undecided, compare_abs_err


@dataclass
class PassResult:
    """One pass over a workload's input set."""

    seconds: float
    attempted: int
    outputs: list
    refused: int = 0
    failed: int = 0
    # seconds per input: per operation, or per call for CLI workloads
    latencies: list[float] = field(default_factory=list)
    json_bytes: int = 0
    wrong: list[str] = field(default_factory=list)
    text: str = ""


@dataclass
class Checked:
    """What the full check of the first pass found."""

    refused: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    attempted: int | None = None
    json_bytes: int | None = None


def call_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def build_and_load_table(profile_path: str, table_path: Path):
    """Profile load, table build, table write and revalidating load."""
    fix, fprof, step = cli.load_profile(profile_path)
    table = lut.build_root_table(fix, step.stp)
    digest = cli.profile_digest(fix, fprof, step)
    table_path.write_bytes(cli.table_file_bytes(table, digest))
    return fix, fprof, cli.load_table(str(table_path), fix, digest)


class Workload:
    """Subclasses define setup(), one_pass() and check()."""

    table_entries = 0

    def __init__(self, spec: dict, profiles: dict, seed: int, work: Path):
        self.spec = spec
        self.seed = seed
        self.profile_doc = profiles[spec["profile"]]
        self.profile_path = work / f"{spec['profile']}_profile.json"
        self.profile_path.write_text(json.dumps(self.profile_doc))
        self.table_path = work / f"{spec['profile']}_table.json"
        self._reference: list | None = None
        self._checked = Checked()

    def setup(self) -> None:
        cli.load_profile(str(self.profile_path))

    def run_pass(self) -> PassResult:
        result = self.one_pass()
        if self._reference is None:
            self._reference = result.outputs
            self._checked = self.check(result)
        elif result.outputs != self._reference:
            result.wrong.append("outputs differ between passes over the "
                                "same inputs")
        checked = self._checked
        result.refused += checked.refused
        result.failed += checked.failed
        result.wrong += checked.wrong
        if checked.attempted is not None:
            result.attempted = checked.attempted
        if checked.json_bytes is not None:
            result.json_bytes = checked.json_bytes
        result.outputs, result.text = [], ""
        return result


class GridServe(Workload):
    """Single verified mix and float requests against a wide table."""

    def __init__(self, *args):
        super().__init__(*args)
        self.requests = grid_requests(
            self.seed, self.spec["inputs"], self.profile_doc["fix"],
            self.profile_doc["step"]["eps_count"], self.spec["mix_share"])

    def setup(self) -> None:
        self.fix, self.fprof, self.table = build_and_load_table(
            str(self.profile_path), self.table_path)
        self.table_entries = len(self.table)

    def one_pass(self) -> PassResult:
        fix, fprof, table = self.fix, self.fprof, self.table
        beta = Fraction(fprof.base)
        half_delta = fix.delta / 2
        outputs, latencies = [], []
        refused = failed = 0
        clock = perf_counter
        start = clock()
        for mode, arg, eps_count in self.requests:
            t0 = clock()
            try:
                eps = fix.val(eps_count)
                if mode == "mix":
                    # the call cmd_sqrt makes for --mode mix
                    y = fix.val(arg)
                    x, _ = newton.mix_sqr(y, eps, table)
                    ok = exact.within_of_sqrt(x.value, y.value, eps.value,
                                              strict=True)
                    bound = (x.value, y.value, eps.value)
                    output = x.count
                else:
                    # the call cmd_sqrt makes for --mode float
                    a, _ = floatmodel.encode_rational(arg, fprof)
                    b, _ = newton.flt_sqr(a, eps, fprof, table)
                    a_val = floatmodel.value_of(a)
                    b_val = floatmodel.value_of(b)
                    half_exp = a.exp // 2
                    c1 = eps.value * beta ** half_exp
                    c2 = half_delta * beta ** (half_exp - 1)
                    ok = exact.sqrt_abs_err_lt(b_val, a_val, c1, c2, beta)
                    bound = (b_val, a_val, c1, c2, beta)
                    output = (b.man.count, b.exp)
                outputs.append((output, ok, bound))
            except CertisqrtError as exc:
                refused += 1
                outputs.append(("refused", type(exc).__name__))
            except Exception as exc:  # untyped: a failure, never hidden
                failed += 1
                outputs.append(("failed", repr(exc)))
            latencies.append(clock() - t0)
        seconds = clock() - start
        return PassResult(seconds, len(self.requests), outputs, refused,
                          failed, latencies)

    def check(self, result: PassResult) -> Checked:
        """Re-decide every verdict independently of certisqrt.exact."""
        checked = Checked()
        for request, out in zip(self.requests, result.outputs):
            if len(out) != 3:
                continue
            _output, verdict, bound = out
            try:
                holds = compare_abs_err(*bound) < 0
            except Undecided as exc:
                holds = None
                checked.wrong.append(f"{request}: {exc}")
            if not verdict or verdict != holds:
                checked.failed += 1
                checked.wrong.append(f"{request}: verdict {verdict}, "
                                     f"re-decided {holds}")
        return checked


def grid_requests(seed: int, count: int, fix_doc: dict, eps_count: int,
                  mix_share: float) -> list[tuple]:
    """Seeded request stream: ("mix", y_count, eps_count) with a grid
    value 1 < y <= sup/2 (share mix_share), or ("float", value,
    eps_count) with a positive rational between about 2**-30 and 2**40.

    No traffic record backs these ranges; spec.json gives the reason
    for each."""
    rng = random.Random(seed)
    d, sup = fix_doc["delta_den"], fix_doc["sup_count"]
    requests = []
    for _ in range(count):
        if rng.random() < mix_share:
            # mix_sqr refuses every grid value above sup/2 (DomainError)
            requests.append(("mix", rng.randint(d + 1, sup // 2), eps_count))
        else:
            # exponents within about +-40 keep the exact-layer operands
            # small; the model's range reaches +-4000
            value = (Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 1000))
                     * Fraction(2) ** rng.randint(-20, 20))
            requests.append(("float", value, eps_count))
    return requests


class ExactCertify(Workload):
    """sqr_exact, its annotation check and the report's JSON, per pair."""

    def __init__(self, *args):
        super().__init__(*args)
        self.corpus = stratified_rationals(self.seed, self.spec["inputs"],
                                           self.spec["strata"])

    def one_pass(self) -> PassResult:
        outputs, latencies = [], []
        refused = failed = json_bytes = 0
        clock = perf_counter
        start = clock()
        for y, eps in self.corpus:
            x = report = None
            t0 = clock()
            try:
                x, trace = newton.sqr_exact(y, eps)
                report = verify.check_sqr_annotations(trace, y, eps)
                outcome = len(report.to_json())
                json_bytes += outcome
            except CertisqrtError as exc:
                refused += 1
                outcome = type(exc).__name__
            except Exception as exc:  # untyped: a failure, never hidden
                failed += 1
                outcome = repr(exc)
            latencies.append(clock() - t0)
            outputs.append((x, report is not None and report.overall,
                            outcome))
        seconds = clock() - start
        return PassResult(seconds, len(self.corpus), outputs, refused,
                          failed, latencies, json_bytes)

    def check(self, result: PassResult) -> Checked:
        """Every verdict passes and every result is within eps of the
        root, re-decided independently of certisqrt.exact."""
        checked = Checked()
        for (y, eps), (x, overall, outcome) in zip(self.corpus,
                                                   result.outputs):
            if x is None:
                continue
            try:
                within = compare_abs_err(x, y, eps) <= 0
            except Undecided as exc:
                within = False
                checked.wrong.append(str(exc))
            if not (overall and within):
                checked.wrong.append(f"y={y} eps={eps}: verdict {overall}, "
                                     f"re-decided {within}")
                if isinstance(outcome, int):  # not already a failure
                    checked.failed += 1
        return checked


def predicted_bits(y: Fraction, eps: Fraction) -> int:
    """Rough size of sqr_exact's result, which sets a pair's cost: the
    bits of y doubled once per Newton step, the steps counted in floats."""
    yf, ef = float(y), float(eps)
    x, steps = yf, 0
    while abs(yf - x * x) >= ef * x:  # |d| >= eps/2, d = (y - x*x)/(2x)
        x += (yf - x * x) / (2 * x)
        steps += 1
    return (y.numerator.bit_length() + y.denominator.bit_length()) << steps


def stratified_rationals(seed: int, count: int,
                         strata: int) -> list[tuple[Fraction, Fraction]]:
    """`count` pairs of verify.sample_rationals(count * strata, seed): the
    middle pair of each run of `strata` pairs ranked by predicted_bits,
    kept in sampling order.

    A pair's cost is heavy-tailed (one more Newton step about triples
    it), so a plain sample's total cost moves with the seed; one pair per
    cost rank keeps the mix of costs the same for every seed."""
    pool = verify.sample_rationals(count * strata, seed)
    ranked = sorted(range(len(pool)), key=lambda i: predicted_bits(*pool[i]))
    chosen = sorted(ranked[i + strata // 2]
                    for i in range(0, len(ranked), strata))
    return [pool[i] for i in chosen]


class CliWorkload(Workload):
    """One certisqrt.cli.main call per pass; an operation is one entry of
    the printed reports, and the call's time is amortised over them."""

    def argv(self) -> list[str]:
        raise NotImplementedError

    def one_pass(self) -> PassResult:
        argv = self.argv()
        start = perf_counter()
        code, out, err = call_main(argv)
        seconds = perf_counter() - start
        digest = hashlib.sha256(out.encode()).hexdigest()
        return PassResult(seconds, 1, [code, digest, err], latencies=[seconds],
                          text=out)

    def check(self, result: PassResult) -> Checked:
        code, _digest, err = result.outputs
        try:
            doc = json.loads(result.text)
        except json.JSONDecodeError:
            doc = None
        checked = Checked(json_bytes=len(result.text.encode()))
        if doc is None:
            checked.attempted = 1
            if code == 1 and err.startswith("error: "):
                checked.refused = 1
            else:
                checked.failed = 1
            checked.wrong.append(f"exit {code}, no report: {err.strip()}")
            return checked
        entries = [c for r in doc["reports"] for c in r["checks"]]
        checked.attempted = self.operations(entries)
        bad = [c["rule"] for c in entries if not c["passed"]]
        if bad or code != 0 or doc["overall"] is not True:
            # a failed entry is one failed operation; for profile_probe it
            # stands for at least one pair breaking the rule
            checked.failed = len(bad) or checked.attempted
            checked.wrong.append(f"exit {code}, overall {doc['overall']}, "
                                 f"failed rules {sorted(set(bad))}")
        return checked

    def operations(self, entries: list) -> int:
        return len(entries)


class LockstepVerify(CliWorkload):
    """verify --suite all --exhaustive on the demo profile."""

    def setup(self) -> None:
        _fix, _fprof, table = build_and_load_table(str(self.profile_path),
                                                   self.table_path)
        self.table_entries = len(table)

    def argv(self) -> list[str]:
        return ["verify", str(self.profile_path), str(self.table_path),
                "--suite", "all", "--exhaustive", "--seed", str(self.seed)]


class ProfileProbe(CliWorkload):
    """profile-check with a seeded sample of grid pairs."""

    def argv(self) -> list[str]:
        return ["profile-check", str(self.profile_path),
                "--samples", str(self.spec["inputs"]),
                "--seed", str(self.seed)]

    def operations(self, entries: list) -> int:
        """Probed pairs, as the rounding-contract check reports them."""
        return next(c["witness"]["pairs"] for c in entries
                    if c["rule"] == "fix.rounding-contract")


WORKLOADS = {
    "grid_serve": GridServe,
    "exact_certify": ExactCertify,
    "lockstep_verify": LockstepVerify,
    "profile_probe": ProfileProbe,
}
