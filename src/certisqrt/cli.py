"""Command-line front end: profile management, table building, square-root
evaluation with oracle verdicts, verification suites, and sweep reports.

Exit status contract: 0 all checks pass, 1 domain or verification
failure, 2 usage or parse failure or an unwritable output, stdout
included; main prints the one error line.  All outputs are deterministic
given the arguments (and --seed); structured artifacts are JSON, sweeps CSV.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from .errors import CertisqrtError, DomainError
from .exact import _lowest_terms, _rat_text, encode_int, rat_str
from .fixarith import FixProfile, FixVal, check_profile_assumptions
from .floatmodel import (
    FloatProfile,
    check_float_profile,
    encode_rational,
    value_of,
)
from .lut import (
    RootTable,
    StepConfig,
    build_root_table,
    first_bad_root,
    validate_step,
)
from .newton import (
    ENV_MAX_BITS,
    GridTrace,
    Trace,
    derive_eps_for_ulp,
    fix_sqr,
    flt_sqr,
    grid_inputs,
    min_iterations_for_step,
    max_bits,
    mix_sqr,
    sqr_exact,
)
from .report import VerifyReport, json_text
from .verify import (
    approx_abs_err,
    balance_sweep,
    check_table_properties,
    grid_values,
    monotonicity_probe,
    run_adjust_suite,
    run_fsqr_suite,
    run_sqr_suite,
    sample_rationals,
    sqrt_verdict,
)


class FileFormatError(Exception):
    """Unreadable or malformed input, an output that cannot be written, or
    a usage error the parser cannot see; main prints it, exit status 2."""


# largest table a balance sweep without --stp builds for a candidate step
MAX_BALANCE_TABLE = 256


# ---------------------------------------------------------------------------
# profile and table files
# ---------------------------------------------------------------------------

def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: expected an object, got {doc!r}")
    if key not in doc:
        raise FileFormatError(f"{where}: missing field {key!r}")
    return doc[key]


def _require_int(doc: dict, key: str, where: str) -> int:
    value = _require(doc, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{where}.{key}: expected an integer, "
                              f"got {value!r}")
    return value


def _require_rational(doc: dict, key: str, where: str) -> Fraction:
    value = _require(doc, key, where)
    if isinstance(value, bool):
        raise FileFormatError(f"{where}.{key}: expected a rational, "
                              f"got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return _fraction(value)
        except (FileFormatError, DomainError) as exc:  # a non-integer cap
            raise FileFormatError(f"{where}.{key}: {exc}") from None
        except (ValueError, ZeroDivisionError) as exc:
            raise FileFormatError(f"{where}.{key}: not a rational: "
                                  f"{value!r}") from exc
    raise FileFormatError(f"{where}.{key}: expected a rational, got {value!r}")


def _fraction(text: str) -> Fraction:
    """Fraction(text); a decimal exponent e is refused first, with
    FileFormatError, when 10**|e|, which Fraction builds whole, would pass
    the CERTISQRT_MAX_BITS cap, and always at 16 or more digits (DomainError
    if the cap is no integer)."""
    low = text.lower()
    if "e" in low:
        e = low.rpartition("e")[2].strip().replace("_", "").lstrip("+-0")
        if e.isdecimal() and (len(e) > 15 or
                              int(e) * math.log2(10) >= max_bits()):
            raise FileFormatError(f"rational {text!r} needs 10**{e}, past "
                                  f"{ENV_MAX_BITS} = {max_bits()}")
    return Fraction(text)


def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer over Python's
        # digit limit; RecursionError, arrays or objects nested too deep
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a JSON object")
    return doc


def load_profile(path: str) -> tuple[FixProfile, FloatProfile, StepConfig]:
    doc = _read_json(path)
    fix_doc = _require(doc, "fix", "profile")
    fix = FixProfile(
        _require_int(fix_doc, "delta_den", "profile.fix"),
        _require_int(fix_doc, "inf_count", "profile.fix"),
        _require_int(fix_doc, "sup_count", "profile.fix"),
    )
    float_doc = _require(doc, "float", "profile")
    fprof = FloatProfile(
        _require_int(float_doc, "base", "profile.float"),
        fix,
        _require_rational(float_doc, "inf_F", "profile.float"),
        _require_rational(float_doc, "sup_F", "profile.float"),
    )
    step_doc = _require(doc, "step", "profile")
    stp = fix.val(_require_int(step_doc, "stp_count", "profile.step"))
    eps = fix.val(_require_int(step_doc, "eps_count", "profile.step"))
    return fix, fprof, StepConfig(stp, eps)


def canonical_profile_doc(fix: FixProfile, fprof: FloatProfile,
                          step: StepConfig) -> dict:
    return {
        "fix": {"delta_den": fix.delta_den, "inf_count": fix.inf_count,
                "sup_count": fix.sup_count},
        "float": {"base": fprof.base, "inf_F": rat_str(fprof.inf_f),
                  "sup_F": rat_str(fprof.sup_f)},
        "step": {"stp_count": step.stp.count, "eps_count": step.eps.count},
    }


def profile_digest(fix: FixProfile, fprof: FloatProfile,
                   step: StepConfig) -> str:
    blob = json.dumps(canonical_profile_doc(fix, fprof, step),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def table_file_bytes(table: RootTable, profile_hash: str) -> bytes:
    doc = {
        "profile_hash": profile_hash,
        "delta_den": table.profile.delta_den,
        "sup_count": table.profile.sup_count,
        "stp_count": table.stp.count,
        "roots": table.roots,
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) +
            "\n").encode()


def load_table(path: str, fix: FixProfile, profile_hash: str) -> RootTable:
    """The table file at path: build_root_table of its step, accepted
    when the file's roots are all ints and equal the built ones, so a
    load passes every check a build does, CERTISQRT_MAX_TABLE included.
    A refused file is diagnosed by lut's rules: a RootTable of its roots
    refuses a wrong entry count, and the entry first_bad_root finds is
    reported as FileFormatError if not an int, else as DomainError.

    An accepted table holds the walk, not the file's list: the walk
    shares one int per run of equal roots, where the parsed list holds
    one int object per entry."""
    doc = _read_json(path)
    stored_hash = _require(doc, "profile_hash", "table")
    if stored_hash != profile_hash:
        raise DomainError(f"table {path} was built for a different profile")
    d = _require_int(doc, "delta_den", "table")
    sup = _require_int(doc, "sup_count", "table")
    stp_count = _require_int(doc, "stp_count", "table")
    if d != fix.delta_den or sup != fix.sup_count:
        raise DomainError(f"table {path} grid does not match the profile")
    roots = _require(doc, "roots", "table")
    if not isinstance(roots, list):
        raise FileFormatError("table.roots: expected a list of integers")
    table = build_root_table(fix, fix.val(stp_count))
    # the type test comes first: 174.0 == 174 and True == 1 in Python
    if set(map(type, roots)) == {int} and table.roots == tuple(roots):
        return table
    bad = first_bad_root(RootTable(fix, table.stp, tuple(roots)))
    if type(roots[bad - table.k_min]) is not int:
        raise FileFormatError("table.roots: expected a list of integers")
    raise DomainError(f"table {path} failed revalidation at index {bad}")


def _bound_table(args: argparse.Namespace, fprof: FloatProfile,
                 step: StepConfig) -> RootTable:
    """The table file args.table, bound to the profile and to its step."""
    fix = fprof.fix
    table = load_table(args.table, fix, profile_digest(fix, fprof, step))
    if table.stp != step.stp:
        raise DomainError(f"table {args.table} was built for another step")
    return table


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

def trace_rows(trace: Trace | GridTrace) -> list[dict]:
    """One row for each loop pass, its starting iterate and correction,
    then one for the result, read off the record in one pass: an exact
    run's pairs and corrections, a grid run's counts.  Pass k starts at
    iterate k, the exit pass of an until-loop at the last."""
    if isinstance(trace, Trace):
        xs = [{"x_num": encode_int(p), "x_den": encode_int(q), "x_count": ""}
              for p, q in trace.pairs]
        ds = [trace.correction(k) for k in range(len(trace.corrections))]
    else:
        counts = trace.counts
        xs = [{"x_num": "", "x_den": "", "x_count": c} for c in counts]
        d = trace.y.profile.delta_den if counts else 1
        ds = [_lowest_terms(b - a, d) for a, b in zip(counts, counts[1:])]
    base = {"algorithm": trace.algorithm,
            "exact_flag": str(isinstance(trace, Trace)).lower()}
    rows = [{**base, "k": k, **xs[k], "correction": rat_str(ad)}
            for k, ad in enumerate(ds)]
    if xs:
        rows.append({**base, "k": len(ds), **xs[-1], "correction": ""})
    return rows


TRACE_COLUMNS = ["algorithm", "k", "x_num", "x_den", "x_count",
                 "correction", "exact_flag"]


def _write(path: str, text: str) -> None:
    """The one writer of output files; text is written untranslated."""
    try:
        Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _print_reports(reports: list[VerifyReport]) -> int:
    overall = all(r.overall for r in reports)
    print(json_text({"overall": overall,
                     "reports": [r.fields() for r in reports]}))
    return 0 if overall else 1


def cmd_profile_check(args: argparse.Namespace) -> int:
    fix, fprof, step = load_profile(args.profile)
    budget = "exhaustive" if args.exhaustive else args.samples
    return _print_reports([
        check_profile_assumptions(fix, budget=budget, seed=args.seed),
        check_float_profile(fprof),
        validate_step(step.stp, step.eps),
    ])


def cmd_table_build(args: argparse.Namespace) -> int:
    fix, fprof, step = load_profile(args.profile)
    table = build_root_table(fix, step.stp)
    payload = table_file_bytes(table, profile_digest(fix, fprof, step))
    _write(args.out, payload.decode("ascii"))
    print(f"wrote {args.out}: {len(table)} entries, stp={step.stp}")
    return 0


def _display(q: Fraction, c2: Fraction = Fraction(0), m: int = 0) -> str:
    """Best-effort decimal rendering of q + c2*sqrt(m); never used in a
    verdict."""
    try:
        return f"{float(q) + float(c2) * m ** 0.5:.6g}"
    except OverflowError:
        return "out-of-float-range"


def _grid_exact(value: Fraction, profile: FixProfile) -> FixVal:
    scaled = value * profile.delta_den
    if scaled.denominator != 1:
        raise DomainError(f"{_rat_text(value)} is not a grid value on a "
                          f"1/{profile.delta_den} grid")
    return profile.val(int(scaled))


def cmd_sqrt(args: argparse.Namespace) -> int:
    fix, fprof, step = load_profile(args.profile)
    need_table = args.mode in ("fix", "mix", "float")
    table = None
    if need_table:
        if args.table is None:
            raise FileFormatError("modes fix/mix/float require a table file")
        table = _bound_table(args, fprof, step)
    if args.ulp is not None:
        eps_fix = derive_eps_for_ulp(args.ulp, fprof, step.stp)
    else:
        eps_fix = _grid_exact(args.eps, fix) if need_table else None
    lines = [f"mode = {args.mode}"]
    if args.mode == "exact":
        eps_frac = args.eps if args.ulp is None else eps_fix.value
        x, trace = sqr_exact(args.value, eps_frac)
        verdict = sqrt_verdict("exact", x, args.value, eps_frac)
        lines.append(f"x = {rat_str(x)} ({_display(x)})")
        lines.append(f"bound = {rat_str(verdict.witness['bound'])}")
    elif args.mode in ("fix", "mix"):
        y = _grid_exact(args.value, fix)
        if args.mode == "fix":
            if args.n is None:
                raise FileFormatError("mode fix requires --n")
            x, trace = fix_sqr(y, eps_fix, table, args.n)
        else:
            x, trace = mix_sqr(y, eps_fix, table)
        verdict = sqrt_verdict(args.mode, x, y, eps_fix, n=args.n)
        err = approx_abs_err(x.value, y.value)
        lines.append(f"x = {rat_str(x.value)} ({_display(x.value)})")
        lines.append(f"bound = {rat_str(verdict.witness['bound'])}")
        lines.append(f"err_display = {err:.6g}")
    else:  # float
        a, enc_exact = encode_rational(args.value, fprof)
        b, trace = flt_sqr(a, eps_fix, fprof, table)
        verdict = sqrt_verdict("float", b, a, eps_fix, fprof=fprof)
        if b.is_zero:
            lines.append("b = 0")
        else:
            b_val = value_of(b)
            lines.append(f"a = {rat_str(value_of(a))} "
                         f"(encoded exactly: {str(enc_exact).lower()})")
            lines.append(f"b = {rat_str(b.man.value)} * {fprof.base}^{b.exp} "
                         f"= {rat_str(b_val)} ({_display(b_val)})")
            c1, c2 = verdict.witness["c1"], verdict.witness["c2"]
            lines.append(f"bound = {rat_str(c1)} + {rat_str(c2)}*sqrt("
                         f"{fprof.base}) (~{_display(c1, c2, fprof.base)})")
    lines.append(f"check = {'PASS' if verdict.passed else 'FAIL'}")
    print("\n".join(lines))
    if args.trace_out is not None:
        rows, cols = trace_rows(trace), TRACE_COLUMNS
        _write(args.trace_out, json_text(rows) +
               "\n" if args.trace_out.endswith(".json") else
               _csv(cols, ([r[c] for c in cols] for r in rows)))
    return 0 if verdict.passed else 1


def _require_grid_inputs(fix: FixProfile) -> range:
    """grid_inputs(fix), refused when empty: a suite or sweep over the
    grid runs' inputs would check nothing."""
    counts = grid_inputs(fix)
    if not counts:
        raise DomainError(f"no grid value in (1, {fix.sup_value / 2}]: the "
                          f"grid runs accept no input on this profile")
    return counts


def _sample_scan_ys(fix: FixProfile, samples: int, seed: int) -> list[FixVal]:
    """random.Random(seed).sample of grid_inputs(fix), ascending; past
    sys.maxsize inputs, more than sample takes, distinct randrange draws."""
    counts, rng = grid_inputs(fix), random.Random(seed)
    size = counts.stop - counts.start  # len() fails past 2**63
    draw = set(rng.sample(counts, min(samples, size))
               if size <= sys.maxsize else ())
    while len(draw) < min(samples, size):
        draw.add(counts.start + rng.randrange(size))
    return [FixVal(c, fix) for c in sorted(draw)]


def cmd_verify(args: argparse.Namespace) -> int:
    fix, fprof, step = load_profile(args.profile)
    table = _bound_table(args, fprof, step)
    eps = step.eps
    reports: list[VerifyReport] = []
    suites = ("table", "sqr", "fsqr", "adjust") if args.suite == "all" \
        else (args.suite,)
    if "sqr" in suites:
        sqr_inputs = ([(y.value, eps.value)
                       for y in grid_values(fix, fix.sup_value)]
                      if args.exhaustive
                      else sample_rationals(args.samples, args.seed))
    if "fsqr" in suites or "adjust" in suites:
        counts = _require_grid_inputs(fix)
        scan_ys = ([FixVal(c, fix) for c in counts] if args.exhaustive
                   else _sample_scan_ys(fix, args.samples, args.seed))
    for suite in suites:
        if suite == "table":
            reports.append(check_table_properties(table, eps))
        elif suite == "sqr":
            reports.append(run_sqr_suite(sqr_inputs))
        elif suite == "fsqr":
            reports.append(run_fsqr_suite(table, eps, scan_ys))
        elif suite == "adjust":
            reports.append(run_adjust_suite(table, eps, scan_ys))
    return _print_reports(reports)


def cmd_sweep(args: argparse.Namespace) -> int:
    fix, fprof, step = load_profile(args.profile)
    if args.kind == "more-worse":
        table = build_root_table(fix, step.stp)
        if args.n_min is None:
            args.n_min = min_iterations_for_step(step.stp, step.eps)
        if args.y is not None:
            y = _grid_exact(args.y, fix)
            rows = monotonicity_probe(y, step.eps, table, args.n_min,
                                      args.n_max)
        else:
            # one value at a time: a wide grid has millions below sup/2
            for y in map(fix.val, grid_inputs(fix)):
                rows = monotonicity_probe(y, step.eps, table, args.n_min,
                                          args.n_max)
                if any(r.error_increased for r in rows) and \
                        all(r.within_bound for r in rows):
                    break
            else:
                print(f"error: no grid value in (1, {fix.sup_value / 2}] "
                      f"shows an error increase within its bound for n in "
                      f"[{args.n_min}, {args.n_max}]", file=sys.stderr)
                return 1
            print(f"witness: y={y} increases at "
                  f"n={[r.n for r in rows if r.error_increased]}")
        _write(args.out, _csv(
            ["n", "x_count", "x_value", "err_display", "bound",
             "within_bound", "error_increased"],
            ([r.n, r.x.count, rat_str(r.x.value), f"{r.err_display:.12g}",
              rat_str(r.bound), str(r.within_bound).lower(),
              str(r.error_increased).lower()] for r in rows)))
        print(f"wrote {args.out}: {len(rows)} rows, "
              f"increases at n={[r.n for r in rows if r.error_increased]}")
        return 0 if all(r.within_bound for r in rows) else 1
    # balance
    if args.stp is None:
        if step.eps.count <= 0:
            raise DomainError(f"accuracy must be positive, got {step.eps}")
        # sup/t for each t = MAX_BALANCE_TABLE, ..., 1 dividing sup: the
        # steps ascend, and no divisor search of sup runs
        candidates = [FixVal(fix.sup_count // t, fix)
                      for t in range(MAX_BALANCE_TABLE, 0, -1)
                      if fix.sup_count % t == 0
                      and fix.sup_count // t % step.eps.count == 0]
    elif not args.stp:
        raise FileFormatError("kind balance requires a non-empty --stp list")
    else:
        candidates = [_grid_exact(v, fix) for v in args.stp]
    rows = balance_sweep(step.eps, candidates)
    _write(args.out, _csv(
        ["stp", "valid", "table_size", "n", "predicted_bound",
         "worst_err_display", "all_within_predicted"],
        ([rat_str(r.stp.value), str(r.valid).lower(), r.table_size, r.n,
          rat_str(r.predicted_bound), f"{r.worst_err_display:.12g}",
          str(r.all_within_predicted).lower()] for r in rows)))
    valid = [r for r in rows if r.valid]
    print(f"wrote {args.out}: {len(rows)} rows")
    if not valid:
        print(f"error: no candidate step is valid for eps={step.eps}; "
              "nothing was checked", file=sys.stderr)
        return 1
    _require_grid_inputs(fix)  # else no row ran a grid input
    return 0 if all(r.all_within_predicted for r in valid) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _count(text: str) -> int:
    """A positive integer argument."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return int(text)


def _rational(text: str) -> Fraction:
    """A rational argument such as 3, 0.25 or 1/4."""
    try:
        return _fraction(text)
    except (FileFormatError, DomainError) as exc:  # a non-integer cap
        raise argparse.ArgumentTypeError(str(exc)) from None
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational, got {text!r}") from None


def _rational_list(text: str) -> list[Fraction]:
    return [_rational(part) for part in map(str.strip, text.split(","))
            if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certisqrt",
        description="Verified table-seeded Newton square roots over "
                    "simulated machine arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile-check",
                       help="validate a profile file's assumptions")
    p.add_argument("profile")
    p.add_argument("--samples", type=_count, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=cmd_profile_check)

    p = sub.add_parser("table-build", help="pre-compute the root table")
    p.add_argument("profile")
    p.add_argument("out")
    p.set_defaults(func=cmd_table_build)

    p = sub.add_parser("sqrt", help="evaluate a square root with an "
                                    "oracle-checked bound")
    p.add_argument("profile")
    p.add_argument("table", nargs="?")
    p.add_argument("--mode", required=True,
                   choices=["exact", "fix", "mix", "float"])
    p.add_argument("--value", type=_rational, required=True)
    accuracy = p.add_mutually_exclusive_group(required=True)
    accuracy.add_argument("--eps", type=_rational)
    accuracy.add_argument("--ulp", type=_rational)
    p.add_argument("--n", type=int)
    p.add_argument("--trace", dest="trace_out")
    p.set_defaults(func=cmd_sqrt)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("profile")
    p.add_argument("table")
    p.add_argument("--suite", required=True,
                   choices=["table", "sqr", "fsqr", "adjust", "all"])
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="write a sweep report CSV")
    p.add_argument("profile")
    p.add_argument("out")
    p.add_argument("--kind", required=True, choices=["more-worse", "balance"])
    p.add_argument("--y", type=_rational)
    p.add_argument("--n-min", type=int)  # default: the profile's least count
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--stp", type=_rational_list)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place that prints an error line."""
    error = None
    try:
        try:
            args = build_parser().parse_args(argv)
            status = args.func(args)
        except SystemExit as exc:  # argparse printed a usage error or help
            status = int(exc.code or 0)
        except FileFormatError as exc:
            status, error = 2, str(exc)
        except CertisqrtError as exc:
            status, error = 1, f"{type(exc).__name__}: {exc}"
        if sys.stdout is None:  # started without fd 1: print wrote nothing
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.flush()
    except OSError as exc:  # stdout is a closed pipe, a full device or none
        # a stdout with an fd now writes to devnull: the exit flush passes;
        # None or an in-memory stdout has no fd to redirect
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        status, error = 2, f"cannot write standard output: {exc}"
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return status


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
