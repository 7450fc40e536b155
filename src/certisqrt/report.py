"""Structured pass/fail reports produced by the verification routines.

Reports are plain data: deterministic, JSON-serializable, and carry enough
witness values to re-check any failed rule by hand.

json_text is the one writer of indented JSON in the package: reports,
the CLI's report documents and its --trace JSON files.  It writes exactly
what json.dumps(value, indent=2, sort_keys=True) writes for value with
each witness mapped to JSON: None and bools as themselves, a Fraction as
its rat_str, an int in encode_int's form, a float as its repr, a str as
itself, a list or tuple as a list, a dict as an object with each key
str(key), anything else as its str.  json.dumps would need a mapped
copy of the value first, and up to CPython 3.12 it runs its pure-Python
encoder whenever indent is set; json_text maps and writes in one
recursive pass instead, 2.1x to 2.4x faster on the 40 seed-1
exact_certify reports (CPython 3.10 to 3.12; 1.7x on 3.13).  rat_str
and encode_int text needs no escaping and is written as it is, and every
other str goes through json's own encode_basestring_ascii.  as_dict
reads a report's JSON back, so the mapping lives here only.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable

from .errors import DomainError
from .exact import encode_int, rat_str


def _put(value: Any, newline: str, out: list[str]) -> None:
    """Append the JSON text of value to out, its nested lines indented
    two spaces past newline."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, Fraction):
        out.append(f'"{rat_str(value)}"')
    elif isinstance(value, int):
        n = encode_int(value)
        out.append(f'"{n}"' if isinstance(n, str) else int.__repr__(n))
    elif isinstance(value, float):
        out.append(encode_basestring_ascii(repr(value)))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _put(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        value = {str(k): v for k, v in value.items()}
        inner = newline + "  "
        sep = "{" + inner
        for k in sorted(value):
            out.append(f"{sep}{encode_basestring_ascii(k)}: ")
            _put(value[k], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(encode_basestring_ascii(str(value)))


def json_text(value: Any) -> str:
    """json.dumps(value, indent=2, sort_keys=True) with each witness
    value mapped to JSON as the module docstring says."""
    out: list[str] = []
    _put(value, "\n", out)
    return "".join(out)


@dataclass(frozen=True, slots=True, init=False)
class CheckResult:
    """Outcome of one named rule applied to one subject.

    ``rule`` is a stable machine identifier (e.g. ``"sqr.final-error"``);
    ``strict`` records, for bounds checked in both forms, whether the
    strict-inequality form also held (None when not applicable).  Like
    FixVal's, its __init__ sets each slot through its descriptor.
    """

    name: str
    rule: str
    passed: bool
    witness: dict[str, Any]
    strict: bool | None

    def __init__(self, name: str, rule: str, passed: bool,
                 witness: dict[str, Any] | None = None,
                 strict: bool | None = None) -> None:
        _set_name(self, name)
        _set_rule(self, rule)
        _set_passed(self, passed)
        _set_witness(self, {} if witness is None else witness)
        _set_strict(self, strict)

    def fields(self) -> dict[str, Any]:
        """The check as json_text writes it, its witness values as held."""
        return {"name": self.name, "rule": self.rule, "passed": self.passed,
                "strict": self.strict, "witness": self.witness}

    def as_dict(self) -> dict[str, Any]:
        return json.loads(json_text(self.fields()))


# the slots' setters, which bypass the frozen __setattr__, for __init__
_set_name, _set_rule, _set_passed, _set_witness, _set_strict = (
    CheckResult.__dict__[f].__set__ for f in CheckResult.__slots__)


@dataclass(frozen=True)
class VerifyReport:
    subject: str
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def fields(self) -> dict[str, Any]:
        """The report as json_text writes it, its witness values as held."""
        return {"subject": self.subject, "overall": self.overall,
                "checks": [c.fields() for c in self.checks]}

    def as_dict(self) -> dict[str, Any]:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        return json_text(self.fields())


def check(name: str, rule: str, ok: bool, witness: dict[str, Any],
          failure: dict[str, Any] | None = None) -> CheckResult:
    """Outcome of one rule; ``failure``, when given, is the witness
    reported instead of ``witness`` when the rule fails."""
    if not ok and failure is not None:
        witness = failure
    return CheckResult(name, rule, ok, witness)


def require(what: str, checks: Iterable[CheckResult]) -> None:
    """Raise DomainError naming every rule among ``checks`` that failed."""
    failed = [c.rule for c in checks if not c.passed]
    if failed:
        raise DomainError(f"{what} invalid: {', '.join(failed)}")
