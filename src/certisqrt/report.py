"""Structured pass/fail reports produced by the verification routines.

Reports are plain data: deterministic, JSON-serializable, and carry enough
witness values to re-check any failed rule by hand.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable

from .errors import DomainError
from .exact import encode_int, rat_str


def _encode(value: Any) -> Any:
    """Make a witness value JSON-ready; rationals become rat_str strings
    and integers take encode_int's form."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, int):
        return encode_int(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    return str(value)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named rule applied to one subject.

    ``rule`` is a stable machine identifier (e.g. ``"sqr.final-error"``);
    ``strict`` records, for bounds checked in both forms, whether the
    strict-inequality form also held (None when not applicable).
    """

    name: str
    rule: str
    passed: bool
    witness: dict[str, Any] = field(default_factory=dict)
    strict: bool | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "rule": self.rule,
            "passed": self.passed,
            "strict": self.strict,
            "witness": _encode(self.witness),
        }


@dataclass(frozen=True)
class VerifyReport:
    subject: str
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def as_dict(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "overall": self.overall,
            "checks": [c.as_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


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
