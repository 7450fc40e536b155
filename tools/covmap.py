"""Coverage map: the statements of src/certisqrt that tier-1 never runs.

    python3 tools/covmap.py

Starts sys.settrace before the package is imported, runs tier-1 in this
process against src/ under a derandomized hypothesis profile, and lists
each statement of src/certisqrt no test runs.  Every such statement must
be listed, with its reason, in tools/covmap_unrun.txt; the exit status is
1 when an unrun statement is not listed there, or when a listed one now
runs (the list would hide a new gap), else 0.  It needs Python 3.11:
3.12 and later change the line events a tracer sees.

A statement is named "<module> <qualname>: <its first line>", which holds
while lines move.  It counts as run when a line event falls on its own
lines: a simple statement's, or a compound statement's header, from its
first decorator to the line before its body.  Docstrings and global or
nonlocal declarations compile to no code and are no statements here.
Subprocesses the tests start are not traced, so lines only a process
reaches (the certisqrt script's own lines) are listed as such.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "certisqrt"
LISTED = Path(__file__).resolve().parent / "covmap_unrun.txt"


class Statement(NamedTuple):
    key: str  # "<module> <qualname>: <first line>"
    path: str
    first: int  # the lines whose events run it
    last: int


def _is_docstring(node: ast.stmt, body: list[ast.stmt]) -> bool:
    return (node is body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: Path) -> list[Statement]:
    """The statements of the module at path, in source order."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    found = []

    def walk(body: list[ast.stmt], qualname: str) -> None:
        for node in body:
            if isinstance(node, (ast.Global, ast.Nonlocal)) or \
                    _is_docstring(node, body):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(
                node, "decorator_list", [])])
            inner = [child for field in ("body", "orelse", "finalbody")
                     for child in getattr(node, field, [])]
            inner += [child for handler in getattr(node, "handlers", [])
                      for child in handler.body]
            header = getattr(node, "body", None)
            last = (max(node.lineno, header[0].lineno - 1)
                    if header else node.end_lineno)
            text = lines[node.lineno - 1].strip()
            found.append(Statement(f"{path.name} {qualname}: {text}",
                                   str(path), first, last))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name if qualname == "<module>" \
                    else f"{qualname}.{node.name}"
                walk(node.body, name)
            else:
                walk(inner, qualname)

    walk(ast.parse(text, str(path)).body, "<module>")
    return found


def read_listed(path: Path = LISTED) -> dict[str, str]:
    """The listed statements, each with its reason: the comment lines
    above it, up to the blank line that starts its block.  An entry with
    no comment above it in its block is refused with ValueError."""
    listed, reason = {}, []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            reason = []
        elif line.startswith("#"):
            reason.append(line.lstrip("# "))
        elif not reason:
            raise ValueError(f"{path.name}:{number}: {line!r} has no reason")
        else:
            listed[line] = " ".join(reason)
    return listed


def traced_lines() -> tuple[set, int]:
    """(hits, status): the (path, line) pairs of src/certisqrt on which
    a line event fell while pytest ran tier-1 in this process, and
    pytest's exit status."""
    targets = {str(p) for p in PACKAGE.glob("*.py")}
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in targets else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call)
    sys.settrace(call)
    try:
        import pytest
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--hypothesis-profile", "derandomized",
                              "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits, int(status)


def unrun(hits: set) -> list[Statement]:
    return [s for path in sorted(PACKAGE.glob("*.py"))
            for s in statements(path)
            if not any((s.path, n) in hits
                       for n in range(s.first, s.last + 1))]


def main(argv: list[str]) -> int:
    if argv:  # a part of tier-1 always leaves statements unrun
        print("usage: python3 tools/covmap.py (no arguments)",
              file=sys.stderr)
        return 2
    if sys.version_info[:2] != (3, 11):
        print("covmap needs Python 3.11", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    hits, status = traced_lines()
    if status != 0:
        print(f"tier-1 failed under the tracer (pytest exit {status})")
        return 1
    listed = read_listed()
    missing = unrun(hits)
    keys = {s.key for s in missing}
    unlisted = [s for s in missing if s.key not in listed]
    stale = sorted(set(listed) - keys)
    print(f"{len(missing)} statements of src/certisqrt unrun by tier-1:")
    for s in missing:
        print(f"  {Path(s.path).name}:{s.first} {s.key}")
    for s in unlisted:
        print(f"unrun and not listed: {Path(s.path).name}:{s.first} "
              f"{s.key}")
    for key in stale:
        print(f"listed but run: {key}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
