#!/usr/bin/env python3
"""Net line change of the working tree against a git revision, split by kind.

For each of ``src/``, ``tests/``, ``benchmarks/`` and ``tools/`` the report
prints how many lines of Python code, of docstrings and comments, and of
blank lines the working tree has gained or lost against REV (default
``HEAD``), and git's own added / removed line totals over every file of the
directory.

Usage::

    python tools/loc_report.py [REV]

Docstrings are found with :mod:`ast` (a string that is the first statement
of a module, class or function; blank lines inside it count as docstring),
comments with :mod:`tokenize` (a line holding nothing but a comment); a line
with code and a trailing comment is code.  Untracked files git does not
ignore count as added.  Run it from anywhere inside the repository.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

#: The directories the report covers, in print order.
DIRECTORIES = ("src", "tests", "benchmarks", "tools")

#: Line kinds, in print order.
KINDS = ("code", "doc", "blank")

_LAYOUT_TOKENS = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def classify_lines(source: str) -> Counter:
    """Count the ``code``, ``doc`` and ``blank`` lines of Python source.

    ``doc`` lines belong to a docstring or hold only a comment.  Source that
    does not parse counts every non-blank line as code.
    """
    lines = source.splitlines()
    kinds = ["blank" if not line.strip() else "code" for line in lines]
    try:
        tree = ast.parse(source)
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (SyntaxError, tokenize.TokenError):
        return Counter(kinds)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                for row in range(first.lineno - 1, first.end_lineno):
                    kinds[row] = "doc"
    code_rows = {
        row
        for token in tokens
        if token.type not in _LAYOUT_TOKENS
        for row in range(token.start[0] - 1, token.end[0])
    }
    for token in tokens:
        row = token.start[0] - 1
        if token.type == tokenize.COMMENT and row not in code_rows:
            kinds[row] = "doc"
    return Counter(kinds)


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    ).stdout


def _old_source(root: Path, rev: str, path: str) -> str:
    shown = subprocess.run(
        ["git", "show", f"{rev}:{path}"], cwd=root, capture_output=True, text=True
    )
    return shown.stdout if shown.returncode == 0 else ""


def directory_change(root: Path, rev: str, directory: str) -> dict[str, int]:
    """Net ``code`` / ``doc`` / ``blank`` lines of one directory, and git's totals.

    Git's totals are ``added`` and ``removed``, over every file.
    """
    tracked = _git(root, "diff", "--name-only", rev, "--", directory).splitlines()
    untracked = _git(
        root, "ls-files", "--others", "--exclude-standard", "--", directory
    ).splitlines()
    change = {kind: 0 for kind in KINDS}
    for path in sorted(set(tracked) | set(untracked)):
        if not path.endswith(".py"):
            continue
        current = root / path
        new = current.read_text(encoding="utf-8") if current.exists() else ""
        delta = classify_lines(new)
        delta.subtract(classify_lines(_old_source(root, rev, path)))
        for kind in KINDS:
            change[kind] += delta[kind]
    added = removed = 0
    for line in _git(root, "diff", "--numstat", rev, "--", directory).splitlines():
        plus, minus, _path = line.split("\t", 2)
        if plus != "-":
            added, removed = added + int(plus), removed + int(minus)
    for path in untracked:
        added += len((root / path).read_bytes().splitlines())
    change.update(added=added, removed=removed)
    return change


def report(root: Path, rev: str = "HEAD") -> dict[str, dict[str, int]]:
    """The :func:`directory_change` of every directory in :data:`DIRECTORIES`."""
    return {directory: directory_change(root, rev, directory) for directory in DIRECTORIES}


def format_report(changes: dict[str, dict[str, int]], rev: str) -> str:
    """Render :func:`report` as a fixed-width table with a total row."""
    keys = (*KINDS, "added", "removed")
    total = {key: sum(change[key] for change in changes.values()) for key in keys}
    rows = [
        f"working tree against {rev}",
        f"{'':12}{'code':>7}{'doc+cmt':>9}{'blank':>7}{'net':>7}   git",
    ]
    named = [(f"{directory}/", change) for directory, change in changes.items()]
    for name, change in (*named, ("total", total)):
        net = sum(change[kind] for kind in KINDS)
        rows.append(
            f"{name:12}{change['code']:>+7}{change['doc']:>+9}{change['blank']:>+7}{net:>+7}"
            f"   +{change['added']}/-{change['removed']}"
        )
    return "\n".join(rows)


def main(argv: list[str]) -> int:
    rev = argv[1] if len(argv) > 1 else "HEAD"
    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel").strip())
    print(format_report(report(root, rev), rev))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
