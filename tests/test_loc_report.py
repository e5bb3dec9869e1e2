"""Tests for ``tools/loc_report.py``: the line split and the git plumbing."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

SNIPPET = '''"""Module docstring
over two lines."""

import os  # a trailing comment: the line is code

# a comment line


def f(x):
    """One-line docstring."""
    text = """a multi-line string
that is not a docstring"""
    return x, text, os
'''


@pytest.fixture(scope="module")
def loc_report():
    """The ``tools/loc_report.py`` module, loaded from its file path."""
    spec = importlib.util.spec_from_file_location(
        "loc_report", REPO_ROOT / "tools" / "loc_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_split_of_a_snippet(loc_report):
    counts = loc_report.classify_lines(SNIPPET)
    # doc: the two module docstring lines, the comment line, the function
    # docstring; code: import, def, the two string lines, return.
    assert counts == {"doc": 4, "code": 5, "blank": 4}


def test_unparsable_source_counts_as_code(loc_report):
    assert loc_report.classify_lines("def broken(:\n\n    pass\n") == {"code": 2, "blank": 1}


def test_report_against_a_revision(loc_report, tmp_path):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (tmp_path / "src" / "a.py").write_text('"""Doc."""\nx = 1\n\n')
    (tmp_path / "src" / "new.py").write_text("# note\nz = 3\n")
    change = loc_report.report(tmp_path)["src"]
    # a.py: -1 code, +1 doc, +1 blank; new.py (untracked): +1 doc, +1 code.
    assert change == {"code": 0, "doc": 2, "blank": 1, "added": 4, "removed": 1}
    text = loc_report.format_report(loc_report.report(tmp_path), "HEAD")
    assert "src/" in text and "+4/-1" in text
