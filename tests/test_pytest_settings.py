"""The repo's pytest settings: a failing hypothesis test reports its
falsifying example under them.

On failure the hypothesis plugin imports libcst, which warns through
`mypy_extensions.TypedDict`; the settings turn every DeprecationWarning into
an error, and unfiltered that one ended the whole run in INTERNALERROR.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_a_failing_hypothesis_test_shows_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example: test_fails(" in done.stdout
