"""The repository's pytest settings, applied to a run of their own."""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_given_test_does_not_stop_the_run(tmp_path):
    """Warnings are errors, yet hypothesis can still report its failure."""
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
