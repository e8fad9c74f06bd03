"""The pytest settings in pyproject.toml must not hide a failing property:
a falsified hypothesis test prints its example and the tests after it run."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FALSE_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10))
def test_false(x):
    assert x < 0


def test_after():
    pass
"""


def test_falsified_property_reports_its_example(tmp_path):
    (tmp_path / "test_false_property.py").write_text(FALSE_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example: test_false(" in out, out
    assert "1 failed, 1 passed" in out, out
