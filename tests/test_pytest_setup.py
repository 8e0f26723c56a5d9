import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).parent

FAILING = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 5

def test_runs_after_it():
    pass
"""


def test_failing_property_test_is_an_ordinary_failure(tmp_path):
    # The suite's conftest and settings, a throwaway test module that fails.
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_throwaway.py").write_text(FAILING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_throwaway.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
