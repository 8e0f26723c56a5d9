"""Set-up shared by every test module."""
import shutil
import warnings
from pathlib import Path

import pytest

# Hypothesis imports this module to report a failing example.  It imports
# libcst, which raises a DeprecationWarning on import, and the suite's
# ``error::DeprecationWarning`` filter would turn that into an internal error
# that stops the whole run.  Imported here first with the warning silenced, a
# failing property test stays one failure.  Without libcst hypothesis skips
# the report, and so does this.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def copy_checkout(tmp_path):
    """Copies the benchmark's part of the checkout, ``src/``, ``perfbench/``
    (without its ``out/``) and ``BENCHMARK.json``, into ``tmp_path / name``,
    so that a benchmark run's outputs do not land in the working tree."""
    def copy(name: str) -> Path:
        dest = tmp_path / name
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", dest)
        return dest
    return copy
