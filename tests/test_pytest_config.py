"""The repository's pytest configuration reports a failing hypothesis
property as one failure, and the session runs on."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_is_one_failure(tmp_path):
    # on failure hypothesis imports libcst, which warns DeprecationWarning;
    # the config's error::DeprecationWarning made that an INTERNALERROR
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
