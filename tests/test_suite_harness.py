"""The suite reports every failure: a failing hypothesis property does not
end the run before the tests after it.

A child pytest runs a failing property and then a passing test under this
project's configuration (filterwarnings = ["error"]) and tests/conftest.py.
Without libcst installed, hypothesis's failure path imports nothing that
warns and the check passes either way, so CI installs libcst.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_after_it():
    pass
"""


def test_a_failing_property_does_not_end_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(_PROBE, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "tests"), str(ROOT / "src")])}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "conftest", str(tmp_path / "test_probe.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
