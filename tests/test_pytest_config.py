"""The project's pytest configuration."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

GATE_FILE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_failing_property(x):
    assert x < 5


def test_passing():
    pass
'''


def test_failing_property_does_not_end_the_session(tmp_path):
    # with every DeprecationWarning an error, the hypothesis plugin's report
    # of a failing example raised INTERNALERROR (exit 3) and no later test ran
    (tmp_path / "test_gate.py").write_text(GATE_FILE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_gate.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
