"""The pytest configuration in ``pyproject.toml``: warnings are errors, and a
failing Hypothesis test still reports its falsifying example."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # Hypothesis imports libcst to report a failure, which warns on import;
    # under "error" alone that warning aborts the pytest run with INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        textwrap.dedent(
            """\
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_negative(x):
                assert x < 0
            """
        )
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
