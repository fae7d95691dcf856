"""Smoke tests of the experiment scripts: each runs end to end on tiny
arguments and writes the files it documents."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "sweep_synthetic.py": (
        ["--n", "100", "--n-plus", "20", "80", "--seeds", "2"],
        [f"sweep_n100_p{p}{ext}" for p in (20, 80) for ext in (".csv", ".agg.csv")],
    ),
    "optimize_synthetic.py": (
        ["--n", "40", "--n-plus", "12", "--k", "3", "--iters", "5"],
        [
            "optimize_before.csv",
            "optimize_after.csv",
            "optimize_trace.csv",
            "optimize_model.json",
        ],
    ),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_writes_its_outputs(script, tmp_path):
    args, outputs = SCRIPTS[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out-dir", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
