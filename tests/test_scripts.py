"""Smoke tests of the experiment scripts: each runs end to end on tiny
arguments and writes the files it documents."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rankfair.cli import main

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


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_writes_its_outputs(script, tmp_path):
    args, outputs = SCRIPTS[script]
    proc = run_script(script, *args, "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)


def run_sweep_script(tmp_path, grid_step):
    return run_script(
        "sweep_synthetic.py", "--n", "40", "--n-plus", "10", "--seeds", "1",
        "--grid-step", grid_step, "--out-dir", str(tmp_path),
    )


def test_sweep_grid_stops_at_one(tmp_path):
    """The grid is the one ``rankfair sweep --f-grid 0:1:STEP`` builds."""
    proc = run_sweep_script(tmp_path, "0.35")
    assert proc.returncode == 0, proc.stderr
    agg = (tmp_path / "sweep_n40_p10.agg.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in agg] == ["f", "0.000000", "0.350000", "0.700000"]


def test_sweep_zero_grid_step_is_a_usage_error(tmp_path):
    proc = run_sweep_script(tmp_path, "0")
    assert proc.returncode == 2
    assert "--grid-step" in proc.stderr and "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("grid_step", ["nan", "inf"])
def test_sweep_non_finite_grid_step_is_a_usage_error(tmp_path, grid_step):
    proc = run_sweep_script(tmp_path, grid_step)
    assert proc.returncode == 2
    assert "--grid-step" in proc.stderr and "--f-grid" not in proc.stderr
    assert not list(tmp_path.iterdir())


def test_sweep_grid_over_the_value_limit_is_a_usage_error(tmp_path):
    """The grid size is checked before the grid is built: a 1e-20 step exits
    at start-up instead of looping through 1e20 values."""
    start = time.perf_counter()
    proc = run_sweep_script(tmp_path, "1e-20")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert "--grid-step 1e-20" in proc.stderr and "more than 1,000,000" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())
    # interpreter and numpy start-up included
    assert elapsed < 10.0


def test_sweep_zero_seeds_is_a_usage_error(tmp_path):
    proc = run_script(
        "sweep_synthetic.py", "--n", "40", "--n-plus", "10", "--seeds", "0",
        "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 2
    assert "--seeds must be >= 1, got 0" in proc.stderr and "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())


def test_sweep_script_writes_what_the_cli_writes(tmp_path):
    proc = run_script(
        "sweep_synthetic.py", "--n", "40", "--n-plus", "12", "--seeds", "3",
        "--grid-step", "0.25", "--out-dir", str(tmp_path / "script"),
    )
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "cli.csv"
    argv = ["sweep", "--n", "40", "--n-plus", "12", "--f-grid", "0:1:0.25", "--seeds", "3"]
    assert main([*argv, "--out", str(out)]) == 0
    for name, ext in (("cli.csv", ".csv"), ("cli.agg.csv", ".agg.csv")):
        assert (tmp_path / "script" / f"sweep_n40_p12{ext}").read_bytes() == (
            (tmp_path / name).read_bytes()
        )


@pytest.mark.parametrize(
    "script, args, message",
    [
        (
            "sweep_synthetic.py",
            ["--n-plus", "20", "0"],
            "protected group size 0 of 100 is degenerate",
        ),
        ("sweep_synthetic.py", ["--n-plus", "150"], "invalid counts n=100, n_plus=150"),
        ("optimize_synthetic.py", ["--n-plus", "0"], "both groups must be nonempty"),
        ("optimize_synthetic.py", ["--n-plus", "120"], "both groups must be nonempty"),
        ("optimize_synthetic.py", ["--n-plus", "2", "--k", "101"], "k=101 exceeds row count 100"),
        (
            "sweep_synthetic.py",
            ["--n", "20", "--n-plus", "5", "--seeds", str(2**62)],
            "out of memory: sweep_synthetic.py",
        ),
        (
            "sweep_synthetic.py",
            ["--n", "9" * 23, "--n-plus", "3", "--seeds", "1"],
            "out of memory: sweep_synthetic.py",
        ),
        (
            "optimize_synthetic.py",
            ["--n", "10", "--n-plus", "3", "--k", "2", "--iters", "2", "--lr", "1e300"],
            "non-finite loss at iteration 1",
        ),
    ],
    ids=[
        "sweep_empty", "sweep_too_many", "optimize_empty", "optimize_too_many", "optimize_k",
        "sweep_seeds_too_many", "sweep_n_too_large", "optimize_diverges",
    ],
)
def test_bad_size_exits_1_before_writing(tmp_path, script, args, message):
    """A bad group size or prototype count, a size too large to allocate or
    a diverging run is reported as the CLI reports it, with no traceback,
    before any file is written: a sweep checks every size before it writes
    the first one's files. Each size fails before anything is allocated."""
    extra = ["--seeds", "2"] if script == "sweep_synthetic.py" else ["--iters", "5"]
    # a later flag wins, so ``args`` may override ``--n`` and ``extra``
    proc = run_script(script, "--n", "100", *extra, *args, "--out-dir", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_out_dir_below_a_file_exits_2(tmp_path, script):
    """An OS error is reported as the CLI reports it: exit 2 with one
    ``error: <reason>: <path>`` line and no traceback."""
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / "file" / "sub"
    args, _ = SCRIPTS[script]
    proc = run_script(script, *args, "--out-dir", str(out_dir))
    assert proc.returncode == 2
    assert proc.stderr == f"error: Not a directory: {out_dir}\n"


@pytest.mark.parametrize(
    "script, args",
    [
        ("sweep_synthetic.py", ["--n", "100", "--n-plus", "20", "999"]),
        ("optimize_synthetic.py", ["--lr", "1e300"]),
    ],
    ids=["sweep_invalid_counts", "optimize_diverges"],
)
def test_out_dir_is_checked_before_any_work(tmp_path, script, args):
    """An unusable ``--out-dir`` is reported before the sweep or the training
    runs, so a size error or a divergence the work would meet does not hide
    it."""
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / "file" / "sub"
    proc = run_script(script, *args, "--out-dir", str(out_dir))
    assert proc.returncode == 2
    assert proc.stderr == f"error: Not a directory: {out_dir}\n"


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("sweep_synthetic.py", ["--n-plus", "150"], "invalid counts n=100, n_plus=150"),
        ("optimize_synthetic.py", ["--n-plus", "0"], "both groups must be nonempty"),
    ],
    ids=["sweep", "optimize"],
)
def test_missing_out_dir_is_not_made_before_a_size_error(tmp_path, script, args, message):
    """A missing ``--out-dir`` passes the check without being made: a size
    error exits 1 and leaves no directory behind."""
    out_dir = tmp_path / "missing" / "sub"
    proc = run_script(script, "--n", "100", *args, "--out-dir", str(out_dir))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert not list(tmp_path.iterdir())
