"""Benchmark of the rankfair CLI: one closed-loop client per workload.

    python3 perfbench/run.py                       # every workload, each in its own process
    python3 perfbench/run.py --workload audit --seed 3 --seconds 30 --trace 0

An operation is one or more in-process calls of ``rankfair.cli.main(argv)``
on inputs generated from the seed; operations run back to back for
``--seconds``. Each operation's outputs are checked against the benchmark's
own reference (see workloads.py), and a failed check counts as a failed
operation.

With ``--trace 0`` the last line of output reports the end-to-end metrics;
with ``--trace 1`` every other operation runs with the layer functions
wrapped (see tracer.py) and the last line reports the per-layer metrics.
The lines before it give a readable table and the run's environment.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one BLAS thread: the workload process is the only worker on the machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# set-up is repeated and its median reported, so one slow import or page-in
# does not decide the figure
SETUP_REPEATS = 3


class SourceMissing(RuntimeError):
    """rankfair's sources are not in this checkout."""


def import_cli():
    """Import rankfair afresh from this checkout's sources, dropping any copy
    imported earlier, and return its cli module."""
    if not (SRC / "rankfair" / "__init__.py").is_file():
        raise SourceMissing(f"no rankfair package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "rankfair" or m.startswith("rankfair.")]:
        del sys.modules[name]
    cli = importlib.import_module("rankfair.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"rankfair imported from {cli.__file__}, not {SRC}")
    return cli


def run_cli(cli, argvs) -> tuple[float, str | None]:
    """Run one operation's CLI calls; return the time spent in them and an
    error message, or None when every call exited 0."""
    busy = 0.0
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed op, not a failed run
                code = f"{type(exc).__name__}: {exc}"
            busy += perf_counter() - t0
        if code != 0:
            return busy, f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}"
    return busy, None


def run_op(cli, wl, inp, tracer=None) -> tuple[float, str | None]:
    with tracer or contextlib.nullcontext():
        busy, error = run_cli(cli, wl.argvs(inp))
    if error is None:
        try:
            wl.check(inp)
        except CheckFailed as exc:
            error = f"check: {exc}"
        except (OSError, ValueError, KeyError, IndexError, TypeError, csv.Error) as exc:
            error = f"check: unreadable output: {type(exc).__name__}: {exc}"
    return busy, error


def setup(wl, tracer=None):
    """Import rankfair, write the warm-up input and run the warm-up op."""
    t0 = perf_counter()
    cli = import_cli()
    _, error = run_op(cli, wl, wl.warmup_input(), tracer)
    elapsed = perf_counter() - t0
    if error is not None:
        raise RuntimeError(f"warm-up op failed: {error}")
    return cli, elapsed


def measure(wl, seconds: float, trace: bool) -> dict:
    """Set up, then run ops back to back for ``seconds``. In a traced run
    the warm-up op, whose normalizer keys are cold after a fresh import,
    runs under the memory tracer; then odd-numbered ops run under the
    timing tracer and even ones without it."""
    setups = []
    memory = Tracer(wl.rows, memory=True) if trace else None
    for _ in range(1 if trace else SETUP_REPEATS):
        cli, elapsed = setup(wl, memory)
        setups.append(elapsed)

    tracer = Tracer(wl.rows) if trace else None
    busy = {False: [], True: []}
    errors = []
    deadline = perf_counter() + seconds
    i = 0
    # a traced run needs at least one op of each kind
    while perf_counter() < deadline or i < (2 if trace else 1):
        traced = trace and i % 2 == 1
        dt, error = run_op(cli, wl, wl.input(i), tracer if traced else None)
        busy[traced].append(dt)
        if error is not None:
            errors.append(f"op {i}: {error}")
        i += 1
    return {
        "setups": setups,
        "busy": busy,
        "errors": errors,
        "ops": i,
        "tracer": tracer,
        "memory": memory,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def end_to_end(res: dict) -> dict[str, tuple[float, str]]:
    lat = res["busy"][False]
    ok = len(lat) - len(res["errors"])
    p50, p90 = np.percentile(lat, [50, 90])
    return {
        "ops_per_s": (ok / sum(lat), "op/s"),
        "op_p50_s": (float(p50), "s"),
        "op_p90_s": (float(p90), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(res["setups"]), "s"),
    }


def per_layer(res: dict, wl) -> dict[str, tuple[float, str]]:
    plain, traced = res["busy"][False], res["busy"][True]
    overhead = (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1.0
    iterations = wl.iters_per_op * len(traced)
    out = res["tracer"].metrics(iterations, overhead, res["memory"].normalizer_peak_bytes)
    out["trace.ops"] = (len(traced), "count")
    return out


def layer_table(res: dict) -> list[str]:
    """Self time of each traced function as a share of traced op time."""
    tr = res["tracer"]
    op_time = sum(res["busy"][True])
    lines = [f"  {'function':<36} {'calls':>9} {'self_s':>9} {'share':>7}"]
    for name in sorted(tr.self_s, key=tr.self_s.get, reverse=True):
        if tr.calls[name]:
            lines.append(
                f"  {name:<36} {tr.calls[name]:>9} {tr.self_s[name]:>9.3f} "
                f"{tr.self_s[name] / op_time:>7.1%}"
            )
    accounted = sum(tr.self_s.values()) / op_time
    lines.append(f"  summed self time / traced op time: {accounted:.1%}")
    if tr.absent:
        lines.append(f"  absent from the program: {', '.join(tr.absent)}")
    return lines


def environment(args, wl, ops: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "sizes": wl.sizes(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_workload(args) -> int:
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](workdir=run_dir, seed=args.seed)
        res = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted, failed = res["ops"], len(res["errors"])
    for line in res["errors"][:5]:
        print(line, file=sys.stderr)
    metrics = per_layer(res, wl) if args.trace else end_to_end(res)
    print(f"workload {args.workload}: {attempted} ops, {failed} failed "
          f"(fail_frac {failed / attempted:.4f})")
    if args.trace:
        print("\n".join(layer_table(res)))
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<12} {value:>12.6g} {unit}")
    print("env " + json.dumps(environment(args, wl, attempted)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run each workload in a fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def default_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.workload is None:
        return run_all(args)
    try:
        return run_workload(args)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
