"""The benchmark's workloads pass its own output checks: each workload's
warm-up op runs through ``rankfair.cli.main`` as ``perfbench/run.py`` runs
it, and ``perfbench/workloads.py`` then checks the files it wrote."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from rankfair.cli import main


def load_perfbench(stem):
    """``perfbench/<stem>.py``, loaded by path; it is registered in
    ``sys.modules`` first, where its dataclasses look their module up."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_perfbench("workloads").WORKLOADS
TRACER = load_perfbench("tracer")

# Traced names that the program no longer has, so their time shows under the
# caller; the list goes once the tracer names the functions that replaced them.
STALE_LAYERS = {
    "ranking.validate_ranking",
    "ranking.prefix_counts",
    "measures.parity_term",
    "measures.measure",
    "generator.sweep",
    "generator.aggregate_sweep",
    "generator.write_sweep_csv",
}


def resolves(name):
    module, function = name.split(".")
    return callable(getattr(importlib.import_module(f"rankfair.{module}"), function, None))


def test_traced_names_resolve():
    """Every function the benchmark's tracer times exists under its name,
    apart from the known stale ones, so a rename cannot silently drop a
    layer's metrics."""
    assert {name for name in TRACER.NAMES if not resolves(name)} <= STALE_LAYERS
    assert resolves(TRACER.NORMALIZER)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_warmup_op_passes_the_benchmark_checks(name, tmp_path, capsys):
    workload = WORKLOADS[name](workdir=tmp_path, seed=0)
    inp = workload.warmup_input()
    for argv in workload.argvs(inp):
        assert main(argv) == 0, capsys.readouterr().err
    workload.check(inp)


@pytest.mark.parametrize("grid_steps", [10, 100])
def test_sweep_ops_pass_the_benchmark_checks_for_both_group_sizes(grid_steps, tmp_path, capsys):
    """The sweep's ops draw a protected share from 10% to 60%, while its
    warm-up op draws one: ops run until a minority group and a majority one,
    whose rRD cells are empty, have each passed the checks. The workload's
    11 grid values bin each batch by one pass per value; 101 values leave a
    one-seed batch under ``generator._PASS_DRAWS`` draws per value, so it
    takes ``searchsorted``."""
    workload = WORKLOADS["sweep"](workdir=tmp_path, seed=0, grid_steps=grid_steps)
    minority = set()
    for i in range(100):
        n_plus = workload.input(i)
        for argv in workload.argvs(n_plus):
            assert main(argv) == 0, capsys.readouterr().err
        workload.check(n_plus)
        minority.add(2 * n_plus <= workload.n)
        if minority == {True, False}:
            break
    assert minority == {True, False}
