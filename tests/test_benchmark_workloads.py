"""The benchmark's workloads pass its own output checks: each workload's
warm-up op runs through ``rankfair.cli.main`` as ``perfbench/run.py`` runs
it, and ``perfbench/workloads.py`` then checks the files it wrote."""

import importlib.util
import sys
from pathlib import Path

import pytest

from rankfair.cli import main


def load_workloads():
    """``perfbench/workloads.py``, loaded by path; it is registered in
    ``sys.modules`` first, where its dataclasses look their module up."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_warmup_op_passes_the_benchmark_checks(name, tmp_path, capsys):
    workload = WORKLOADS[name](workdir=tmp_path, seed=0)
    inp = workload.warmup_input()
    for argv in workload.argvs(inp):
        assert main(argv) == 0, capsys.readouterr().err
    workload.check(inp)
