"""Tests of the benchmark itself: tiny runs of every workload pass their
checks, corrupted outputs are counted as failures, and the tracer wraps and
restores every binding of a layer function.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import run
from tracer import Tracer
from workloads import Audit, CheckFailed, Sweep, Train


def tiny(name, tmp_path, seed=3):
    sizes = {
        "audit": lambda: Audit(workdir=tmp_path, seed=seed, n_lo=40, n_hi=150),
        "sweep": lambda: Sweep(workdir=tmp_path, seed=seed, n=100, seeds=3),
        "train": lambda: Train(workdir=tmp_path, seed=seed, n=80, m=3, k=3, iters=3),
    }
    return sizes[name]()


@pytest.mark.parametrize("name", ["audit", "sweep", "train"])
def test_tiny_run_passes_its_checks(name, tmp_path):
    res = run.measure(tiny(name, tmp_path), seconds=0.5, trace=False)
    assert res["ops"] >= 2
    assert res["errors"] == []
    metrics = run.end_to_end(res)
    assert set(metrics) == {"ops_per_s", "op_p50_s", "op_p90_s", "peak_rss_mb", "setup_s"}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", ["audit", "sweep", "train"])
def test_traced_self_times_account_for_op_time(name, tmp_path):
    wl = tiny(name, tmp_path)
    res = run.measure(wl, seconds=0.5, trace=True)
    assert res["errors"] == []
    tr = res["tracer"]
    op_time = sum(res["busy"][True])
    assert tr.calls["cli.main"] == len(res["busy"][True]) * len(wl.argvs(wl.input(0)))
    # the wrappers' bookkeeping is the only unaccounted time
    assert 0.8 * op_time < sum(tr.self_s.values()) <= op_time
    metrics = run.per_layer(res, wl)
    assert metrics["measures.normalizer.peak_mb"][0] > 0
    if name == "train":
        assert metrics["fairopt.soft_assignments.calls_per_iter"][0] > 1


def test_same_seed_same_inputs(tmp_path):
    a = Audit(workdir=tmp_path / "a", seed=5)
    b = Audit(workdir=tmp_path / "b", seed=5)
    keys = [a._key(i) for i in range(200)]
    assert keys == [b._key(i) for i in range(200)]
    assert len(set(keys)) == len(keys) and a._warm not in keys


def _swap_first_scores(path):
    lines = path.read_text().splitlines()
    head, first, second, *rest = lines
    a, b = first.rsplit(",", 1), second.rsplit(",", 1)
    if a[1] == b[1]:
        b[1] = f"{float(b[1]) + 0.5:.6f}"
    lines = [head, f"{a[0]},{b[1]}", f"{b[0]},{a[1]}", *rest]
    path.write_text("\n".join(lines) + "\n")


def _perturb_json(path, key, delta):
    data = json.loads(path.read_text())
    data[key] = data[key] + delta
    path.write_text(json.dumps(data))


def _perturb_aggregate(path):
    lines = path.read_text().splitlines()
    f, rnd, rest = lines[1].split(",", 2)
    lines[1] = f"{f},{float(rnd) + 0.01:.6f},{rest}"
    path.write_text("\n".join(lines) + "\n")


def _drop_prototype(path):
    data = json.loads(path.read_text())
    data["prototypes"] = data["prototypes"][:-1]
    path.write_text(json.dumps(data))


CORRUPTIONS = [
    ("audit", "ranking.csv", _swap_first_scores),
    ("audit", "report.json", lambda p: _perturb_json(p, "rnd", 1e-3)),
    ("sweep", "agg.csv", _perturb_aggregate),
    ("train", "model.json", _drop_prototype),
]


@pytest.mark.parametrize("name,output,corrupt", CORRUPTIONS)
def test_corrupted_output_counts_as_failed(name, output, corrupt, tmp_path, monkeypatch):
    wl = tiny(name, tmp_path)
    res = run.measure(wl, seconds=0.2, trace=False)
    assert res["errors"] == []

    check, make_input = wl.check, wl.input
    timed = []  # the warm-up op stays intact; every timed op is corrupted

    def timed_input(i):
        timed.append(i)
        return make_input(i)

    def corrupting_check(inp):
        if timed:
            corrupt(wl.out(output))
        check(inp)

    monkeypatch.setattr(wl, "input", timed_input)
    monkeypatch.setattr(wl, "check", corrupting_check)
    res = run.measure(wl, seconds=0.2, trace=False)
    assert res["ops"] >= 1 and len(res["errors"]) == res["ops"]
    assert all(err.startswith("op ") and "check:" in err for err in res["errors"])
    assert run.end_to_end(res)["ops_per_s"][0] == 0


def test_check_rejects_a_measure_off_its_reference(tmp_path):
    wl = tiny("audit", tmp_path)
    cli = run.import_cli()
    ds = wl.input(0)
    assert run.run_op(cli, wl, ds)[1] is None
    _perturb_json(wl.out("report.json"), "rkl", -2e-5)
    with pytest.raises(CheckFailed, match="rkl"):
        wl.check(ds)


def test_tracer_patches_every_binding_and_restores_it():
    run.import_cli()
    measures = sys.modules["rankfair.measures"]
    generator = sys.modules["rankfair.generator"]
    fairopt = sys.modules["rankfair.fairopt"]
    ingest = sys.modules["rankfair.ingest"]
    orig = measures.measure_from_flags
    validate = sys.modules["rankfair.ranking"].validate_ranking
    with Tracer({}) as tracer:
        wrapped = measures.measure_from_flags
        assert wrapped is not orig
        assert generator.measure_from_flags is wrapped
        assert fairopt.measure_from_flags is wrapped
        assert sys.modules["rankfair"].measure_from_flags is wrapped
        for module in (measures, generator, ingest):
            assert module.validate_ranking is not validate
        generator.sweep(30, 10, [0.0, 1.0], [0, 1])
    assert measures.measure_from_flags is orig and generator.measure_from_flags is orig
    assert ingest.validate_ranking is validate
    assert tracer.calls["generator.sweep"] == 1
    assert tracer.calls["measures.measure_from_flags"] == 4 * 3
    assert tracer.calls["ranking.validate_ranking"] == 4


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    run.import_cli()
    measures = sys.modules["rankfair.measures"]
    monkeypatch.delattr(measures, "parity_term")
    with Tracer({}) as tracer:
        flags = np.array([True, False] * 15)
        measures.measure_from_flags(measures.MeasureKind.RND, flags)
    assert tracer.absent == ["measures.parity_term"]
    assert tracer.calls["measures.parity_term"] == 0
    metrics = tracer.metrics(0, 0.0, 0)
    assert metrics["measures.parity_term.calls"] == (0, "count")


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    code = run.main(["--workload", "audit", "--seconds", "1"])
    assert code != 0
    assert "{" not in capsys.readouterr().out
