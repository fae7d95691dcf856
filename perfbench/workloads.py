"""Workload inputs, the CLI calls that make one operation, and the checks
that each operation's outputs are correct.

Every input is a pure function of (workload seed, op index), so a seed fixes
the inputs whatever the machine's speed. Sizes follow a Kronecker sequence
instead of independent uniforms: every prefix of the sequence covers the
stated size range evenly. On ``audit`` and ``train`` the size schedule is the
same for every seed and the seed draws the data, so the latency percentiles
of a run depend on the program, not on which sizes a seed happened to draw.
On ``sweep`` the protected count is the only input, so the seed offsets its
schedule.

The checks use the benchmark's own numpy reference for the parity terms and
the segregated extremes; they never call into rankfair.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

# Kronecker sequence steps: the golden-ratio conjugate and sqrt(2) - 1
_ALPHA = (math.sqrt(5.0) - 1.0) / 2.0
_BETA = math.sqrt(2.0) - 1.0
STEP = 10  # the CLI's default cutoff step, which every op uses


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's reference."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# --- reference parity terms --------------------------------------------------


def cutoffs(n: int, step: int = STEP) -> np.ndarray:
    cut = list(range(step, n + 1, step))
    if not cut or cut[-1] != n:
        cut.append(n)
    return np.asarray(cut)


def _kl2(p: np.ndarray, q: float) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * np.log2(p / q), 0.0)


def terms(kind: str, i: np.ndarray, c: np.ndarray, n: int, n_plus: int) -> np.ndarray:
    """Undiscounted parity terms at cutoffs ``i`` with ``c`` protected items."""
    i = np.asarray(i, dtype=float)
    c = np.asarray(c, dtype=float)
    share = n_plus / n
    if kind == "rnd":
        return np.abs(c / i - share)
    if kind == "rkl":
        kl = _kl2(c / i, share) + _kl2((i - c) / i, 1.0 - share)
        return np.maximum(kl, 0.0)
    rest = i - c
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((c > 0) & (rest > 0), c / rest, 0.0)
    return np.abs(ratio - n_plus / (n - n_plus))


def discounted_sum(kind: str, i: np.ndarray, c: np.ndarray, n: int, n_plus: int) -> float:
    return float(np.sum(terms(kind, i, c, n, n_plus) / np.log2(i)))


def extreme_sums(kind: str, n: int, n_plus: int) -> tuple[float, float]:
    """Discounted sums of the protected-first and protected-last rankings."""
    i = cutoffs(n)
    first = np.minimum(i, n_plus)
    last = np.maximum(0, i - (n - n_plus))
    return discounted_sum(kind, i, first, n, n_plus), discounted_sum(kind, i, last, n, n_plus)


# --- shared input/output helpers --------------------------------------------


@dataclass
class Dataset:
    """A generated dataset CSV and what the checks need to know about it."""

    path: Path
    ids: list[str]
    protected: dict[str, bool]
    ref_score: dict[str, float]


def write_dataset(
    path: Path, rng: np.random.Generator, n: int, n_plus: int, m: int
) -> Dataset:
    """Columns id, group ('b' is protected), s1..s<m>. Values are multiples
    of 1e-4 so the CSV text holds them exactly."""
    ids = [f"r{j:06d}" for j in range(n)]
    prot = np.zeros(n, dtype=bool)
    prot[rng.choice(n, size=n_plus, replace=False)] = True
    vals = rng.integers(0, 1_000_000, size=(n, m)) / 1e4
    header = "id,group," + ",".join(f"s{k + 1}" for k in range(m))
    lines = [header]
    for j in range(n):
        cells = ",".join(f"{v:.4f}" for v in vals[j])
        lines.append(f"{ids[j]},{'b' if prot[j] else 'a'},{cells}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lo, hi = vals.min(axis=0), vals.max(axis=0)
    ref = ((vals - lo) / (hi - lo)).mean(axis=1)
    return Dataset(
        path=path,
        ids=ids,
        protected=dict(zip(ids, prot.tolist())),
        ref_score=dict(zip(ids, ref.tolist())),
    )


def dataset_flags(ds: Dataset) -> list[str]:
    return [
        str(ds.path), "--id-col", "id", "--protected-col", "group",
        "--protected-equals", "b",
    ]


def read_ranking(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == ["id", "protected", "score"], f"{path.name}: bad header")
    body = rows[1:]
    ids = [r[0] for r in body]
    flags = np.array([r[1] == "1" for r in body], dtype=bool)
    scores = np.array([float(r[2]) for r in body])
    return ids, flags, scores


def check_ranking(path: Path, ds: Dataset, ref_tol: Optional[float]) -> np.ndarray:
    """A permutation of the dataset ids, protected flags as generated, scores
    non-increasing and, when ``ref_tol`` is given, equal to the reference
    score. Returns the protected flags in rank order."""
    ids, flags, scores = read_ranking(path)
    _require(sorted(ids) == ds.ids, f"{path.name}: not a permutation of the dataset ids")
    _require(
        flags.tolist() == [ds.protected[i] for i in ids],
        f"{path.name}: protected flags differ from the dataset",
    )
    _require(bool(np.all(np.isfinite(scores))), f"{path.name}: non-finite score")
    _require(bool(np.all(np.diff(scores) <= 0.0)), f"{path.name}: scores increase")
    if ref_tol is not None:
        ref = np.array([ds.ref_score[i] for i in ids])
        err = float(np.max(np.abs(scores - ref)))
        _require(err <= ref_tol, f"{path.name}: score off the min-max sum by {err:.3g}")
    return flags


FIXED_SCHEDULE = 0  # Kronecker offset seed of the seed-independent size schedules


class Kronecker:
    """Two-dimensional low-discrepancy points in [0, 1)^2, offset by a seed."""

    def __init__(self, seed: int):
        self.a, self.b = np.random.default_rng([seed, 0x5EED]).random(2)

    def point(self, i: int) -> tuple[float, float]:
        return (self.a + i * _ALPHA) % 1.0, (self.b + i * _BETA) % 1.0


@dataclass
class Workload:
    """Base: subclasses write one op's inputs, give its CLI calls, check it."""

    workdir: Path
    seed: int
    rows: dict[str, int] = field(default_factory=dict, init=False)
    iters_per_op: int = field(default=0, init=False)

    def rng(self, i: int) -> np.random.Generator:
        # op index -1 is the warm-up
        return np.random.default_rng([self.seed, i + 1])

    def out(self, name: str) -> Path:
        return self.workdir / name


# --- audit: rank a dataset, then measure the ranking ---------------------------


@dataclass
class Audit(Workload):
    n_lo: int = 1_000
    n_hi: int = 10_000
    share_lo: float = 0.1
    share_hi: float = 0.6
    score_cols: int = 4

    def __post_init__(self):
        self._seq = Kronecker(FIXED_SCHEDULE)
        # the warm-up runs the largest stated size, so peak RSS is set by it
        # and not by the sizes a seed draws; its key is kept out of the
        # timed set
        self._warm = (self.n_hi, round(self.share_hi * self.n_hi))
        self._used = {self._warm}

    def sizes(self) -> dict:
        return {
            "n": [self.n_lo, self.n_hi, "log-uniform"],
            "protected_share": [self.share_lo, self.share_hi],
            "score_columns": self.score_cols,
            "warmup_key": list(self._warm),
        }

    def _key(self, i: int) -> tuple[int, int]:
        u, v = self._seq.point(i)
        n = int(round(self.n_lo * (self.n_hi / self.n_lo) ** u))
        n_plus = int(round((self.share_lo + (self.share_hi - self.share_lo) * v) * n))
        n_plus = min(max(n_plus, 1), n - 1)
        while (n, n_plus) in self._used:
            n_plus = n_plus + 1 if n_plus + 1 < n else 1
        self._used.add((n, n_plus))
        return n, n_plus

    def warmup_input(self) -> Dataset:
        return self._write(-1, *self._warm)

    def input(self, i: int) -> Dataset:
        return self._write(i, *self._key(i))

    def _write(self, i: int, n: int, n_plus: int) -> Dataset:
        ds = write_dataset(self.out("data.csv"), self.rng(i), n, n_plus, self.score_cols)
        self.rows[str(ds.path)] = n
        self.rows[str(self.out("ranking.csv"))] = n
        return ds

    def argvs(self, ds: Dataset) -> list[list[str]]:
        cols = [f"s{k + 1}" for k in range(self.score_cols)]
        return [
            ["rank", *dataset_flags(ds), "--score-sum", *cols,
             "--out", str(self.out("ranking.csv"))],
            ["measure", str(self.out("ranking.csv")), "--out", str(self.out("report.json"))],
        ]

    def check(self, ds: Dataset) -> None:
        flags = check_ranking(self.out("ranking.csv"), ds, ref_tol=1e-6)
        check_report(self.out("report.json"), flags)


def check_report(path: Path, flags: np.ndarray) -> None:
    rep = json.loads(path.read_text(encoding="utf-8"))
    n, n_plus = int(flags.size), int(flags.sum())
    _require((rep["n"], rep["n_plus"]) == (n, n_plus), "report: wrong group sizes")
    i = cutoffs(n)
    c = np.cumsum(flags)[i - 1]
    rows = rep["per_cutoff"]
    _require([d["i"] for d in rows] == i.tolist(), "report: wrong cutoffs")
    _require([d["c"] for d in rows] == c.tolist(), "report: c is not the prefix count")
    kinds = ["rnd", "rkl"] + (["rrd"] if 2 * n_plus <= n else [])
    if len(kinds) == 2:
        _require(rep["rrd"] is None, "report: rRD given for a majority group")
    for kind in kinds:
        value, z = rep[kind], rep["normalizers"][kind]
        disc = terms(kind, i, c, n, n_plus) / np.log2(i)
        got = np.array([d[f"term_{kind}"] for d in rows], dtype=float)
        _require(
            float(np.max(np.abs(got - disc))) <= 1.5e-6, f"report: per-cutoff {kind} terms"
        )
        first, last = extreme_sums(kind, n, n_plus)
        # rRD is normalized by the protected-last extreme alone; its
        # protected-first sum is not bounded by it
        bound = last if kind == "rrd" else max(first, last)
        _require(z >= bound - 2e-6, f"report: {kind} normalizer {z} below an extreme {bound}")
        if kind != "rrd":
            _require(0.0 <= value <= 1.0, f"report: {kind}={value} outside [0, 1]")
        expect = float(np.sum(disc)) / z
        _require(abs(value - expect) <= 5e-6, f"report: {kind}={value}, reference {expect}")


# --- sweep: generated rankings over an f grid --------------------------------


@dataclass
class Sweep(Workload):
    n: int = 1_000
    share_lo: float = 0.1
    share_hi: float = 0.6
    grid_steps: int = 10  # f in 0, 1/grid_steps, ..., 1
    seeds: int = 10

    def __post_init__(self):
        self._seq = Kronecker(self.seed)

    def sizes(self) -> dict:
        return {
            "n": self.n,
            "protected_share": [self.share_lo, self.share_hi],
            "f_grid_points": self.grid_steps + 1,
            "seeds": self.seeds,
        }

    def _n_plus(self, i: int) -> int:
        u, _ = self._seq.point(i)
        return int(round((self.share_lo + (self.share_hi - self.share_lo) * u) * self.n))

    def warmup_input(self) -> int:
        return self._n_plus(-1)

    def input(self, i: int) -> int:
        return self._n_plus(i)

    def argvs(self, n_plus: int) -> list[list[str]]:
        return [[
            "sweep", "--n", str(self.n), "--n-plus", str(n_plus),
            "--f-grid", f"0:1:{1 / self.grid_steps}", "--seeds", str(self.seeds),
            "--out", str(self.out("sweep.csv")), "--agg-out", str(self.out("agg.csv")),
        ]]

    def check(self, n_plus: int) -> None:
        grid = [k / self.grid_steps for k in range(self.grid_steps + 1)]
        with open(self.out("sweep.csv"), encoding="utf-8", newline="") as fh:
            cells = list(csv.DictReader(fh))
        with open(self.out("agg.csv"), encoding="utf-8", newline="") as fh:
            aggs = list(csv.DictReader(fh))
        _require(len(cells) == len(grid) * self.seeds, f"sweep: {len(cells)} rows")
        minority = 2 * n_plus <= self.n
        means: dict[float, list[list[float]]] = {}
        for row in cells:
            f = float(row["f"])
            _require(any(abs(f - g) < 1e-9 for g in grid), f"sweep: f={f} off the grid")
            _require(0 <= int(row["seed"]) < self.seeds, "sweep: seed out of range")
            rnd, rkl = float(row["rnd"]), float(row["rkl"])
            _require(0.0 <= rnd <= 1.0 and 0.0 <= rkl <= 1.0, "sweep: rnd/rkl outside [0, 1]")
            if minority:
                rrd = float(row["rrd"])
                _require(math.isfinite(rrd) and rrd >= 0.0, "sweep: bad rrd")
            else:
                _require(row["rrd"] == "", "sweep: rrd given for a majority group")
            means.setdefault(round(f, 9), []).append([rnd, rkl])
        _require(len(aggs) == len(grid), f"sweep: {len(aggs)} aggregate rows")
        for agg in aggs:
            f = round(float(agg["f"]), 9)
            _require(len(means.get(f, [])) == self.seeds, f"sweep: f={f} lacks seeds")
            mean_rnd, mean_rkl = np.mean(means[f], axis=0)
            _require(
                abs(float(agg["rnd"]) - mean_rnd) <= 2e-6
                and abs(float(agg["rkl"]) - mean_rkl) <= 2e-6,
                f"sweep: aggregate at f={f} is not the per-cell mean",
            )
        share = n_plus / self.n
        fair = round(min(grid, key=lambda g: abs(g - share)), 9)
        mean_rnd = {f: float(np.mean([r[0] for r in rows])) for f, rows in means.items()}
        _require(
            mean_rnd[fair] < mean_rnd[0.0] and mean_rnd[fair] < mean_rnd[1.0],
            f"sweep: mean rND at f={fair} is not below both extremes",
        )


# --- train: learn a fairer re-scoring ------------------------------------------


@dataclass
class Train(Workload):
    n: int = 2_000
    m: int = 8
    share_lo: float = 0.1
    share_hi: float = 0.5
    k: int = 10
    iters: int = 10
    lr: float = 0.01

    def __post_init__(self):
        self._seq = Kronecker(FIXED_SCHEDULE)
        self.iters_per_op = self.iters

    def sizes(self) -> dict:
        return {
            "n": self.n,
            "features": self.m,
            "protected_share": [self.share_lo, self.share_hi],
            "k": self.k,
            "iters": self.iters,
            "lr": self.lr,
        }

    def _write(self, i: int) -> Dataset:
        u, _ = self._seq.point(i)
        n_plus = int(round((self.share_lo + (self.share_hi - self.share_lo) * u) * self.n))
        ds = write_dataset(self.out("data.csv"), self.rng(i), self.n, n_plus, self.m)
        self.rows[str(ds.path)] = self.n
        return ds

    def warmup_input(self) -> Dataset:
        return self._write(-1)

    def input(self, i: int) -> Dataset:
        return self._write(i)

    def argvs(self, ds: Dataset) -> list[list[str]]:
        cols = [f"s{k + 1}" for k in range(self.m)]
        return [[
            "optimize", *dataset_flags(ds), "--score-sum", *cols,
            "--k", str(self.k), "--iters", str(self.iters), "--lr", str(self.lr),
            "--trace-out", str(self.out("trace.csv")),
            "--model-out", str(self.out("model.json")),
            "--ranking-out", str(self.out("ranking.csv")),
        ]]

    def check(self, ds: Dataset) -> None:
        with open(self.out("trace.csv"), encoding="utf-8", newline="") as fh:
            trace = list(csv.reader(fh))[1:]
        _require(len(trace) == self.iters, f"train: {len(trace)} trace rows")
        _require(
            all(v != "" and math.isfinite(float(v)) for row in trace for v in row),
            "train: non-finite trace value",
        )
        check_ranking(self.out("ranking.csv"), ds, ref_tol=None)
        model = json.loads(self.out("model.json").read_text(encoding="utf-8"))
        protos = np.asarray(model["prototypes"], dtype=float)
        _require(
            (model["K"], model["m"], protos.size) == (self.k, self.m, self.k * self.m),
            "train: model is not K x m prototypes",
        )
        _require(bool(np.all(np.isfinite(protos))), "train: non-finite prototype")


WORKLOADS = {"audit": Audit, "sweep": Sweep, "train": Train}
