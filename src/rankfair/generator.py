"""Controlled-unfairness ranking generation.

A base ranking is split into its protected and nonprotected subsequences
(base order preserved); while both are nonempty a uniform draw p on [0, 1)
picks the next output item from the protected side when p < f, then the
nonempty remainder is appended. f = 0 places every nonprotected item first,
f = 1 every protected item first, and f equal to the protected proportion
mixes the groups proportionally in expectation.

The RNG is numpy's default PCG64 generator, so outputs are reproducible
across platforms for a given seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .measures import MeasureKind, normalizers, values_from_counts
from .ranking import Ranking, build_schedule


@dataclass(frozen=True)
class GeneratorConfig:
    fairness_probability: float
    seed: int = 0

    def __post_init__(self):
        _check_probability(self.fairness_probability)


def _check_probability(f: float) -> None:
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fairness probability must be in [0, 1], got {f}")


def merge_order(flags: np.ndarray, f: float, seed: int) -> np.ndarray:
    """Index order of the biased merge of the protected (``flags`` true) and
    nonprotected positions, each group kept in its given order. With one
    group empty the order is the identity and no draw is made."""
    flags = np.asarray(flags, dtype=bool)
    n = flags.size
    prot_idx = np.nonzero(flags)[0]
    nonp_idx = np.nonzero(~flags)[0]
    n_plus, n_minus = prot_idx.size, nonp_idx.size
    if n_plus == 0 or n_minus == 0:
        return np.arange(n)

    rng = np.random.default_rng(seed)
    # draws are consumed in order, so taking n up front matches drawing one
    # per merge step
    choice = rng.random(n) < f
    took_prot = np.cumsum(choice)
    took_nonp = np.arange(1, n + 1) - took_prot
    # first step at which either subsequence is exhausted
    t = int(np.nonzero((took_prot == n_plus) | (took_nonp == n_minus))[0][0]) + 1

    merged = np.where(
        choice[:t],
        prot_idx[took_prot[:t] - 1],
        nonp_idx[took_nonp[:t] - 1],
    )
    tails = [prot_idx[took_prot[t - 1] :], nonp_idx[took_nonp[t - 1] :]]
    return np.concatenate([merged, *tails])


def generate_unfair(base: Ranking, config: GeneratorConfig) -> Ranking:
    """Biased merge of the base ranking's group subsequences; a permutation
    of the base that never reorders two items of the same group."""
    order = merge_order(base.flags, config.fairness_probability, config.seed)
    return Ranking(
        ids=[base.ids[i] for i in order.tolist()],
        flags=base.flags[order],
        scores=None if base.scores is None else base.scores[order],
    )


def _base_permutation(n: int, n_plus: int, seed: int) -> np.ndarray:
    """Uniform random permutation of range(n); values below n_plus are the
    protected items."""
    if n < 2 or not 0 <= n_plus <= n:
        raise ValueError(f"invalid counts n={n}, n_plus={n_plus}")
    return np.random.default_rng(seed).permutation(n)


def random_base_ranking(n: int, n_plus: int, seed: int) -> Ranking:
    """Uniform random permutation of n items, n_plus of them protected.
    Protected ids are p1..p{n_plus}, the rest q1..q{n - n_plus}."""
    perm = _base_permutation(n, n_plus, seed)
    return Ranking(
        ids=[f"p{k + 1}" if k < n_plus else f"q{k - n_plus + 1}" for k in perm.tolist()],
        flags=perm < n_plus,
    )


@dataclass(frozen=True)
class SweepRow:
    f: float
    seed: int
    rnd: float
    rkl: float
    rrd: Optional[float]


def sweep(
    n: int,
    n_plus: int,
    f_grid: Sequence[float],
    seeds: Sequence[int],
    step: int = 10,
) -> list[SweepRow]:
    """One row per (f, seed), f outer: draw the seed's random base, bias it
    with f, and measure the result. The rRD column is None when the
    protected group is the majority.

    Works on protected-flag arrays only. A seed's base does not depend on f,
    so it is drawn once per sweep; the prefix counts of one f's rankings are
    measured together, one kernel call per measure.
    """
    seeds, f_grid = list(seeds), list(f_grid)
    if not seeds:
        return []
    bases = [_base_permutation(n, n_plus, seed) < n_plus for seed in seeds]
    for f in f_grid:
        _check_probability(f)
    zs = normalizers(n, n_plus, step)
    cutoffs = np.asarray(build_schedule(n, step).cutoffs)

    rows = []
    for f in f_grid:
        counts = np.stack(
            [
                np.cumsum(base[merge_order(base, f, seed)])[cutoffs - 1]
                for base, seed in zip(bases, seeds)
            ]
        )
        values = {
            kind: values_from_counts(kind, cutoffs, counts, n, n_plus, z)
            for kind, z in zs.items()
        }
        rrds = values.get(MeasureKind.RRD, [None] * len(seeds))
        rows.extend(
            SweepRow(f=f, seed=seed, rnd=rnd, rkl=rkl, rrd=rrd)
            for seed, rnd, rkl, rrd in zip(
                seeds, values[MeasureKind.RND], values[MeasureKind.RKL], rrds
            )
        )
    return rows


@dataclass(frozen=True)
class SweepAggregate:
    f: float
    mean_rnd: float
    mean_rkl: float
    mean_rrd: Optional[float]


def aggregate_sweep(rows: Sequence[SweepRow]) -> list[SweepAggregate]:
    """Per-f means across seeds, in ascending f order."""
    by_f: dict[float, list[SweepRow]] = {}
    for row in rows:
        by_f.setdefault(row.f, []).append(row)
    out = []
    for f in sorted(by_f):
        group = by_f[f]
        rrds = [r.rrd for r in group if r.rrd is not None]
        out.append(
            SweepAggregate(
                f=f,
                mean_rnd=float(np.mean([r.rnd for r in group])),
                mean_rkl=float(np.mean([r.rkl for r in group])),
                mean_rrd=float(np.mean(rrds)) if len(rrds) == len(group) else None,
            )
        )
    return out


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.6f}"


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["f", "seed", "rnd", "rkl", "rrd"])
        for r in rows:
            writer.writerow(
                [f"{r.f:.6f}", r.seed, _fmt(r.rnd), _fmt(r.rkl), _fmt(r.rrd)]
            )


def write_aggregate_csv(aggs: Sequence[SweepAggregate], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["f", "rnd", "rkl", "rrd"])
        for a in aggs:
            writer.writerow(
                [f"{a.f:.6f}", _fmt(a.mean_rnd), _fmt(a.mean_rkl), _fmt(a.mean_rrd)]
            )
