"""Controlled-unfairness ranking generation.

A base ranking is split into its protected and nonprotected subsequences
(base order preserved); while both are nonempty a uniform draw p on [0, 1)
picks the next output item from the protected side when p < f, then the
nonempty remainder is appended. f = 0 places every nonprotected item first,
f = 1 every protected item first, and f equal to the protected proportion
mixes the groups proportionally in expectation.

The merge is computed through its protected prefix count: after k steps it
is the running count of draws below f, clipped to ``feasible_band`` at k,
since once a group runs out the other fills every later step. The band's
edges are the segregated rankings that the normalizer evaluates.

The RNG is numpy's default PCG64 generator, so outputs are reproducible
across platforms for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .measures import Scale, feasible_band
from .ranking import Ranking, fmt, write_csv


def _check_probability(f: float) -> None:
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fairness probability must be in [0, 1], got {f}")


def _check_counts(n: int, n_plus: int) -> None:
    if n < 2 or not 0 <= n_plus <= n:
        raise ValueError(f"invalid counts n={n}, n_plus={n_plus}")


def _merged_counts(
    u: np.ndarray, f_grid: Sequence[float], cutoffs: np.ndarray, n_plus: int
) -> np.ndarray:
    """Protected counts of the biased merge whose step k draws ``u[k]``, for
    ``u.size`` items with ``n_plus`` protected: one row per f in ``f_grid``,
    one column per ascending cutoff, the last of which is ``u.size``.

    One histogram pass serves every f. A draw's bin is the cutoff interval
    that holds its step and the number of grid values at or below it.
    Cumulative sums over the intervals, then over those numbers, count the
    draws strictly below each f by each cutoff, for any grid order and with
    repeated values.
    """
    edges = np.sort(np.asarray(f_grid, dtype=float))
    width = edges.size + 1
    interval = np.repeat(np.arange(cutoffs.size), np.diff(cutoffs, prepend=0))
    bins = interval * width + np.searchsorted(edges, u, side="right")
    hist = np.bincount(bins, minlength=cutoffs.size * width).reshape(-1, width)
    below = hist.cumsum(axis=0).cumsum(axis=1)[:, np.searchsorted(edges, f_grid)]
    lo, hi = feasible_band(cutoffs, u.size, n_plus)
    return np.clip(below.T, lo, hi)


def merge_order(flags: np.ndarray, f: float, seed: int) -> np.ndarray:
    """Index order of the biased merge of the protected (``flags`` true) and
    nonprotected positions, each group kept in its given order. With one
    group empty the order is the identity."""
    flags = np.asarray(flags, dtype=bool)
    n = flags.size
    u = np.random.default_rng(seed).random(n)
    counts = _merged_counts(u, [f], np.arange(1, n + 1), int(flags.sum()))[0]
    took_prot = np.diff(counts, prepend=0) > 0
    order = np.empty(n, dtype=np.intp)
    order[took_prot] = np.flatnonzero(flags)
    order[~took_prot] = np.flatnonzero(~flags)
    return order


def generate_unfair(base: Ranking, f: float, seed: int) -> Ranking:
    """Biased merge of the base ranking's group subsequences with fairness
    probability ``f`` in [0, 1]; a permutation of the base that never
    reorders two items of the same group."""
    _check_probability(f)
    order = merge_order(base.flags, f, seed)
    return Ranking(
        ids=[base.ids[i] for i in order.tolist()],
        flags=base.flags[order],
        scores=None if base.scores is None else base.scores[order],
    )


def random_base_ranking(n: int, n_plus: int, seed: int) -> Ranking:
    """Uniform random permutation of n items, n_plus of them protected.
    Protected ids are p1..p{n_plus}, the rest q1..q{n - n_plus}."""
    _check_counts(n, n_plus)
    perm = np.random.default_rng(seed).permutation(n)
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

    The flag sequence of a biased merge does not depend on the base, so no
    base is drawn: each seed draws its n uniforms once, one histogram pass
    over them gives every f's prefix counts at the cutoffs, and the seed's
    rows are measured together on one ``measures.Scale``.
    """
    seeds, f_grid = list(seeds), list(f_grid)
    _check_counts(n, n_plus)
    for f in f_grid:
        _check_probability(f)
    scale = Scale.of(n, n_plus, step)
    if not seeds or not f_grid:
        return []
    per_seed = []
    for seed in seeds:
        u = np.random.default_rng(seed).random(n)
        counts = _merged_counts(u, f_grid, scale.cutoffs, n_plus)
        per_seed.append(scale.measure(counts)[1])
    return [
        SweepRow(f, seed, *values[j])
        for j, f in enumerate(f_grid)
        for seed, values in zip(seeds, per_seed)
    ]


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


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    write_csv(
        path,
        ["f", "seed", "rnd", "rkl", "rrd"],
        ([fmt(r.f), r.seed, fmt(r.rnd), fmt(r.rkl), fmt(r.rrd)] for r in rows),
    )


def write_aggregate_csv(aggs: Sequence[SweepAggregate], path: str | Path) -> None:
    write_csv(
        path,
        ["f", "rnd", "rkl", "rrd"],
        ([fmt(a.f), fmt(a.mean_rnd), fmt(a.mean_rkl), fmt(a.mean_rrd)] for a in aggs),
    )
