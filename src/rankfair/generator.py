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

A sweep's result is one float array of shape (f values, 3 measures, seeds),
the seeds on its last, contiguous axis, and rRD NaN where it does not apply;
no object is made per (f, seed) cell. Each seed's counts are measured by one
``Scale.measure`` call, which bounds the kernel's memory at any n. The per-f
means are one (distinct f, 3 measures) array, taken by one ``np.mean`` over
the seed axis and one more per repeated f, and the per-cell CSV is formatted
from the array a block of lines at a time, by ``ranking._format_rows``.

The RNG is numpy's default PCG64 generator, so outputs are reproducible
across platforms for a given seed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .measures import Scale, feasible_band
from .ranking import Ranking, _write_table


def _check_probability(f: float) -> None:
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fairness probability must be in [0, 1], got {f}")


def _check_counts(n: int, n_plus: int) -> None:
    if n < 2 or not 0 <= n_plus <= n:
        raise ValueError(f"invalid counts n={n}, n_plus={n_plus}")
    _check_floats(n)


def _check_floats(count: int) -> None:
    # numpy rejects an array past the index range with a ValueError of its own
    if count * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"{count} floats exceed the index range")


def _merger(
    f_grid: Sequence[float], cutoffs: np.ndarray, n: int, n_plus: int
) -> Callable[[np.ndarray], np.ndarray]:
    """The protected counts of the biased merge of ``n`` items, ``n_plus``
    protected, as a function of the draws ``u`` (step k draws ``u[k]``): one
    row per f in ``f_grid``, one column per ascending cutoff, the last of
    which is ``n``.

    One histogram pass serves every f. A draw's bin is the cutoff interval
    that holds its step and the number of grid values at or below it.
    Cumulative sums over the intervals, then over those numbers, count the
    draws strictly below each f by each cutoff, for any grid order and with
    repeated values. What does not depend on the draws is computed here,
    once for every seed.
    """
    edges = np.sort(np.asarray(f_grid, dtype=float))
    width = edges.size + 1
    offsets = np.repeat(np.arange(cutoffs.size) * width, np.diff(cutoffs, prepend=0))
    columns = np.searchsorted(edges, f_grid)
    lo, hi = feasible_band(cutoffs, n, n_plus)

    def counts(u: np.ndarray) -> np.ndarray:
        bins = np.searchsorted(edges, u, side="right")
        bins += offsets
        hist = np.bincount(bins, minlength=cutoffs.size * width).reshape(-1, width)
        below = hist.cumsum(axis=0).cumsum(axis=1)[:, columns].T
        return np.minimum(np.maximum(below, lo, out=below), hi, out=below)

    return counts


def merge_order(flags: np.ndarray, f: float, seed: int) -> np.ndarray:
    """Index order of the biased merge of the protected (``flags`` true) and
    nonprotected positions, each group kept in its given order. With one
    group empty the order is the identity."""
    flags = np.asarray(flags, dtype=bool)
    n = flags.size
    u = np.random.default_rng(seed).random(n)
    counts = _merger([f], np.arange(1, n + 1), n, int(flags.sum()))(u)[0]
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
    # a permutation of checked ids, so not checked again
    return Ranking._trusted(
        ids=[base.ids[i] for i in order.tolist()],
        flags=base.flags[order],
        scores=None if base.scores is None else base.scores[order],
    )


def random_base_ranking(n: int, n_plus: int, seed: int) -> Ranking:
    """Uniform random permutation of n items, n_plus of them protected.
    Protected ids are p1..p{n_plus}, the rest q1..q{n - n_plus}."""
    _check_counts(n, n_plus)
    perm = np.random.default_rng(seed).permutation(n)
    return Ranking._trusted(
        ids=[f"p{k + 1}" if k < n_plus else f"q{k - n_plus + 1}" for k in perm.tolist()],
        flags=perm < n_plus,
    )


def sweep_values(
    n: int, n_plus: int, f_grid: Sequence[float], seeds: Sequence[int], step: int = 10
) -> np.ndarray:
    """For each f and seed, draw the seed's random base, bias it with f and
    measure the result: a (len(f_grid), 3, len(seeds)) array, measures in
    ``MeasureKind`` order and seeds on the last, contiguous axis. rRD is NaN
    when the protected group is the majority.

    The flag sequence of a biased merge does not depend on the base, so no
    base is drawn: each seed draws its n uniforms once, one histogram pass
    over them gives every f's prefix counts at the cutoffs, and the seed's
    rows are measured by one call of ``measures.Scale.measure``.
    """
    _check_counts(n, n_plus)
    for f in f_grid:
        _check_probability(f)
    _check_floats(len(f_grid) * 3 * len(seeds))
    scale = Scale.of(n, n_plus, step)
    values = np.empty((len(f_grid), 3, len(seeds)))
    merged = _merger(f_grid, scale.cutoffs, n, n_plus)
    for k, seed in enumerate(seeds):
        counts = merged(np.random.default_rng(seed).random(n))
        values[:, :, k] = scale.measure(counts).T
        del counts  # before the next seed's merge
    return values


def aggregate_values(
    f_grid: Sequence[float], values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-f means across seeds of a ``sweep_values`` array: the distinct f
    values, ascending, and a (len(f), 3) array of their means in
    ``MeasureKind`` order, NaN where rRD does not apply. One ``np.mean``
    along the last axis gives every grid entry's means, and an f that occurs
    more than once takes one ``np.mean`` of its cells pooled in grid order,
    seeds inner, so each mean is bit for bit that of a list of those cells."""
    keys = np.asarray(f_grid, dtype=float)
    order = np.argsort(keys, kind="stable")
    # the first index of each run of equal f values, then the end
    bounds = np.flatnonzero(np.diff(keys[order], prepend=-np.inf, append=np.inf))
    firsts = order[bounds[:-1]]
    means = np.mean(values, axis=-1)[firsts]
    for j in np.flatnonzero(np.diff(bounds) > 1).tolist():
        pooled = np.concatenate(values[order[bounds[j] : bounds[j + 1]]], axis=-1)
        means[j] = np.mean(pooled, axis=-1)
    return keys[firsts], means


def write_values_csv(
    f_grid: Sequence[float], seeds: Sequence[int], values: np.ndarray, path: str | Path
) -> None:
    """Write the per-cell CSV of a ``sweep_values`` array: header
    ``f,seed,rnd,rkl,rrd``, one line per (f, seed), f outer, reals ``%f``
    and a NaN rRD empty; ``seeds`` holds the seeds of the last axis. The
    lines are formatted a block at a time by ``ranking._format_rows``, from
    flat views of the (f, seed) grid that copy one block at a time."""
    cells = values[:, 0].shape
    f = np.broadcast_to(np.asarray(f_grid, dtype=float)[:, None], cells)
    seeds = np.broadcast_to(np.asarray(seeds), cells)
    columns = [grid.flat for grid in (f, seeds, *values.transpose(1, 0, 2))]
    _write_table(path, "f,seed,rnd,rkl,rrd\n", "%f,%s,%f,%f,%f\n", columns, "%f,%s,%f,%f,%.0s\n")


def write_aggregate_csv(f: np.ndarray, means: np.ndarray, path: str | Path) -> None:
    """Write the per-f means of ``aggregate_values``: header
    ``f,rnd,rkl,rrd``, reals ``%f`` and a NaN rRD empty."""
    _write_table(path, "f,rnd,rkl,rrd\n", "%f,%f,%f,%f\n", [f, *means.T], "%f,%f,%f,%.0s\n")
