import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfair import cli, generator, measures, ranking
from rankfair.generator import (
    aggregate_values,
    generate_unfair,
    merge_order,
    random_base_ranking,
    sweep_values,
    write_aggregate_csv,
    write_values_csv,
)
from rankfair.measures import MeasureKind, measure_from_flags
from rankfair.ranking import Ranking

from conftest import (
    reference_aggregate_sweep,
    reference_merge_order,
    reference_write_sweep_csv,
    sweep_cells,
)


BASE4 = Ranking(ids=("a", "b", "c", "d"), flags=[True, False, True, False])


def ids(ranking):
    return list(ranking.ids)


def reference_sweep(n, n_plus, f_grid, seeds, step=10):
    """Reference for ``sweep_values``: the per-cell loop it replaced, which
    builds a random base ``Ranking`` for every (f, seed), biases it with the
    reference merge and measures each kind with ``measure_from_flags``, into
    an (f, measure, seed) array whose rRD is NaN where it does not apply."""
    rrd_ok = 2 * n_plus <= n
    values = np.empty((len(f_grid), 3, len(seeds)))
    for a, f in enumerate(f_grid):
        for b, seed in enumerate(seeds):
            base = random_base_ranking(n, n_plus, seed)
            flags = base.flags[reference_merge_order(base.flags, f, seed)]
            values[a, :, b] = (
                measure_from_flags(MeasureKind.RND, flags, step),
                measure_from_flags(MeasureKind.RKL, flags, step),
                (
                    measure_from_flags(MeasureKind.RRD, flags, step)
                    if rrd_ok
                    else np.nan
                ),
            )
    return values


class TestGenerateUnfair:
    def test_f_zero_nonprotected_first(self):
        for seed in (0, 1, 99):
            assert ids(generate_unfair(BASE4, 0.0, seed)) == [
                "b",
                "d",
                "a",
                "c",
            ]

    def test_f_one_protected_first(self):
        for seed in (0, 1, 99):
            assert ids(generate_unfair(BASE4, 1.0, seed)) == [
                "a",
                "c",
                "b",
                "d",
            ]

    def test_golden_half_seed42(self):
        # frozen after a hand check against the seed-42 uniform draws
        # (0.774, 0.439, 0.859, ...): S-, S+, S-, then the S+ remainder;
        # both within-group orders are preserved
        assert ids(generate_unfair(BASE4, 0.5, 42)) == [
            "b",
            "a",
            "d",
            "c",
        ]

    def test_merge_order_is_the_index_level_merge(self):
        flags = BASE4.flags
        assert merge_order(flags, 0.5, 42).tolist() == [1, 0, 3, 2]
        assert merge_order(np.zeros(3, dtype=bool), 0.5, 42).tolist() == [0, 1, 2]

    def test_deterministic(self):
        base = random_base_ranking(50, 20, 3)
        assert ids(generate_unfair(base, 0.37, 7)) == ids(generate_unfair(base, 0.37, 7))

    def test_single_group_passthrough(self):
        base = random_base_ranking(10, 0, 1)
        assert ids(generate_unfair(base, 0.5, 1)) == ids(base)

    def test_bad_f(self):
        with pytest.raises(ValueError):
            generate_unfair(BASE4, 1.5, 0)

    @given(
        flags=st.lists(st.booleans(), min_size=1, max_size=200)
        | st.integers(min_value=1, max_value=200).flatmap(
            lambda n: st.sampled_from([[True] * n, [False] * n])
        ),
        f=st.floats(min_value=0.0, max_value=1.0)
        | st.sampled_from([0.0, 1.0, float(np.nextafter(1.0, 0.0))]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_merge_order_equals_reference(self, flags, f, seed):
        assert merge_order(flags, f, seed).tolist() == (
            reference_merge_order(flags, f, seed).tolist()
        )

    @given(
        flags=st.lists(st.booleans(), min_size=2, max_size=80),
        f=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_permutation_and_group_order_preserved(self, flags, f, seed):
        base = Ranking(ids=[f"k{i}" for i in range(len(flags))], flags=flags)
        out = generate_unfair(base, f, seed)
        assert sorted(ids(out)) == sorted(ids(base))
        for group in (True, False):
            base_order = [i for i, p in zip(base.ids, base.flags) if p == group]
            out_order = [i for i, p in zip(out.ids, out.flags) if p == group]
            assert base_order == out_order


class TestRandomBaseRanking:
    def test_counts(self):
        rk = random_base_ranking(4, 2, 5)
        assert rk.n == 4 and rk.n_plus == 2

    def test_zero_protected_allowed(self):
        assert random_base_ranking(6, 0, 5).n_plus == 0

    def test_deterministic(self):
        a = random_base_ranking(30, 12, 9)
        b = random_base_ranking(30, 12, 9)
        assert a.ids == b.ids

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            random_base_ranking(4, 5, 0)


class TestSweep:
    def test_shape_and_extreme(self):
        rows = sweep_cells([0.0, 0.5, 1.0], [1], sweep_values(20, 10, [0.0, 0.5, 1.0], [1]))
        assert len(rows) == 3
        assert rows[0].f == 0.0
        assert rows[0].rnd == pytest.approx(1.0, abs=1e-9)

    def test_row_count(self):
        rows = sweep_cells([0.0, 0.5], [1, 2, 3], sweep_values(20, 5, [0.0, 0.5], [1, 2, 3]))
        assert len(rows) == 6

    def test_rrd_empty_for_majority(self):
        rows = sweep_cells([0.0, 1.0], [1], sweep_values(20, 16, [0.0, 1.0], [1]))
        assert all(r.rrd is None for r in rows)

    def test_aggregate(self):
        values = sweep_values(20, 5, [0.0, 1.0], [1, 2])
        rows = sweep_cells([0.0, 1.0], [1, 2], values)
        f, means = aggregate_values([0.0, 1.0], values)
        assert f.tolist() == [0.0, 1.0]
        assert means[0, 0] == pytest.approx(
            np.mean([r.rnd for r in rows if r.f == 0.0])
        )

    def test_empty_seed_list(self):
        assert sweep_values(20, 5, [0.0, 1.0], []).shape == (2, 3, 0)

    @pytest.mark.parametrize(
        "args,message",
        [
            ((-5, 3, [0.5]), "invalid counts n=-5, n_plus=3"),
            ((20, 5, [2.0]), "fairness probability must be in [0, 1], got 2.0"),
            ((20, 0, [0.5]), "protected group size 0 of 20 is degenerate"),
            ((20, 5, [0.5], 1), "step must be >= 2, got 1"),
        ],
    )
    @pytest.mark.parametrize("seeds", [[], [1]])
    def test_arguments_checked_without_seeds(self, args, message, seeds):
        """An empty seed list returns no cells only after the same checks as
        one seed."""
        n, n_plus, f_grid, *step = args
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep_values(n, n_plus, f_grid, seeds, *step)

    @given(
        counts=st.integers(min_value=2, max_value=300).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n - 1))
        ),
        f_grid=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4),
        seeds=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=4)
        | st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
        step=st.integers(min_value=2, max_value=15),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_reference(self, counts, f_grid, seeds, step):
        n, n_plus = counts
        assert sweep_values(n, n_plus, f_grid, seeds, step).tobytes() == (
            reference_sweep(n, n_plus, f_grid, seeds, step).tobytes()
        )

    def test_unsorted_grid_with_repeats_equals_reference(self):
        grid, seeds = [0.7, 0.0, 0.7, 1.0, 0.3], [0, 1, 2]
        assert sweep_values(50, 15, grid, seeds, 7).tobytes() == (
            reference_sweep(50, 15, grid, seeds, 7).tobytes()
        )

    @pytest.mark.parametrize(
        "n, distinct, pass_draws, passes",
        [(1000, 25, None, True), (999, 25, None, False), (300, 255, 1, True), (300, 256, 1, False)],
    )
    def test_grid_on_each_side_of_the_binning_switch_equals_reference(
        self, n, distinct, pass_draws, passes, monkeypatch
    ):
        """One pass per distinct grid value bins a batch with
        ``_PASS_DRAWS`` draws per value, ``searchsorted`` one with fewer
        (each batch here is one seed's ``n`` draws); with ``_PASS_DRAWS``
        set to 1, 255 values fill the ``uint8`` count and 256 take
        ``searchsorted``. Each grid shuffled, with repeats, with draws among
        its values and with draws above them all, in the last bin."""
        if pass_draws is not None:
            monkeypatch.setattr(generator, "_PASS_DRAWS", pass_draws)
        assert (distinct <= min(255, n // generator._PASS_DRAWS)) == passes
        n_plus, seeds = n * 3 // 10, [3, 8]
        draws = np.random.default_rng(seeds[0]).random(n)[[4, 9]]
        grid = [*np.linspace(0.0, 0.9, distinct - 2).tolist(), *draws.tolist()]
        grid = np.random.default_rng(distinct).permutation(grid + grid[::17]).tolist()
        assert np.unique(grid).size == distinct
        assert sweep_values(n, n_plus, grid, seeds, 3).tobytes() == (
            reference_sweep(n, n_plus, grid, seeds, 3).tobytes()
        )

    def test_seeds_in_batches_equal_reference(self):
        """At n = 3000 a batch holds two seeds, so five seeds make two full
        batches and a partial one."""
        grid, seeds = [0.7, 0.0, 0.7, 1.0, 0.3], [4, 0, 9, 2, 7]
        assert sweep_values(3000, 900, grid, seeds).tobytes() == (
            reference_sweep(3000, 900, grid, seeds).tobytes()
        )

    @pytest.mark.parametrize("k", [0, 17, 39])
    def test_f_equal_to_a_draw_equals_reference(self, k):
        """A draw equal to f counts as u >= f, at the seed's own step k."""
        n, n_plus, seed = 40, 12, 5
        f = float(np.random.default_rng(seed).random(n)[k])
        grid = [0.0, f, 1.0]
        assert sweep_values(n, n_plus, grid, [seed], 3).tobytes() == (
            reference_sweep(n, n_plus, grid, [seed], 3).tobytes()
        )
        flags = np.arange(n) < n_plus
        assert merge_order(flags, f, seed).tolist() == (
            reference_merge_order(flags, f, seed).tolist()
        )

    def test_peak_memory_is_per_seed(self):
        """One seed's draws, bins and counts at a time: an f-by-n array or a
        batch of every seed's counts would exceed the bound."""
        grid = [k / 10 for k in range(11)]
        tracemalloc.start()
        try:
            sweep_values(10**5, 3 * 10**4, grid, [0, 1, 2])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_peak_memory_is_per_kernel_call(self):
        """The call above, with the draws' merge set up once per sweep and
        each kernel call held to the term budget, its temporaries dropped as
        it goes."""
        grid = [k / 10 for k in range(11)]
        tracemalloc.start()
        try:
            sweep_values(10**5, 3 * 10**4, grid, [0, 1, 2])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_peak_memory_of_a_batch(self):
        """The benchmark's sweep, 11 f values and 10 seeds at n = 1000, in
        batches of 7 seeds: each batch's draws, bins, counts and kernel
        temporaries stay under 1 MB. An untraced run first imports what
        numpy imports on first use."""
        grid = [k / 10 for k in range(11)]
        sweep_values(1000, 300, grid, range(10))
        tracemalloc.start()
        try:
            sweep_values(1000, 300, grid, range(10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    # under 1 MB with many seeds, and under 6 times the array's bytes with
    # many f values
    @pytest.mark.parametrize(
        "shape,bound",
        [((11, 3, 10**5), 2**20), ((10**5, 3, 1), 6 * 8 * 3 * 10**5)],
        ids=["many_seeds", "many_f"],
    )
    def test_aggregate_peak_memory(self, shape, bound):
        """The per-f means reduce the cells in place: no copy of the array, and
        no object per f."""
        values = np.random.default_rng(0).random(shape)
        grid = np.linspace(0.0, 1.0, shape[0]).tolist()
        tracemalloc.start()
        try:
            aggregate_values(grid, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_cli_peak_memory_per_cell_is_its_values(self, tmp_path, monkeypatch, capsys):
        """The CLI sweep keeps three floats per (f, seed) cell, no row object,
        and writes its lines in blocks, so its peak grows by under 64 bytes
        per cell."""
        monkeypatch.setattr(ranking, "_WRITE_ROWS", 256)
        peaks = []
        for seeds in (200, 1800):
            args = [
                "sweep", "--n", "20", "--n-plus", "5", "--f-grid", "0:1:0.1",
                "--seeds", str(seeds), "--out", str(tmp_path / "s.csv"),
            ]
            tracemalloc.start()
            try:
                assert cli.main(args) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (11 * 1600) < 64

    def test_csv_output(self, tmp_path):
        values = sweep_values(20, 16, [0.0], [1])
        path = tmp_path / "sweep.csv"
        write_values_csv([0.0], [1], values, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "f,seed,rnd,rkl,rrd"
        assert lines[1].endswith(",")  # empty rrd field
        agg_path = tmp_path / "agg.csv"
        write_aggregate_csv(*aggregate_values([0.0], values), agg_path)
        assert agg_path.read_text().splitlines()[0] == "f,rnd,rkl,rrd"

    def test_malformed_row_keeps_destination(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.csv"
        write_values_csv([0.0], [1], sweep_values(20, 5, [0.0], [1]), path)
        before = path.read_bytes()
        values = sweep_values(20, 5, [0.0, 1.0], [1]).astype(object)
        # one line per block: the first row is written before the second
        # fails to format
        monkeypatch.setattr(ranking, "_WRITE_ROWS", 1)
        values[1, 2, 0] = "not a real"
        with pytest.raises(ValueError):
            write_values_csv([0.0, 1.0], [1], values, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


# (n, n_plus, f grid, seed count, step): seed counts around numpy's pairwise
# summation blocks (8 and 128 values) and its 8192-value buffer, an unsorted
# grid with repeats, a majority group (rRD empty) and n <= step (every value 0)
VALUES_CASES = {
    **{f"seeds_{k}": (40, 12, [0.0, 0.5, 1.0], k, 10) for k in (1, 7, 8, 9, 127, 128, 129)},
    "seeds_8193": (20, 6, [0.0, 0.3], 8193, 10),
    "unsorted_repeats": (50, 15, [0.7, 0.0, 0.7, 1.0, 0.3], 65, 7),
    "majority": (50, 35, [0.0, 0.5, 1.0], 9, 10),
    # more cells than the writer's block, every rRD empty
    "majority_blocks": (20, 14, [0.0, 0.5, 1.0], ranking._WRITE_ROWS // 3 + 5, 10),
    "short": (8, 3, [0.0, 0.25, 0.5, 0.75, 1.0], 5, 10),
}


class TestSweepValues:
    @pytest.mark.parametrize("case", sorted(VALUES_CASES))
    def test_means_and_cells_equal_references(self, case, tmp_path):
        """The per-f means equal, bit for bit, the dict-of-lists means of the
        cells, and the per-cell CSV equals the ``csv.writer`` one byte for
        byte."""
        n, n_plus, grid, k, step = VALUES_CASES[case]
        values = sweep_values(n, n_plus, grid, range(k), step)
        rows = sweep_cells(grid, range(k), values)
        assert values.shape == (len(grid), 3, k) and values.flags.c_contiguous
        want_f, want_means = reference_aggregate_sweep(rows)
        f, means = aggregate_values(grid, values)
        assert means.shape == (f.size, 3)
        assert f.tobytes() == want_f.tobytes() and means.tobytes() == want_means.tobytes()
        reference_write_sweep_csv(rows, tmp_path / "reference.csv")
        write_values_csv(grid, range(k), values, tmp_path / "values.csv")
        expected = (tmp_path / "reference.csv").read_bytes()
        assert (tmp_path / "values.csv").read_bytes() == expected

    @pytest.mark.parametrize("lines", [1, 7, 36, 2**16])
    def test_cells_written_in_blocks_equal_reference(self, lines, tmp_path, monkeypatch):
        """For a minority group and for a majority one, whose every block of
        lines has an empty rRD."""
        monkeypatch.setattr(ranking, "_WRITE_ROWS", lines)
        grid, seeds = [0.7, 0.0, 0.7, 1.0], [5, 3, 11, 2, 8, 0, 1, 9, 4]
        for n_plus in (15, 35):
            values = sweep_values(50, n_plus, grid, seeds)
            reference_write_sweep_csv(sweep_cells(grid, seeds, values), tmp_path / "reference.csv")
            write_values_csv(grid, seeds, values, tmp_path / "values.csv")
            assert (tmp_path / "values.csv").read_bytes() == (
                (tmp_path / "reference.csv").read_bytes()
            )

    @pytest.mark.parametrize("budget,rows", [(2**16, 11), (250, 2), (99, 1), (1, 1)])
    def test_kernel_calls_hold_the_term_budget(self, budget, rows, monkeypatch):
        """Both seeds' 11 x 100 counts, one batch, are measured cutoff-major
        in calls of as many rows as the term budget holds (at least one),
        with the values of one call; ``rows`` is how many of a seed's 11 one
        call holds. The first call is the normalizers' one, on the two
        segregated extremes."""
        grid = [k / 10 for k in range(11)]
        want = sweep_values(1000, 300, grid, [3, 4])
        shapes = []
        kernel = measures._discounted_terms

        def counted(cutoffs, counts, *args):
            shapes.append(counts.shape)
            return kernel(cutoffs, counts, *args)

        monkeypatch.setattr(measures, "_KERNEL_TERMS", budget)
        monkeypatch.setattr(measures, "_discounted_terms", counted)
        assert sweep_values(1000, 300, grid, [3, 4]).tobytes() == want.tobytes()
        held = 22 if rows == 11 else rows
        per_batch = [min(held, 22 - j) for j in range(0, 22, held)]
        assert shapes == [(100, 2)] + [(100, r) for r in per_batch]
        assert all(r >= 1 and (c * r <= budget or r == 1) for c, r in shapes[1:])


def test_monotone_protected_share_in_top_100():
    # more preference for the protected group can only help its share at
    # the top, on average
    n, n_plus, top = 1000, 200, 100
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    means = []
    for f in grid:
        shares = []
        for seed in range(50):
            base = random_base_ranking(n, n_plus, seed)
            out = generate_unfair(base, f, seed)
            shares.append(out.flags[:top].mean())
        means.append(np.mean(shares))
    assert all(b >= a for a, b in zip(means, means[1:]))
