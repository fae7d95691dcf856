import ast
import dataclasses
import functools
import math
import operator
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankfair.measures import (
    DegenerateGroupError,
    FairnessReport,
    MeasureKind,
    RrdInapplicableError,
    Scale,
    fairness_report,
    measure_from_flags,
    normalizer,
    report_to_json,
    _discounted_terms,
    _row_sums,
)
from rankfair import measures, ranking
from rankfair.ranking import Ranking, build_schedule

from conftest import (
    BinaryDistribution,
    kl_divergence,
    parity_term,
    prefix_counts,
    ranking_from_flags,
    reference_report_to_json,
    unnormalized_sum,
)

LOG2_10 = math.log2(10)


def segregated(n_minus, n_plus):
    return ranking_from_flags([False] * n_minus + [True] * n_plus)


def dp_max_sum(kind, n, n_plus, step):
    """Reference for the rND/rKL normalizer: the exact maximum of the
    discounted parity-term sum over all rankings with the given group sizes.

    State: protected count c at each cutoff. Transitions between consecutive
    cutoffs i < j allow any increment in [0, j - i], clipped to the feasible
    band max(0, i - n_minus) <= c <= min(i, n_plus). Each term depends only on
    its own (i, c), so the DP maximum is exact. Terms are computed and summed
    in the same order as the library's, so equal maxima compare equal.
    """
    cutoffs = build_schedule(n, step).tolist()
    n_minus = n - n_plus
    i_col = np.asarray(cutoffs, dtype=float)[:, None]
    c_row = np.arange(n_plus + 1, dtype=float)[None, :]
    tm = _discounted_terms(i_col, c_row, n, n_plus)[list(MeasureKind).index(kind)]
    lo = [max(0, i - n_minus) for i in cutoffs]
    hi = [min(i, n_plus) for i in cutoffs]

    val = np.full(n_plus + 1, -np.inf)
    val[lo[0] : hi[0] + 1] = tm[0, lo[0] : hi[0] + 1]
    for j in range(1, len(cutoffs)):
        d = cutoffs[j] - cutoffs[j - 1]
        # reach[c] = max(val[c-d .. c]) via d shifted elementwise maxima
        reach = val.copy()
        for s in range(1, d + 1):
            np.maximum(reach[s:], val[:-s], out=reach[s:])
        reach += tm[j]
        reach[: lo[j]] = -np.inf
        reach[hi[j] + 1 :] = -np.inf
        val = reach
    # the final cutoff is n, where c is pinned to n_plus
    return float(val[n_plus])


def reference_fairness_report(ranking, step=10):
    """Reference for ``fairness_report``: the per-cutoff loop it replaced,
    with three ``measure_from_flags`` calls, six ``normalizer`` calls and three scalar
    ``parity_term`` calls per cutoff, its columns built as arrays."""
    n, n_plus = ranking.n, ranking.n_plus
    counts = prefix_counts(ranking, build_schedule(n, step))

    rrd_ok = 2 * n_plus <= n
    rnd = measure_from_flags(MeasureKind.RND, ranking.flags, step)
    rkl = measure_from_flags(MeasureKind.RKL, ranking.flags, step)
    rrd = measure_from_flags(MeasureKind.RRD, ranking.flags, step) if rrd_ok else None

    z_rnd = normalizer(MeasureKind.RND, n, n_plus, step)
    z_rkl = normalizer(MeasureKind.RKL, n, n_plus, step)
    z_rrd = normalizer(MeasureKind.RRD, n, n_plus, step) if rrd_ok else None

    def terms(kind):
        return [parity_term(kind, i, c, n, n_plus) / float(np.log2(i)) for i, c in counts]

    return FairnessReport(
        n=n,
        n_plus=n_plus,
        step=step,
        rnd=rnd,
        rkl=rkl,
        rrd=rrd,
        cutoffs=np.array([i for i, _ in counts]),
        counts=np.array([c for _, c in counts]),
        terms=np.array(
            [
                terms(MeasureKind.RND),
                terms(MeasureKind.RKL),
                terms(MeasureKind.RRD) if rrd_ok else [math.nan] * len(counts),
            ]
        ),
        normalizers=(z_rnd, z_rkl, z_rrd),
    )


def report_bits(report):
    """The fields of ``report`` as values that ``==`` compares bit for bit:
    arrays by dtype, shape and ``tobytes``, reals by ``float.hex``, and an
    all-NaN rRD row of ``terms`` (rRD inapplicable) as None."""

    def bits(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(map(bits, value))
        return value

    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    t_rnd, t_rkl, t_rrd = fields["terms"]
    fields["terms"] = (t_rnd, t_rkl, None if np.isnan(t_rrd).all() else t_rrd)
    return {name: bits(value) for name, value in fields.items()}


@st.composite
def mixed_flags(draw, max_n=300):
    """Protected flags of a random permutation with both groups present;
    n_plus ranges over minority and majority groups alike."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    n_plus = draw(st.integers(min_value=1, max_value=n - 1))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return np.random.default_rng(seed).permutation(np.arange(n) < n_plus)


class TestKlDivergence:
    def test_identical(self):
        d = BinaryDistribution(0.5, 0.5)
        assert kl_divergence(d, d) == 0.0

    def test_point_mass(self):
        assert kl_divergence(
            BinaryDistribution(1.0, 0.0), BinaryDistribution(0.5, 0.5)
        ) == pytest.approx(1.0)

    def test_frozen_oracle_value(self):
        # 0.3*log2(0.6) + 0.7*log2(1.4), evaluated at 50 digits with mpmath
        got = kl_divergence(
            BinaryDistribution(0.3, 0.7), BinaryDistribution(0.5, 0.5)
        )
        assert got == pytest.approx(0.11870910076930738, abs=1e-6)

    def test_degenerate_reference(self):
        with pytest.raises(DegenerateGroupError):
            kl_divergence(
                BinaryDistribution(0.5, 0.5), BinaryDistribution(1.0, 0.0)
            )

    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        q=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=200)
    def test_non_negative_and_zero_iff_equal(self, p, q):
        val = kl_divergence(
            BinaryDistribution(p, 1.0 - p), BinaryDistribution(q, 1.0 - q)
        )
        assert val >= 0.0
        if p == q:
            assert val == 0.0
        if val == 0.0:
            assert p == pytest.approx(q, abs=1e-12)


class TestParityTerm:
    def test_rnd(self):
        assert parity_term(MeasureKind.RND, 10, 0, 20, 10) == pytest.approx(0.5)

    def test_rrd_zero_rule(self):
        # prefix is all protected: the 10/0 fraction counts as 0, |0 - 1| = 1
        assert parity_term(MeasureKind.RRD, 10, 10, 20, 10) == pytest.approx(1.0)

    def test_rkl_at_parity(self):
        assert parity_term(MeasureKind.RKL, 10, 5, 20, 10) == 0.0

    def test_degenerate_group(self):
        with pytest.raises(DegenerateGroupError):
            parity_term(MeasureKind.RND, 10, 10, 20, 20)

    def test_infeasible_count(self):
        with pytest.raises(ValueError):
            parity_term(MeasureKind.RND, 10, 11, 20, 12)


# finite values that a term row can sum without overflow, -0.0 and
# subnormals included, mixed with magnitudes far apart
SUMMAND = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, 1.0, 1e16, -1e16]
)


class TestRowSums:
    """``_row_sums`` adds strictly left to right from 0.0, whatever the
    Python version's ``sum()`` does."""

    @given(
        rows=st.integers(min_value=1, max_value=40).flatmap(
            lambda m: st.lists(
                st.lists(SUMMAND, min_size=m, max_size=m), min_size=1, max_size=4
            )
        )
    )
    @example(rows=[[0.1] * 10 + [1e16, 1.0, -1e16]])
    @example(rows=[[-0.0, -0.0], [-0.0, 5e-324]])
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_sequential_sum(self, rows):
        got = _row_sums(np.array(rows)).tolist()
        want = [functools.reduce(operator.add, row, 0.0) for row in rows]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_all_negative_zero_row_sums_to_positive_zero(self):
        got = _row_sums(np.array([-0.0, -0.0, -0.0]))
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("rows", [1, 2, 3, 64])
    def test_cutoff_major_bit_identical_to_sequential_sum(self, rows):
        """(measures, cutoffs, rows) terms summed over the cutoff axis. The
        first row of each measure is a column that a pairwise sum gets
        wrong (numpy sums one contiguous row pairwise), one that Python
        3.12's compensated ``sum()`` gets wrong, or all ``-0.0``."""
        rng = np.random.default_rng(rows)
        terms = rng.standard_normal((3, 13, rows)) * 10.0 ** rng.integers(-3, 17, (3, 13, rows))
        terms[:, :, 0] = [[1.0] + [1e-16] * 12, [0.1] * 10 + [1e16, 1.0, -1e16], [-0.0] * 13]
        got = _row_sums(terms, axis=-2)
        columns = terms.swapaxes(1, 2).reshape(-1, 13).tolist()
        want = [functools.reduce(operator.add, column, 0.0) for column in columns]
        assert got.shape == (3, rows)
        assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want]


class TestUnnormalizedSum:
    def test_rnd_hand_value(self):
        got = unnormalized_sum(MeasureKind.RND, [(10, 0), (20, 10)], 20, 10)
        assert got == pytest.approx(0.5 / LOG2_10, abs=1e-6)

    def test_rkl_hand_value(self):
        got = unnormalized_sum(MeasureKind.RKL, [(10, 0), (20, 10)], 20, 10)
        assert got == pytest.approx(1.0 / LOG2_10, abs=1e-6)

    def test_all_terms_zero(self):
        assert unnormalized_sum(MeasureKind.RND, [(10, 5), (20, 10)], 20, 10) == 0.0


class TestNormalizer:
    def test_rnd_small(self):
        assert normalizer(MeasureKind.RND, 20, 10, 10) == pytest.approx(
            0.15051499783199059, abs=1e-6
        )

    def test_rkl_small(self):
        assert normalizer(MeasureKind.RKL, 20, 10, 10) == pytest.approx(
            0.30102999566398119, abs=1e-6
        )

    def test_rrd_extreme(self):
        assert normalizer(MeasureKind.RRD, 20, 5, 10) == pytest.approx(
            0.10034333188799373, abs=1e-6
        )

    def test_rrd_majority_rejected(self):
        with pytest.raises(RrdInapplicableError):
            normalizer(MeasureKind.RRD, 20, 16, 10)
        assert normalizer(MeasureKind.RRD, 20, 16, 10, allow_majority_rrd=True) > 0

    def test_degenerate(self):
        with pytest.raises(DegenerateGroupError):
            normalizer(MeasureKind.RND, 20, 0, 10)

    def test_memoized(self):
        assert normalizer(MeasureKind.RND, 200, 60, 10) == normalizer(
            MeasureKind.RND, 200, 60, 10
        )


class TestNormalizerMatchesReferences:
    """The normalizer takes the larger of the two segregated extremes; these
    pin it, without tolerance, to the DP maximum over all rankings (rND,
    rKL) and to the per-cutoff sum of the protected-last extreme (rRD)."""

    KINDS = (MeasureKind.RND, MeasureKind.RKL)
    STEPS = (2, 3, 5, 10)

    def test_dp_exhaustive_small(self):
        for n in range(2, 81):
            for n_plus in range(1, n):
                for step in self.STEPS:
                    for kind in self.KINDS:
                        z = normalizer(kind, n, n_plus, step)
                        assert z == dp_max_sum(kind, n, n_plus, step), (
                            kind, n, n_plus, step,
                        )

    def test_dp_sampled_large(self):
        rng = np.random.default_rng(20261018)
        for _ in range(150):
            n = int(rng.integers(81, 2001))
            n_plus = int(rng.integers(1, n))
            step = int(rng.choice(self.STEPS))
            for kind in self.KINDS:
                z = normalizer(kind, n, n_plus, step)
                assert z == dp_max_sum(kind, n, n_plus, step), (
                    kind, n, n_plus, step,
                )

    def test_rrd_is_protected_last_sum(self):
        rng = np.random.default_rng(20261019)
        cases = [(n, n_plus) for n in range(2, 41) for n_plus in range(1, n // 2 + 1)]
        cases += [
            (n, int(rng.integers(1, n // 2 + 1)))
            for n in rng.integers(41, 2001, size=100).tolist()
        ]
        for n, n_plus in cases:
            for step in self.STEPS:
                counts = [
                    (i, max(0, i - (n - n_plus)))
                    for i in build_schedule(n, step).tolist()
                ]
                assert normalizer(MeasureKind.RRD, n, n_plus, step) == (
                    unnormalized_sum(MeasureKind.RRD, counts, n, n_plus)
                ), (n, n_plus, step)


class TestMeasure:
    def test_segregated_is_worst_rnd(self):
        assert measure_from_flags(MeasureKind.RND, segregated(10, 10).flags) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_alternating_is_fair(self):
        rk = ranking_from_flags([False, True] * 10)
        assert measure_from_flags(MeasureKind.RND, rk.flags) == 0.0
        assert measure_from_flags(MeasureKind.RKL, rk.flags) == 0.0

    def test_rrd_extreme_is_one(self):
        assert measure_from_flags(MeasureKind.RRD, segregated(15, 5).flags) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_rrd_majority_needs_override(self):
        rk = ranking_from_flags([True] * 16 + [False] * 4)
        with pytest.raises(RrdInapplicableError):
            measure_from_flags(MeasureKind.RRD, rk.flags)
        assert measure_from_flags(MeasureKind.RRD, rk.flags, allow_majority_rrd=True) >= 0.0

    def test_trivial_single_cutoff(self):
        # n <= step: the only cutoff is the whole ranking, every ranking
        # scores 0
        rk = ranking_from_flags([False, False, True, True])
        assert measure_from_flags(MeasureKind.RND, rk.flags, step=10) == 0.0

    @given(
        flags=st.lists(st.booleans(), min_size=4, max_size=120).filter(
            lambda fl: 0 < sum(fl) < len(fl)
        ),
        step=st.integers(min_value=2, max_value=15),
    )
    @settings(max_examples=150, deadline=None)
    def test_group_swap_symmetry(self, flags, step):
        a = ranking_from_flags(flags)
        b = ranking_from_flags([not f for f in flags])
        for kind in (MeasureKind.RND, MeasureKind.RKL):
            assert measure_from_flags(kind, a.flags, step) == pytest.approx(
                measure_from_flags(kind, b.flags, step), abs=1e-12
            )

    @given(
        flags=st.lists(st.booleans(), min_size=4, max_size=120).filter(
            lambda fl: 0 < sum(fl) < len(fl)
        ),
        step=st.integers(min_value=2, max_value=15),
    )
    @settings(max_examples=150, deadline=None)
    def test_range_and_zero_iff_proportional(self, flags, step):
        rk = ranking_from_flags(flags)
        n, n_plus = rk.n, rk.n_plus
        counts = prefix_counts(rk, build_schedule(n, step))
        proportional = all(c * n == i * n_plus for i, c in counts)
        for kind in (MeasureKind.RND, MeasureKind.RKL):
            val = measure_from_flags(kind, rk.flags, step)
            assert 0.0 <= val <= 1.0
            assert (val == 0.0) == proportional


class TestFairnessReport:
    def test_worst_case(self):
        rep = fairness_report(segregated(10, 10))
        assert rep.rnd == pytest.approx(1.0, abs=1e-9)
        assert rep.rkl == pytest.approx(1.0, abs=1e-9)
        assert rep.rrd == pytest.approx(1.0, abs=1e-9)
        assert len(rep.cutoffs) == 2

    def test_fair_case(self):
        rep = fairness_report(ranking_from_flags([False, True] * 10))
        assert (rep.rnd, rep.rkl, rep.rrd) == (0.0, 0.0, 0.0)

    def test_rrd_inapplicable_reported_not_raised(self):
        rep = fairness_report(ranking_from_flags([True] * 16 + [False] * 4))
        assert rep.rrd is None
        assert rep.normalizers[2] is None
        assert rep.rnd is not None and rep.rkl is not None
        assert np.isnan(rep.terms[2]).all()

    @pytest.mark.parametrize("n_plus", [8, 12])
    def test_columns_are_read_only_arrays(self, n_plus):
        """``cutoffs`` and ``counts`` are int columns and ``terms`` the
        (3, cutoffs) float stack, for a minority group and a majority one;
        none of them can be written."""
        rep = fairness_report(segregated(20 - n_plus, n_plus), step=3)
        assert rep.cutoffs.dtype.kind == rep.counts.dtype.kind == "i"
        assert rep.cutoffs.shape == rep.counts.shape == (7,)
        assert rep.terms.dtype == float and rep.terms.shape == (3, 7)
        for column in (rep.cutoffs, rep.counts, rep.terms):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_per_cutoff_sums_match(self):
        rk = segregated(12, 8)
        rep = fairness_report(rk)
        total = sum(rep.terms[0])
        assert rep.rnd == pytest.approx(total / rep.normalizers[0], abs=1e-12)

    @pytest.mark.parametrize(
        "flags",
        [
            np.random.default_rng(3).permutation(np.arange(103) < 30),
            np.random.default_rng(4).permutation(np.arange(103) < 70),
            np.array([False, True, True, False, False, True, False]),
        ],
        ids=["minority", "majority", "n_below_step"],
    )
    def test_one_kernel_call_for_the_report(self, flags, monkeypatch):
        """``fairness_report`` sums its own per-cutoff terms, so it runs the
        kernel twice (the normalizers, then the terms), and its measures
        equal ``Scale.measure`` on the report's counts bit for bit."""
        calls = []
        kernel = measures._discounted_terms

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(measures, "_discounted_terms", counted)
        rep = fairness_report(ranking_from_flags(flags.tolist()))
        assert len(calls) == 2
        monkeypatch.undo()
        scale = Scale.of(rep.n, rep.n_plus, rep.step)
        want = scale.measure(scale.counts(flags))[:, 0]
        assert np.array([rep.rnd, rep.rkl]).tobytes() == want[:2].tobytes()
        if rep.rrd is None:
            assert np.isnan(want[2]) and 2 * rep.n_plus > rep.n
        else:
            assert np.float64(rep.rrd).tobytes() == want[2].tobytes()

    def test_json_shape(self):
        import json

        rep = fairness_report(segregated(10, 10))
        payload = json.loads(report_to_json(rep))
        assert payload["n"] == 20 and payload["n_plus"] == 10
        assert payload["rnd"] == pytest.approx(1.0)
        assert set(payload["normalizers"]) == {"rnd", "rkl", "rrd"}
        assert payload["per_cutoff"][0]["i"] == 10

    def test_json_null_rrd(self):
        import json

        rep = fairness_report(ranking_from_flags([True] * 16 + [False] * 4))
        payload = json.loads(report_to_json(rep))
        assert payload["rrd"] is None


class TestReportMatchesReference:
    """The report's kernel rows, pinned without tolerance to the scalar
    ``parity_term`` and to the per-cutoff reference loop."""

    @given(flags=mixed_flags(), step=st.integers(min_value=2, max_value=15))
    @settings(max_examples=200, deadline=None)
    def test_terms_and_report_equal_reference(self, flags, step):
        rk = ranking_from_flags(flags.tolist())
        rep = fairness_report(rk, step)
        n, n_plus = rep.n, rep.n_plus
        t_rnd, t_rkl, t_rrd = rep.terms.tolist()
        for j, (i, c) in enumerate(zip(rep.cutoffs.tolist(), rep.counts.tolist())):
            disc = float(np.log2(i))
            assert t_rnd[j] == parity_term(MeasureKind.RND, i, c, n, n_plus) / disc
            assert t_rkl[j] == parity_term(MeasureKind.RKL, i, c, n, n_plus) / disc
            if 2 * n_plus <= n:
                assert t_rrd[j] == parity_term(MeasureKind.RRD, i, c, n, n_plus) / disc
        assert report_bits(rep) == report_bits(reference_fairness_report(rk, step))


class TestJsonMatchesReference:
    """``report_to_json``, which formats its per-cutoff rows a block at a
    time, writes the text of the per-row serializer it replaced."""

    @given(flags=mixed_flags(), step=st.integers(min_value=2, max_value=40))
    @example(flags=np.array([True] * 16 + [False] * 4), step=10)  # rRD null
    @example(flags=np.array([False, True, False]), step=3)  # n <= step
    @example(flags=np.array([True, True, False]), step=7)  # both
    @settings(max_examples=200, deadline=None)
    def test_equals_reference(self, flags, step):
        rep = fairness_report(ranking_from_flags(flags.tolist()), step)
        assert report_to_json(rep) == reference_report_to_json(rep)

    @pytest.mark.parametrize("n_plus", [30_000, 50_000])
    def test_rows_across_blocks_equal_reference(self, n_plus):
        """Two blocks of cutoffs and three more, for a minority group and
        for a majority one, whose rRD terms are null."""
        n = 10 * (2 * ranking._WRITE_ROWS + 3)
        flags = np.random.default_rng(1).permutation(np.arange(n) < n_plus)
        rep = fairness_report(ranking_from_flags(flags))
        assert len(rep.cutoffs) == 2 * ranking._WRITE_ROWS + 3
        assert report_to_json(rep) == reference_report_to_json(rep)

    @pytest.mark.parametrize("lines", [1, 7, 36, 2**16])
    def test_majority_rows_in_blocks_equal_reference(self, lines, monkeypatch):
        """A majority group's rows, whose every block has a null rRD term."""
        monkeypatch.setattr(ranking, "_WRITE_ROWS", lines)
        flags = np.random.default_rng(2).permutation(np.arange(503) < 350)
        rep = fairness_report(ranking_from_flags(flags))
        assert rep.rrd is None
        assert report_to_json(rep) == reference_report_to_json(rep)


class TestKernelMemory:
    @pytest.mark.parametrize("rows", [1, 11])
    def test_measure_peaks_below_ten_count_sized_arrays(self, rows):
        """``Scale.measure`` on (rows, 10**4) counts of n = 10**5 peaks below
        ten float64 arrays of the counts' shape: the kernel writes each
        measure into one output and drops each temporary once read."""
        n = 10**5
        scale = Scale.of(n, 3 * 10**4)
        rng = np.random.default_rng(0)
        counts = np.stack(
            [np.cumsum(rng.random(n) < 0.3)[scale.cutoffs - 1] for _ in range(rows)]
        )
        tracemalloc.start()
        try:
            scale.measure(counts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * counts.size * 8

    def test_report_peak_per_cutoff(self):
        """``fairness_report`` at 10**5 cutoffs (2 * 10**5 items, step 2)
        peaks below 160 bytes per cutoff: its columns stay arrays and what is
        left is the kernel's working memory."""
        n = 2 * 10**5
        flags = np.random.default_rng(0).permutation(np.arange(n) < 6 * 10**4)
        rk = Ranking._trusted([str(r) for r in range(n)], flags)
        tracemalloc.start()
        try:
            fairness_report(rk, step=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 160 * (n // 2)


class TestScaleCounts:
    @given(
        flags=st.lists(st.booleans(), min_size=2, max_size=300),
        step=st.integers(min_value=2, max_value=400),
    )
    @example(flags=[True, False, True, True, False], step=10)  # n < step
    @example(flags=[True, False] * 5, step=10)  # n == step
    @example(flags=[False, True, True] * 9, step=7)  # step does not divide n
    @settings(max_examples=200, deadline=None)
    def test_equal_running_count_at_cutoffs(self, flags, step):
        flags = np.array(flags)
        scale = Scale.of(flags.size, 1, step)
        got, want = scale.counts(flags), np.cumsum(flags)[scale.cutoffs - 1]
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    def test_peak_memory(self):
        """No n-long int64 running count: 10**6 flags peak under 12 MB."""
        flags = np.random.default_rng(0).random(10**6) < 0.3
        scale = Scale.of(flags.size, int(np.count_nonzero(flags)))
        tracemalloc.start()
        try:
            scale.counts(flags)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 10**6


class TestWithinGroupShuffle:
    @given(
        flags=mixed_flags(),
        group=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        step=st.integers(min_value=2, max_value=15),
    )
    @settings(max_examples=100, deadline=None)
    def test_report_unchanged(self, flags, group, seed, step):
        """Permuting the items of one group among that group's positions
        changes no measure."""
        rk = ranking_from_flags(flags.tolist())
        pos = np.nonzero(flags == group)[0]
        order = np.arange(rk.n)
        order[pos] = np.random.default_rng(seed).permutation(pos)
        shuffled = Ranking(ids=[rk.ids[r] for r in order], flags=rk.flags[order])
        assert report_bits(fairness_report(shuffled, step)) == report_bits(
            fairness_report(rk, step)
        )


class TestMeasureFromFlags:
    def test_agrees_with_ranking_path(self):
        """Each kind's value is exactly the report's, for a minority and a
        majority group, with and without the override. A majority group's
        rRD, absent from the report, raises without the override and with it
        is the report's counts summed term by term over the same sum for the
        protected-last ranking."""
        for n_plus in (9, 21):
            flags = np.random.default_rng(n_plus).permutation(np.arange(30) < n_plus)
            for step in (2, 3, 10):
                rep = fairness_report(ranking_from_flags(flags.tolist()), step)
                for kind, value in zip(MeasureKind, (rep.rnd, rep.rkl, rep.rrd)):
                    for allow in (False, True):
                        case = (n_plus, step, kind, allow)
                        if value is not None:
                            expected = value
                        elif not allow:
                            with pytest.raises(RrdInapplicableError):
                                measure_from_flags(kind, flags, step)
                            continue
                        else:
                            last = [max(0, i - (30 - n_plus)) for i in rep.cutoffs]
                            expected = unnormalized_sum(
                                kind, zip(rep.cutoffs, rep.counts), 30, n_plus
                            ) / unnormalized_sum(kind, zip(rep.cutoffs, last), 30, n_plus)
                        got = measure_from_flags(kind, flags, step, allow_majority_rrd=allow)
                        assert got == expected, case

    def test_bad_step_reported_before_degenerate_group(self):
        with pytest.raises(ValueError) as exc:
            measure_from_flags(MeasureKind.RND, [True] * 5, step=1)
        assert str(exc.value) == "step must be >= 2, got 1"
        for kind in MeasureKind:
            with pytest.raises(ValueError) as exc:
                normalizer(kind, 5, 5, step=1)
            assert str(exc.value) == "step must be >= 2, got 1"

    def test_degenerate_group_reported_before_rrd(self):
        with pytest.raises(DegenerateGroupError):
            measure_from_flags(MeasureKind.RRD, [True] * 5)
        with pytest.raises(DegenerateGroupError):
            normalizer(MeasureKind.RRD, 5, 5)

    def test_rrd_inapplicable_message(self):
        message = "rRD needs a minority protected group (n_plus=16, n=20)"
        with pytest.raises(RrdInapplicableError) as exc:
            normalizer(MeasureKind.RRD, 20, 16, 10)
        assert str(exc.value) == message
        with pytest.raises(RrdInapplicableError) as exc:
            measure_from_flags(MeasureKind.RRD, [True] * 16 + [False] * 4)
        assert str(exc.value) == message


def test_counts_to_values_step_is_named_only_in_measures():
    """The kernel, the left-to-right row sums and the kernel's term budget,
    the step from prefix counts to measure values, are named in no package
    module but ``measures.py``: not imported, defined or used elsewhere."""
    private = {"_discounted_terms", "_row_sums", "_KERNEL_TERMS"}
    modules = {name: set() for name in private}
    for path in sorted(Path(measures.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            for field in ("id", "attr", "name", "asname"):
                name = getattr(node, field, None)
                if name in private:
                    modules[name].add(path.name)
    assert modules == {name: {"measures.py"} for name in private}
