"""Release gate: one test per acceptance criterion, each printing a single
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -s` to see the
lines as they complete.

Criteria 1-8 are self-contained and must all pass. Criterion 9 needs real
datasets supplied via environment variables and is skipped when they are
absent; it is informational and does not block a release.
"""

import itertools
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rankfair.fairopt import (
    TRACE_COLUMNS,
    FeatureMatrix,
    Hyperparams,
    PrototypeModel,
    apply_model,
    gradient,
    total_loss,
    train,
)
from rankfair.generator import aggregate_values, generate_unfair, merge_order, random_base_ranking, sweep_values
from rankfair.ingest import compute_scores, derive_protected, load_table, score_and_rank
from rankfair.measures import (
    MeasureKind,
    RrdInapplicableError,
    measure_from_flags,
    normalizer,
)
from rankfair.ranking import build_schedule

from conftest import biased_feature_matrix, ranking_from_flags, unnormalized_sum


@contextmanager
def criterion(number, label, budget_s):
    """Prints exactly one status line for the criterion and enforces its
    runtime budget."""
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s}s"
    except pytest.skip.Exception:
        print(f"criterion {number} ({label}): SKIP", flush=True)
        raise
    except BaseException:
        print(f"criterion {number} ({label}): FAIL", flush=True)
        raise
    print(f"criterion {number} ({label}): PASS [{elapsed:.1f}s]", flush=True)


def unfair_flags(n: int, n_plus: int, f: float, seed: int) -> np.ndarray:
    """Protected-flag sequence of the biased merge, skipping item objects:
    generate_unfair's merge of a base ranking with n_plus protected items
    first."""
    base = np.arange(n) < n_plus
    return base[merge_order(base, f, seed)]


def test_criterion_1_exact_normalization_at_extremes():
    with criterion(1, "extremes hit 1.0", budget_s=1.0):
        all_protected_first = unfair_flags(1000, 500, 1.0, 0)
        assert all_protected_first[:500].all()
        rnd = measure_from_flags(MeasureKind.RND, all_protected_first)
        rkl = measure_from_flags(MeasureKind.RKL, all_protected_first)
        assert abs(rnd - 1.0) <= 1e-9, f"rND at f=1 extreme: {rnd!r}"
        assert abs(rkl - 1.0) <= 1e-9, f"rKL at f=1 extreme: {rkl!r}"

        all_nonprotected_first = unfair_flags(1000, 200, 0.0, 0)
        assert not all_nonprotected_first[:800].any()
        rrd = measure_from_flags(MeasureKind.RRD, all_nonprotected_first)
        assert abs(rrd - 1.0) <= 1e-9, f"rRD at f=0 extreme: {rrd!r}"


def test_criterion_2_range_property():
    # rND and rKL are checked against [0, 1] unconditionally. rRD is checked
    # against 0 from below unconditionally and against 1 from above only on
    # rankings whose every prefix has at most the population's protected
    # proportion (c_i * n <= i * n_plus): there the all-nonprotected-first
    # normalizer dominates term by term. Outside that regime rRD can
    # legitimately exceed 1 (e.g. n=808, n_plus=23, f=0.124, where the tiny
    # minority is over-represented at the top), so no upper bound holds.
    with criterion(2, "fuzzed measures in range", budget_s=60.0):
        rng = np.random.default_rng(20260823)
        bounded_rrd = 0
        for _ in range(10_000):
            n = int(rng.integers(2, 2001))
            n_plus = int(rng.integers(1, n))
            f = float(rng.random())
            seed = int(rng.integers(0, 2**31))
            flags = unfair_flags(n, n_plus, f, seed)

            rnd = measure_from_flags(MeasureKind.RND, flags)
            rkl = measure_from_flags(MeasureKind.RKL, flags)
            assert 0.0 <= rnd <= 1.0, (n, n_plus, f, seed, rnd)
            assert 0.0 <= rkl <= 1.0, (n, n_plus, f, seed, rkl)
            if 2 * n_plus <= n:
                rrd = measure_from_flags(MeasureKind.RRD, flags)
                assert rrd >= 0.0, (n, n_plus, f, seed, rrd)
                cutoffs = build_schedule(n)
                c = np.cumsum(flags)[cutoffs - 1]
                if np.all(c * n <= cutoffs * n_plus):
                    bounded_rrd += 1
                    assert rrd <= 1.0, (n, n_plus, f, seed, rrd)
        assert bounded_rrd > 0


def test_criterion_3_brute_force_oracle_equivalence():
    with criterion(3, "normalizer equals enumerated max", budget_s=10.0):
        for n in range(2, 9):
            schedule = build_schedule(n, step=2)
            for n_plus in range(1, n):
                for kind in (MeasureKind.RND, MeasureKind.RKL):
                    best = -np.inf
                    for positions in itertools.combinations(range(n), n_plus):
                        flags = np.zeros(n, dtype=bool)
                        flags[list(positions)] = True
                        cum = np.cumsum(flags)
                        counts = [(i, int(cum[i - 1])) for i in schedule.tolist()]
                        best = max(
                            best, unnormalized_sum(kind, counts, n, n_plus)
                        )
                    z = normalizer(kind, n, n_plus, step=2)
                    assert z == best, (kind, n, n_plus, z, best)


def test_criterion_4_sweep_minimum_and_symmetry():
    with criterion(4, "sweep minima and mirror symmetry", budget_s=120.0):
        n = 1000
        f_grid = [round(0.1 * j, 1) for j in range(11)]
        seeds = range(50)
        curves = {}
        for n_plus in (200, 500, 800):
            f, means = aggregate_values(f_grid, sweep_values(n, n_plus, f_grid, seeds))
            curves[n_plus] = means[:, 0]
            proportion = n_plus / n
            best_f_rnd = f[np.argmin(means[:, 0])]
            best_f_rkl = f[np.argmin(means[:, 1])]
            assert abs(best_f_rnd - proportion) <= 0.1 + 1e-9, (
                n_plus, "rnd", best_f_rnd,
            )
            assert abs(best_f_rkl - proportion) <= 0.1 + 1e-9, (
                n_plus, "rkl", best_f_rkl,
            )
        # a ranking biased toward a 20% minority mirrors one biased against
        # an 80% majority under f -> 1 - f
        forward = curves[200]
        mirrored = curves[800][::-1]
        gap = max(abs(a - b) for a, b in zip(forward, mirrored))
        assert gap <= 0.05, f"mirror gap {gap:.4f}"


def test_criterion_5_rrd_majority_applicability():
    with criterion(5, "rRD rejects majority group", budget_s=1.0):
        majority = ranking_from_flags([True] * 12 + [False] * 8)
        with pytest.raises(RrdInapplicableError):
            measure_from_flags(MeasureKind.RRD, majority.flags)
        assert measure_from_flags(MeasureKind.RRD, majority.flags, allow_majority_rrd=True) >= 0.0


def test_criterion_6_generator_invariants():
    with criterion(6, "generator permutes, keeps group order", budget_s=10.0):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(2, 61))
            n_plus = int(rng.integers(0, n + 1))
            f = float(rng.random())
            base = random_base_ranking(n, n_plus, seed=int(rng.integers(2**31)))
            out = generate_unfair(base, f, seed=int(rng.integers(2**31)))
            assert sorted(out.ids) == sorted(base.ids)
            for group in (True, False):
                base_ids = [i for i, p in zip(base.ids, base.flags) if p == group]
                out_ids = [i for i, p in zip(out.ids, out.flags) if p == group]
                assert out_ids == base_ids


def test_criterion_7_gradient_matches_finite_differences():
    with criterion(7, "analytic gradient vs central differences", budget_s=30.0):
        n, m, k = 30, 3, 4
        eps = 1e-6
        for instance in range(20):
            rng = np.random.default_rng(1000 + instance)
            prot = np.zeros(n, dtype=bool)
            prot[: n // 3] = True
            features = FeatureMatrix(
                x=rng.random((n, m)),
                protected=prot,
                y=rng.random(n),
                ids=tuple(f"g{j}" for j in range(n)),
            )
            hyper = Hyperparams(a_x=0.01, a_y=1.0, a_z=5.0, k=k, seed=instance)
            v = rng.random((k, m))
            w = rng.random(k)
            model = PrototypeModel(prototypes=v, score_weights=w)
            grad_v, grad_w = gradient(features, model, hyper)

            def fd(param, idx):
                hi = param.copy()
                lo = param.copy()
                hi[idx] += eps
                lo[idx] -= eps
                if param is v:
                    up = PrototypeModel(prototypes=hi, score_weights=w)
                    dn = PrototypeModel(prototypes=lo, score_weights=w)
                else:
                    up = PrototypeModel(prototypes=v, score_weights=hi)
                    dn = PrototypeModel(prototypes=v, score_weights=lo)
                return (
                    total_loss(features, up, hyper)
                    - total_loss(features, dn, hyper)
                ) / (2 * eps)

            for idx in np.ndindex(v.shape):
                numeric = fd(v, idx)
                rel = abs(grad_v[idx] - numeric) / max(abs(numeric), 1e-8)
                assert rel < 1e-4, (instance, "v", idx, grad_v[idx], numeric)
            for idx in range(k):
                numeric = fd(w, (idx,))
                rel = abs(grad_w[idx] - numeric) / max(abs(numeric), 1e-8)
                assert rel < 1e-4, (instance, "w", idx, grad_w[idx], numeric)


def test_criterion_8_optimizer_improves_parity():
    with criterion(8, "training halves L_z, reduces rKL", budget_s=60.0):
        features = biased_feature_matrix()
        order = sorted(
            range(features.n), key=lambda r: (-features.y[r], features.ids[r])
        )
        initial_flags = features.protected[order]
        initial_rkl = measure_from_flags(MeasureKind.RKL, initial_flags)
        assert initial_rkl > 0.2, f"fixture not biased enough: {initial_rkl}"

        hyper = Hyperparams(
            a_x=0.01, a_y=1.0, a_z=5.0, k=10,
            learning_rate=0.01, max_iters=500, seed=0,
        )
        model, traces = train(features, hyper)
        assert len(traces) == 500
        l_z = traces[:, TRACE_COLUMNS.index("L_z")]
        assert l_z[-1] <= 0.5 * l_z[0], (
            l_z[0], l_z[-1],
        )
        _, reranked = apply_model(features, model)
        final_rkl = measure_from_flags(
            MeasureKind.RKL, reranked.flags
        )
        assert final_rkl <= initial_rkl, (initial_rkl, final_rkl)


def test_criterion_9_real_data_informational():
    """Informational checks against real datasets, supplied as prepared CSV
    files through environment variables:

    RANKFAIR_GERMAN_CREDIT: one row per applicant with at least a `sex`
    column (value `female` marks women) and a numeric `age` column.
    RANKFAIR_PROPUBLICA: one row per defendant with at least a `race` column
    (value `African-American`), a numeric `decile_score` column, and an `id`
    column.
    """
    with criterion(9, "real-data spot checks", budget_s=60.0):
        german = os.environ.get("RANKFAIR_GERMAN_CREDIT")
        propublica = os.environ.get("RANKFAIR_PROPUBLICA")
        if not (german and os.path.exists(german)) and not (
            propublica and os.path.exists(propublica)
        ):
            pytest.skip("no real datasets configured")

        if german and os.path.exists(german):
            table = load_table(german, drop_incomplete_rows=True)
            _, share_female = derive_protected(table, "sex", equals="female")
            _, share_under_25 = derive_protected(table, "age", less_than=25)
            _, share_under_35 = derive_protected(table, "age", less_than=35)
            assert abs(share_female - 0.69) <= 0.01, share_female
            assert abs(share_under_25 - 0.15) <= 0.01, share_under_25
            assert abs(share_under_35 - 0.55) <= 0.01, share_under_35

        if propublica and os.path.exists(propublica):
            table = load_table(
                propublica, row_id_column="id", drop_incomplete_rows=True
            )
            flags, _ = derive_protected(table, "race", equals="African-American")
            ranked = score_and_rank(table, compute_scores(table, "decile_score"), flags)
            rnd = measure_from_flags(MeasureKind.RND, ranked.flags)
            assert abs(rnd - 0.44) <= 0.05, rnd
