import collections
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rankfair import fairopt
from rankfair.fairopt import (
    TRACE_COLUMNS,
    DivergenceError,
    FeatureMatrix,
    Hyperparams,
    PrototypeModel,
    accuracy_score_diff,
    apply_model,
    gradient,
    losses,
    save_model,
    soft_assignments,
    total_loss,
    train,
    write_trace_csv,
)
from rankfair.measures import MeasureKind, measure_from_flags
from rankfair.ranking import ValidationError


def column(trace, name):
    return trace[:, TRACE_COLUMNS.index(name)]


def trace_bits(trace):
    """The trace's rows as int64 bit patterns: tells -0.0 from 0.0 and
    compares NaN as a value."""
    return trace.shape, trace.view(np.int64).tolist()


SOFT0 = 0.7310585786300049  # 1 / (1 + e^-1)
SOFT1 = 0.2689414213699951  # e^-1 / (1 + e^-1)


def feature_matrix(x, protected, y):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] == 1 and len(protected) > 1:
        x = x.T
    return FeatureMatrix(
        x=x,
        protected=np.asarray(protected, dtype=bool),
        y=np.asarray(y, dtype=float),
        ids=tuple(f"i{j}" for j in range(len(protected))),
    )


def random_instance(rng, n=30, m=3, k=4):
    feats = FeatureMatrix(
        x=rng.random((n, m)),
        protected=rng.random(n) < 0.4
        if 0 < (rng.random(n) < 0.4).sum() < n
        else np.arange(n) % 2 == 0,
        y=rng.random(n),
        ids=tuple(str(j) for j in range(n)),
    )
    model = PrototypeModel(
        prototypes=rng.random((k, m)), score_weights=rng.random(k)
    )
    return feats, model


class TestFeatureMatrix:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            feature_matrix([[0.0], [1.0], [2.0]], [True, False, False], [0.1, bad, 0.5])

    def test_out_of_range_scores_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            feature_matrix([[0.0], [1.0]], [True, False], [0.1, 1.5])

    def test_no_feature_columns_rejected(self):
        with pytest.raises(ValueError, match="m >= 1"):
            FeatureMatrix(
                x=np.empty((2, 0)), protected=[True, False], y=[0.1, 0.5], ids=("a", "b")
            )


def reference_soft_assignments(features, model):
    """The (n, K, m) broadcast form of the softmax over negative squared
    distances, with the same max subtraction."""
    diff = features.x[:, None, :] - model.prototypes[None, :, :]
    logits = -np.sum(diff * diff, axis=2)
    logits -= logits.max(axis=1, keepdims=True)
    expd = np.exp(logits)
    return expd / expd.sum(axis=1, keepdims=True)


class TestSoftAssignments:
    def test_bitwise_equal_to_broadcast_form(self):
        rng = np.random.default_rng(21)
        shapes = [(2, 1, 1), (5, 1, 3), (7, 4, 1), (40, 10, 8)]
        shapes += [
            (int(rng.integers(2, 80)), int(rng.integers(1, 20)), int(rng.integers(1, 40)))
            for _ in range(60)
        ]
        for n, m, k in shapes:
            scale = 10.0 ** rng.uniform(-2, 2)
            feats = FeatureMatrix(
                x=rng.normal(0, scale, (n, m)),
                protected=np.arange(n) % 2 == 0,
                y=rng.random(n),
                ids=tuple(str(j) for j in range(n)),
            )
            model = PrototypeModel(
                prototypes=rng.normal(0, scale, (k, m)), score_weights=rng.random(k)
            )
            assert np.array_equal(
                soft_assignments(feats, model),
                reference_soft_assignments(feats, model),
            ), (n, m, k)

    def test_single_prototype(self):
        feats = feature_matrix([[0.1], [0.9]], [True, False], [0.0, 1.0])
        model = PrototypeModel(prototypes=[[0.5]], score_weights=[0.5])
        m_mat = soft_assignments(feats, model)
        assert np.allclose(m_mat, 1.0)

    def test_equidistant_symmetry(self):
        feats = feature_matrix([[0.5], [0.5]], [True, False], [0.5, 0.5])
        model = PrototypeModel(prototypes=[[0.0], [1.0]], score_weights=[0, 1])
        m_mat = soft_assignments(feats, model)
        assert np.allclose(m_mat, 0.5)

    def test_one_dim_derived_value(self):
        feats = feature_matrix([[0.0], [1.0]], [True, False], [0.0, 1.0])
        model = PrototypeModel(prototypes=[[0.0], [1.0]], score_weights=[0, 1])
        m_mat = soft_assignments(feats, model)
        assert m_mat[0] == pytest.approx([SOFT0, SOFT1], abs=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        feats, model = random_instance(rng)
        m_mat = soft_assignments(feats, model)
        assert np.all(m_mat >= 0)
        assert np.allclose(m_mat.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        feats = feature_matrix([[0.0], [1.0]], [True, False], [0, 1])
        model = PrototypeModel(prototypes=[[0.0, 0.0]], score_weights=[0.5])
        with pytest.raises(ValueError):
            soft_assignments(feats, model)


class TestLosses:
    def test_reconstruction_fixed_point(self):
        # prototypes at the (well separated) data points with matching
        # weights: softmax leakage is bounded by e^-100
        x = [[0.0], [10.0], [20.0], [30.0]]
        y = [0.0, 1 / 3, 2 / 3, 1.0]
        feats = feature_matrix(x, [True, False, True, False], y)
        model = PrototypeModel(prototypes=x, score_weights=y)
        l_x, l_y, l_z = losses(feats, model)
        assert l_x < 1e-3
        assert l_y < 1e-3

    def test_identical_group_distributions(self):
        x = [[0.1], [0.9], [0.1], [0.9]]
        feats = feature_matrix(x, [True, True, False, False], [0, 1, 0, 1])
        model = PrototypeModel(prototypes=[[0.0], [1.0]], score_weights=[0, 1])
        _, _, l_z = losses(feats, model)
        assert l_z == pytest.approx(0.0, abs=1e-12)

    def test_two_point_hand_values(self):
        feats = feature_matrix([[0.0], [1.0]], [True, False], [0.0, 1.0])
        model = PrototypeModel(prototypes=[[0.0], [1.0]], score_weights=[0.0, 1.0])
        l_x, l_y, _ = losses(feats, model)
        # x_hat(0) = SOFT1, symmetric at 1
        assert l_x == pytest.approx(SOFT1**2, abs=1e-9)
        assert l_y == pytest.approx(SOFT1, abs=1e-9)

    def test_l_z_upper_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            feats, model = random_instance(rng)
            _, _, l_z = losses(feats, model)
            assert 0.0 <= l_z <= 2.0


class TestTotalLoss:
    def test_zero_when_only_balanced_parity(self):
        x = [[0.2], [0.8], [0.2], [0.8]]
        feats = feature_matrix(x, [True, True, False, False], [0, 1, 0, 1])
        model = PrototypeModel(prototypes=[[0.0], [1.0]], score_weights=[0, 1])
        hyper = Hyperparams(a_x=0.0, a_y=0.0, a_z=1.0)
        assert total_loss(feats, model, hyper) == pytest.approx(0.0, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        feats, model = random_instance(rng)
        l_x, l_y, l_z = losses(feats, model)
        hyper = Hyperparams(a_x=1.0, a_y=1.0, a_z=1.0)
        assert total_loss(feats, model, hyper) == pytest.approx(l_x + l_y + l_z)

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        feats, model = random_instance(rng)
        one = total_loss(feats, model, Hyperparams(a_x=0.5, a_y=0.5, a_z=0.5))
        two = total_loss(feats, model, Hyperparams(a_x=1.0, a_y=1.0, a_z=1.0))
        assert two == pytest.approx(2 * one)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            Hyperparams(a_x=0.0, a_y=0.0, a_z=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["a_x", "a_y", "a_z", "learning_rate"])
    def test_non_finite_hyperparameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            Hyperparams(**{name: value})


def finite_difference(feats, model, hyper, h=1e-5):
    v, w = model.prototypes, model.score_weights
    gv = np.zeros_like(v)
    for idx in np.ndindex(*v.shape):
        vp, vm = v.copy(), v.copy()
        vp[idx] += h
        vm[idx] -= h
        gv[idx] = (
            total_loss(feats, PrototypeModel(vp, w), hyper)
            - total_loss(feats, PrototypeModel(vm, w), hyper)
        ) / (2 * h)
    gw = np.zeros_like(w)
    for k in range(w.size):
        wp, wm = w.copy(), w.copy()
        wp[k] += h
        wm[k] -= h
        gw[k] = (
            total_loss(feats, PrototypeModel(v, wp), hyper)
            - total_loss(feats, PrototypeModel(v, wm), hyper)
        ) / (2 * h)
    return gv, gw


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        hyper = Hyperparams(a_x=0.7, a_y=1.3, a_z=2.1, k=4)
        feats, model = random_instance(rng)
        gv, gw = gradient(feats, model, hyper)
        gv_fd, gw_fd = finite_difference(feats, model, hyper)
        assert np.max(np.abs(gv - gv_fd) / np.maximum(np.abs(gv_fd), 1e-8)) < 1e-4
        assert np.max(np.abs(gw - gw_fd) / np.maximum(np.abs(gw_fd), 1e-8)) < 1e-4

    def test_stationary_single_prototype(self):
        # v at the data mean, w at a tie-balanced median: subgradients cancel
        feats = feature_matrix([[0.0], [2.0]], [True, False], [0.2, 0.8])
        model = PrototypeModel(prototypes=[[1.0]], score_weights=[0.5])
        gv, gw = gradient(feats, model, Hyperparams(a_x=1, a_y=1, a_z=1, k=1))
        assert np.linalg.norm(gv) < 1e-6
        assert np.linalg.norm(gw) < 1e-6

    def test_w_block_zero_without_accuracy_term(self):
        rng = np.random.default_rng(4)
        feats, model = random_instance(rng)
        _, gw = gradient(feats, model, Hyperparams(a_x=1.0, a_y=0.0, a_z=0.0))
        assert np.all(gw == 0.0)


class TestTrain:
    def test_deterministic(self, biased_features):
        hyper = Hyperparams(k=5, max_iters=20, seed=12)
        m1, t1 = train(biased_features, hyper)
        m2, t2 = train(biased_features, hyper)
        assert np.array_equal(m1.prototypes, m2.prototypes)
        assert trace_bits(t1) == trace_bits(t2)

    def test_loss_decreases_with_calibrated_rate(self, biased_features):
        hyper = Hyperparams(k=10, learning_rate=0.01, max_iters=100, seed=0)
        _, traces = train(biased_features, hyper)
        assert len(traces) <= hyper.max_iters
        assert column(traces, "L")[-1] <= column(traces, "L")[0]

    def test_single_prototype_has_no_parity_loss(self, biased_features):
        hyper = Hyperparams(k=1, max_iters=10, seed=0)
        _, traces = train(biased_features, hyper)
        assert all(l_z == pytest.approx(0.0, abs=1e-12) for l_z in column(traces, "L_z"))

    def test_trace_consistency(self, biased_features):
        hyper = Hyperparams(a_x=0.3, a_y=1.0, a_z=2.0, k=6, max_iters=15, seed=1)
        _, traces = train(biased_features, hyper)
        for total, l_x, l_y, l_z in traces[:, :4]:
            expected = 0.3 * l_x + 1.0 * l_y + 2.0 * l_z
            assert total == pytest.approx(expected, abs=1e-9)

    def test_k_larger_than_n(self):
        feats = feature_matrix([[0.0], [1.0]], [True, False], [0, 1])
        with pytest.raises(ValueError):
            train(feats, Hyperparams(k=3))

    def test_divergence_reports_iteration(self, biased_features):
        hyper = Hyperparams(k=10, learning_rate=1e160, max_iters=50, seed=0)
        with pytest.raises(DivergenceError) as exc:
            train(biased_features, hyper)
        assert exc.value.iteration == 1

    def test_early_stop(self, biased_features):
        hyper = Hyperparams(
            k=5, learning_rate=1e-6, max_iters=200, early_stop_rel_tol=0.5, seed=0
        )
        _, traces = train(biased_features, hyper)
        assert len(traces) < 200

    def test_trace_is_one_float_array(self, biased_features):
        _, trace = train(biased_features, Hyperparams(k=4, max_iters=6, seed=0))
        assert trace.dtype == np.float64 and trace.shape == (6, len(TRACE_COLUMNS))

    def test_rows_grow_as_training_runs(self, biased_features):
        """No row is set aside for an iteration that does not run: a
        ``max_iters`` past numpy's index range still trains and stops early."""
        hyper = Hyperparams(
            k=5, learning_rate=1e-6, max_iters=2**62, early_stop_rel_tol=0.5, seed=0
        )
        _, trace = train(biased_features, hyper)
        assert 1 < len(trace) < 200


def reference_train(features, hyper, step=10):
    """Training as it ran before the forward pass was shared: separate
    ``losses``, ``apply_model`` and ``gradient`` calls per iteration, and the
    trace order from a Python sort on ``(-y_hat, id)``."""
    rng = np.random.default_rng(hyper.seed)
    idx = rng.choice(features.n, size=hyper.k, replace=False)
    v = features.x[idx].copy()
    w = np.full(hyper.k, 0.5)
    rows = []
    prev_total = None
    for it in range(hyper.max_iters):
        model = PrototypeModel(prototypes=v, score_weights=w)
        l_x, l_y, l_z = losses(features, model)
        total = hyper.a_x * l_x + hyper.a_y * l_y + hyper.a_z * l_z
        # apply_model's scores; its ranking rejects the duplicated ids
        y_hat = soft_assignments(features, model) @ model.score_weights
        order = sorted(
            range(features.n), key=lambda r: (-y_hat[r], features.ids[r])
        )
        flags = np.array([features.protected[r] for r in order])
        rrd_ok = 2 * int(flags.sum()) <= flags.size
        rows.append(
            (
                total,
                l_x,
                l_y,
                l_z,
                measure_from_flags(MeasureKind.RND, flags, step),
                measure_from_flags(MeasureKind.RKL, flags, step),
                measure_from_flags(MeasureKind.RRD, flags, step)
                if rrd_ok
                else math.nan,
                accuracy_score_diff(features.y, y_hat),
            )
        )
        if (
            hyper.early_stop_rel_tol > 0
            and prev_total is not None
            and abs(prev_total - total)
            <= hyper.early_stop_rel_tol * max(abs(prev_total), 1e-12)
        ):
            break
        prev_total = total
        grad_v, grad_w = gradient(features, model, hyper)
        v = v - hyper.learning_rate * grad_v
        w = w - hyper.learning_rate * grad_w
    return PrototypeModel(prototypes=v, score_weights=w), np.array(rows)


def with_ids(features, ids):
    return dataclasses.replace(features, ids=tuple(ids))


class TestSharedForwardPass:
    """``train`` runs one forward pass per iteration and ranks the trace
    with ``rank_order``; it must match the per-call reference exactly."""

    HYPERS = [
        Hyperparams(k=5, max_iters=25, seed=12),
        Hyperparams(a_x=0.3, a_y=1.0, a_z=2.0, k=6, learning_rate=0.2, max_iters=30, seed=1),
        # a_y = 0 leaves the score weights constant: near-ties everywhere
        Hyperparams(a_x=1.0, a_y=0.0, a_z=0.5, k=3, max_iters=20, seed=5),
        # one prototype: every estimated score is the same, all ties
        Hyperparams(k=1, max_iters=10, seed=0),
        Hyperparams(k=5, learning_rate=1e-6, max_iters=200, early_stop_rel_tol=0.5, seed=3),
    ]

    def id_variants(self, features):
        n = features.n
        perm = np.random.default_rng(0).permutation(n)
        return {
            "padded": features,
            # "i10" sorts before "i2": string order differs from row order
            "unpadded": with_ids(features, (f"i{j}" for j in range(n))),
            "shuffled": with_ids(features, (f"i{j}" for j in perm)),
            "duplicated": with_ids(features, (f"g{j % 7}" for j in perm)),
        }

    @pytest.mark.parametrize("hyper", HYPERS)
    def test_trace_matches_reference(self, biased_features, hyper):
        for name, feats in self.id_variants(biased_features).items():
            for step in (10, 7):
                model, traces = train(feats, hyper, step=step)
                ref_model, ref_traces = reference_train(feats, hyper, step=step)
                assert trace_bits(traces) == trace_bits(ref_traces), (name, step)
                assert np.array_equal(model.prototypes, ref_model.prototypes)
                assert np.array_equal(model.score_weights, ref_model.score_weights)

    def test_one_forward_pass_and_one_sort_per_iteration(self, biased_features, monkeypatch):
        calls = collections.Counter()
        for name in ("soft_assignments", "rank_order"):

            def counted(*args, _real=getattr(fairopt, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(fairopt, name, counted)
        _, traces = train(biased_features, Hyperparams(k=5, max_iters=7, seed=0))
        assert len(traces) == 7
        assert calls == {"soft_assignments": 7, "rank_order": 7}

    @pytest.mark.parametrize("hyper", HYPERS)
    def test_majority_protected_trace_matches_reference(self, biased_features, hyper):
        feats = dataclasses.replace(biased_features, protected=~biased_features.protected)
        for step in (10, 7):
            model, traces = train(feats, hyper, step=step)
            ref_model, ref_traces = reference_train(feats, hyper, step=step)
            assert trace_bits(traces) == trace_bits(ref_traces), step
            assert np.array_equal(model.prototypes, ref_model.prototypes)
            assert np.array_equal(model.score_weights, ref_model.score_weights)
            assert np.isnan(column(traces, "rrd")).all()

    def test_all_ties_rank_in_id_order(self, biased_features):
        feats = self.id_variants(biased_features)["shuffled"]
        model, _ = train(feats, Hyperparams(k=1, max_iters=5, seed=0))
        y_hat, ranked = apply_model(feats, model)
        assert np.all(y_hat == y_hat[0])
        assert list(ranked.ids) == sorted(feats.ids)

    def test_apply_model_matches_python_sort(self, biased_features):
        rng = np.random.default_rng(13)
        for name, feats in self.id_variants(biased_features).items():
            model = PrototypeModel(
                prototypes=rng.random((4, feats.m)),
                score_weights=np.round(rng.random(4), 1),
            )
            if name == "duplicated":
                with pytest.raises(ValidationError, match="duplicate id"):
                    apply_model(feats, model)
                continue
            y_hat, ranked = apply_model(feats, model)
            order = sorted(range(feats.n), key=lambda r: (-y_hat[r], feats.ids[r]))
            assert list(ranked.ids) == [feats.ids[r] for r in order]
            assert ranked.flags.tolist() == [bool(feats.protected[r]) for r in order]
            assert ranked.scores.tolist() == [float(y_hat[r]) for r in order]


class TestApplyModel:
    def test_constant_weights_give_id_order(self):
        feats = feature_matrix(
            [[0.3], [0.1], [0.7]], [True, False, False], [0.1, 0.2, 0.3]
        )
        model = PrototypeModel(prototypes=[[0.0], [1.0]], score_weights=[0.5, 0.5])
        y_hat, ranked = apply_model(feats, model)
        assert np.allclose(y_hat, 0.5)
        assert ranked.ids == ("i0", "i1", "i2")

    def test_fixed_point_recovers_ground_truth_order(self):
        x = [[0.0], [10.0], [20.0], [30.0]]
        y = [0.0, 1 / 3, 2 / 3, 1.0]
        feats = feature_matrix(x, [True, False, True, False], y)
        model = PrototypeModel(prototypes=x, score_weights=y)
        _, ranked = apply_model(feats, model)
        assert ranked.ids == ("i3", "i2", "i1", "i0")

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        feats, model = random_instance(rng, n=10)
        y_hat, _ = apply_model(feats, model)
        perm = rng.permutation(10)
        permuted = FeatureMatrix(
            x=feats.x[perm],
            protected=feats.protected[perm],
            y=feats.y[perm],
            ids=tuple(feats.ids[i] for i in perm),
        )
        y_hat_p, _ = apply_model(permuted, model)
        assert np.allclose(y_hat_p, y_hat[perm])

    def test_diverged_last_update_rejected(self, biased_features):
        # the trace is evaluated before each update, so training returns the
        # diverged model; applying it must not rank by NaN scores
        hyper = Hyperparams(k=10, learning_rate=1e160, max_iters=1, seed=0)
        model, traces = train(biased_features, hyper)
        assert np.isfinite(column(traces, "L")[-1])
        with pytest.raises(ValueError, match="not all finite"):
            apply_model(biased_features, model)


class TestTranslationEquivariance:
    def test_shared_shift_changes_nothing(self):
        rng = np.random.default_rng(9)
        feats, model = random_instance(rng)
        shift = rng.random(feats.m) * 10
        shifted_feats = FeatureMatrix(
            x=feats.x + shift, protected=feats.protected, y=feats.y, ids=feats.ids
        )
        shifted_model = PrototypeModel(
            prototypes=model.prototypes + shift,
            score_weights=model.score_weights,
        )
        assert np.allclose(
            soft_assignments(feats, model),
            soft_assignments(shifted_feats, shifted_model),
            atol=1e-9,
        )
        assert losses(feats, model) == pytest.approx(
            losses(shifted_feats, shifted_model), abs=1e-9
        )


class TestAccuracyScoreDiff:
    def test_perfect(self):
        assert accuracy_score_diff(np.array([0.2, 0.8]), np.array([0.2, 0.8])) == 0.0

    def test_maximal(self):
        assert accuracy_score_diff(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == 1.0

    def test_hand_value(self):
        got = accuracy_score_diff(np.array([0.2, 0.8]), np.array([0.5, 0.5]))
        assert got == pytest.approx(0.3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_score_diff(np.array([0.1]), np.array([0.1, 0.2]))


def load_model(path: str | Path) -> PrototypeModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    k, m = payload["K"], payload["m"]
    protos = np.asarray(payload["prototypes"], dtype=float).reshape(k, m)
    return PrototypeModel(
        prototypes=protos,
        score_weights=np.asarray(payload["score_weights"], dtype=float),
    )


class TestSerialization:
    def test_trace_csv(self, tmp_path, biased_features):
        hyper = Hyperparams(k=4, max_iters=5, seed=0)
        _, traces = train(biased_features, hyper)
        path = tmp_path / "trace.csv"
        write_trace_csv(traces, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,L,L_x,L_y,L_z,rnd,rkl,rrd,score_diff"
        assert len(lines) == len(traces) + 1

    def test_majority_trace_csv_leaves_rrd_empty(self, tmp_path, biased_features):
        """For a majority protected group every row's rrd field is empty, and
        the file is what the per-call reference's values format to."""
        feats = dataclasses.replace(biased_features, protected=~biased_features.protected)
        hyper = Hyperparams(k=4, max_iters=6, seed=0)
        _, trace = train(feats, hyper, step=7)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        _, ref = reference_train(feats, hyper, step=7)
        want = ["iter,L,L_x,L_y,L_z,rnd,rkl,rrd,score_diff"] + [
            ",".join([str(it), *("" if x != x else "%f" % x for x in row)])
            for it, row in enumerate(ref.tolist())
        ]
        lines = path.read_text().splitlines()
        assert lines == want
        assert all(line.split(",")[7] == "" for line in lines[1:])

    def test_model_round_trip(self, tmp_path, biased_features):
        hyper = Hyperparams(k=4, max_iters=3, seed=2)
        model, _ = train(biased_features, hyper)
        path = tmp_path / "model.json"
        save_model(model, hyper, path)
        back = load_model(path)
        assert np.allclose(back.prototypes, model.prototypes)
        assert np.allclose(back.score_weights, model.score_weights)
