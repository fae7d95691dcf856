"""The column-wise training kernels against frozen copies of the row-wise
ones they replaced: every loss, gradient, trace value and trained model must
be bit for bit the same, including on shapes wide enough to reach numpy's
eight-way and halving row-sum orders."""

from dataclasses import astuple
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankfair.fairopt import (
    FeatureMatrix,
    Hyperparams,
    PrototypeModel,
    TraceRecord,
    _pairwise_row_sums,
    accuracy_score_diff,
    gradient,
    losses,
    soft_assignments,
    train,
)
from rankfair.measures import Scale

from conftest import reference_id_rank, reference_rank_order

# --- frozen references: the per-prototype, row-wise kernels -------------------


def frozen_soft_assignments(features, model):
    x, v = features.x, model.prototypes
    logits = np.empty((features.n, model.k))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(model.k):
            d = x - v[k]
            logits[:, k] = -np.sum(d * d, axis=1)
        logits -= logits.max(axis=1, keepdims=True)
        expd = np.exp(logits)
        return expd / expd.sum(axis=1, keepdims=True)


class FrozenForward(NamedTuple):
    m_mat: np.ndarray
    x_hat: np.ndarray
    y_hat: np.ndarray


def frozen_forward(features, model):
    m_mat = frozen_soft_assignments(features, model)
    return FrozenForward(m_mat, m_mat @ model.prototypes, m_mat @ model.score_weights)


def frozen_losses(features, fwd):
    l_x = float(np.mean(np.sum((features.x - fwd.x_hat) ** 2, axis=1)))
    l_y = float(np.mean(np.abs(features.y - fwd.y_hat)))
    mu_p = fwd.m_mat[features.protected].mean(axis=0)
    mu_m = fwd.m_mat[~features.protected].mean(axis=0)
    l_z = float(np.sum(np.abs(mu_p - mu_m)))
    return l_x, l_y, l_z


def frozen_gradient(features, model, hyper, fwd):
    x, y, prot = features.x, features.y, features.protected
    n = features.n
    v, w = model.prototypes, model.score_weights
    m_mat, x_hat, y_hat = fwd

    sy = np.sign(y_hat - y)
    mu_p = m_mat[prot].mean(axis=0)
    mu_m = m_mat[~prot].mean(axis=0)
    sz = np.sign(mu_p - mu_m)
    n_p = int(prot.sum())
    n_m = n - n_p

    g = np.zeros_like(m_mat)
    if hyper.a_x:
        g += hyper.a_x * (2.0 / n) * ((x_hat - x) @ v.T)
    if hyper.a_y:
        g += hyper.a_y * (1.0 / n) * np.outer(sy, w)
    if hyper.a_z:
        group_scale = np.where(prot, 1.0 / n_p, -1.0 / n_m)
        g += hyper.a_z * group_scale[:, None] * sz[None, :]

    b = m_mat * (g - np.sum(g * m_mat, axis=1, keepdims=True))
    grad_v = 2.0 * (b.T @ x - b.sum(axis=0)[:, None] * v)
    if hyper.a_x:
        grad_v += hyper.a_x * (2.0 / n) * (m_mat.T @ (x_hat - x))
    grad_w = hyper.a_y * (1.0 / n) * (m_mat.T @ sy)
    return grad_v, grad_w


def frozen_train(features, hyper, step=10):
    rng = np.random.default_rng(hyper.seed)
    idx = rng.choice(features.n, size=hyper.k, replace=False)
    v = features.x[idx].copy()
    w = np.full(hyper.k, 0.5)
    id_ranks = reference_id_rank(features.ids)
    scale = Scale.of(features.n, int(np.count_nonzero(features.protected)), step)
    traces = []
    for it in range(hyper.max_iters):
        model = PrototypeModel(prototypes=v, score_weights=w)
        fwd = frozen_forward(features, model)
        l_x, l_y, l_z = frozen_losses(features, fwd)
        total = hyper.a_x * l_x + hyper.a_y * l_y + hyper.a_z * l_z
        flags = features.protected[reference_rank_order(fwd.y_hat, id_ranks)]
        _, [values] = scale.measure(np.cumsum(flags)[scale.cutoffs - 1])
        score_diff = accuracy_score_diff(features.y, fwd.y_hat)
        traces.append(TraceRecord(it, total, l_x, l_y, l_z, *values, score_diff))
        grad_v, grad_w = frozen_gradient(features, model, hyper, fwd)
        v = v - hyper.learning_rate * grad_v
        w = w - hyper.learning_rate * grad_w
    return PrototypeModel(prototypes=v, score_weights=w), traces


# --- comparisons --------------------------------------------------------------


def bits(values):
    """Exact text of each value: tells -0.0 from 0.0 and keeps every bit."""
    return [None if v is None else float(v).hex() for v in values]


def same_array(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def instance(n, m, k, seed):
    """Features and model on the benchmark's scale: min-max normalized
    features in [0, 1], 30% protected rows."""
    rng = np.random.default_rng(seed)
    protected = rng.random(n) < 0.3
    protected[:2] = [True, False]
    feats = FeatureMatrix(
        x=rng.random((n, m)),
        protected=protected,
        y=rng.random(n),
        ids=tuple(f"r{j}" for j in range(n)),
    )
    model = PrototypeModel(
        prototypes=rng.random((k, m)), score_weights=rng.random(k)
    )
    return feats, model


# (n, m, K): the benchmark's 2000 x 8 with K = 10; widths that reach the
# eight running sums with a remainder; m and K past 128, where numpy halves
SHAPES = [(2000, 8, 10), (300, 9, 17), (300, 17, 17), (200, 131, 5), (300, 3, 133)]
TRAIN_HYPERS = [
    dict(max_iters=6, seed=2),
    dict(a_x=0.3, a_y=0.0, a_z=2.0, learning_rate=0.2, max_iters=6, seed=5),
    dict(a_x=0.0, a_y=1.0, a_z=0.0, learning_rate=0.1, max_iters=6, seed=3),
]


@pytest.mark.parametrize("n,m,k", SHAPES)
def test_soft_assignments_and_losses_bit_identical(n, m, k):
    feats, model = instance(n, m, k, seed=n + m + k)
    assert same_array(soft_assignments(feats, model), frozen_soft_assignments(feats, model))
    want = frozen_losses(feats, frozen_forward(feats, model))
    assert bits(losses(feats, model)) == bits(want)


@pytest.mark.parametrize("n,m,k", SHAPES)
@pytest.mark.parametrize("weights", [(0.01, 1.0, 5.0), (0.7, 0.0, 2.1), (0.0, 1.3, 0.0)])
def test_gradient_bit_identical(n, m, k, weights):
    feats, model = instance(n, m, k, seed=3 * n + m + k)
    a_x, a_y, a_z = weights
    hyper = Hyperparams(a_x=a_x, a_y=a_y, a_z=a_z, k=k)
    grad_v, grad_w = gradient(feats, model, hyper)
    want_v, want_w = frozen_gradient(feats, model, hyper, frozen_forward(feats, model))
    assert same_array(grad_v, want_v)
    assert same_array(grad_w, want_w)


@pytest.mark.parametrize("n,m,k", SHAPES)
@pytest.mark.parametrize("kwargs", TRAIN_HYPERS)
def test_train_bit_identical(n, m, k, kwargs):
    feats, _ = instance(n, m, k, seed=7 * n + m + k)
    hyper = Hyperparams(k=k, **kwargs)
    model, traces = train(feats, hyper, step=7)
    want_model, want_traces = frozen_train(feats, hyper, step=7)
    assert [bits(astuple(t)) for t in traces] == [bits(astuple(t)) for t in want_traces]
    assert same_array(model.prototypes, want_model.prototypes)
    assert same_array(model.score_weights, want_model.score_weights)


def test_k1_rows_on_a_prototype_bit_identical():
    """With one prototype started at a data row, that row's residual is
    exactly zero: signed zeros reach the gradient's sums."""
    feats, _ = instance(50, 9, 1, seed=4)
    hyper = Hyperparams(a_x=1.0, a_y=0.0, a_z=1.0, k=1, max_iters=3, seed=0)
    model, traces = train(feats, hyper)
    want_model, want_traces = frozen_train(feats, hyper)
    assert [bits(astuple(t)) for t in traces] == [bits(astuple(t)) for t in want_traces]
    assert same_array(model.prototypes, want_model.prototypes)


# --- the row-sum helper -------------------------------------------------------


@given(
    # the order changes at 8 and past 128, and each block of 8 adds a round
    width=st.sampled_from([1, 7, 8, 9, 15, 16, 17, 128, 129, 136, 137, 144, 257])
    | st.integers(min_value=1, max_value=300),
    rows=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    # close magnitudes round differently in each order; far ones absorb
    spread=st.integers(min_value=0, max_value=2) | st.integers(min_value=0, max_value=300),
    zeros=st.sampled_from([0.0, 0.1]) | st.floats(min_value=0.0, max_value=1.0),
)
@example(width=1, rows=2, seed=0, spread=0, zeros=1.0)
@settings(max_examples=300, deadline=None)
def test_pairwise_row_sums_equal_numpy(width, rows, seed, spread, zeros):
    """Magnitudes from 1e-300 to 1e300 (by ``spread``), signed zeros, and
    widths across numpy's three orders: below 8, up to 128, above."""
    rng = np.random.default_rng(seed)
    exponents = rng.integers(-spread, spread, size=(rows, width), endpoint=True)
    a = rng.choice([-1.0, 1.0], size=(rows, width)) * rng.uniform(1.0, 10.0, (rows, width))
    a *= 10.0 ** np.minimum(exponents, 299)
    a[rng.random((rows, width)) < zeros] = 0.0
    a[rng.random((rows, width)) < zeros / 2] = -0.0
    assert same_array(_pairwise_row_sums(a.T, width), np.sum(a, axis=1))


def test_pairwise_row_sums_of_negative_zeros_are_positive_zero():
    got = _pairwise_row_sums(np.full((3, 2), -0.0), 3)
    assert bits(got) == bits([0.0, 0.0])


@pytest.mark.parametrize("width", [*range(1, 18), 127, 128, 129, 136, 137, 256, 257, 300])
def test_pairwise_row_sums_equal_numpy_at_order_boundaries(width):
    rng = np.random.default_rng(width)
    a = rng.uniform(-10.0, 10.0, (64, width))
    a[rng.random(a.shape) < 0.1] = 0.0
    assert same_array(_pairwise_row_sums(a.T, width), np.sum(a, axis=1))


@pytest.mark.parametrize("width", [8, 9, 16, 136])
def test_pairwise_row_sums_are_not_sequential(width):
    # added one after another, 1e16 absorbs each 1.0; pairwise it does not
    a = np.array([[1e16] + [1.0] * (width - 1)])
    got = _pairwise_row_sums(a.T, width)
    assert same_array(got, np.sum(a, axis=1))
    assert got[0] != np.cumsum(a[0])[-1] == 1e16
