"""Prototype-based fair re-scoring of ranked data.

Items are softly assigned to K prototypes by a softmax over negative squared
Euclidean distances. The combined objective

    L = a_x * L_x + a_y * L_y + a_z * L_z

trades off reconstruction error in feature space (L_x, mean squared
reconstruction distance), score accuracy (L_y, mean absolute difference
between ground-truth and estimated scores) and statistical parity of the
prototype assignments between the protected and nonprotected groups (L_z,
L1 distance between group-mean assignment vectors). Training is full-batch
gradient descent with an analytic gradient and a fixed learning rate,
deterministic given the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .measures import Scale
from .ranking import (
    Ranking,
    fmt,
    id_rank,
    open_atomic,
    rank_by_score,
    rank_order,
    write_csv,
)


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss (learning rate too high)."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite loss at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class FeatureMatrix:
    """Normalized features with parallel protected flags, ground-truth
    scores in [0, 1] and row ids."""

    x: np.ndarray  # (n, m)
    protected: np.ndarray  # (n,) bool
    y: np.ndarray  # (n,) in [0, 1]
    ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "protected", np.asarray(self.protected, dtype=bool))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        n = self.x.shape[0]
        if self.protected.shape != (n,) or self.y.shape != (n,) or len(self.ids) != n:
            raise ValueError("feature matrix, flags, scores and ids must align")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("features must be finite")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("scores must be finite")
        if np.any(self.y < 0) or np.any(self.y > 1):
            raise ValueError("scores must lie in [0, 1]")
        if not (0 < self.protected.sum() < n):
            raise ValueError("both groups must be nonempty")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class PrototypeModel:
    prototypes: np.ndarray  # (K, m)
    score_weights: np.ndarray  # (K,)

    def __post_init__(self):
        object.__setattr__(self, "prototypes", np.asarray(self.prototypes, dtype=float))
        object.__setattr__(self, "score_weights", np.asarray(self.score_weights, dtype=float))
        if self.prototypes.ndim != 2 or self.prototypes.shape[0] < 1:
            raise ValueError("need at least one prototype")
        if self.score_weights.shape != (self.prototypes.shape[0],):
            raise ValueError("one score weight per prototype")

    @property
    def k(self) -> int:
        return self.prototypes.shape[0]


@dataclass(frozen=True)
class Hyperparams:
    a_x: float = 0.01
    a_y: float = 1.0
    a_z: float = 5.0
    k: int = 10
    learning_rate: float = 0.05
    max_iters: int = 500
    early_stop_rel_tol: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("a_x", "a_y", "a_z", "learning_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if min(self.a_x, self.a_y, self.a_z) < 0:
            raise ValueError("loss weights must be non-negative")
        if max(self.a_x, self.a_y, self.a_z) <= 0:
            raise ValueError("at least one loss weight must be positive")
        if self.k < 1 or self.learning_rate <= 0 or self.max_iters < 1:
            raise ValueError("bad hyperparameters")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    total: float
    l_x: float
    l_y: float
    l_z: float
    rnd: float
    rkl: float
    rrd: Optional[float]
    score_diff: float


def soft_assignments(features: FeatureMatrix, model: PrototypeModel) -> np.ndarray:
    """(n, K) row-stochastic matrix: softmax over negative squared distances
    to the prototypes, computed with max subtraction."""
    if features.m != model.prototypes.shape[1]:
        raise ValueError(
            f"feature dim {features.m} != prototype dim "
            f"{model.prototypes.shape[1]}"
        )
    x, v = features.x, model.prototypes
    logits = np.empty((features.n, model.k))
    # overflow here just produces non-finite assignments, which training
    # reports as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        # one prototype at a time: no (n, K, m) temporary, and each row sum
        # reduces the same m contiguous values as a broadcast would
        for k in range(model.k):
            d = x - v[k]
            logits[:, k] = -np.sum(d * d, axis=1)
        logits -= logits.max(axis=1, keepdims=True)
        expd = np.exp(logits)
        return expd / expd.sum(axis=1, keepdims=True)


class _Forward(NamedTuple):
    """One forward pass: assignments, reconstructions and estimated scores."""

    m_mat: np.ndarray  # (n, K)
    x_hat: np.ndarray  # (n, m)
    y_hat: np.ndarray  # (n,)


def _forward(features: FeatureMatrix, model: PrototypeModel) -> _Forward:
    m_mat = soft_assignments(features, model)
    return _Forward(m_mat, m_mat @ model.prototypes, m_mat @ model.score_weights)


def _losses(features: FeatureMatrix, fwd: _Forward) -> tuple[float, float, float]:
    l_x = float(np.mean(np.sum((features.x - fwd.x_hat) ** 2, axis=1)))
    l_y = float(np.mean(np.abs(features.y - fwd.y_hat)))
    mu_p = fwd.m_mat[features.protected].mean(axis=0)
    mu_m = fwd.m_mat[~features.protected].mean(axis=0)
    l_z = float(np.sum(np.abs(mu_p - mu_m)))
    return l_x, l_y, l_z


def losses(
    features: FeatureMatrix, model: PrototypeModel
) -> tuple[float, float, float]:
    return _losses(features, _forward(features, model))


def total_loss(
    features: FeatureMatrix, model: PrototypeModel, hyper: Hyperparams
) -> float:
    l_x, l_y, l_z = losses(features, model)
    return hyper.a_x * l_x + hyper.a_y * l_y + hyper.a_z * l_z


def _gradient(
    features: FeatureMatrix,
    model: PrototypeModel,
    hyper: Hyperparams,
    fwd: _Forward,
) -> tuple[np.ndarray, np.ndarray]:
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

    # dL/dM, holding the explicit v-dependence of x_hat fixed
    g = np.zeros_like(m_mat)
    if hyper.a_x:
        g += hyper.a_x * (2.0 / n) * ((x_hat - x) @ v.T)
    if hyper.a_y:
        g += hyper.a_y * (1.0 / n) * np.outer(sy, w)
    if hyper.a_z:
        group_scale = np.where(prot, 1.0 / n_p, -1.0 / n_m)
        g += hyper.a_z * group_scale[:, None] * sz[None, :]

    # back through the row-wise softmax over logits a_nk = -||x_n - v_k||^2
    b = m_mat * (g - np.sum(g * m_mat, axis=1, keepdims=True))
    # d a_nk / d v_k = 2 (x_n - v_k)
    grad_v = 2.0 * (b.T @ x - b.sum(axis=0)[:, None] * v)
    if hyper.a_x:
        grad_v += hyper.a_x * (2.0 / n) * (m_mat.T @ (x_hat - x))
    grad_w = hyper.a_y * (1.0 / n) * (m_mat.T @ sy)
    return grad_v, grad_w


def gradient(
    features: FeatureMatrix, model: PrototypeModel, hyper: Hyperparams
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the total loss w.r.t. prototypes and score
    weights. The absolute-value terms use subgradient 0 at exact ties."""
    return _gradient(features, model, hyper, _forward(features, model))


def accuracy_score_diff(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean absolute score difference; estimates are clamped to [0, 1]."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape:
        raise ValueError("score vectors must have equal length")
    return float(np.mean(np.abs(y - np.clip(y_hat, 0.0, 1.0))))


def apply_model(
    features: FeatureMatrix, model: PrototypeModel
) -> tuple[np.ndarray, Ranking]:
    """Estimated scores and the ranking they induce (descending score,
    ascending-id tie break). Raises ValueError when a score is not finite, as
    after a diverging last update."""
    y_hat = soft_assignments(features, model) @ model.score_weights
    if not np.isfinite(y_hat).all():
        raise ValueError("the model's estimated scores are not all finite")
    return y_hat, rank_by_score(features.ids, features.protected, y_hat)


def _trace(
    features: FeatureMatrix,
    hyper: Hyperparams,
    fwd: _Forward,
    scale: Scale,
    id_ranks: np.ndarray,
    iteration: int,
) -> TraceRecord:
    l_x, l_y, l_z = _losses(features, fwd)
    total = hyper.a_x * l_x + hyper.a_y * l_y + hyper.a_z * l_z
    flags = features.protected[rank_order(fwd.y_hat, id_ranks)]
    _, [values] = scale.measure(np.cumsum(flags)[scale.cutoffs - 1])
    score_diff = accuracy_score_diff(features.y, fwd.y_hat)
    return TraceRecord(iteration, total, l_x, l_y, l_z, *values, score_diff)


def train(
    features: FeatureMatrix, hyper: Hyperparams, step: int = 10
) -> tuple[PrototypeModel, list[TraceRecord]]:
    """Full-batch gradient descent. Prototypes start at a seeded sample of K
    distinct data rows, score weights at 0.5. One trace record per iteration,
    evaluated before that iteration's update."""
    if hyper.k > features.n:
        raise ValueError(f"k={hyper.k} exceeds row count {features.n}")
    rng = np.random.default_rng(hyper.seed)
    idx = rng.choice(features.n, size=hyper.k, replace=False)
    v = features.x[idx].copy()
    w = np.full(hyper.k, 0.5)

    id_ranks = id_rank(features.ids)
    scale = Scale.of(features.n, int(np.count_nonzero(features.protected)), step)
    traces: list[TraceRecord] = []
    prev_total: Optional[float] = None
    for it in range(hyper.max_iters):
        model = PrototypeModel(prototypes=v, score_weights=w)
        # one forward pass feeds the trace record and the gradient step
        fwd = _forward(features, model)
        rec = _trace(features, hyper, fwd, scale, id_ranks, it)
        if not np.isfinite(rec.total):
            raise DivergenceError(it)
        traces.append(rec)
        if (
            hyper.early_stop_rel_tol > 0
            and prev_total is not None
            and abs(prev_total - rec.total)
            <= hyper.early_stop_rel_tol * max(abs(prev_total), 1e-12)
        ):
            break
        prev_total = rec.total
        grad_v, grad_w = _gradient(features, model, hyper, fwd)
        v = v - hyper.learning_rate * grad_v
        w = w - hyper.learning_rate * grad_w
    return PrototypeModel(prototypes=v, score_weights=w), traces


def write_trace_csv(traces: Sequence[TraceRecord], path: str | Path) -> None:
    write_csv(
        path,
        ["iter", "L", "L_x", "L_y", "L_z", "rnd", "rkl", "rrd", "score_diff"],
        # the record's fields are in the header's order
        ([t.iteration, *map(fmt, astuple(t)[1:])] for t in traces),
    )


def save_model(
    model: PrototypeModel, hyper: Hyperparams, path: str | Path
) -> None:
    payload = {
        "K": model.k,
        "m": model.prototypes.shape[1],
        "prototypes": [float(v) for v in model.prototypes.ravel()],
        "score_weights": [float(w) for w in model.score_weights],
        "hyperparams": {
            "a_x": hyper.a_x,
            "a_y": hyper.a_y,
            "a_z": hyper.a_z,
            "k": hyper.k,
            "learning_rate": hyper.learning_rate,
            "max_iters": hyper.max_iters,
            "early_stop_rel_tol": hyper.early_stop_rel_tol,
        },
        "seed": hyper.seed,
    }
    with open_atomic(path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
