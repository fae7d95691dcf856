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
deterministic given the seed. Each iteration runs one forward pass, which
computes the three losses once; the weighted total, the trace record and the
gradient step all read them from it.

The training kernels work column by column: a sum over one row's m features
or K prototypes is one vectorized add per column over all n rows, never a
reduction over a short row. The adds follow numpy's pairwise order for a row
sum, so every value is bit for bit what ``np.sum(axis=1)`` gives; the model
files store the prototypes at full precision, and a different order would
change their last digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

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
        if self.x.ndim != 2 or self.x.shape[1] < 1:
            raise ValueError("features must be an (n, m) matrix with m >= 1")
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
        for name in ("a_x", "a_y", "a_z"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if max(self.a_x, self.a_y, self.a_z) <= 0:
            raise ValueError("at least one loss weight must be positive")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


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


def _pairwise_row_sums(columns: Iterable[np.ndarray], width: int) -> np.ndarray:
    """Row sums of the (n, width) matrix whose columns ``columns`` yields left
    to right, bit for bit ``np.sum(a, axis=1)`` of that matrix held
    C-contiguous. numpy sums a contiguous row pairwise and adds the result to
    +0.0; doing the same adds column by column costs one vectorized add per
    column instead of one reduction per short row."""
    return _pairwise(iter(columns), width) + 0.0


def _pairwise(columns: Iterator[np.ndarray], width: int) -> np.ndarray:
    """numpy's pairwise order over the next ``width`` columns: one after
    another below 8; up to 128, eight running sums closed by a fixed tree,
    then the remainder; above 128, two halves, the first a multiple of 8."""
    if width > 128:
        half = width // 2 - width // 2 % 8
        return _pairwise(columns, half) + _pairwise(columns, width - half)
    if width < 8:
        total = next(columns)
        for _ in range(width - 1):
            total = total + next(columns)
        return total
    r = [next(columns) for _ in range(8)]
    for _ in range(width // 8 - 1):
        r = [acc + next(columns) for acc in r]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for _ in range(width % 8):
        total = total + next(columns)
    return total


def soft_assignments(features: FeatureMatrix, model: PrototypeModel) -> np.ndarray:
    """(n, K) row-stochastic matrix: softmax over negative squared distances
    to the prototypes, computed with max subtraction."""
    if features.m != model.prototypes.shape[1]:
        raise ValueError(
            f"feature dim {features.m} != prototype dim "
            f"{model.prototypes.shape[1]}"
        )
    out = np.empty((features.n, model.k))
    logits = out.T  # one row per prototype, a strided view of out's columns
    # overflow here just produces non-finite assignments, which training
    # reports as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        # column by column: every temporary is one column of n floats
        for logit, v_k in zip(logits, model.prototypes):
            diffs = (col - t for col, t in zip(features.x.T, v_k))
            squares = (np.square(d, out=d) for d in diffs)
            np.negative(_pairwise_row_sums(squares, features.m), out=logit)
        # the maximum is exact in any order
        top = logits[0].copy()
        for logit in logits[1:]:
            np.maximum(top, logit, out=top)
        out -= top[:, None]
        np.exp(out, out=out)
        out /= _pairwise_row_sums(logits, model.k)[:, None]
    return out


class _Forward(NamedTuple):
    """One forward pass: assignments, reconstruction residuals, estimated
    scores, the protected minus the nonprotected mean assignment vector, and
    the three losses computed from them."""

    m_mat: np.ndarray  # (n, K)
    residual: np.ndarray  # (n, m), x_hat - x
    y_hat: np.ndarray  # (n,)
    mu_diff: np.ndarray  # (K,), protected minus nonprotected rows
    losses: tuple[float, float, float]  # (L_x, L_y, L_z)


def _forward(features: FeatureMatrix, model: PrototypeModel) -> _Forward:
    m_mat = soft_assignments(features, model)
    residual = m_mat @ model.prototypes
    residual -= features.x
    y_hat = m_mat @ model.score_weights
    prot = features.protected
    mu_diff = m_mat[prot].mean(axis=0) - m_mat[~prot].mean(axis=0)
    squares = (np.square(col) for col in residual.T)
    l_x = float(np.mean(_pairwise_row_sums(squares, features.m)))
    l_y = float(np.mean(np.abs(features.y - y_hat)))
    l_z = float(np.sum(np.abs(mu_diff)))
    return _Forward(m_mat, residual, y_hat, mu_diff, (l_x, l_y, l_z))


def _weighted_total(hyper: Hyperparams, losses: tuple[float, float, float]) -> float:
    l_x, l_y, l_z = losses
    return hyper.a_x * l_x + hyper.a_y * l_y + hyper.a_z * l_z


def losses(
    features: FeatureMatrix, model: PrototypeModel
) -> tuple[float, float, float]:
    return _forward(features, model).losses


def total_loss(
    features: FeatureMatrix, model: PrototypeModel, hyper: Hyperparams
) -> float:
    return _weighted_total(hyper, losses(features, model))


def _gradient(
    features: FeatureMatrix, model: PrototypeModel, hyper: Hyperparams, fwd: _Forward
) -> tuple[np.ndarray, np.ndarray]:
    n = features.n
    v, w = model.prototypes, model.score_weights
    m_mat, residual = fwd.m_mat, fwd.residual

    sy = np.sign(fwd.y_hat - features.y)

    # dL/dM, holding the explicit v-dependence of x_hat fixed; the terms
    # share one (n, K) buffer instead of allocating an array each. A zero
    # weight skips its term: adding 0 * term could still flip a signed zero
    # or spread a non-finite value
    g = np.zeros_like(m_mat)
    term = np.empty_like(m_mat)
    if hyper.a_x:
        np.matmul(residual, v.T, out=term)
        term *= hyper.a_x * (2.0 / n)
        g += term
    if hyper.a_y:
        np.multiply(sy[:, None], w, out=term)
        term *= hyper.a_y * (1.0 / n)
        g += term
    if hyper.a_z:
        # d mu_diff / d M per row: 1/n_p on protected rows, -1/n_m on the others
        n_p = int(np.count_nonzero(features.protected))
        group_scale = np.where(features.protected, 1.0 / n_p, -1.0 / (n - n_p))
        np.multiply(hyper.a_z * group_scale[:, None], np.sign(fwd.mu_diff), out=term)
        g += term

    # back through the row-wise softmax over logits a_nk = -||x_n - v_k||^2:
    # b = M * (g - rowsum(g * M)), built in g
    np.multiply(g, m_mat, out=term)
    g -= _pairwise_row_sums(term.T, model.k)[:, None]
    b = np.multiply(g, m_mat, out=g)
    # d a_nk / d v_k = 2 (x_n - v_k)
    grad_v = 2.0 * (b.T @ features.x - b.sum(axis=0)[:, None] * v)
    if hyper.a_x:
        grad_v += hyper.a_x * (2.0 / n) * (m_mat.T @ residual)
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

    id_order = id_rank(features.ids)
    scale = Scale.of(features.n, int(np.count_nonzero(features.protected)), step)
    traces: list[TraceRecord] = []
    for it in range(hyper.max_iters):
        model = PrototypeModel(prototypes=v, score_weights=w)
        # one forward pass feeds the trace record and the gradient step
        fwd = _forward(features, model)
        total = _weighted_total(hyper, fwd.losses)
        if not math.isfinite(total):
            raise DivergenceError(it)
        flags = features.protected[rank_order(fwd.y_hat, id_order)]
        _, [values] = scale.measure(scale.counts(flags))
        score_diff = accuracy_score_diff(features.y, fwd.y_hat)
        traces.append(TraceRecord(it, total, *fwd.losses, *values, score_diff))
        if hyper.early_stop_rel_tol > 0 and len(traces) > 1:
            prev = traces[-2].total
            if abs(prev - total) <= hyper.early_stop_rel_tol * max(abs(prev), 1e-12):
                break
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
    hyperparams = asdict(hyper)
    del hyperparams["seed"]  # saved as its own key, after the hyperparams
    payload = {
        "K": model.k,
        "m": model.prototypes.shape[1],
        "prototypes": [float(v) for v in model.prototypes.ravel()],
        "score_weights": [float(w) for w in model.score_weights],
        "hyperparams": hyperparams,
        "seed": hyper.seed,
    }
    with open_atomic(path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
