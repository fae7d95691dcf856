from typing import Sequence

import numpy as np
import pytest

from rankfair.fairopt import FeatureMatrix
from rankfair.measures import MeasureKind, parity_term
from rankfair.ranking import CutoffSchedule, Ranking


def biased_feature_matrix(seed: int = 7) -> FeatureMatrix:
    """100 rows, 4 features, 30 protected. Features and scores are shifted
    against the protected group, so the score-induced ranking puts most
    protected items near the bottom (rKL of that ranking is well above 0.2
    for this seed; asserted where it matters)."""
    rng = np.random.default_rng(seed)
    n, m = 100, 4
    prot = np.zeros(n, dtype=bool)
    prot[:30] = True
    shift = np.where(prot, -0.35, 0.35)[:, None] * np.array([1, 1, 0.5, 0.5])
    x = np.clip(rng.normal(0.5, 0.15, (n, m)) + shift, 0, 1)
    raw = x.mean(axis=1) + rng.normal(0, 0.03, n)
    y = (raw - raw.min()) / (raw.max() - raw.min())
    return FeatureMatrix(
        x=x, protected=prot, y=y, ids=tuple(f"i{j:03d}" for j in range(n))
    )


@pytest.fixture
def biased_features() -> FeatureMatrix:
    return biased_feature_matrix()


def unnormalized_sum(
    kind: MeasureKind,
    counts: Sequence[tuple[int, int]],
    n: int,
    n_plus: int,
) -> float:
    """Discounted sum of parity terms over the given (cutoff, count) pairs."""
    acc = 0.0
    for i, c in counts:
        acc += parity_term(kind, i, c, n, n_plus) / float(np.log2(i))
    return acc


def prefix_counts(
    ranking: Ranking, schedule: CutoffSchedule
) -> tuple[tuple[int, int], ...]:
    """Pairs ``(i, c_i)`` where ``c_i`` is the number of protected items among
    the top ``i``."""
    if schedule.cutoffs[-1] > ranking.n:
        raise ValueError(
            f"cutoff {schedule.cutoffs[-1]} exceeds ranking length {ranking.n}"
        )
    cum = np.cumsum(ranking.protected_flags())
    idx = np.asarray(schedule.cutoffs, dtype=int) - 1
    return tuple(zip(schedule.cutoffs, (int(c) for c in cum[idx])))
