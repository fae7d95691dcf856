import csv
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Optional, Sequence

import numpy as np
import pytest

from rankfair.fairopt import FeatureMatrix
from rankfair.ingest import (
    ScoreSpec,
    SpecError,
    TableLoadError,
    UnknownColumnError,
)
from rankfair.measures import DegenerateGroupError, MeasureKind, check_group
from rankfair.ranking import (
    Ranking,
    RankingFormatError,
    ValidationError,
)


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


# --- scalar references -------------------------------------------------------
#
# The set-wise parity term and the binary KL divergence behind rKL's term,
# each computed from its definition in Python floats, apart from the
# vectorized kernel ``_discounted_terms`` that they pin; and a ranking built
# from flags alone. The logarithm is numpy's ``log2`` on scalars, the one the
# kernel uses: ``math.log2`` differs from it by an ulp on some arguments, and
# the references pin the formulas, not the platform's log.


@dataclass(frozen=True)
class BinaryDistribution:
    p_plus: float
    p_minus: float

    def __post_init__(self):
        if not (0.0 <= self.p_plus <= 1.0 and 0.0 <= self.p_minus <= 1.0):
            raise ValueError("components must lie in [0, 1]")
        if abs(self.p_plus + self.p_minus - 1.0) > 1e-12:
            raise ValueError("components must sum to 1")


def kl_divergence(p: BinaryDistribution, q: BinaryDistribution) -> float:
    """Base-2 KL divergence between two binary distributions, with the
    0*log(0/q) = 0 convention, clamped at 0 (a negative value can only be
    rounding noise). Q must be strictly positive."""
    if q.p_plus <= 0.0 or q.p_minus <= 0.0:
        raise DegenerateGroupError(
            "reference distribution has a zero component"
        )
    plus, minus = (
        pk * float(np.log2(pk / qk)) if pk > 0.0 else 0.0
        for pk, qk in ((p.p_plus, q.p_plus), (p.p_minus, q.p_minus))
    )
    return max(plus + minus, 0.0)


def parity_term(
    kind: MeasureKind, i: int, c: int, n: int, n_plus: int
) -> float:
    """The undiscounted set-wise parity term at cutoff ``i`` with ``c``
    protected items in the prefix, from its definition, for a feasible ``c``:
    rND is |c/i - n+/n|, rKL is KL((c/i, (i-c)/i) || (n+/n, n-/n)), and rRD is
    |c/(i-c) - n+/n-|, where that fraction counts as 0 when c or i - c is 0.
    The measures, normalizers and report use the vectorized
    ``_discounted_terms``, which must yield this value divided by log2(i)."""
    check_group(n, n_plus)
    n_minus = n - n_plus
    lo, hi = max(0, i - n_minus), min(i, n_plus)
    if not lo <= c <= hi:
        raise ValueError(f"c={c} infeasible at cutoff {i} (range [{lo},{hi}])")
    if kind is MeasureKind.RND:
        return abs(c / i - n_plus / n)
    if kind is MeasureKind.RKL:
        return kl_divergence(
            BinaryDistribution(c / i, (i - c) / i),
            BinaryDistribution(n_plus / n, n_minus / n),
        )
    ratio = c / (i - c) if c > 0 and i - c > 0 else 0.0
    return abs(ratio - n_plus / n_minus)


def ranking_from_flags(
    flags: Iterable[bool], scores: Optional[Sequence[float]] = None
) -> Ranking:
    """Convenience constructor: items get ids ``r1, r2, ...`` in rank order."""
    flags = np.fromiter(flags, dtype=bool)
    return Ranking([f"r{pos}" for pos in range(1, flags.size + 1)], flags, scores)


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
    ranking: Ranking, cutoffs: np.ndarray
) -> tuple[tuple[int, int], ...]:
    """Pairs ``(i, c_i)`` at each cutoff ``i`` of a schedule, where ``c_i`` is
    the number of protected items among the top ``i``."""
    if cutoffs[-1] > ranking.n:
        raise ValueError(f"cutoff {cutoffs[-1]} exceeds ranking length {ranking.n}")
    cum = np.cumsum(ranking.flags)
    return tuple(zip(cutoffs.tolist(), cum[cutoffs - 1].tolist()))


def reference_merge_order(flags: np.ndarray, f: float, seed: int) -> np.ndarray:
    """Reference for ``merge_order``: the biased merge that finds the step
    where one group runs out and appends the two leftover tails."""
    flags = np.asarray(flags, dtype=bool)
    n = flags.size
    prot_idx = np.nonzero(flags)[0]
    nonp_idx = np.nonzero(~flags)[0]
    n_plus, n_minus = prot_idx.size, nonp_idx.size
    if n_plus == 0 or n_minus == 0:
        return np.arange(n)

    rng = np.random.default_rng(seed)
    # draws are consumed in order, so taking n up front matches drawing one
    # per merge step
    choice = rng.random(n) < f
    took_prot = np.cumsum(choice)
    took_nonp = np.arange(1, n + 1) - took_prot
    # first step at which either subsequence is exhausted
    t = int(np.nonzero((took_prot == n_plus) | (took_nonp == n_minus))[0][0]) + 1

    merged = np.where(
        choice[:t],
        prot_idx[took_prot[:t] - 1],
        nonp_idx[took_nonp[:t] - 1],
    )
    tails = [prot_idx[took_prot[t - 1] :], nonp_idx[took_nonp[t - 1] :]]
    return np.concatenate([merged, *tails])


def reference_id_rank(ids: Sequence[str]) -> np.ndarray:
    """Each row's position among the ids in Python string order (equal ids
    keep their row order)."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def reference_rank_order(scores: np.ndarray, id_ranks: np.ndarray) -> np.ndarray:
    """Reference for ``rank_order``: row indices by descending score, ties
    broken by ascending id rank, from ``np.lexsort``."""
    return np.lexsort((id_ranks, -scores))


def reference_write_ranking_csv(ranking: Ranking, path) -> None:
    """Reference for ``write_ranking_csv``: every row through ``csv.writer``,
    each score written by ``fmt`` (empty when NaN or absent). The writer ends
    rows with CRLF, so it quotes every field that holds CR or LF, and each
    row's CRLF is then written as LF."""
    scores = [""] * ranking.n
    if ranking.scores is not None:
        scores = ["" if s != s else f"{s:.6f}" for s in ranking.scores.tolist()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # csv.writer passes each row, CRLF included, to one write call
        lf_rows = SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n"))
        writer = csv.writer(lf_rows, lineterminator="\r\n")
        writer.writerow(["id", "protected", "score"])
        writer.writerows(zip(ranking.ids, ranking.flags.view(np.uint8).tolist(), scores))


# --- per-row references -------------------------------------------------------
#
# The per-row ``Item`` parsers and ranker that the columnar ``ranking`` and
# ``ingest`` code replaced, kept verbatim as references. Three adaptations: a
# ranking is returned as its validated tuple of ``Item``s, the validation is
# the old ``validation_errors`` loop over those items, and a file is read as
# ``utf-8-sig``, which skips a leading byte order mark as ``open_csv`` does.


@dataclass(frozen=True)
class Item:
    id: str
    protected: bool
    score: Optional[float] = None


def reference_validation_errors(items: Sequence[Item]) -> list[str]:
    errors = []
    if len(items) < 2:
        errors.append(f"n < 2 (got {len(items)})")
    seen: set[str] = set()
    for it in items:
        if it.id in seen:
            errors.append(f"duplicate id {it.id!r}")
        seen.add(it.id)
    return errors


def reference_validate(items: Sequence[Item]) -> tuple[Item, ...]:
    errors = reference_validation_errors(items)
    if errors:
        raise ValidationError(errors)
    return tuple(items)


def reference_read_ranking_csv(path) -> tuple[Item, ...]:
    path = Path(path)
    if not path.exists():
        raise RankingFormatError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise RankingFormatError(f"{path}: empty file") from None
        if header[:2] != ["id", "protected"]:
            raise RankingFormatError(
                f"{path}: expected header id,protected[,score], got {header}"
            )
        has_score = len(header) > 2 and header[2] == "score"
        items = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) < 2:
                raise RankingFormatError(f"{path}:{lineno}: too few fields")
            if row[1] not in ("0", "1"):
                raise RankingFormatError(
                    f"{path}:{lineno}: protected must be 0 or 1, got {row[1]!r}"
                )
            score: Optional[float] = None
            if has_score and len(row) > 2 and row[2] != "":
                try:
                    score = float(row[2])
                except ValueError:
                    raise RankingFormatError(
                        f"{path}:{lineno}: bad score {row[2]!r}"
                    ) from None
                if not math.isfinite(score):
                    raise RankingFormatError(
                        f"{path}:{lineno}: non-finite score {row[2]!r}"
                    )
            items.append(Item(id=row[0], protected=row[1] == "1", score=score))
    return reference_validate(items)


@dataclass(frozen=True)
class ReferenceTable:
    columns: tuple[str, ...]
    row_ids: tuple[str, ...]
    # numeric columns hold floats, categorical columns hold strings
    data: dict[str, list]
    dropped_rows: tuple[str, ...] = ()

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    def column(self, name: str) -> list:
        if name not in self.data:
            raise UnknownColumnError(name)
        return self.data[name]

    def is_numeric(self, name: str) -> bool:
        col = self.column(name)
        return all(isinstance(v, float) for v in col)


def reference_load_table(
    path, row_id_column: Optional[str] = None, drop_incomplete_rows: bool = False
) -> ReferenceTable:
    path = Path(path)
    if not path.exists():
        raise TableLoadError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TableLoadError(f"{path}: empty file") from None
        if row_id_column is not None and row_id_column not in header:
            raise UnknownColumnError(row_id_column)
        raw_rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise TableLoadError(
                    f"{path}:{lineno}: expected {len(header)} fields, "
                    f"got {len(row)}"
                )
            raw_rows.append((lineno, row))

    kept, dropped = [], []
    for lineno, row in raw_rows:
        missing = [header[j] for j, v in enumerate(row) if v == ""]
        if missing:
            if drop_incomplete_rows:
                dropped.append(f"line {lineno}")
                continue
            raise TableLoadError(
                f"{path}:{lineno}: missing value in column {missing[0]!r}"
            )
        kept.append((lineno, row))

    if row_id_column is not None:
        id_pos = header.index(row_id_column)
        row_ids = [row[id_pos] for _, row in kept]
    else:
        row_ids = [str(i + 1) for i in range(len(kept))]
    seen: set[str] = set()
    for rid in row_ids:
        if rid in seen:
            raise TableLoadError(f"{path}: duplicate row id {rid!r}")
        seen.add(rid)

    data: dict[str, list] = {}
    for j, name in enumerate(header):
        raw = [row[j] for _, row in kept]
        try:
            data[name] = [float(v) for v in raw]
        except ValueError:
            data[name] = raw
    return ReferenceTable(
        columns=tuple(header),
        row_ids=tuple(row_ids),
        data=data,
        dropped_rows=tuple(dropped),
    )


def reference_require_finite(table: ReferenceTable, name: str) -> None:
    col = table.column(name)
    if math.isfinite(sum(col)):
        return
    for rid, v in zip(table.row_ids, col):
        if not math.isfinite(v):
            raise TableLoadError(
                f"column {name!r} has non-finite value {v!r} at row id {rid!r}"
            )


def reference_minmax_normalize(values: Sequence[float]) -> list[float]:
    if not all(isinstance(v, float) for v in values):
        raise SpecError("min-max normalization needs a numeric column")
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def reference_compute_scores(table: ReferenceTable, spec: ScoreSpec) -> list[float]:
    for name in spec.columns:
        if name not in table.data:
            raise UnknownColumnError(name)
        if not table.is_numeric(name):
            raise SpecError(f"score column {name!r} is not numeric")
        reference_require_finite(table, name)
    if spec.mode == "single_attribute":
        return list(table.column(spec.columns[0]))
    normalized = [reference_minmax_normalize(table.column(c)) for c in spec.columns]
    k = len(normalized)
    return [sum(col[r] for col in normalized) / k for r in range(table.n_rows)]


def reference_score_and_rank(
    table: ReferenceTable, score_spec: ScoreSpec, protected: Sequence[bool]
) -> tuple[Item, ...]:
    scores = reference_compute_scores(table, score_spec)
    order = sorted(
        range(table.n_rows), key=lambda r: (-scores[r], table.row_ids[r])
    )
    items = tuple(
        Item(id=table.row_ids[r], protected=bool(protected[r]), score=scores[r])
        for r in order
    )
    return reference_validate(items)


def ranking_rows(ranking: Ranking) -> list[tuple]:
    """A ranking as (id, protected, score) rows, each score as ``float.hex``
    (so -0.0 differs from 0.0) or None when absent."""
    scores = [None] * ranking.n if ranking.scores is None else ranking.scores.tolist()
    return [
        (rid, flag, None if s is None or s != s else s.hex())
        for rid, flag, s in zip(ranking.ids, ranking.flags.tolist(), scores)
    ]


def item_rows(items: Sequence[Item]) -> list[tuple]:
    return [
        (it.id, it.protected, None if it.score is None else it.score.hex())
        for it in items
    ]


def outcome(fn, *args):
    """``(result, None)``, or ``(None, (exception type, message))``."""
    try:
        return fn(*args), None
    except Exception as exc:  # the property compares any failure
        return None, (type(exc), str(exc))
