"""Rankings with binary protected-group flags and cutoff schedules.

Position 1 is the best position. All types are immutable after construction
and all functions are pure, so values can be shared freely.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np


class ValidationError(ValueError):
    """A ranking violates one or more structural invariants.

    ``errors`` lists every violation found, not just the first.
    """

    def __init__(self, errors: Sequence[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


class RankingFormatError(ValueError):
    """A ranking CSV file could not be parsed."""


@dataclass(frozen=True)
class Item:
    id: str
    protected: bool
    score: Optional[float] = None


@dataclass(frozen=True)
class Ranking:
    """An ordered sequence of items; ``items[0]`` sits at position 1."""

    items: tuple[Item, ...]

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def n_plus(self) -> int:
        return sum(1 for it in self.items if it.protected)

    @property
    def n_minus(self) -> int:
        return self.n - self.n_plus

    def protected_flags(self) -> np.ndarray:
        return np.fromiter(
            (it.protected for it in self.items), dtype=bool, count=self.n
        )


@dataclass(frozen=True)
class CutoffSchedule:
    step: int
    cutoffs: tuple[int, ...]


def build_schedule(n: int, step: int = 10) -> CutoffSchedule:
    """Cutoffs are the multiples of ``step`` up to ``n``, with ``n`` appended
    when it is not itself a multiple; for ``n < step`` the schedule is the
    single cutoff ``[n]``.
    """
    if n < 2:
        raise ValueError(f"need at least 2 items, got n={n}")
    if step < 2:
        raise ValueError(f"step must be >= 2, got {step}")
    cutoffs = list(range(step, n + 1, step))
    if not cutoffs or cutoffs[-1] != n:
        cutoffs.append(n)
    return CutoffSchedule(step=step, cutoffs=tuple(cutoffs))


def validation_errors(ranking: Ranking) -> list[str]:
    errors = []
    if ranking.n < 2:
        errors.append(f"n < 2 (got {ranking.n})")
    seen: set[str] = set()
    for it in ranking.items:
        if it.id in seen:
            errors.append(f"duplicate id {it.id!r}")
        seen.add(it.id)
    return errors


def validate_ranking(ranking: Ranking) -> Ranking:
    """Return the ranking unchanged if well formed, else raise
    :class:`ValidationError` listing every violation."""
    errors = validation_errors(ranking)
    if errors:
        raise ValidationError(errors)
    return ranking


def _format_score(score: Optional[float]) -> str:
    return "" if score is None else f"{score:.6f}"


def write_ranking_csv(ranking: Ranking, path: str | Path) -> None:
    """Write the ranking CSV format: header ``id,protected,score``, rows in
    rank order, UTF-8, LF line endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "protected", "score"])
        for it in ranking.items:
            writer.writerow([it.id, int(it.protected), _format_score(it.score)])


def read_ranking_csv(path: str | Path) -> Ranking:
    path = Path(path)
    if not path.exists():
        raise RankingFormatError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
    return validate_ranking(Ranking(items=tuple(items)))


def ranking_from_flags(
    flags: Iterable[bool], scores: Optional[Sequence[float]] = None
) -> Ranking:
    """Convenience constructor: items get ids ``r1, r2, ...`` in rank order."""
    items = []
    for pos, flag in enumerate(flags, start=1):
        score = None if scores is None else float(scores[pos - 1])
        items.append(Item(id=f"r{pos}", protected=bool(flag), score=score))
    return Ranking(items=tuple(items))
