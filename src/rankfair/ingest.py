"""Tabular dataset loading, protected-group derivation and score-based
ranking.

Columns are typed numeric when every value parses as a number, categorical
otherwise. Missing values are a hard error unless rows are explicitly
dropped; nothing is imputed. Ranking order is descending score with ties
broken by ascending row id, so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .ranking import Item, Ranking, validate_ranking


class TableLoadError(ValueError):
    """File missing, ragged, duplicate ids, a missing cell or a non-finite
    number in a column that is used."""


class UnknownColumnError(KeyError):
    """A spec references a column the table does not have."""


class SpecError(ValueError):
    """A predicate or score spec does not match the column's type."""


@dataclass(frozen=True)
class DatasetTable:
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


@dataclass(frozen=True)
class ProtectedSpec:
    column: str
    predicate: str  # "equals" or "less_than"
    value: object

    @classmethod
    def equals(cls, column: str, value: str) -> "ProtectedSpec":
        return cls(column=column, predicate="equals", value=value)

    @classmethod
    def less_than(cls, column: str, threshold: float) -> "ProtectedSpec":
        return cls(column=column, predicate="less_than", value=float(threshold))


@dataclass(frozen=True)
class ScoreSpec:
    mode: str  # "single_attribute" or "equal_weight_sum"
    columns: tuple[str, ...]

    @classmethod
    def single_attribute(cls, column: str) -> "ScoreSpec":
        return cls(mode="single_attribute", columns=(column,))

    @classmethod
    def equal_weight_sum(cls, columns: Sequence[str]) -> "ScoreSpec":
        return cls(mode="equal_weight_sum", columns=tuple(columns))


def load_table(
    path: str | Path,
    row_id_column: Optional[str] = None,
    drop_incomplete_rows: bool = False,
) -> DatasetTable:
    """Load a headered CSV. Without ``row_id_column`` rows are numbered from
    1 in file order."""
    path = Path(path)
    if not path.exists():
        raise TableLoadError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
    return DatasetTable(
        columns=tuple(header),
        row_ids=tuple(row_ids),
        data=data,
        dropped_rows=tuple(dropped),
    )


def require_finite(table: DatasetTable, name: str) -> None:
    """Reject ``nan``/``inf`` in a numeric column, naming the first offending
    row id. ``float()`` parses both, and either one silently breaks the
    score sort or the threshold test."""
    col = table.column(name)
    # nan and inf always make the sum non-finite; an overflowing sum of
    # finite values only costs the scan below, which then finds nothing
    if math.isfinite(sum(col)):
        return
    for rid, v in zip(table.row_ids, col):
        if not math.isfinite(v):
            raise TableLoadError(
                f"column {name!r} has non-finite value {v!r} at row id {rid!r}"
            )


def derive_protected(
    table: DatasetTable, spec: ProtectedSpec
) -> tuple[list[bool], float]:
    """Per-row protected flags and the protected proportion."""
    col = table.column(spec.column)
    if spec.predicate == "less_than":
        if not table.is_numeric(spec.column):
            raise SpecError(
                f"less_than needs a numeric column, {spec.column!r} is not"
            )
        require_finite(table, spec.column)
        flags = [v < spec.value for v in col]
    elif spec.predicate == "equals":
        target = spec.value
        if table.is_numeric(spec.column):
            target = float(target)  # type: ignore[arg-type]
        flags = [v == target for v in col]
    else:
        raise SpecError(f"unknown predicate {spec.predicate!r}")
    return flags, sum(flags) / len(flags)


def minmax_normalize(values: Sequence[float]) -> list[float]:
    """Scale to [0, 1]; a constant column maps to all zeros."""
    if not all(isinstance(v, float) for v in values):
        raise SpecError("min-max normalization needs a numeric column")
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def compute_scores(table: DatasetTable, spec: ScoreSpec) -> list[float]:
    for name in spec.columns:
        if name not in table.data:
            raise UnknownColumnError(name)
        if not table.is_numeric(name):
            raise SpecError(f"score column {name!r} is not numeric")
        require_finite(table, name)
    if spec.mode == "single_attribute":
        return list(table.column(spec.columns[0]))
    normalized = [minmax_normalize(table.column(c)) for c in spec.columns]
    k = len(normalized)
    return [sum(col[r] for col in normalized) / k for r in range(table.n_rows)]


def score_and_rank(
    table: DatasetTable, score_spec: ScoreSpec, protected: Sequence[bool]
) -> Ranking:
    """Rank rows by descending score, ties broken by ascending row id."""
    scores = compute_scores(table, score_spec)
    order = sorted(
        range(table.n_rows), key=lambda r: (-scores[r], table.row_ids[r])
    )
    items = tuple(
        Item(id=table.row_ids[r], protected=bool(protected[r]), score=scores[r])
        for r in order
    )
    return validate_ranking(Ranking(items=items))
