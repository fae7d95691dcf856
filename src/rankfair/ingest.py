"""Tabular datasets: loading, protected-group derivation and score-based ranking.

Columns are arrays, typed block by block as the file is read: float64 when
every value in the column parses with Python's ``float()``, else strings. A
missing value is an error unless its row is dropped; nothing is imputed. Rows
rank by descending score, ties broken by ascending row id, so repeated runs
are byte-identical.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .ranking import Ranking, duplicates, open_csv, rank_by_score


class TableLoadError(ValueError):
    """File missing, ragged, a repeated column name, duplicate ids, no data
    rows, a missing cell or a non-finite number in a column that is used."""


class UnknownColumnError(KeyError):
    """A spec references a column the table does not have."""

    def __str__(self) -> str:
        return f"unknown column {self.args[0]!r}"


class SpecError(ValueError):
    """A predicate or score spec does not match the column's type."""


@dataclass(frozen=True)
class DatasetTable:
    columns: tuple[str, ...]
    row_ids: tuple[str, ...]
    # read-only columns: float64 when numeric, object (str) when categorical
    data: dict[str, np.ndarray]
    dropped_rows: tuple[str, ...] = ()

    def column(self, name: str) -> np.ndarray:
        if name not in self.data:
            raise UnknownColumnError(name)
        return self.data[name]

    def is_numeric(self, name: str) -> bool:
        return self.column(name).dtype == np.float64

    def normalized(self, name: str) -> np.ndarray:
        """The column min-max scaled to [0, 1]."""
        if not self.is_numeric(name):
            raise SpecError(
                f"min-max normalization needs a numeric column, {name!r} is not"
            )
        return minmax_normalize(self.column(name))


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
    path: str | Path, row_id_column: Optional[str] = None, drop_incomplete_rows: bool = False
) -> DatasetTable:
    """Load a headered CSV; without ``row_id_column`` rows are numbered from 1.
    Each block of rows is checked as it is read: a ragged row raises at once, a
    missing cell only after the last block, so a ragged row anywhere wins.

    Each block is typed as it arrives: a column is kept as floats while every
    value so far parses, and its text is dropped (the row-id column keeps it).
    A column that first fails to parse in a later block turns to text there,
    and its earlier text is read again from the file at the end."""
    path = Path(path)
    with open_csv(path, TableLoadError) as (header, blocks):
        if repeated := duplicates(header):
            raise TableLoadError(f"{path}: duplicate column {repeated[0]!r}")
        if row_id_column is not None and row_id_column not in header:
            raise UnknownColumnError(row_id_column)
        id_pos = None if row_id_column is None else header.index(row_id_column)
        width = len(header)
        # per column: its floats while every value parses, else its text
        columns: list[array | list[str]] = [array("d") for _ in header]
        ids: list[str] = []
        reread: dict[int, int] = {}  # column -> rows typed before it failed
        n_rows, dropped, first_incomplete = 0, [], None
        for first, rows in blocks:
            if set(map(len, rows)) != {width}:
                line, row = next((i, r) for i, r in enumerate(rows, first) if len(r) != width)
                raise TableLoadError(f"{path}:{line}: expected {width} fields, got {len(row)}")
            cols = list(zip(*rows))
            if any("" in col for col in cols):
                holes = [i for i, row in enumerate(rows, first) if "" in row]
                first_incomplete = first_incomplete or (holes[0], rows[holes[0] - first])
                dropped += (f"line {i}" for i in holes)
                rows = [row for row in rows if "" not in row]
                cols = list(zip(*rows))
            if id_pos is not None and rows:
                ids += cols[id_pos]
            for j, col in enumerate(cols):
                values = columns[j]
                if isinstance(values, array):
                    try:
                        values.extend(map(float, col))
                        continue
                    except ValueError:
                        if n_rows:
                            reread[j] = n_rows
                        values = columns[j] = []
                values += col
            n_rows += len(rows)
    if first_incomplete and not drop_incomplete_rows:
        line, row = first_incomplete
        missing = header[row.index("")]
        raise TableLoadError(f"{path}:{line}: missing value in column {missing!r}")
    if not n_rows:
        raise TableLoadError(f"{path}: no data rows")
    row_ids = tuple(ids) if id_pos is not None else tuple(map(str, range(1, n_rows + 1)))
    del ids  # before the repeat check's arrays are made
    # numbered rows cannot repeat
    if id_pos is not None and (repeated := duplicates(row_ids)):
        raise TableLoadError(f"{path}: duplicate row id {repeated[0]!r}")

    earlier = _first_rows(path, reread) if reread else {}
    data = {}
    for j, (name, values) in enumerate(zip(header, columns)):
        if isinstance(values, array):
            col = np.frombuffer(values, dtype=float)
        else:
            head = earlier.get(j, [])
            col = np.empty(n_rows, dtype=object)
            col[: len(head)] = head
            col[len(head) :] = values
        col.flags.writeable = False
        data[name] = col
    return DatasetTable(tuple(header), row_ids, data, tuple(dropped))


def _first_rows(path: Path, counts: dict[int, int]) -> dict[int, list[str]]:
    """The text of column ``j`` in the first ``counts[j]`` complete rows, for
    each ``j``: read again from the file with ``load_table``'s row filter."""
    text: dict[int, list[str]] = {j: [] for j in counts}
    with open_csv(path, TableLoadError) as (_, blocks):
        for _, rows in blocks:
            if all(len(text[j]) == count for j, count in counts.items()):
                break
            rows = [row for row in rows if "" not in row]
            for j, col in text.items():
                col += (row[j] for row in rows[: counts[j] - len(col)])
    return text


def require_finite(table: DatasetTable, name: str) -> None:
    """Reject ``nan``/``inf`` in a numeric column, naming the first offending
    row id: either one silently breaks the score sort or the threshold test."""
    finite = np.isfinite(table.column(name))
    if not finite.all():
        r = int(np.argmin(finite))
        raise TableLoadError(
            f"column {name!r} has non-finite value {float(table.column(name)[r])!r} "
            f"at row id {table.row_ids[r]!r}"
        )


def derive_protected(table: DatasetTable, spec: ProtectedSpec) -> tuple[np.ndarray, float]:
    """Per-row protected flags and the protected proportion. On a numeric
    column every value must be finite and the target must not be NaN, which
    compares false and so would make every row nonprotected."""
    col, target = table.column(spec.column), spec.value
    if spec.predicate not in ("less_than", "equals"):
        raise SpecError(f"unknown predicate {spec.predicate!r}")
    if spec.predicate == "less_than" and not table.is_numeric(spec.column):
        raise SpecError(f"less_than needs a numeric column, {spec.column!r} is not")
    if table.is_numeric(spec.column):
        try:
            target = float(target)  # type: ignore[arg-type]
        except ValueError:
            raise SpecError(
                f"equals needs a number for numeric column {spec.column!r}, got {target!r}"
            ) from None
        if np.isnan(target):
            raise SpecError(f"{spec.predicate} target must not be NaN, got {target!r}")
        require_finite(table, spec.column)
    flags = col < target if spec.predicate == "less_than" else col == target
    return flags, int(np.count_nonzero(flags)) / flags.size


def minmax_normalize(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scale to [0, 1]; a constant column maps to all zeros."""
    values = np.asarray(values)
    if values.dtype != np.float64:
        raise SpecError("min-max normalization needs a numeric column")
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.zeros(values.size)
    if np.isinf(hi - lo):  # the range overflows; halving is exact at this magnitude
        values, lo, hi = values / 2, lo / 2, hi / 2
    return (values - lo) / (hi - lo)


def compute_scores(table: DatasetTable, spec: ScoreSpec) -> np.ndarray:
    if spec.mode not in ("single_attribute", "equal_weight_sum"):
        raise SpecError(f"unknown score mode {spec.mode!r}")
    if not spec.columns or spec.mode == "single_attribute" and len(spec.columns) > 1:
        raise SpecError(f"{spec.mode} score cannot use {len(spec.columns)} columns")
    for name in spec.columns:
        if not table.is_numeric(name):
            raise SpecError(f"score column {name!r} is not numeric")
        require_finite(table, name)
    if spec.mode == "single_attribute":
        return table.column(spec.columns[0])
    # starting from +0.0, like the per-row sum did, a -0.0 term adds up to +0.0
    total = np.zeros(len(table.row_ids))
    for name in spec.columns:
        total += table.normalized(name)
    return total / len(spec.columns)


def score_and_rank(
    table: DatasetTable, score_spec: ScoreSpec, protected: Sequence[bool]
) -> Ranking:
    """Rank rows by descending score, ties broken by ascending row id."""
    return rank_by_score(table.row_ids, protected, compute_scores(table, score_spec))
