"""Rankings with binary protected-group flags, cutoff schedules, and the
reading and writing of every CSV file.

A ranking is three parallel columns in rank order (ids, protected flags,
optional scores), read-only once built; position 1 is the best. Its length
and column shapes are checked whenever one is built, and its ids are checked
for repeats where they enter: a ``Ranking`` built directly, a read ranking
CSV, ``rank_by_score``. A ranking made from ids that cannot repeat (numbered
or generated rows, a permutation of a checked ranking) is built by
``Ranking._trusted``, which skips that check. Ingest and the optimizer order
rows by one routine.

Both readers open their input through ``open_csv`` and take it in blocks of
256 rows, each transposed once into columns that are checked and typed in
bulk; a row is looked at on its own only when a bulk check fails. Every output
file, CSV or not, is written through ``open_atomic``: UTF-8 with LF line
endings, put in place by a rename only once it is complete. Every output
table is turned into text by ``_format_rows``: one ``%``-format call per block
of at most ``_WRITE_ROWS`` rows, so a writer holds one block's values and text
at a time. Reals are written by ``%f``: 6 decimals, the same text as
``f"{x:.6f}"``, ``inf``, ``nan`` and ``-0.000000`` included.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import re
import stat
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np


class ValidationError(ValueError):
    """A ranking violates structural invariants; ``errors`` lists all of them."""

    def __init__(self, errors: Sequence[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


class RankingFormatError(ValueError):
    """A ranking CSV file could not be parsed."""


def duplicates(ids: Sequence[str]) -> list[str]:
    """Every id equal to an earlier one, in order. Ids are compared only where
    their hashes are equal, so no set of every id is built."""
    hashes = np.fromiter(map(hash, ids), dtype=np.int64, count=len(ids))
    hashes.sort()
    shared = hashes[1:][hashes[1:] == hashes[:-1]]
    if not shared.size:
        return []
    rows = np.isin(np.fromiter(map(hash, ids), np.int64, len(ids)), shared)
    seen: set[str] = set()
    return [ids[r] for r in np.flatnonzero(rows).tolist() if ids[r] in seen or seen.add(ids[r])]


@dataclass(frozen=True, eq=False)
class Ranking:
    """Parallel columns in rank order, ``ids[0]`` at position 1; ``scores`` is
    None or holds NaN for an item without one. Raises :class:`ValidationError`,
    listing every violation, unless n >= 2 and the ids are unique."""

    ids: tuple[str, ...]
    flags: np.ndarray
    scores: Optional[np.ndarray] = None
    n_plus: int = field(init=False)

    def __post_init__(self):
        self._set_columns(self.ids, self.flags, self.scores, check_ids=True)

    @classmethod
    def _trusted(cls, ids: Sequence[str], flags, scores=None) -> Ranking:
        """A ranking whose ids are known to be unique: built with every check
        of ``Ranking(...)`` but the one for repeated ids."""
        ranking = object.__new__(cls)
        ranking._set_columns(ids, flags, scores, check_ids=False)
        return ranking

    def _set_columns(self, ids, flags, scores, check_ids: bool) -> None:
        ids = tuple(ids)
        errors = [f"n < 2 (got {len(ids)})"] if len(ids) < 2 else []
        if check_ids:
            errors += [f"duplicate id {rid!r}" for rid in duplicates(ids)]
        if errors:
            raise ValidationError(errors)
        flags = np.array(flags, dtype=bool)
        scores = None if scores is None else np.array(scores, dtype=float)
        if flags.shape != (len(ids),) or scores is not None and scores.shape != (len(ids),):
            raise ValueError("ids, flags and scores must have one entry per item")
        for name, value in [("ids", ids), ("flags", flags), ("scores", scores)]:
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n_plus", int(np.count_nonzero(flags)))

    @property
    def n(self) -> int:
        return len(self.ids)


def id_rank(ids: Sequence[str]) -> np.ndarray:
    """The row indices with the ids in Python string order (equal ids keep
    their row order): the tie order of ``rank_order``."""
    return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)


def rank_order(scores: np.ndarray, id_order: np.ndarray) -> np.ndarray:
    """Row indices by descending score, ties broken by ascending id: one
    stable sort of the scores taken in ``id_rank`` order."""
    return id_order[np.argsort(-scores[id_order], kind="stable")]


def rank_by_score(ids: Sequence[str], flags: Sequence[bool], scores: np.ndarray) -> Ranking:
    """The ranking of rows by descending score, ties broken by ascending id;
    the ids are checked for repeats, as by ``Ranking(...)``."""
    return Ranking(*_by_score(ids, flags, scores))


def _by_score(ids: Sequence[str], flags: Sequence[bool], scores: np.ndarray) -> tuple:
    """The columns of ``rank_by_score``'s ranking, in rank order."""
    order = rank_order(scores, id_rank(ids))
    return tuple(np.array(ids, dtype=object)[order]), np.asarray(flags)[order], scores[order]


def build_schedule(n: int, step: int = 10) -> np.ndarray:
    """The cutoffs, a read-only int array: the multiples of ``step`` up to
    ``n``, with ``n`` appended when it is not itself a multiple; for
    ``n < step`` the schedule is the single cutoff ``[n]``.
    """
    if n < 2:
        raise ValueError(f"need at least 2 items, got n={n}")
    if step < 2:
        raise ValueError(f"step must be >= 2, got {step}")
    # a step above n, even one beyond int64, leaves the single cutoff n
    cutoffs = np.arange(step, n + 1, step) if step <= n else np.array([n])
    if cutoffs[-1] != n:
        cutoffs = np.append(cutoffs, n)
    cutoffs.flags.writeable = False
    return cutoffs


# A block holds fewer row lists than the 700 net allocations that start a
# young-generation garbage collection, so a block is mostly freed before any
# collection scans it or promotes it to an older generation.
_BLOCK_ROWS = 256
_Blocks = Iterator[tuple[int, list[list[str]]]]


@contextmanager
def open_csv(path: Path, error: type[Exception]) -> Iterator[tuple[list[str], _Blocks]]:
    """The header of a CSV file and its other rows as ``(first_line, rows)``
    blocks of at most ``_BLOCK_ROWS`` rows; the header is line 1, one line per
    record. A UTF-8 byte order mark before the header is skipped. ``error`` is
    raised when the file is missing or empty, is not UTF-8, or has a record the
    csv module rejects, such as a field over its size limit."""
    if not path.exists():
        raise error(f"no such file: {path}")
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise error(f"{path}: empty file")
            yield header, _blocks(reader)
        except csv.Error as exc:
            raise error(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def _blocks(reader: Iterator[list[str]]) -> _Blocks:
    line = 2
    while rows := list(itertools.islice(reader, _BLOCK_ROWS)):
        yield line, rows
        line += len(rows)


@contextmanager
def open_atomic(path: str | Path) -> Iterator[TextIO]:
    """A text file, UTF-8 with LF line endings, that replaces ``path`` only
    when the block exits without an exception. It is written as a temp file in
    ``path``'s directory and renamed over ``path``; on any exception the temp
    file is removed. The file gets the mode that ``open(path, "w")`` would
    leave: that of the file it replaces, else 0o666 less the umask. An OS
    error in creating, writing or renaming the temp file is raised naming
    ``path``."""
    path, tmp = Path(path), None
    try:
        name = os.path.join(path.parent, f"tmp{os.urandom(8).hex()}.tmp")
        fd = os.open(name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        tmp = name
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if path.exists():
                os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError) and (tmp is None or exc.filename in (None, tmp)):
            raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
        raise


# The most rows formatted by one ``%`` call: a block's values and text take a
# few hundred KB, whatever the length of the table.
_WRITE_ROWS = 4096
# every character that makes an id quoted
_QUOTED_CHAR = re.compile('[,"\r\n]').search


def _csv_cell(text: str) -> str:
    """``text`` as one CSV field: in quotes, each quote doubled, when it holds
    a comma, a quote, CR or LF, so that ``open_csv`` reads it back whole."""
    return '"' + text.replace('"', '""') + '"' if _QUOTED_CHAR(text) else text


def _format_rows(
    row: str, columns: Sequence, blank: Optional[str] = None, nan_column: int = -1
) -> Iterator[str]:
    """The text of every row of ``columns`` (parallel and sliceable) put
    through the ``%``-template ``row``, one ``%`` call per block of at most
    ``_WRITE_ROWS`` rows. A block of a column that is a numpy array is
    converted with ``tolist``, and a block of ``str`` is quoted by
    ``_csv_cell`` where it needs to be. With ``blank``, a row whose
    ``nan_column`` is NaN or None is put through ``blank`` instead, which
    consumes that value with ``%.0s``."""
    width, n = len(columns), min(map(len, columns), default=0)
    for start in range(0, n, _WRITE_ROWS):
        stop = min(start + _WRITE_ROWS, n)
        block = [column[start:stop] for column in columns]
        template = row * (stop - start)
        if blank is not None:
            nan = np.isnan(np.asarray(block[nan_column], dtype=float))
            if nan.any():
                templates = np.array([row, blank], dtype=object)
                template = "".join(templates[nan.view(np.uint8)].tolist())
        # the values row by row: column k fills every width-th slot from k
        values = [None] * (width * (stop - start))
        for k, cells in enumerate(block):
            if isinstance(cells, np.ndarray):
                cells = cells.tolist()
            elif cells and isinstance(cells[0], str) and _QUOTED_CHAR("".join(cells)):
                cells = list(map(_csv_cell, cells))
            values[k::width] = cells
        yield template % tuple(values)


def _write_table(path: str | Path, header: str, *rows) -> None:
    """Write ``header``, then the text of ``_format_rows(*rows)``, through
    ``open_atomic``."""
    with open_atomic(path) as fh:
        fh.write(header)
        fh.writelines(_format_rows(*rows))


def write_ranking_csv(ranking: Ranking, path: str | Path) -> None:
    """Write the ranking CSV format: header ``id,protected,score``, rows in
    rank order; a missing (NaN) score is empty, every other score ``%f``,
    and an id is quoted by ``_csv_cell``. Rows are formatted and written a
    block at a time, by ``_format_rows``."""
    header, columns = "id,protected,score\n", [ranking.ids, ranking.flags.view(np.uint8)]
    if ranking.scores is None:
        _write_table(path, header, "%s,%s,\n", columns)
    else:
        _write_table(path, header, "%s,%s,%f\n", [*columns, ranking.scores], "%s,%s,%.0s\n")


def read_ranking_csv(path: str | Path) -> Ranking:
    """Read the ranking CSV format. Each block of rows is transposed into
    columns, whose flags and scores are checked in bulk; its rows are parsed
    one by one only when a check fails. Each column grows in one buffer, so
    no block outlives its turn."""
    path = Path(path)
    ids: list[str] = []
    flags, scores = bytearray(), array("d")
    with open_csv(path, RankingFormatError) as (header, blocks):
        if header[:2] != ["id", "protected"]:
            raise RankingFormatError(
                f"{path}: expected header id,protected[,score], got {header}"
            )
        has_score = len(header) > 2 and header[2] == "score"
        for lineno, rows in blocks:
            # zip stops at the shortest row, so a short row leaves a column out
            cols = list(zip(*rows))
            try:
                # a short row, a bad flag or score, or an empty score takes the row scan
                if not {"0", "1"}.issuperset(cols[1]):
                    raise ValueError("bad flag")
                if has_score:
                    block = np.fromiter(map(float, cols[2]), float, len(rows))
                    if not np.isfinite(block).all():
                        raise ValueError("non-finite score")
                    scores.frombytes(block.tobytes())
            except (IndexError, ValueError):
                scores.fromlist(_parse_rows(path, rows, has_score, lineno))
            ids += cols[0]
            flags += "".join(cols[1]).encode()
    ranked_ids = tuple(ids)
    del ids  # before ``Ranking`` checks the ids for repeats
    return Ranking(
        ranked_ids,
        np.frombuffer(flags, np.uint8) == ord("1"),
        np.frombuffer(scores) if has_score else None,
    )


def _parse_rows(path: Path, rows: list[list[str]], has_score: bool, lineno: int) -> list:
    """Scores parsed row by row (NaN when empty), raising for the first bad row."""
    scores = []
    for lineno, row in enumerate(rows, start=lineno):
        if len(row) < 2:
            raise RankingFormatError(f"{path}:{lineno}: too few fields")
        if row[1] not in ("0", "1"):
            raise RankingFormatError(
                f"{path}:{lineno}: protected must be 0 or 1, got {row[1]!r}"
            )
        cell = row[2] if has_score and len(row) > 2 else ""
        try:
            scores.append(float(cell) if cell else math.nan)
        except ValueError:
            raise RankingFormatError(f"{path}:{lineno}: bad score {cell!r}") from None
        if cell and not math.isfinite(scores[-1]):
            raise RankingFormatError(f"{path}:{lineno}: non-finite score {cell!r}")
    return scores
