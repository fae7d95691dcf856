import csv
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    item_rows,
    outcome,
    ranking_rows,
    reference_load_table,
    reference_score_and_rank,
)
from rankfair import ingest, ranking
from rankfair.ingest import (
    SpecError,
    TableLoadError,
    UnknownColumnError,
    compute_scores,
    derive_protected,
    load_table,
    minmax_normalize,
    score_and_rank,
)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def rank_by(table, flags, score_col=None, score_sum=()):
    """``score_and_rank`` on the scores ``compute_scores`` returns, as
    ``rankfair rank`` runs them."""
    return score_and_rank(table, compute_scores(table, score_col, score_sum), flags)


@pytest.fixture
def small_table(tmp_path):
    path = write_csv(
        tmp_path,
        "id,age,gender,x,y\n"
        "a,20,F,1,0\n"
        "b,30,M,0,1\n"
        "c,40,F,0.5,0.5\n",
    )
    return load_table(path, row_id_column="id")


class TestLoadTable:
    def test_numeric_typing(self, small_table):
        assert small_table.is_numeric("age")
        assert small_table.column("age").tolist() == [20.0, 30.0, 40.0]
        assert not small_table.is_numeric("gender")

    def test_missing_cell_is_an_error(self, tmp_path):
        path = write_csv(tmp_path, "id,v\na,1\nb,\n")
        with pytest.raises(TableLoadError, match="line 3|:3"):
            load_table(path, row_id_column="id")

    def test_drop_incomplete_rows(self, tmp_path):
        path = write_csv(tmp_path, "id,v\na,1\nb,\nc,3\n")
        table = load_table(path, row_id_column="id", drop_incomplete_rows=True)
        assert table.row_ids == ("a", "c")
        assert len(table.dropped_rows) == 1

    def test_dropped_rows_cost_no_more_than_filled_ones(self, tmp_path):
        """Only a dropped row's line number is kept, so loading 10^4 rows with
        every other one incomplete peaks no higher than loading the same file
        with its holes filled."""
        header, rows = "a,b,c,d,e,f\n", 10_000

        def lines(fill):
            for r in range(rows):
                cells = [str(r * 7 % 1000 + k) for k in range(6)]
                if r % 2:
                    cells[r % 6] = fill
                yield ",".join(cells) + "\n"

        def peak(path, **kwargs):
            tracemalloc.start()
            try:
                table = load_table(path, **kwargs)
                return tracemalloc.get_traced_memory()[1], table
            finally:
                tracemalloc.stop()

        holes = write_csv(tmp_path, header + "".join(lines("")), "holes.csv")
        filled = write_csv(tmp_path, header + "".join(lines("0")), "filled.csv")
        dropped_peak, dropped = peak(holes, drop_incomplete_rows=True)
        filled_peak, _ = peak(filled)
        assert len(dropped.dropped_rows) == rows // 2
        assert dropped.dropped_rows[:2] == ("line 3", "line 5")
        assert dropped_peak <= filled_peak

    def test_duplicate_row_id(self, tmp_path):
        path = write_csv(tmp_path, "id,v\na,1\na,2\n")
        with pytest.raises(TableLoadError, match="duplicate"):
            load_table(path, row_id_column="id")

    def test_duplicate_column(self, tmp_path):
        path = write_csv(tmp_path, "id,g,a,b,a\nx,0,1,2,3\ny,1,4,5,6\n")
        with pytest.raises(TableLoadError) as exc:
            load_table(path, row_id_column="id")
        assert str(exc.value) == f"{path}: duplicate column 'a'"

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path, "id,v\na,1,9\n")
        with pytest.raises(TableLoadError, match="expected 2 fields"):
            load_table(path, row_id_column="id")

    def test_missing_file(self, tmp_path):
        with pytest.raises(TableLoadError):
            load_table(tmp_path / "nope.csv")

    def test_default_row_ids(self, tmp_path):
        path = write_csv(tmp_path, "v\n5\n6\n")
        assert load_table(path).row_ids == ("1", "2")

    @pytest.mark.parametrize("id_col,calls", [(None, 1), ("id", 2)])
    def test_only_given_row_ids_are_checked_for_repeats(
        self, tmp_path, monkeypatch, id_col, calls
    ):
        """The header is always checked; numbered rows cannot repeat, so the
        row ids are checked only when they come from a column."""
        path = write_csv(tmp_path, "id,v\na,5\nb,6\n")
        checked = []

        def counted(ids, _real=ingest.duplicates):
            checked.append(tuple(ids))
            return _real(ids)

        monkeypatch.setattr(ingest, "duplicates", counted)
        load_table(path, id_col)
        assert checked == [("id", "v"), ("a", "b")][:calls]


BLOCK = ranking._BLOCK_ROWS


class TestBlocksMatchReference:
    """Rows are read in blocks of ``BLOCK`` (lines 2 to BLOCK + 1, then
    BLOCK + 2 to 2 * BLOCK + 1, ...); errors still name the file line and
    dropped rows keep file order, as the per-row reference does."""

    N_ROWS = 2 * BLOCK + BLOCK // 4  # three blocks, the last one partial

    @classmethod
    def write_table(cls, tmp_path, edits):
        rows = [f"r{j},{j % 2},{j / 4}" for j in range(cls.N_ROWS)]
        for line, text in edits.items():
            rows[line - 2] = text
        return write_csv(tmp_path, "id,g,v\n" + "\n".join(rows) + "\n")

    @pytest.mark.parametrize(
        "bad_line", [BLOCK + BLOCK // 2, 2 * BLOCK + 1], ids=["mid_block", "block_end"]
    )
    def test_ragged_row(self, tmp_path, bad_line):
        path = self.write_table(tmp_path, {bad_line: f"r{bad_line},1,2,3"})
        err = outcome(load_table, path, "id")[1]
        assert err == (TableLoadError, f"{path}:{bad_line}: expected 3 fields, got 4")
        assert err == outcome(reference_load_table, path, "id")[1]

    def test_ragged_row_beats_an_earlier_missing_cell(self, tmp_path):
        hole, ragged = BLOCK // 2, 2 * BLOCK + 1
        path = self.write_table(tmp_path, {hole: f"r{hole - 2},1,", ragged: f"r{ragged - 2},1"})
        for drop in (False, True):
            err = outcome(load_table, path, "id", drop)[1]
            assert err == (TableLoadError, f"{path}:{ragged}: expected 3 fields, got 2")
            assert err == outcome(reference_load_table, path, "id", drop)[1]

    def test_dropped_rows_in_three_blocks(self, tmp_path):
        last = self.N_ROWS + 1
        holes = [BLOCK // 2, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 2, last]
        path = self.write_table(tmp_path, {line: f"r{line - 2},,1" for line in holes})
        table = load_table(path, "id", drop_incomplete_rows=True)
        ref = reference_load_table(path, "id", drop_incomplete_rows=True)
        assert table.dropped_rows == tuple(f"line {line}" for line in holes)
        assert (table.row_ids, table.dropped_rows) == (ref.row_ids, ref.dropped_rows)
        assert table.column("v").tolist() == ref.column("v")
        assert table.column("g").tolist() == ref.column("g")
        assert outcome(load_table, path, "id")[1] == (
            TableLoadError, f"{path}:{holes[0]}: missing value in column 'g'"
        )

    @pytest.mark.parametrize("drop", [False, True], ids=["keep", "drop"])
    def test_columns_that_turn_text_in_later_blocks(self, tmp_path, drop):
        """A column typed numeric in the first blocks turns to text when a
        later block fails to parse, and its earlier text is read back; here
        the ids fail in the second block and ``w`` in the third, past rows
        that are dropped when ``drop`` is set."""
        rows = [f"{j},{j % 2},{j / 4},{j}" for j in range(self.N_ROWS)]
        rows[BLOCK + 9] = f"id-{BLOCK + 9},1,2,3"
        rows[2 * BLOCK + 3] = f"{2 * BLOCK + 3},1,2,w"
        if drop:
            for j in (5, BLOCK + 3, BLOCK + 40, 2 * BLOCK + 1):
                rows[j] = f"{j},1,,{j}" if j % 2 else f"{j},,1,{j}"
        path = write_csv(tmp_path, "id,g,v,w\n" + "\n".join(rows) + "\n")
        table = load_table(path, "id", drop_incomplete_rows=drop)
        ref = reference_load_table(path, "id", drop_incomplete_rows=drop)
        assert (table.row_ids, table.dropped_rows) == (ref.row_ids, ref.dropped_rows)
        assert len(table.dropped_rows) == (4 if drop else 0)
        assert [table.is_numeric(c) for c in table.columns] == [False, True, True, False]
        for name in table.columns:
            assert list(table.column(name)) == ref.column(name), name
        assert not table.column("w").flags.writeable

    @pytest.mark.parametrize(
        "ids,opens", [("r{}", 1), ("{}", 2)], ids=["text_from_first_block", "text_later"]
    )
    def test_file_is_opened_again_only_to_read_back_numbers(
        self, tmp_path, monkeypatch, ids, opens
    ):
        """An id column that is text from its first row has no earlier
        values to read back, so the file is opened once; one that turns
        text in the second block is opened again for its first block."""
        rows = [f"{ids.format(j)},{j % 2},{j / 4}" for j in range(self.N_ROWS)]
        rows[BLOCK + 9] = f"id-{BLOCK + 9},1,2"
        path = write_csv(tmp_path, "id,g,v\n" + "\n".join(rows) + "\n")
        paths = []

        def counted(csv_path, *args, _real=ingest.open_csv):
            paths.append(csv_path)
            return _real(csv_path, *args)

        monkeypatch.setattr(ingest, "open_csv", counted)
        table = load_table(path, "id")
        assert paths == [path] * opens
        assert table.row_ids == reference_load_table(path, "id").row_ids


class TestByteOrderMark:
    @pytest.mark.parametrize(
        "text",
        [
            "id,age,gender\na,20,F\nb,30,M\n",
            "id,v\na,1\nb,\nc,3\n",
            "id,v\na,1\nb,2,3\n",
        ],
        ids=["clean", "hole", "ragged"],
    )
    @pytest.mark.parametrize("drop", [False, True], ids=["keep", "drop"])
    def test_loads_as_without_it(self, tmp_path, text, drop):
        """A file saved with a UTF-8 BOM (Excel's "CSV UTF-8") loads as the
        same file without it, as the per-row reference does."""
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        plain, plain_err = outcome(load_table, path, "id", drop)
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        marked, err = outcome(load_table, path, "id", drop)
        ref, ref_err = outcome(reference_load_table, path, "id", drop)
        assert err == plain_err == ref_err
        if err is None:
            assert (marked.columns, marked.row_ids) == (plain.columns, plain.row_ids)
            assert (marked.columns, marked.row_ids) == (ref.columns, ref.row_ids)
            for name in marked.columns:
                assert list(marked.column(name)) == list(plain.column(name)) == ref.column(name)


class TestDeriveProtected:
    def test_less_than(self, small_table):
        flags, prop = derive_protected(small_table, "age", less_than=25)
        assert flags.tolist() == [True, False, False]
        assert prop == pytest.approx(1 / 3)

    def test_equals(self, small_table):
        flags, prop = derive_protected(small_table, "gender", equals="F")
        assert flags.tolist() == [True, False, True]
        assert prop == pytest.approx(2 / 3)

    def test_less_than_on_categorical(self, small_table):
        with pytest.raises(SpecError):
            derive_protected(small_table, "gender", less_than=1)

    def test_unknown_column(self, small_table):
        with pytest.raises(UnknownColumnError):
            derive_protected(small_table, "nope", equals="F")

    @pytest.mark.parametrize(
        "targets", [{}, {"equals": "F", "less_than": 25}], ids=["neither", "both"]
    )
    def test_exactly_one_predicate(self, small_table, targets):
        with pytest.raises(SpecError) as exc:
            derive_protected(small_table, "age", **targets)
        assert str(exc.value) == "give exactly one of equals and less_than"


class TestMinmaxNormalize:
    def test_basic(self):
        assert minmax_normalize([2.0, 4.0, 6.0]).tolist() == [0.0, 0.5, 1.0]

    def test_constant_column(self):
        assert minmax_normalize([5.0, 5.0, 5.0]).tolist() == [0.0, 0.0, 0.0]

    def test_negative_values(self):
        assert minmax_normalize([-1.0, 0.0, 3.0]).tolist() == [0.0, 0.25, 1.0]

    def test_non_numeric(self):
        with pytest.raises(SpecError):
            minmax_normalize(["a", "b"])

    def test_range_beyond_float_max(self):
        # hi - lo overflows; before, every value but the minimum became nan
        assert minmax_normalize([1e308, -1e308, 0.0]).tolist() == [1.0, 0.0, 0.5]


class TestScoreAndRank:
    def test_single_column_descending(self, tmp_path):
        path = write_csv(tmp_path, "id,x\na,10\nb,30\nc,20\n")
        table = load_table(path, row_id_column="id")
        flags, _ = derive_protected(table, "x", less_than=15)
        rk = rank_by(table, flags, "x")
        assert rk.ids == ("b", "c", "a")
        assert rk.scores[0] == pytest.approx(30.0)

    def test_equal_weight_tie_break_by_id(self, tmp_path):
        path = write_csv(tmp_path, "id,x,y\na,1,0\nb,0,1\n")
        table = load_table(path, row_id_column="id")
        rk = rank_by(table, [True, False], score_sum=["x", "y"])
        assert rk.ids == ("a", "b")
        assert rk.scores[0] == pytest.approx(0.5)
        assert rk.scores[1] == pytest.approx(0.5)

    def test_sum_over_one_column_matches_single(self, tmp_path):
        path = write_csv(tmp_path, "id,x\na,3\nb,9\nc,6\nd,1\n")
        table = load_table(path, row_id_column="id")
        flags = [False] * 4
        single = rank_by(table, flags, "x")
        summed = rank_by(table, flags, score_sum=["x"])
        assert single.ids == summed.ids

    def test_order_invariant_to_monotone_transform(self, tmp_path):
        path = write_csv(tmp_path, "id,x,x3\na,2,8\nb,-1,-1\nc,3,27\n")
        table = load_table(path, row_id_column="id")
        flags = [False] * 3
        by_x = rank_by(table, flags, "x")
        by_x3 = rank_by(table, flags, "x3")
        assert by_x.ids == by_x3.ids

    def test_deterministic(self, small_table):
        a = rank_by(small_table, [True, False, True], score_sum=["x", "y"])
        b = rank_by(small_table, [True, False, True], score_sum=["x", "y"])
        assert a.ids == b.ids

    def test_equal_weight_scores_in_unit_interval(self, small_table):
        scores = compute_scores(small_table, score_sum=["age", "x"])
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_categorical_score_column(self, small_table):
        with pytest.raises(SpecError):
            compute_scores(small_table, "gender")

    @pytest.mark.parametrize(
        "scores",
        [{"score_sum": []}, {}, {"score_col": "x", "score_sum": ["y"]}],
        ids=["empty_sum", "neither", "both"],
    )
    def test_malformed_spec(self, small_table, scores):
        with pytest.raises(SpecError) as exc:
            compute_scores(small_table, **scores)
        assert str(exc.value) == "give exactly one of score_col and score_sum"


class TestNonFiniteValues:
    @pytest.fixture
    def table(self, tmp_path):
        path = write_csv(tmp_path, "id,s,t\na,3,1\nb,nan,2\nc,inf,-inf\nd,2,4\n")
        return load_table(path, row_id_column="id")

    def test_single_score_column(self, table):
        with pytest.raises(TableLoadError, match="'s'.*nan.*'b'"):
            compute_scores(table, "s")

    def test_summed_score_columns(self, table):
        with pytest.raises(TableLoadError, match="'t'.*-inf.*'c'"):
            compute_scores(table, score_sum=["t", "s"])

    def test_less_than_column(self, table):
        with pytest.raises(TableLoadError, match="'s'.*nan.*'b'"):
            derive_protected(table, "s", less_than=2.5)

    def test_equals_column(self, table):
        with pytest.raises(TableLoadError, match="'s'.*nan.*'b'"):
            derive_protected(table, "s", equals="3")

    @pytest.mark.parametrize(
        "keyword, target",
        [("equals", "nan"), ("less_than", float("nan"))],
        ids=["equals", "less_than"],
    )
    def test_nan_target(self, small_table, keyword, target):
        with pytest.raises(SpecError, match=f"{keyword} target must not be NaN"):
            derive_protected(small_table, "age", **{keyword: target})

    def test_infinite_threshold_accepted(self, small_table):
        flags, prop = derive_protected(small_table, "age", less_than=float("inf"))
        assert flags.tolist() == [True, True, True] and prop == 1.0

    def test_overflowing_finite_column_accepted(self, tmp_path):
        path = write_csv(tmp_path, "id,s\na,1e308\nb,1e308\nc,-1\n")
        table = load_table(path, row_id_column="id")
        assert compute_scores(table, "s").tolist() == [
            1e308, 1e308, -1.0
        ]


FINITE_TOKENS = [" 1", "1_0", "-0.0", "0", "1", "2.5", "-3", "1e2"]
NUMERIC_TOKENS = FINITE_TOKENS + ["1e309", "nan"]
TEXT_TOKENS = ["a", "b", " 1", "1"]
ROW_IDS = ["r1", "r2", "r10", "2", "10", " 1", "a,b"]


@st.composite
def table_csv(draw):
    """CSV text with 1-3 data columns, each numeric or text, and an optional
    id column. Half the tables are clean: every cell present, every number
    finite, every id unique. The rest draw ids with repeats, non-finite
    numbers, and rare missing cells and ragged rows."""
    faults = draw(st.booleans())
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    with_id = draw(st.booleans())
    header = (["id"] if with_id else []) + [f"c{j}" for j in range(len(kinds))]
    n = draw(st.integers(min_value=0 if faults else 2, max_value=12))
    ids = draw(st.permutations(ROW_IDS + [f"x{j}" for j in range(12)]))
    rows = []
    for i in range(n):
        row = [draw(st.sampled_from(ROW_IDS)) if faults else ids[i]] if with_id else []
        for numeric in kinds:
            pool = (NUMERIC_TOKENS if faults else FINITE_TOKENS) if numeric else TEXT_TOKENS
            missing = faults and draw(st.integers(0, 9)) == 0
            row.append("" if missing else draw(st.sampled_from(pool)))
        shape = draw(st.integers(min_value=0, max_value=24)) if faults else 2
        if shape == 0:
            row.append("9")
        elif shape == 1:
            row.pop()
        rows.append(row)
    return header, rows


class TestMatchesPerRowReference:
    """The columnar ``load_table`` and ``score_and_rank`` return what the
    per-row references in ``conftest`` return, or raise the same exception
    type with the same message; a table left without data rows is now an
    error of its own."""

    @given(
        text=table_csv(),
        drop=st.booleans(),
        single=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_load_and_rank_equal_reference(self, text, drop, single, data):
        header, rows = text
        id_col = "id" if header[0] == "id" else None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows([header, *rows])
            ref, ref_err = outcome(reference_load_table, path, id_col, drop)
            table, err = outcome(load_table, path, id_col, drop)
        if ref_err is None and ref.n_rows == 0:
            assert err == (TableLoadError, f"{path}: no data rows")
            return
        assert err == ref_err
        if err is not None:
            return
        assert (table.columns, table.row_ids, table.dropped_rows) == (
            ref.columns, ref.row_ids, ref.dropped_rows
        )
        for name in header:
            assert table.is_numeric(name) == ref.is_numeric(name), name
            if ref.is_numeric(name):
                assert [v.hex() for v in table.column(name).tolist()] == [
                    v.hex() for v in ref.column(name)
                ]
            else:
                assert list(table.column(name)) == ref.column(name)

        numeric = [name for name in header if ref.is_numeric(name)]
        pool = numeric if numeric and data.draw(st.integers(0, 3)) else header
        columns = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        score = (columns[0], ()) if single else (None, columns)
        flags = data.draw(st.lists(st.booleans(), min_size=ref.n_rows, max_size=ref.n_rows))
        ref_items, ref_err = outcome(reference_score_and_rank, ref, *score, flags)
        ranked, err = outcome(rank_by, table, flags, *score)
        assert err == ref_err
        if err is None:
            assert ranking_rows(ranked) == item_rows(ref_items)

    def test_summed_signed_zeros_equal_reference(self, tmp_path):
        """numpy's min picks the later of two equal zeros where Python's picks
        the earlier, so the normalized "-0.0" can keep its sign; the sum must
        still give +0.0, as the per-row sum did."""
        path = write_csv(tmp_path, "id,v\na,-0.0\nb,0\nc,1\n")
        flags = [True, False, True]
        ranked = rank_by(load_table(path, "id"), flags, score_sum=["v"])
        ref = reference_score_and_rank(reference_load_table(path, "id"), None, ["v"], flags)
        assert ranking_rows(ranked) == item_rows(ref)
