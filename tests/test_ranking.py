import csv
import itertools
import math
import os
import re
import stat
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfair import ranking
from rankfair.ranking import (
    Ranking,
    RankingFormatError,
    ValidationError,
    build_schedule,
    duplicates,
    id_rank,
    open_atomic,
    rank_by_score,
    rank_order,
    read_ranking_csv,
    write_ranking_csv,
)

from conftest import (
    item_rows,
    outcome,
    prefix_counts,
    ranking_from_flags,
    ranking_rows,
    reference_id_rank,
    reference_rank_order,
    reference_read_ranking_csv,
    reference_write_ranking_csv,
)

BLOCK = ranking._BLOCK_ROWS


class TestBuildSchedule:
    def test_multiple_of_step(self):
        sched = build_schedule(1000, 10)
        assert sched.tolist() == list(range(10, 1001, 10))
        assert len(sched) == 100

    def test_n_appended_when_not_multiple(self):
        assert build_schedule(25, 10).tolist() == [10, 20, 25]

    def test_n_below_step(self):
        assert build_schedule(8, 10).tolist() == [8]

    def test_last_cutoff_is_n(self):
        for n in range(2, 60):
            assert build_schedule(n, 10)[-1] == n

    @pytest.mark.parametrize("n,step", [(1, 10), (0, 10), (5, 1), (5, 0)])
    def test_invalid_arguments(self, n, step):
        with pytest.raises(ValueError):
            build_schedule(n, step)

    def test_pure(self):
        assert np.array_equal(build_schedule(37, 5), build_schedule(37, 5))
        assert not build_schedule(37, 5).flags.writeable


class TestPrefixCounts:
    def test_by_hand(self):
        rk = ranking_from_flags([False, True, False, True])
        sched = build_schedule(4, 2)
        assert prefix_counts(rk, sched) == ((2, 1), (4, 2))

    def test_all_protected(self):
        rk = ranking_from_flags([True] * 20)
        assert prefix_counts(rk, build_schedule(20, 10)) == ((10, 10), (20, 20))

    def test_segregated(self):
        rk = ranking_from_flags([False] * 10 + [True] * 10)
        assert prefix_counts(rk, build_schedule(20, 10)) == ((10, 0), (20, 10))

    def test_cutoff_beyond_ranking(self):
        rk = ranking_from_flags([True, False])
        with pytest.raises(ValueError):
            prefix_counts(rk, build_schedule(4, 2))

    @given(
        flags=st.lists(st.booleans(), min_size=2, max_size=200),
        step=st.integers(min_value=2, max_value=25),
    )
    @settings(max_examples=200)
    def test_invariants(self, flags, step):
        rk = ranking_from_flags(flags)
        counts = prefix_counts(rk, build_schedule(rk.n, step))
        n_plus, n_minus = rk.n_plus, rk.n - rk.n_plus
        prev_i, prev_c = 0, 0
        for i, c in counts:
            assert c >= prev_c
            assert c - prev_c <= i - prev_i
            assert max(0, i - n_minus) <= c <= min(i, n_plus)
            prev_i, prev_c = i, c
        assert counts[-1] == (rk.n, n_plus)


class TestValidation:
    def test_well_formed(self):
        rk = Ranking(ids=("a", "b", "c", "d"), flags=[True, False, True, False])
        assert (rk.n, rk.n_plus, rk.scores) == (4, 2, None)

    def test_duplicate_id(self):
        with pytest.raises(ValidationError) as exc:
            Ranking(ids=("a", "a"), flags=[True, False])
        assert any("'a'" in e for e in exc.value.errors)

    def test_too_short(self):
        with pytest.raises(ValidationError) as exc:
            Ranking(ids=("a",), flags=[True])
        assert any("n < 2" in e for e in exc.value.errors)

    def test_reports_all_violations(self):
        with pytest.raises(ValidationError) as exc:
            Ranking(ids=("a", "a", "a"), flags=[True, False, True])
        assert len(exc.value.errors) == 2

    def test_columns_are_read_only(self):
        rk = Ranking(ids=("a", "b"), flags=[True, False], scores=[2.0, 1.0])
        with pytest.raises(ValueError):
            rk.flags[0] = False
        with pytest.raises(ValueError):
            rk.scores[0] = 0.0

    def test_rank_by_score_checks_repeats(self):
        """Repeats are reported in rank order, as ``Ranking(...)`` finds them."""
        with pytest.raises(ValidationError) as exc:
            rank_by_score(["b", "a", "b", "a"], [True, False, True, False], np.arange(4.0))
        assert exc.value.errors == ["duplicate id 'a'", "duplicate id 'b'"]

    def test_trusted_skips_only_the_repeat_check(self):
        """``Ranking._trusted``, for ids known to be unique, keeps every other
        check of ``Ranking(...)``, with the same errors."""
        rk = Ranking._trusted(("a", "a", "b"), [True, False, True], [2.0, 1.0, 0.0])
        assert (rk.ids, rk.n, rk.n_plus) == (("a", "a", "b"), 3, 2)
        with pytest.raises(ValueError):
            rk.flags[0] = False
        with pytest.raises(ValueError):
            rk.scores[0] = 0.0
        with pytest.raises(ValidationError) as exc:
            Ranking._trusted(("a",), [True])
        assert exc.value.errors == ["n < 2 (got 1)"]
        with pytest.raises(ValueError, match="one entry per item"):
            Ranking._trusted(("a", "b"), [True, False], [1.0])


class TestCsv:
    def test_round_trip(self, tmp_path):
        rk = Ranking(
            ids=("x", "y", "z"), flags=[True, False, False], scores=[0.75, 0.5, np.nan]
        )
        path = tmp_path / "r.csv"
        write_ranking_csv(rk, path)
        back = read_ranking_csv(path)
        assert back.ids == ("x", "y", "z")
        assert back.flags.tolist() == [True, False, False]
        assert back.scores[0] == pytest.approx(0.75)
        assert np.isnan(back.scores[2])

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "r.csv"
        write_ranking_csv(ranking_from_flags([True, False]), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"id,protected,score\n")

    def test_bad_protected_value(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("id,protected,score\na,2,\n")
        from rankfair.ranking import RankingFormatError

        with pytest.raises(RankingFormatError):
            read_ranking_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_score(self, tmp_path, bad):
        path = tmp_path / "r.csv"
        path.write_text(f"id,protected,score\na,1,0.5\nb,0,{bad}\n")
        from rankfair.ranking import RankingFormatError

        with pytest.raises(RankingFormatError, match=f":3: non-finite score '{bad}'"):
            read_ranking_csv(path)

    def test_missing_file(self):
        from rankfair.ranking import RankingFormatError

        with pytest.raises(RankingFormatError):
            read_ranking_csv("does_not_exist.csv")


class TestOpenAtomic:
    def test_writes_utf8_with_lf(self, tmp_path):
        dest = tmp_path / "out.txt"
        with open_atomic(dest) as fh:
            fh.write("caf\u00e9\n")
        assert dest.read_bytes() == "caf\u00e9\n".encode("utf-8")
        assert list(tmp_path.iterdir()) == [dest]

    def test_exception_in_block_keeps_destination(self, tmp_path):
        dest = tmp_path / "out.csv"
        dest.write_bytes(b"old\n")
        with pytest.raises(RuntimeError, match="boom"):
            with open_atomic(dest) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert dest.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [dest]

    def test_os_error_names_destination(self, tmp_path):
        dest = tmp_path / "missing" / "out.csv"
        with pytest.raises(FileNotFoundError) as exc:
            with open_atomic(dest):
                pass
        assert exc.value.filename == str(dest)
        directory = tmp_path / "dir"
        directory.mkdir()
        with pytest.raises(IsADirectoryError) as exc:
            with open_atomic(directory) as fh:
                fh.write("x")
        assert exc.value.filename == str(directory)
        assert sorted(tmp_path.iterdir()) == [directory]

    @pytest.mark.parametrize(
        "umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask_022", "umask_077"]
    )
    def test_new_file_mode_follows_umask(self, tmp_path, umask, mode):
        dest = tmp_path / "out.txt"
        old = os.umask(umask)
        try:
            with open_atomic(dest) as fh:
                fh.write("x")
        finally:
            os.umask(old)
        assert stat.S_IMODE(dest.stat().st_mode) == mode

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        """A replaced file keeps its permission bits, as ``open(path, "w")``
        keeps them, whatever the umask."""
        dest = tmp_path / "out.json"
        dest.write_text("old")
        dest.chmod(0o600)
        old = os.umask(0o022)
        try:
            with open_atomic(dest) as fh:
                fh.write("new")
        finally:
            os.umask(old)
        assert dest.read_text() == "new"
        assert stat.S_IMODE(dest.stat().st_mode) == 0o600


FINITE_SCORES = [" 1", "1_0", "-0.0", "", "0.5", "2"]
SCORE_TOKENS = FINITE_SCORES + ["1e309", "nan", "x"]
HEADERS = [
    ["id", "protected", "score"],
    ["id", "protected"],
    ["id", "protected", "other"],
    ["id", "protected", "score", "extra"],
]


@st.composite
def ranking_csv(draw):
    """Ranking CSV rows. Half the files are clean: unique ids, 0/1 flags,
    finite or empty scores. The rest draw repeated ids, bad flags, every
    score token kind, ragged rows and a bad header."""
    faults = draw(st.booleans())
    header = draw(st.sampled_from(HEADERS + [["id", "prot", "score"]] if faults else HEADERS))
    ids = draw(st.permutations(["a", "b", "c", "d", "e", "10", "2", "a,b", "f", "g"]))
    rows = []
    for i in range(draw(st.integers(min_value=0 if faults else 2, max_value=10))):
        rid = draw(st.sampled_from(ids)) if faults else ids[i]
        prot = draw(st.sampled_from(["0", "1"] * 8 + (["2", "", " 1"] if faults else [])))
        score = draw(st.sampled_from(SCORE_TOKENS if faults else FINITE_SCORES))
        width = draw(st.sampled_from([3] * 12 + [1, 2, 4] if faults else [2, 3, 3, 4]))
        rows.append([rid, prot, score, "z"][:width])
    return header, rows


class TestCsvMatchesPerRowReference:
    @given(text=ranking_csv())
    @settings(max_examples=400, deadline=None)
    def test_read_equals_reference(self, text):
        """``read_ranking_csv`` returns the per-row reference's items, or
        raises the same exception type with the same message."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows([text[0], *text[1]])
            ref, ref_err = outcome(reference_read_ranking_csv, path)
            got, err = outcome(read_ranking_csv, path)
        assert err == ref_err
        if err is None:
            assert ranking_rows(got) == item_rows(ref)

    @pytest.mark.parametrize("text", ["", "id,protected,score\n"])
    def test_empty_files_equal_reference(self, tmp_path, text):
        path = tmp_path / "r.csv"
        path.write_text(text)
        assert outcome(read_ranking_csv, path)[1] == outcome(
            reference_read_ranking_csv, path
        )[1]

    @pytest.mark.parametrize(
        "bad_row",
        # file line 1 is the header, so block k ends at line k * BLOCK + 1
        [BLOCK + BLOCK // 2, 2 * BLOCK + 1],
        ids=["mid_block", "block_end"],
    )
    def test_line_numbers_past_the_first_block(self, tmp_path, bad_row):
        """Rows are read in blocks; an error names the file line all the same."""
        rows = [f"r{j},{j % 2},0.5" for j in range(2 * BLOCK + BLOCK // 4)]
        rows[bad_row - 2] = f"r{bad_row},1,oops"
        path = tmp_path / "r.csv"
        path.write_text("id,protected,score\n" + "\n".join(rows) + "\n")
        with pytest.raises(RankingFormatError, match=f":{bad_row}: bad score 'oops'"):
            read_ranking_csv(path)
        assert outcome(read_ranking_csv, path)[1] == outcome(
            reference_read_ranking_csv, path
        )[1]

    @pytest.mark.parametrize(
        "text",
        ["id,protected,score\na,1,0.5\nb,0,\n", "id,protected\nb,0\na,1\n", "id,prot\n"],
        ids=["scores", "no_scores", "bad_header"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        """A file saved with a UTF-8 BOM reads as the same file without it."""
        path = tmp_path / "r.csv"
        path.write_text(text, encoding="utf-8")
        plain, plain_err = outcome(read_ranking_csv, path)
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        marked, err = outcome(read_ranking_csv, path)
        ref, ref_err = outcome(reference_read_ranking_csv, path)
        assert err == plain_err == ref_err
        if err is None:
            assert ranking_rows(marked) == ranking_rows(plain) == item_rows(ref)


class TestDuplicates:
    def test_every_repeat_in_order(self):
        assert duplicates(["a", "b", "a", "c", "b", "a", ""]) == ["a", "b", "a"]
        assert duplicates(["a", "b", "c"]) == []
        assert duplicates([]) == []

    def test_equal_hashes_are_compared(self):
        """Ids whose hashes are equal but whose text differs are not repeats."""

        class Colliding(str):
            def __hash__(self):
                return 7

        ids = [Colliding(t) for t in ["x", "y", "x", "z", "y"]]
        assert duplicates(ids) == ["x", "y"]
        assert duplicates(ids[:2] + ids[3:4]) == []

    @given(ids=st.lists(st.sampled_from(["a", "b", "c", "", "a,b", "10", "2"]), max_size=30))
    def test_equals_a_set_scan(self, ids):
        seen: set[str] = set()
        assert duplicates(ids) == [rid for rid in ids if rid in seen or seen.add(rid)]


SORT_SCORES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e300, np.inf, -np.inf]
SORT_IDS = ["a", "b", "B", "10", "2", "", "a,b", "\u00e9", "a "]


class TestRankOrder:
    """``rank_order`` over ``id_rank`` gives the order of the ``np.lexsort``
    reference in ``conftest``: descending score, ties by ascending id."""

    def test_ties_go_by_id(self):
        scores = np.array([0.5, 1.0, 0.5, 0.5])
        ids = ["c", "z", "a", "b"]
        assert rank_order(scores, id_rank(ids)).tolist() == [1, 2, 3, 0]

    def test_signed_zeros_tie(self):
        scores = np.array([0.0, -0.0, 0.0, -0.0])
        ids = ["d", "c", "b", "a"]
        assert rank_order(scores, id_rank(ids)).tolist() == [3, 2, 1, 0]

    def test_equal_ids_keep_row_order(self):
        scores = np.array([1.0, 2.0, 1.0, 1.0])
        ids = ["g", "a", "g", "f"]
        assert rank_order(scores, id_rank(ids)).tolist() == [1, 3, 0, 2]

    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(SORT_SCORES), st.sampled_from(SORT_IDS)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=300)
    def test_equals_lexsort_reference(self, rows):
        scores = np.array([s for s, _ in rows])
        ids = [rid for _, rid in rows]
        want = reference_rank_order(scores, reference_id_rank(ids))
        assert rank_order(scores, id_rank(ids)).tolist() == want.tolist()


CELL_TEXT = st.text(alphabet=["a", "b", ",", '"', "\r", "\n", " ", "\u00e9", "\t", "'"], max_size=6)
WRITTEN_SCORES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, np.nan, 0.5, 1e-7, -5e-7, 123456.1234565]),
)


class TestWriterMatchesCsvWriter:
    @given(
        ids=st.lists(CELL_TEXT, min_size=2, max_size=12, unique=True),
        with_scores=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_reference(self, ids, with_scores, data):
        """``write_ranking_csv`` writes the bytes of the frozen ``csv.writer``
        writer: quoted ids, signed zeros, NaN and absent scores included."""
        n = len(ids)
        flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        scores = None
        if with_scores:
            scores = data.draw(st.lists(WRITTEN_SCORES, min_size=n, max_size=n))
        rk = Ranking(ids, flags, scores)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            write_ranking_csv(rk, got)
            reference_write_ranking_csv(rk, want)
            assert got.read_bytes() == want.read_bytes()


WRITE_BLOCK = ranking._WRITE_ROWS
# reals whose 6-decimal text is easy to get wrong: signed zero and infinity,
# the smallest subnormal, a halfway case, a long integer part
SPECIAL_SCORES = [np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 5e-7, 2.5e-6, 1e300, -1e300]


def block_case(case: str) -> Ranking:
    """A ranking of two writer blocks and three more rows."""
    n = 2 * WRITE_BLOCK + 3
    ids = [f"r{j}" for j in range(n)]
    flags = np.arange(n) % 3 == 0
    scores = np.linspace(1.0, 0.0, n)
    if case == "nan_runs":  # runs across both block boundaries, one to the end
        scores[[0, 17]] = np.nan
        scores[WRITE_BLOCK - 5 : WRITE_BLOCK + 5] = np.nan
        scores[2 * WRITE_BLOCK - 1 :] = np.nan
    elif case == "all_nan":
        scores[:] = np.nan
    elif case == "no_scores":
        scores = None
    elif case == "specials":  # every special value in every block, and at its edges
        scores[:: 7] = np.resize(SPECIAL_SCORES, scores[::7].size)
        for edge in (WRITE_BLOCK - 1, WRITE_BLOCK, 2 * WRITE_BLOCK - 1, 2 * WRITE_BLOCK):
            scores[edge] = SPECIAL_SCORES[edge % len(SPECIAL_SCORES)]
    elif case == "quoted_ids":  # quoted ids in the middle block only
        for j, text in enumerate(['a,b', '"q"', "c\rd", "e\nf", 'g"",h']):
            ids[WRITE_BLOCK + 100 * j] = f"{text}{j}"
    return Ranking(ids, flags, scores)


class TestWriterBlocks:
    @pytest.mark.parametrize(
        "case", ["nan_runs", "all_nan", "no_scores", "specials", "quoted_ids"]
    )
    def test_bytes_equal_reference(self, case, tmp_path):
        """Rows across the writer's block boundaries are written as the
        per-row ``csv.writer`` reference writes them."""
        rk = block_case(case)
        write_ranking_csv(rk, tmp_path / "got.csv")
        reference_write_ranking_csv(rk, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("with_scores", [True, False])
    def test_peak_memory_is_one_block(self, tmp_path, with_scores):
        """``write_ranking_csv`` holds one block's values and text at a time,
        never a whole column of Python objects, so 2 * 10**5 rows peak below
        2 MB."""
        n = 2 * 10**5
        rng = np.random.default_rng(0)
        scores = rng.random(n) if with_scores else None
        rk = Ranking([f"r{j}" for j in range(n)], rng.random(n) < 0.3, scores)
        tracemalloc.start()
        try:
            write_ranking_csv(rk, tmp_path / "r.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def reference_format_rows(row, columns, blank):
    """Every row formatted on its own: a ``%f`` value that is NaN or None is
    ``blank``, any other one ``f"{x:.6f}"``, and a ``%s`` value its text, an
    id quoted by ``_csv_cell``."""
    texts, conversions = re.split("%.", row), re.findall("%.", row)
    lines = []
    for values in zip(*columns):
        fields = [
            (blank if x is None or math.isnan(x) else f"{x:.6f}") if conversion == "%f"
            else ranking._csv_cell(x) if isinstance(x, str) else str(x)
            for conversion, x in zip(conversions, values)
        ]
        lines.append("".join(t + f for t, f in zip(texts, fields + [""])))
    return "".join(lines)


# rows of a NaN pattern: none, every one, or runs that fill a 3-row block (0-2),
# share one (3-5) and leave one clear (6-8), and a last short block (9, 10)
FORMAT_ROWS = 11
NAN_ROWS = {"none": [], "all": list(range(FORMAT_ROWS)), "some": [0, 1, 2, 4, 9]}


class TestFormatRows:
    @pytest.mark.parametrize("blank", ["", "null"])
    @pytest.mark.parametrize("write_rows", [1, 3, 4096])
    def test_equals_per_row_reference(self, write_rows, blank, monkeypatch):
        """Int, quoted and plain ``str`` and real columns, with NaN in no
        row, every row or some rows of a middle real column (the trace's
        rRD) and of the last one, given as an array or as a list with
        None."""
        monkeypatch.setattr(ranking, "_WRITE_ROWS", write_rows)
        row = "%s,%f,%s,%f,%f\n"
        ints = np.arange(FORMAT_ROWS) * 7 - 20
        texts = [f'a,"{k}"' if k % 4 == 1 else f"t{k}" for k in range(FORMAT_ROWS)]
        for middle, last, as_list in itertools.product(NAN_ROWS, NAN_ROWS, [False, True]):
            reals = np.linspace(-1.5, 2.0, 3 * FORMAT_ROWS).reshape(3, FORMAT_ROWS)
            reals[0, NAN_ROWS[middle]] = np.nan
            reals[2, NAN_ROWS[last]] = np.nan
            tail = [None if x != x else x for x in reals[2].tolist()] if as_list else reals[2]
            columns = [ints, reals[0], texts, reals[1], tail]
            want = reference_format_rows(row, [ints.tolist(), *columns[1:]], blank)
            got = "".join(ranking._format_rows(row, columns, blank))
            assert got == want, (middle, last, as_list)

    def test_ranking_without_scores_writes_all_nan_scores(self, tmp_path):
        write_ranking_csv(block_case("no_scores"), tmp_path / "none.csv")
        write_ranking_csv(block_case("all_nan"), tmp_path / "nan.csv")
        assert (tmp_path / "none.csv").read_bytes() == (tmp_path / "nan.csv").read_bytes()


class TestWrittenIdsReadBack:
    @given(ids=st.lists(CELL_TEXT, min_size=2, max_size=12, unique=True))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, ids):
        """Every id ``write_ranking_csv`` writes, CR, LF, commas and quotes
        included, reads back unchanged."""
        rk = Ranking(ids, [k % 2 == 0 for k in range(len(ids))], None)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            write_ranking_csv(rk, path)
            assert read_ranking_csv(path).ids == tuple(ids)
