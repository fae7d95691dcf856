import pytest

from rankfair.ingest import (
    ProtectedSpec,
    ScoreSpec,
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
        assert small_table.column("age") == [20.0, 30.0, 40.0]
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

    def test_duplicate_row_id(self, tmp_path):
        path = write_csv(tmp_path, "id,v\na,1\na,2\n")
        with pytest.raises(TableLoadError, match="duplicate"):
            load_table(path, row_id_column="id")

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


class TestDeriveProtected:
    def test_less_than(self, small_table):
        flags, prop = derive_protected(
            small_table, ProtectedSpec.less_than("age", 25)
        )
        assert flags == [True, False, False]
        assert prop == pytest.approx(1 / 3)

    def test_equals(self, small_table):
        flags, prop = derive_protected(
            small_table, ProtectedSpec.equals("gender", "F")
        )
        assert flags == [True, False, True]
        assert prop == pytest.approx(2 / 3)

    def test_less_than_on_categorical(self, small_table):
        with pytest.raises(SpecError):
            derive_protected(small_table, ProtectedSpec.less_than("gender", 1))

    def test_unknown_column(self, small_table):
        with pytest.raises(UnknownColumnError):
            derive_protected(small_table, ProtectedSpec.equals("nope", "F"))


class TestMinmaxNormalize:
    def test_basic(self):
        assert minmax_normalize([2.0, 4.0, 6.0]) == [0.0, 0.5, 1.0]

    def test_constant_column(self):
        assert minmax_normalize([5.0, 5.0, 5.0]) == [0.0, 0.0, 0.0]

    def test_negative_values(self):
        assert minmax_normalize([-1.0, 0.0, 3.0]) == [0.0, 0.25, 1.0]

    def test_non_numeric(self):
        with pytest.raises(SpecError):
            minmax_normalize(["a", "b"])


class TestScoreAndRank:
    def test_single_attribute_descending(self, tmp_path):
        path = write_csv(tmp_path, "id,x\na,10\nb,30\nc,20\n")
        table = load_table(path, row_id_column="id")
        flags, _ = derive_protected(table, ProtectedSpec.less_than("x", 15))
        rk = score_and_rank(table, ScoreSpec.single_attribute("x"), flags)
        assert [it.id for it in rk.items] == ["b", "c", "a"]
        assert rk.items[0].score == pytest.approx(30.0)

    def test_equal_weight_tie_break_by_id(self, tmp_path):
        path = write_csv(tmp_path, "id,x,y\na,1,0\nb,0,1\n")
        table = load_table(path, row_id_column="id")
        rk = score_and_rank(
            table, ScoreSpec.equal_weight_sum(["x", "y"]), [True, False]
        )
        assert [it.id for it in rk.items] == ["a", "b"]
        assert rk.items[0].score == pytest.approx(0.5)
        assert rk.items[1].score == pytest.approx(0.5)

    def test_sum_over_one_column_matches_single(self, tmp_path):
        path = write_csv(tmp_path, "id,x\na,3\nb,9\nc,6\nd,1\n")
        table = load_table(path, row_id_column="id")
        flags = [False] * 4
        single = score_and_rank(table, ScoreSpec.single_attribute("x"), flags)
        summed = score_and_rank(
            table, ScoreSpec.equal_weight_sum(["x"]), flags
        )
        assert [i.id for i in single.items] == [i.id for i in summed.items]

    def test_order_invariant_to_monotone_transform(self, tmp_path):
        path = write_csv(tmp_path, "id,x,x3\na,2,8\nb,-1,-1\nc,3,27\n")
        table = load_table(path, row_id_column="id")
        flags = [False] * 3
        by_x = score_and_rank(table, ScoreSpec.single_attribute("x"), flags)
        by_x3 = score_and_rank(table, ScoreSpec.single_attribute("x3"), flags)
        assert [i.id for i in by_x.items] == [i.id for i in by_x3.items]

    def test_deterministic(self, small_table):
        spec = ScoreSpec.equal_weight_sum(["x", "y"])
        a = score_and_rank(small_table, spec, [True, False, True])
        b = score_and_rank(small_table, spec, [True, False, True])
        assert [i.id for i in a.items] == [i.id for i in b.items]

    def test_equal_weight_scores_in_unit_interval(self, small_table):
        scores = compute_scores(small_table, ScoreSpec.equal_weight_sum(["age", "x"]))
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_categorical_score_column(self, small_table):
        with pytest.raises(SpecError):
            compute_scores(small_table, ScoreSpec.single_attribute("gender"))


class TestNonFiniteValues:
    @pytest.fixture
    def table(self, tmp_path):
        path = write_csv(tmp_path, "id,s,t\na,3,1\nb,nan,2\nc,inf,-inf\nd,2,4\n")
        return load_table(path, row_id_column="id")

    def test_single_score_column(self, table):
        with pytest.raises(TableLoadError, match="'s'.*nan.*'b'"):
            compute_scores(table, ScoreSpec.single_attribute("s"))

    def test_summed_score_columns(self, table):
        with pytest.raises(TableLoadError, match="'t'.*-inf.*'c'"):
            compute_scores(table, ScoreSpec.equal_weight_sum(["t", "s"]))

    def test_less_than_column(self, table):
        with pytest.raises(TableLoadError, match="'s'.*nan.*'b'"):
            derive_protected(table, ProtectedSpec.less_than("s", 2.5))

    def test_overflowing_finite_column_accepted(self, tmp_path):
        path = write_csv(tmp_path, "id,s\na,1e308\nb,1e308\nc,-1\n")
        table = load_table(path, row_id_column="id")
        assert compute_scores(table, ScoreSpec.single_attribute("s")) == [
            1e308, 1e308, -1.0
        ]
