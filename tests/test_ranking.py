import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfair.ranking import (
    Item,
    Ranking,
    ValidationError,
    build_schedule,
    ranking_from_flags,
    read_ranking_csv,
    validate_ranking,
    validation_errors,
    write_ranking_csv,
)

from conftest import prefix_counts


class TestBuildSchedule:
    def test_multiple_of_step(self):
        sched = build_schedule(1000, 10)
        assert sched.cutoffs == tuple(range(10, 1001, 10))
        assert len(sched.cutoffs) == 100

    def test_n_appended_when_not_multiple(self):
        assert build_schedule(25, 10).cutoffs == (10, 20, 25)

    def test_n_below_step(self):
        assert build_schedule(8, 10).cutoffs == (8,)

    def test_last_cutoff_is_n(self):
        for n in range(2, 60):
            assert build_schedule(n, 10).cutoffs[-1] == n

    @pytest.mark.parametrize("n,step", [(1, 10), (0, 10), (5, 1), (5, 0)])
    def test_invalid_arguments(self, n, step):
        with pytest.raises(ValueError):
            build_schedule(n, step)

    def test_pure(self):
        assert build_schedule(37, 5) == build_schedule(37, 5)


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
        n_plus, n_minus = rk.n_plus, rk.n_minus
        prev_i, prev_c = 0, 0
        for i, c in counts:
            assert c >= prev_c
            assert c - prev_c <= i - prev_i
            assert max(0, i - n_minus) <= c <= min(i, n_plus)
            prev_i, prev_c = i, c
        assert counts[-1] == (rk.n, n_plus)


class TestValidation:
    def test_well_formed(self):
        rk = ranking_from_flags([True, False, True, False])
        assert validate_ranking(rk) is rk

    def test_duplicate_id(self):
        rk = Ranking(items=(Item("a", True), Item("a", False)))
        errors = validation_errors(rk)
        assert any("'a'" in e for e in errors)
        with pytest.raises(ValidationError):
            validate_ranking(rk)

    def test_too_short(self):
        rk = Ranking(items=(Item("a", True),))
        assert any("n < 2" in e for e in validation_errors(rk))

    def test_reports_all_violations(self):
        rk = Ranking(items=(Item("a", True), Item("a", False), Item("a", True)))
        assert len(validation_errors(rk)) == 2


class TestCsv:
    def test_round_trip(self, tmp_path):
        rk = Ranking(
            items=(
                Item("x", True, 0.75),
                Item("y", False, 0.5),
                Item("z", False, None),
            )
        )
        path = tmp_path / "r.csv"
        write_ranking_csv(rk, path)
        back = read_ranking_csv(path)
        assert [i.id for i in back.items] == ["x", "y", "z"]
        assert [i.protected for i in back.items] == [True, False, False]
        assert back.items[0].score == pytest.approx(0.75)
        assert back.items[2].score is None

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
