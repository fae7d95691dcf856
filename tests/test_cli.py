import argparse
import errno
import json
import os
import time
from pathlib import Path

import pytest

from rankfair import cli, generator, ingest, measures, ranking
from rankfair.cli import main
from rankfair.measures import MeasureKind, measure_from_flags
from rankfair.ranking import write_ranking_csv

from conftest import ranking_from_flags, reference_aggregate_sweep, sweep_cells


@pytest.fixture
def segregated_csv(tmp_path):
    path = tmp_path / "segregated.csv"
    write_ranking_csv(ranking_from_flags([False] * 10 + [True] * 10), path)
    return str(path)


@pytest.fixture
def dataset_csv(tmp_path):
    path = tmp_path / "people.csv"
    rows = ["id,age,income,debt"]
    for i in range(30):
        age = 20 + (i * 7) % 40
        rows.append(f"x{i:02d},{age},{1000 + 37 * i},{10 + (i * 13) % 90}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestMeasure:
    def test_worst_case_json(self, segregated_csv, capsys):
        assert main(["measure", segregated_csv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rnd"] == pytest.approx(1.0)
        assert payload["rkl"] == pytest.approx(1.0)

    def test_fair_case(self, tmp_path, capsys):
        path = tmp_path / "alt.csv"
        write_ranking_csv(ranking_from_flags([False, True] * 10), path)
        assert main(["measure", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["rnd"] == 0.0

    def test_majority_rrd_is_null_with_note(self, tmp_path, capsys):
        path = tmp_path / "maj.csv"
        write_ranking_csv(ranking_from_flags([True] * 16 + [False] * 4), path)
        assert main(["measure", str(path)]) == 0
        out = capsys.readouterr().out
        head, _, note = out.rpartition("}\n")
        assert json.loads(head + "}")["rrd"] is None
        assert "inapplicable" in note

    def test_allow_majority_rrd_note(self, tmp_path, capsys):
        flags = [True] * 16 + [False] * 4
        path = tmp_path / "maj.csv"
        write_ranking_csv(ranking_from_flags(flags), path)
        assert main(["measure", str(path)]) == 0
        plain = capsys.readouterr().out
        assert main(["measure", str(path), "--allow-majority-rrd"]) == 0
        out = capsys.readouterr().out
        report, _, note = out.rpartition("}\n")
        assert report == plain.rpartition("}\n")[0]
        assert json.loads(report + "}")["rrd"] is None
        rrd = measure_from_flags(MeasureKind.RRD, flags, allow_majority_rrd=True)
        assert note == f"rRD (majority override) = {rrd:.6f}\n"

    def test_allow_majority_rrd_on_minority_is_a_no_op(self, segregated_csv, capsys):
        assert main(["measure", segregated_csv]) == 0
        plain = capsys.readouterr().out
        assert main(["measure", segregated_csv, "--allow-majority-rrd"]) == 0
        assert capsys.readouterr().out == plain

    def test_out_file(self, segregated_csv, tmp_path):
        out = tmp_path / "report.json"
        assert main(["measure", segregated_csv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 20

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        assert main(["measure", str(path)]) == 2

    def test_degenerate_group_exit_1(self, tmp_path):
        path = tmp_path / "deg.csv"
        write_ranking_csv(ranking_from_flags([True] * 5), path)
        assert main(["measure", str(path)]) == 1

    @pytest.mark.parametrize(
        "data,message",
        [
            (f"id,protected\na,0\n{'x' * 200_000},1\n".encode(), ":3: field larger than field limit"),
            (b"id,protected\na,0\n\xff,1\n", ": not UTF-8 text"),
        ],
        ids=["field_limit", "not_utf8"],
    )
    def test_unreadable_csv_exit_2(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        assert main(["measure", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}{message}")


class TestGenerate:
    def test_f_zero_layout(self, tmp_path):
        out = tmp_path / "g.csv"
        args = [
            "generate", "--n", "20", "--n-plus", "10",
            "--f", "0", "--seed", "1", "--out", str(out),
        ]
        assert main(args) == 0
        lines = out.read_text().splitlines()[1:]
        assert all(line.split(",")[1] == "0" for line in lines[:10])
        assert all(line.split(",")[1] == "1" for line in lines[10:])

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["generate", "--n", "50", "--n-plus", "20", "--f", "0.4", "--seed", "9"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_f_out_of_range_exit_2(self, tmp_path):
        out = tmp_path / "g.csv"
        args = ["generate", "--n", "20", "--n-plus", "10", "--f", "1.5", "--out", str(out)]
        assert main(args) == 2
        assert not out.exists()

    def test_negative_seed_exit_2_before_reading(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        args = [
            "generate", "--base", str(tmp_path / "missing.csv"), "--f", "0.5",
            "--seed", "-1", "--out", str(out),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_contradictory_flags_exit_2(self, tmp_path, segregated_csv):
        out = tmp_path / "g.csv"
        args = [
            "generate", "--n", "20", "--n-plus", "10",
            "--base", segregated_csv, "--f", "0.5", "--out", str(out),
        ]
        assert main(args) == 2

    def test_from_base(self, tmp_path, segregated_csv):
        out = tmp_path / "g.csv"
        args = ["generate", "--base", segregated_csv, "--f", "1", "--out", str(out)]
        assert main(args) == 0
        lines = out.read_text().splitlines()[1:]
        assert all(line.split(",")[1] == "1" for line in lines[:10])

    @pytest.mark.parametrize("n_plus", [0, 20])
    def test_degenerate_counts_exit_1(self, tmp_path, capsys, n_plus):
        out = tmp_path / "g.csv"
        args = [
            "generate", "--n", "20", "--n-plus", str(n_plus),
            "--f", "0.5", "--out", str(out),
        ]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            f"error: protected group size {n_plus} of 20 is degenerate\n"
        )
        assert not out.exists()

    def test_degenerate_base_exit_1(self, tmp_path, capsys):
        base, out = tmp_path / "base.csv", tmp_path / "g.csv"
        write_ranking_csv(ranking_from_flags([False] * 5), base)
        args = ["generate", "--base", str(base), "--f", "0.5", "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "error: protected group size 0 of 5 is degenerate\n"
        )
        assert not out.exists()


class TestSweep:
    def test_outputs(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        agg = tmp_path / "agg.csv"
        args = [
            "sweep", "--n", "20", "--n-plus", "5", "--f-grid", "0:1:0.5",
            "--seeds", "2", "--out", str(out), "--agg-out", str(agg),
        ]
        assert main(args) == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 2
        assert len(agg.read_text().splitlines()) == 1 + 3

    def test_rrd_empty_for_majority(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = [
            "sweep", "--n", "20", "--n-plus", "16", "--f-grid", "0:0:1",
            "--seeds", "1", "--out", str(out),
        ]
        assert main(args) == 0
        assert out.read_text().splitlines()[1].endswith(",")

    def test_bad_grid_exit_2(self, tmp_path):
        args = [
            "sweep", "--n", "20", "--n-plus", "5", "--f-grid", "oops",
            "--out", str(tmp_path / "s.csv"),
        ]
        assert main(args) == 2


    @pytest.mark.parametrize(
        "grid", ["0:1:nan", "nan:1:0.5", "0:inf:0.5", "0:1:inf"]
    )
    def test_non_finite_grid_exit_2(self, tmp_path, capsys, grid):
        args = [
            "sweep", "--n", "20", "--n-plus", "5", "--f-grid", grid,
            "--out", str(tmp_path / "s.csv"),
        ]
        assert main(args) == 2
        assert "--f-grid" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_grid_over_the_value_limit_exit_2_at_once(self, tmp_path, capsys):
        args = [
            "sweep", "--n", "20", "--n-plus", "5", "--f-grid", "0:1:1e-20",
            "--out", str(tmp_path / "s.csv"),
        ]
        start = time.perf_counter()
        assert main(args) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "has 100,000,000,000,000,000,000 values, more than 1,000,000" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "grid,size", [("0:1:0.001", 1001), ("0:1:1.0000001e-6", 10**6)]
    )
    def test_grid_up_to_the_limit_is_built(self, grid, size):
        assert len(cli.parse_f_grid(grid)) == size

    def test_negative_zero_grid_start_writes_zero(self, tmp_path):
        out, agg = tmp_path / "s.csv", tmp_path / "agg.csv"
        args = [
            "sweep", "--n", "20", "--n-plus", "5", "--f-grid=-0:1:0.5",
            "--seeds", "1", "--out", str(out), "--agg-out", str(agg),
        ]
        assert main(args) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()] == [
            "f", "0.000000", "0.500000", "1.000000",
        ]
        assert [line.split(",")[0] for line in agg.read_text().splitlines()] == [
            "f", "0.000000", "0.500000", "1.000000",
        ]

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_seeds_below_one_exit_2(self, tmp_path, capsys, seeds):
        out = tmp_path / "s.csv"
        args = [
            "sweep", "--n", "20", "--n-plus", "5", "--f-grid", "0:1:0.5",
            "--seeds", seeds, "--step", "1", "--out", str(out),
        ]
        assert main(args) == 2
        assert "--seeds" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--n-plus", "25"], "invalid counts n=20, n_plus=25"),
            (["--n", "1", "--n-plus", "0"], "invalid counts n=1, n_plus=0"),
            (["--n-plus", "0"], "protected group size 0 of 20 is degenerate"),
            (["--n-plus", "20"], "protected group size 20 of 20 is degenerate"),
            (["--n-plus", "0", "--step", "1"], "step must be >= 2, got 1"),
            (["--step", "1"], "step must be >= 2, got 1"),
        ],
    )
    def test_domain_errors_exit_1(self, tmp_path, capsys, flags, message):
        args = [
            "sweep", "--n", "20", "--n-plus", "5", "--f-grid", "0:1:0.5",
            "--seeds", "2", "--out", str(tmp_path / "s.csv"), *flags,
        ]
        assert main(args) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "grid,value", [("0:2:0.5", "1.5"), ("0:1e300:0.5", "1.5"), ("-0.5:1:0.5", "-0.5")]
    )
    def test_grid_outside_unit_interval_exit_2(self, tmp_path, capsys, grid, value):
        """As ``generate --f`` is, before any work."""
        args = [
            "sweep", "--n", "20", "--n-plus", "5", f"--f-grid={grid}",
            "--seeds", "2", "--out", str(tmp_path / "s.csv"),
        ]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == f"error: --f-grid values must be in [0, 1], got {value}\n"
        assert not list(tmp_path.iterdir())


    @pytest.mark.parametrize(
        "outputs",
        [["--agg-out", "s.csv"], ["--agg-out", "./sub/../s.csv"]],
        ids=["same", "same_resolved"],
    )
    def test_outputs_naming_one_file_exit_2(
        self, tmp_path, capsys, monkeypatch, outputs
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        args = [
            "sweep", "--n", "20", "--n-plus", "5", "--f-grid", "0:1:0.5",
            "--seeds", "2", "--out", "s.csv", *outputs,
        ]
        assert main(args) == 2
        assert "--out and --agg-out name the same file" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]


class TestRank:
    def test_rank_by_column(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "ranked.csv"
        args = [
            "rank", dataset_csv, "--id-col", "id",
            "--protected-col", "age", "--protected-less-than", "25",
            "--score-col", "income", "--out", str(out),
        ]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,protected,score"
        scores = [float(line.split(",")[2]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)
        assert "proportion" in capsys.readouterr().out

    def test_unknown_column_exit_2(self, dataset_csv, tmp_path, capsys):
        args = [
            "rank", dataset_csv, "--protected-col", "age",
            "--protected-less-than", "25", "--score-col", "nope",
            "--out", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--id-col", "--protected-col", "--score-col"])
    def test_unknown_column_names_it(self, dataset_csv, tmp_path, capsys, flag):
        columns = {"--id-col": "id", "--protected-col": "age", "--score-col": "income"}
        columns[flag] = "nope"
        args = ["rank", dataset_csv, "--protected-less-than", "25", "--out", str(tmp_path / "r.csv")]
        args += [word for pair in columns.items() for word in pair]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: unknown column 'nope'\n"

    def test_byte_order_mark_is_skipped(self, dataset_csv, tmp_path, capsys):
        """A dataset saved with a UTF-8 BOM (Excel's "CSV UTF-8") ranks as
        the same file without it, and so does the ranking it gives."""
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(dataset_csv).read_bytes())
        outs = []
        for src in (dataset_csv, marked):
            out = tmp_path / f"ranked_{len(outs)}.csv"
            args = [
                "rank", str(src), "--id-col", "id", "--protected-col", "age",
                "--protected-less-than", "30", "--score-sum", "income", "debt",
                "--out", str(out),
            ]
            assert main(args) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        capsys.readouterr()
        marked_ranking = tmp_path / "marked_ranking.csv"
        marked_ranking.write_bytes(b"\xef\xbb\xbf" + outs[0].read_bytes())
        reports = []
        for src in (outs[0], marked_ranking):
            assert main(["measure", str(src)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_missing_value_exit_1(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("id,v\na,1\nb,\n")
        args = [
            "rank", str(path), "--id-col", "id", "--protected-col", "v",
            "--protected-less-than", "2", "--score-col", "v",
            "--out", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 1

    def test_non_finite_score_exit_1(self, tmp_path, capsys):
        path = tmp_path / "nonfinite.csv"
        path.write_text("id,g,s\na,0,3\nb,1,nan\nc,0,inf\nd,1,2\ne,0,1\n")
        out = tmp_path / "r.csv"
        args = [
            "rank", str(path), "--id-col", "id", "--protected-col", "g",
            "--protected-equals", "1", "--score-col", "s", "--out", str(out),
        ]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "'s'" in err and "'b'" in err and "non-finite" in err
        assert not out.exists()

    def test_non_finite_threshold_column_exit_1(self, tmp_path, capsys):
        path = tmp_path / "nonfinite.csv"
        path.write_text("id,age,s\na,20,3\nb,30,2\nc,inf,1\n")
        args = [
            "rank", str(path), "--id-col", "id", "--protected-col", "age",
            "--protected-less-than", "25", "--score-col", "s",
            "--out", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 1
        assert "'age'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "predicate",
        [["--protected-equals", "1"], ["--protected-less-than", "1.5"]],
        ids=["equals", "less_than"],
    )
    def test_non_finite_protected_column_exit_1(self, tmp_path, capsys, predicate):
        path = tmp_path / "nonfinite.csv"
        path.write_text("id,g,s\nx,0,3\ny,nan,2\nz,1,1\n")
        out = tmp_path / "r.csv"
        args = [
            "rank", str(path), "--id-col", "id", "--protected-col", "g",
            *predicate, "--score-col", "s", "--out", str(out),
        ]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == "error: column 'g' has non-finite value nan at row id 'y'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "predicate",
        [["--protected-equals", "nan"], ["--protected-less-than", "nan"]],
        ids=["equals", "less_than"],
    )
    def test_nan_target_exit_2(self, dataset_csv, tmp_path, capsys, predicate):
        out = tmp_path / "r.csv"
        args = [
            "rank", dataset_csv, "--id-col", "id", "--protected-col", "age",
            *predicate, "--score-col", "income", "--out", str(out),
        ]
        assert main(args) == 2
        assert "target must not be NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,names",
        [
            (["--score-col", "s"], ["--protected-equals", "--protected-less-than"]),
            (
                ["--protected-equals", "1", "--protected-less-than", "2", "--score-col", "s"],
                ["--protected-equals", "--protected-less-than"],
            ),
            (["--protected-equals", "1"], ["--score-col", "--score-sum"]),
            (
                ["--protected-equals", "1", "--score-col", "s", "--score-sum", "s"],
                ["--score-col", "--score-sum"],
            ),
        ],
        ids=["no_predicate", "two_predicates", "no_score", "two_scores"],
    )
    def test_flag_pair_usage_error_exit_2(self, tmp_path, capsys, flags, names):
        """Each pair takes exactly one flag; the usage error comes before the
        input file is opened, so a missing file is not what gets reported."""
        out = tmp_path / "r.csv"
        args = [
            "rank", str(tmp_path / "nope.csv"), "--protected-col", "g", *flags,
            "--out", str(out),
        ]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names) and "no such file" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "text,flags",
        [
            ("id,age,s\n", ["--protected-less-than", "30"]),
            ("id,age,s\n", ["--protected-equals", "b"]),
            ("id,age,s\na,,1\nb,20,\n", ["--protected-less-than", "30"]),
            ("id,age,s\na,,1\nb,20,\n", ["--protected-equals", "b"]),
        ],
    )
    def test_no_data_rows_exit_1(self, tmp_path, capsys, text, flags):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        out = tmp_path / "r.csv"
        args = [
            "rank", str(path), "--id-col", "id", "--protected-col", "age",
            *flags, "--score-col", "s", "--drop-incomplete-rows", "--out", str(out),
        ]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {path}: no data rows\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "data,message",
        [
            (f"id,s\na,1\nb,{'9' * 200_000}\n".encode(), ":3: field larger than field limit"),
            (b"id,s\na,1\n\xff,2\n", ": not UTF-8 text"),
        ],
        ids=["field_limit", "not_utf8"],
    )
    def test_unreadable_csv_exit_1(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        out = tmp_path / "r.csv"
        args = [
            "rank", str(path), "--id-col", "id", "--protected-col", "s",
            "--protected-less-than", "2", "--score-col", "s", "--out", str(out),
        ]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}{message}")
        assert not out.exists()

    def test_duplicate_column_exit_1(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("id,g,a,b,a\nx,0,1,2,3\ny,1,4,5,6\nz,0,7,8,9\n")
        out = tmp_path / "r.csv"
        args = [
            "rank", str(path), "--id-col", "id", "--protected-col", "g",
            "--protected-equals", "1", "--score-col", "a", "--out", str(out),
        ]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {path}: duplicate column 'a'\n"
        assert not out.exists()

    def test_equals_text_on_numeric_column_exit_2(self, dataset_csv, tmp_path, capsys):
        args = [
            "rank", dataset_csv, "--id-col", "id", "--protected-col", "age",
            "--protected-equals", "b", "--score-col", "income",
            "--out", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "'age'" in err and "'b'" in err and "float" not in err

    def test_failed_run_leaves_no_output(self, dataset_csv, tmp_path):
        out = tmp_path / "r.csv"
        args = [
            "rank", dataset_csv, "--protected-col", "age",
            "--protected-less-than", "25", "--score-col", "nope",
            "--out", str(out),
        ]
        assert main(args) == 2
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))


DEGENERATE_GROUPS = {
    "none_protected": (["--protected-less-than", "0"], "size 0 of 30"),
    "all_protected": (["--protected-less-than", "100"], "size 30 of 30"),
}


@pytest.mark.parametrize("group", sorted(DEGENERATE_GROUPS))
@pytest.mark.parametrize("command", ["rank", "optimize"])
def test_degenerate_group_exit_1_before_any_output(
    dataset_csv, tmp_path, capsys, command, group
):
    """``rank`` and ``optimize`` reject a protected predicate that matches no
    row, or every row, as ``measure`` does, and write nothing."""
    predicate, size = DEGENERATE_GROUPS[group]
    outputs = (
        ["--out", str(tmp_path / "r.csv")]
        if command == "rank"
        else [
            "--k", "2", "--iters", "2",
            "--trace-out", str(tmp_path / "t.csv"),
            "--model-out", str(tmp_path / "m.json"),
            "--ranking-out", str(tmp_path / "r.csv"),
        ]
    )
    args = [
        command, dataset_csv, "--id-col", "id", "--protected-col", "age",
        *predicate, "--score-col", "income", *outputs,
    ]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: protected group {size} is degenerate\n"
    assert [p.name for p in tmp_path.iterdir()] == ["people.csv"]


# Exit-code cases as (argv, stderr message). "{name}" in either is the path of
# input ``name`` (the ``dataset_csv`` fixture or one of INPUTS); "{out}" is a
# directory that must stay empty.
INPUTS = {
    "ranking": "id,protected,score\na,1,0.9\nb,0,0.5\nc,1,0.2\nd,0,0.1\n",
    "repeated_id": "id,protected,score\na,1,0.9\na,0,0.5\nc,1,0.2\n",
    "one_row": "id,protected,score\na,1,0.9\n",
    "repeated_row_id": "id,g,x\n1,0,0.5\n1,1,0.2\n3,0,0.3\n",
}
OPTIMIZE = [
    "optimize", "{people}", "--id-col", "id", "--protected-col", "age",
    "--protected-less-than", "25", "--score-col", "income", "--iters", "2",
    "--trace-out", "{out}/t.csv", "--model-out", "{out}/m.json",
    "--ranking-out", "{out}/r.csv",
]
EXIT_1 = {
    "measure_step_1": (
        ["measure", "{ranking}", "--step", "1", "--out", "{out}/m.json"],
        "step must be >= 2, got 1",
    ),
    "optimize_step_1": ([*OPTIMIZE, "--k", "2", "--step", "1"], "step must be >= 2, got 1"),
    "measure_repeated_id": (
        ["measure", "{repeated_id}", "--out", "{out}/m.json"], "duplicate id 'a'"
    ),
    "measure_one_row": (["measure", "{one_row}", "--out", "{out}/m.json"], "n < 2 (got 1)"),
    "rank_repeated_row_id": (
        [
            "rank", "{repeated_row_id}", "--id-col", "id", "--protected-col", "g",
            "--protected-equals", "1", "--score-col", "x", "--out", "{out}/r.csv",
        ],
        "{repeated_row_id}: duplicate row id '1'",
    ),
    "optimize_k_above_rows": ([*OPTIMIZE, "--k", "31"], "k=31 exceeds row count 30"),
}
EXIT_2 = {
    "generate_n_alone": (
        ["generate", "--n", "20", "--f", "0.5", "--out", "{out}/g.csv"],
        "--n and --n-plus go together",
    ),
    "generate_n_plus_alone": (
        ["generate", "--n-plus", "5", "--f", "0.5", "--out", "{out}/g.csv"],
        "--n and --n-plus go together",
    ),
    "generate_n_with_base": (
        ["generate", "--n", "20", "--base", "{ranking}", "--f", "0.5", "--out", "{out}/g.csv"],
        "give either --n/--n-plus or --base, not both",
    ),
}


def check_exit_case(tmp_path, capsys, dataset_csv, code, argv, message):
    """Run one exit-code case: it exits ``code`` with ``message`` alone on
    stderr and writes no output file."""
    paths = {"people": dataset_csv, "out": str(tmp_path / "out")}
    for name, text in INPUTS.items():
        paths[name] = str(tmp_path / f"{name}.csv")
        Path(paths[name]).write_text(text)
    (tmp_path / "out").mkdir()
    assert main([arg.format(**paths) for arg in argv]) == code
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize("case", sorted(EXIT_1))
def test_domain_error_cases_exit_1(dataset_csv, tmp_path, capsys, case):
    check_exit_case(tmp_path, capsys, dataset_csv, 1, *EXIT_1[case])


@pytest.mark.parametrize("case", sorted(EXIT_2))
def test_usage_error_cases_exit_2(dataset_csv, tmp_path, capsys, case):
    check_exit_case(tmp_path, capsys, dataset_csv, 2, *EXIT_2[case])


class TestOsErrors:
    """An unreadable input or unwritable output path exits 2 with the path the
    user gave, no traceback, and no temp file left behind."""

    def test_missing_output_directory(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.csv"
        args = ["generate", "--n", "20", "--n-plus", "5", "--f", "0.3", "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {os.strerror(errno.ENOENT)}: {out}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "agg, made, code",
        [
            ("missing/agg.csv", None, errno.ENOENT),
            ("file/agg.csv", "file", errno.ENOTDIR),
            ("dir", "dir", errno.EISDIR),
        ],
    )
    def test_sweep_outputs_checked_first(self, tmp_path, capsys, agg, made, code):
        """A second output whose directory is missing or a file, or which is
        itself a directory, fails the run before the first output is written."""
        if made == "file":
            (tmp_path / made).write_text("kept\n")
        elif made == "dir":
            (tmp_path / made).mkdir()
        agg = tmp_path / agg
        args = [
            "sweep", "--n", "20", "--n-plus", "5", "--f-grid", "0:1:0.5", "--seeds", "2",
            "--out", str(tmp_path / "ok.csv"), "--agg-out", str(agg),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {os.strerror(code)}: {agg}\n"
        assert [p.name for p in tmp_path.iterdir()] == ([made] if made else [])

    def test_optimize_outputs_checked_first(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "missing" / "r.csv"
        args = [
            "optimize", dataset_csv, "--id-col", "id",
            "--protected-col", "age", "--protected-less-than", "25",
            "--score-sum", "income", "debt", "--k", "3", "--iters", "5",
            "--trace-out", str(tmp_path / "t.csv"), "--model-out", str(tmp_path / "m.json"),
            "--ranking-out", str(out),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {os.strerror(errno.ENOENT)}: {out}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["people.csv"]

    def test_directory_as_input(self, tmp_path, capsys):
        assert main(["measure", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {os.strerror(errno.EISDIR)}: {tmp_path}\n"

    def test_directory_as_output(self, segregated_csv, tmp_path, capsys):
        out = tmp_path / "report"
        out.mkdir()
        assert main(["measure", segregated_csv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {os.strerror(errno.EISDIR)}: {out}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report", "segregated.csv"]
        assert list(out.iterdir()) == []


class TestOutOfMemory:
    """A failed allocation exits 1 with the command's name, no traceback and
    no output file. The allocating functions are patched to raise, so no
    large array is ever requested."""

    @pytest.mark.parametrize(
        "argv, patched",
        [
            (["generate", "--f", "0.5"], "random_base_ranking"),
            (["sweep", "--f-grid", "0:1:0.5"], "sweep_values"),
        ],
        ids=["generate", "sweep"],
    )
    def test_exit_1_with_message(self, tmp_path, capsys, monkeypatch, argv, patched):
        calls = []

        def out_of_memory(*args, **kwargs):
            calls.append(args)
            raise MemoryError("Unable to allocate 7.11 PiB")

        monkeypatch.setattr(generator, patched, out_of_memory)
        out = tmp_path / "out.csv"
        args = argv + ["--n", "1000000000000000", "--n-plus", "10", "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: out of memory: {argv[0]}\n"
        assert list(tmp_path.iterdir()) == []
        # the patched function is the one the command ran out of memory in
        assert len(calls) == 1

    def test_seeds_beyond_the_index_range(self, tmp_path, capsys):
        """A seed count that no array index can hold exits 1 as one too large
        for memory does, before any array is allocated."""
        args = [
            "sweep", "--n", "20", "--n-plus", "5", "--f-grid", "0:1:0.5",
            "--seeds", str(2**70), "--out", str(tmp_path / "s.csv"),
        ]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: out of memory: sweep\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--n", "20", "--n-plus", "5", "--f-grid", "0:1:0.5", "--seeds", str(2**62)],
            ["sweep", "--n", str(2**70), "--n-plus", "5", "--f-grid", "0:1:0.5", "--seeds", "1"],
            ["generate", "--n", str(2**70), "--n-plus", "5", "--f", "0.5"],
        ],
        ids=["sweep_seeds", "sweep_n", "generate_n"],
    )
    def test_array_past_the_index_range(self, tmp_path, capsys, argv):
        """An array whose bytes no index can hold, which numpy rejects with
        its own text, exits 1 as one too large for memory does, before
        anything is allocated."""
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == f"error: out of memory: {argv[0]}\n"
        assert list(tmp_path.iterdir()) == []


class TestStepBeyondInt64:
    """A step of 2**70, which no int64 holds, leaves the single cutoff n, as a
    step of n does: each command exits 0 with the same output bytes, apart
    from the report's step."""

    STEP = str(2**70)

    def test_measure(self, segregated_csv, capsys):
        texts = []
        for step in ("20", self.STEP):
            assert main(["measure", segregated_csv, "--step", step]) == 0
            texts.append(capsys.readouterr().out)
        assert '"step": 20,' in texts[0]
        assert texts[1] == texts[0].replace('"step": 20,', f'"step": {self.STEP},')

    def test_sweep(self, tmp_path):
        for tag, step in (("n", "20"), ("big", self.STEP)):
            args = [
                "sweep", "--n", "20", "--n-plus", "5", "--f-grid", "0:1:0.5",
                "--seeds", "3", "--step", step, "--out", str(tmp_path / f"{tag}.csv"),
            ]
            assert main(args) == 0
        for suffix in (".csv", ".agg.csv"):
            assert (tmp_path / f"big{suffix}").read_bytes() == (
                (tmp_path / f"n{suffix}").read_bytes()
            )

    def test_optimize(self, dataset_csv, tmp_path):
        outputs = ("t.csv", "m.json", "r.csv")
        for tag, step in (("n", "30"), ("big", self.STEP)):
            (tmp_path / tag).mkdir()
            args = [
                arg.format(people=dataset_csv, out=tmp_path / tag)
                for arg in [*OPTIMIZE, "--k", "3", "--step", step]
            ]
            assert main(args) == 0
        for name in outputs:
            assert (tmp_path / "big" / name).read_bytes() == (
                (tmp_path / "n" / name).read_bytes()
            ), name


class TestOptimize:
    def base_args(self, dataset_csv, tmp_path, tag):
        return [
            "optimize", dataset_csv, "--id-col", "id",
            "--protected-col", "age", "--protected-less-than", "25",
            "--score-sum", "income", "debt",
            "--k", "3", "--iters", "20", "--seed", "4",
            "--trace-out", str(tmp_path / f"t{tag}.csv"),
            "--model-out", str(tmp_path / f"m{tag}.json"),
            "--ranking-out", str(tmp_path / f"r{tag}.csv"),
        ]

    def test_outputs_exist(self, dataset_csv, tmp_path):
        assert main(self.base_args(dataset_csv, tmp_path, "a")) == 0
        trace = (tmp_path / "ta.csv").read_text().splitlines()
        assert trace[0] == "iter,L,L_x,L_y,L_z,rnd,rkl,rrd,score_diff"
        assert len(trace) == 21
        model = json.loads((tmp_path / "ma.json").read_text())
        assert model["K"] == 3
        assert (tmp_path / "ra.csv").read_text().startswith("id,protected,score")

    def test_deterministic_traces(self, dataset_csv, tmp_path):
        assert main(self.base_args(dataset_csv, tmp_path, "b")) == 0
        assert main(self.base_args(dataset_csv, tmp_path, "c")) == 0
        assert (tmp_path / "tb.csv").read_bytes() == (tmp_path / "tc.csv").read_bytes()

    def test_single_prototype_no_parity_loss(self, dataset_csv, tmp_path):
        args = self.base_args(dataset_csv, tmp_path, "d")
        args[args.index("--k") + 1] = "1"
        assert main(args) == 0
        for line in (tmp_path / "td.csv").read_text().splitlines()[1:]:
            assert float(line.split(",")[4]) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_feature_column_exit_1(self, tmp_path, capsys, bad):
        path = tmp_path / "features.csv"
        path.write_text(f"id,age,s,x\na,20,3,1\nb,30,2,{bad}\nc,40,1,2\nd,22,0,3\n")
        args = [
            "optimize", str(path), "--id-col", "id", "--protected-col", "age",
            "--protected-less-than", "25", "--score-col", "s",
            "--features", "s", "x", "--k", "2", "--iters", "2",
            "--trace-out", str(tmp_path / "t.csv"),
            "--model-out", str(tmp_path / "m.json"),
            "--ranking-out", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "'x'" in err and "'b'" in err and "non-finite" in err
        assert not (tmp_path / "t.csv").exists()

    def test_unknown_feature_column_exit_2(self, dataset_csv, tmp_path, capsys):
        args = self.base_args(dataset_csv, tmp_path, "u") + ["--features", "income", "nope"]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: unknown column 'nope'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["people.csv"]

    def test_non_finite_model_scores_exit_1(self, dataset_csv, tmp_path, capsys):
        args = self.base_args(dataset_csv, tmp_path, "n") + ["--lr", "1e160", "--iters", "1"]
        assert main(args) == 1
        assert "not all finite" in capsys.readouterr().err
        for name in ("tn.csv", "mn.json", "rn.csv"):
            assert not (tmp_path / name).exists()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize(
        "flag,value,name",
        [("--ax", "nan", "a_x"), ("--az", "inf", "a_z"),
         ("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate")],
    )
    def test_non_finite_hyperparameter_exit_1(
        self, dataset_csv, tmp_path, capsys, flag, value, name
    ):
        args = self.base_args(dataset_csv, tmp_path, "h") + [flag, value]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"
        assert not (tmp_path / "th.csv").exists()

    @pytest.mark.parametrize(
        "first,second",
        [("--trace-out", "--model-out"), ("--trace-out", "--ranking-out"),
         ("--model-out", "--ranking-out")],
    )
    def test_outputs_naming_one_file_exit_2(
        self, dataset_csv, tmp_path, capsys, first, second
    ):
        args = self.base_args(dataset_csv, tmp_path, "s")
        args[args.index(second) + 1] = args[args.index(first) + 1]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{first} and {second} name the same file" in err
        assert [p.name for p in tmp_path.iterdir()] == ["people.csv"]

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--k", "0", "k must be >= 1, got 0"),
         ("--lr", "0", "learning_rate must be > 0, got 0.0"),
         ("--iters", "0", "max_iters must be >= 1, got 0")],
    )
    def test_hyperparameter_out_of_range_exit_1(
        self, dataset_csv, tmp_path, capsys, flag, value, message
    ):
        args = self.base_args(dataset_csv, tmp_path, "h") + [flag, value]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "th.csv").exists()

    def test_negative_seed_exit_2_before_reading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        args = self.base_args(missing, tmp_path, "s") + ["--seed", "-1"]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not list(tmp_path.iterdir())

    def test_categorical_feature_exit_2(self, tmp_path, capsys):
        path = tmp_path / "features.csv"
        path.write_text("id,age,s,kind\na,20,3,x\nb,30,2,y\nc,40,1,x\nd,22,0,y\n")
        args = [
            "optimize", str(path), "--id-col", "id", "--protected-col", "age",
            "--protected-less-than", "25", "--score-col", "s",
            "--features", "s", "kind", "--k", "2", "--iters", "2",
            "--trace-out", str(tmp_path / "t.csv"),
            "--model-out", str(tmp_path / "m.json"),
            "--ranking-out", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "min-max normalization needs a numeric column" in err and "'kind'" in err
        assert not (tmp_path / "t.csv").exists()

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RUNS = {
    "k4": [
        "--score-sum", "skill", "rating",
        "--features", "skill", "experience", "rating",
        "--k", "4", "--iters", "40", "--lr", "0.1", "--ax", "0.05",
        "--az", "3", "--seed", "3", "--step", "5",
    ],
    "k1": ["--score-col", "rating", "--k", "1", "--iters", "12", "--seed", "0"],
}


@pytest.mark.parametrize("tag", sorted(GOLDEN_RUNS))
def test_optimize_golden_outputs(tag, tmp_path):
    """The trace, model and ranking files equal, byte for byte, the ones the
    per-call training loop wrote for this dataset (ids "p1".."p48", whose
    string order differs from row order; with one prototype every score
    ties, so the ranking is the id order)."""
    outs = {
        kind: tmp_path / f"optimize_{tag}_{kind}"
        for kind in ("trace.csv", "model.json", "ranking.csv")
    }
    args = [
        "optimize", str(GOLDEN / "optimize_dataset.csv"), "--id-col", "id",
        "--protected-col", "age", "--protected-less-than", "30",
        *GOLDEN_RUNS[tag],
        "--trace-out", str(outs["trace.csv"]),
        "--model-out", str(outs["model.json"]),
        "--ranking-out", str(outs["ranking.csv"]),
    ]
    assert main(args) == 0
    for path in outs.values():
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


MEASURE_GOLDEN_ARGS = {
    "minority": [],
    "majority": [],
    "short": [],
    "step3": ["--step", "3"],
}


@pytest.mark.parametrize("tag", sorted(MEASURE_GOLDEN_ARGS))
def test_measure_golden_outputs(tag, tmp_path):
    """The report JSON equals, byte for byte, the one the per-cutoff report
    loop wrote: a minority group with n = 137 (the last cutoff is not a
    multiple of the step), a majority group (rRD null), n <= step (every
    value 0) and step 3."""
    out = tmp_path / f"measure_{tag}.json"
    args = ["measure", str(GOLDEN / f"measure_{tag}.csv"), "--out", str(out)]
    assert main(args + MEASURE_GOLDEN_ARGS[tag]) == 0
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


@pytest.mark.parametrize("step", [2, 3, 10])
@pytest.mark.parametrize("tag", sorted(MEASURE_GOLDEN_ARGS))
def test_allow_majority_rrd_note_equals_the_flag_measure(tag, step, capsys):
    """``--allow-majority-rrd`` leaves the report as it is. For a majority
    group its note gives the rRD that ``measure_from_flags`` computes with
    the override; for a minority group the output is unchanged."""
    path = GOLDEN / f"measure_{tag}.csv"
    args = ["measure", str(path), "--step", str(step)]
    assert main(args) == 0
    plain = capsys.readouterr().out
    assert main([*args, "--allow-majority-rrd"]) == 0
    out = capsys.readouterr().out
    flags = ranking.read_ranking_csv(path).flags
    if 2 * int(flags.sum()) <= flags.size:
        assert out == plain
    else:
        rrd = measure_from_flags(MeasureKind.RRD, flags, step, allow_majority_rrd=True)
        report, _, note = out.rpartition("}\n")
        assert report == plain.rpartition("}\n")[0]
        assert note == f"rRD (majority override) = {rrd:.6f}\n"


SWEEP_GOLDEN_ARGS = {
    "minority": ["--n", "1000", "--n-plus", "300", "--f-grid", "0:1:0.1", "--seeds", "10"],
    "majority": ["--n", "1000", "--n-plus", "700", "--f-grid", "0:1:0.1", "--seeds", "10"],
    "short": ["--n", "8", "--n-plus", "3", "--f-grid", "0:1:0.25", "--seeds", "5"],
    "step3": [
        "--n", "137", "--n-plus", "40", "--f-grid", "0:1:0.1", "--seeds", "10",
        "--step", "3",
    ],
}


@pytest.mark.parametrize("tag", sorted(SWEEP_GOLDEN_ARGS))
def test_sweep_golden_outputs(tag, tmp_path):
    """The per-cell and per-f CSVs equal, byte for byte, the ones the
    per-cell ``Item`` loop wrote: a minority group, a majority group (rRD
    empty), n <= step (every value 0) and step 3 with n = 137."""
    out = tmp_path / f"sweep_{tag}.csv"
    assert main(["sweep", *SWEEP_GOLDEN_ARGS[tag], "--out", str(out)]) == 0
    for name in (out.name, f"sweep_{tag}.agg.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_sweep_pools_repeated_f_values(tmp_path):
    """A grid that ``parse_f_grid`` rounds to repeated values gives one
    line per distinct f, each the mean of every cell of that f."""
    grid_text = "0.5:0.50000000001:1e-13"
    out = tmp_path / "s.csv"
    args = ["--n", "20", "--n-plus", "6", "--f-grid", grid_text, "--seeds", "2"]
    assert main(["sweep", *args, "--out", str(out)]) == 0
    grid = cli.parse_f_grid(grid_text)
    cells = sweep_cells(grid, range(2), generator.sweep_values(20, 6, grid, range(2)))
    f, means = reference_aggregate_sweep(cells)
    want = "f,rnd,rkl,rrd\n" + "".join(
        ",".join("" if x != x else "%f" % x for x in (g, *row)) + "\n"
        for g, row in zip(f.tolist(), means.tolist())
    )
    text = (tmp_path / "s.agg.csv").read_text()
    assert len(grid) == 10101 and text.count("\n") == 1 + 1011
    assert text == want


RANK_GOLDEN_ARGS = {
    "sum": [
        "rank_dataset.csv", "--id-col", "id", "--protected-col", "group",
        "--protected-equals", "b", "--score-sum", "x", "y",
    ],
    "col": [
        "rank_dataset.csv", "--id-col", "id", "--protected-col", "group",
        "--protected-equals", "b", "--score-col", "z",
    ],
    "less_than": [
        "rank_dataset.csv", "--id-col", "id", "--protected-col", "age",
        "--protected-less-than", "30", "--score-sum", "x", "y", "z",
    ],
    "drop": [
        "rank_incomplete.csv", "--protected-col", "age", "--protected-less-than",
        "40", "--score-sum", "x", "y", "--drop-incomplete-rows",
    ],
}


@pytest.mark.parametrize("tag", sorted(RANK_GOLDEN_ARGS))
def test_rank_golden_outputs(tag, tmp_path):
    """The ranking CSV equals, byte for byte, the one the per-row ``Item``
    ingest wrote. The ids "i1".."i40" sort differently from row order, and
    the summed scores tie often, so the id tie break decides many positions;
    ``z`` holds the tokens "-0.0", "0", "1e2", "1_0" and " 2.5". The dropped
    rows leave default row ids "1".."21", whose string order differs from
    their numeric order."""
    src, *flags = RANK_GOLDEN_ARGS[tag]
    out = tmp_path / f"rank_{tag}.csv"
    assert main(["rank", str(GOLDEN / src), *flags, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


def test_generate_golden_output(tmp_path):
    out = tmp_path / "generate.csv"
    args = [
        "generate", "--n", "50", "--n-plus", "20", "--f", "0.3", "--seed", "4",
        "--out", str(out),
    ]
    assert main(args) == 0
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


def test_golden_directory_holds_only_what_the_golden_tests_read():
    """A stale committed artifact, or a golden file no test reads, fails
    here: the directory holds exactly the inputs and outputs above."""
    read = {"optimize_dataset.csv", "generate.csv"}
    read |= {f"optimize_{tag}_{kind}" for tag in GOLDEN_RUNS
             for kind in ("trace.csv", "model.json", "ranking.csv")}
    read |= {f"measure_{tag}{ext}" for tag in MEASURE_GOLDEN_ARGS for ext in (".csv", ".json")}
    read |= {f"sweep_{tag}{ext}" for tag in SWEEP_GOLDEN_ARGS for ext in (".csv", ".agg.csv")}
    read |= {f"rank_{tag}.csv" for tag in RANK_GOLDEN_ARGS}
    read |= {src for src, *_ in RANK_GOLDEN_ARGS.values()}
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(read)


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("measure", "generate", "sweep", "rank", "optimize"):
        assert cmd in out


def test_main_builds_the_parser_once(monkeypatch, segregated_csv, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "rankfair":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        assert main(["measure", segregated_csv]) == 0
        assert main(["measure", segregated_csv]) == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1


# argv per command, with how many times it checks a 30-row id column for
# repeats: ``load_table`` checks a given id column, ``read_ranking_csv`` the
# ranking it reads, and ``apply_model`` the ranking of its estimated scores.
# Numbered rows, generated ids and rankings made from checked ids are not
# checked again.
ID_CHECKS = {
    "generate": (0, ["generate", "--n", "30", "--n-plus", "9", "--f", "0.3", "--out", "g.csv"]),
    "rank": (0, ["rank", "{data}", "--score-col", "income", "--out", "r.csv"]),
    "rank_id_col": (1, ["rank", "{data}", "--id-col", "id", "--score-col", "income", "--out", "r.csv"]),
    "measure": (1, ["measure", "ranked.csv", "--out", "m.json"]),
    "optimize_id_col": (2, [
        "optimize", "{data}", "--id-col", "id", "--score-sum", "income", "debt",
        "--k", "3", "--iters", "2", "--trace-out", "t.csv", "--model-out", "m.json",
        "--ranking-out", "o.csv",
    ]),
}


@pytest.mark.parametrize("case", sorted(ID_CHECKS))
def test_ids_are_checked_for_repeats_where_they_enter(
    case, dataset_csv, tmp_path, monkeypatch, capsys
):
    checks, argv = ID_CHECKS[case]
    flags = [j % 3 == 0 for j in range(30)]
    write_ranking_csv(ranking_from_flags(flags), tmp_path / "ranked.csv")
    monkeypatch.chdir(tmp_path)
    calls = []

    def counted(ids, _real=ranking.duplicates):
        if len(ids) == 30:  # an id column, not the dataset's header
            calls.append(ids)
        return _real(ids)

    monkeypatch.setattr(ranking, "duplicates", counted)
    monkeypatch.setattr(ingest, "duplicates", counted)
    protected = ["--protected-col", "age", "--protected-less-than", "25"]
    argv = [dataset_csv if arg == "{data}" else arg for arg in argv]
    assert main(argv + (protected if argv[0] in ("rank", "optimize") else [])) == 0
    assert len(calls) == checks


def test_audit_time_stays_in_the_traced_layers(dataset_csv, tmp_path, monkeypatch, capsys):
    """``rank --id-col`` then ``measure`` call each function that the
    benchmark traces for the audit path once, through the module attribute
    that ``cli`` reads, so a refactor cannot move their time elsewhere."""
    calls = {}
    names = [
        (ingest, "load_table"), (ingest, "score_and_rank"),
        (ranking, "write_ranking_csv"), (ranking, "read_ranking_csv"),
        (measures, "fairness_report"), (measures, "report_to_json"),
    ]
    for module, name in names:
        def counted(*args, _real=getattr(module, name), _key=name, **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    ranked = str(tmp_path / "ranked.csv")
    assert main([
        "rank", dataset_csv, "--id-col", "id", "--protected-col", "age",
        "--protected-less-than", "25", "--score-col", "income", "--out", ranked,
    ]) == 0
    assert main(["measure", ranked, "--out", str(tmp_path / "m.json")]) == 0
    assert calls == {name: 1 for _, name in names}
