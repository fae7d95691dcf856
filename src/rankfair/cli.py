"""Command-line surface: measure, generate, sweep, rank, optimize.

Exit codes: 0 success, 1 domain error (degenerate group, missing values,
divergence, out of memory), 2 usage error (bad flags, malformed input, unknown
columns, an unreadable input or unwritable output path). The library's writers
write every output file atomically, so a failed run leaves nothing partial
behind.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import fairopt, generator, ingest, measures, ranking

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


# more f values than any sweep needs; a tiny step is a usage error, not a
# loop that never returns
MAX_F_GRID_VALUES = 10**6


class _UsageError(ValueError):
    pass


def parse_f_grid(text: str) -> list[float]:
    """The f values ``start, start + step, ...`` up to ``stop`` inclusive, and
    past 1 by at most one value; a malformed grid, or one of more than
    ``MAX_F_GRID_VALUES`` values, raises ValueError."""
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"non-numeric f-grid {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise _UsageError(f"--f-grid needs finite start, stop and step, got {text!r}")
    if step <= 0 or stop < start:
        raise _UsageError(f"bad f-grid {text!r}")
    # the loop below ends at stop or at the first value past 1
    count = (min(stop + 1e-9, max(start, 1.0) + step) - start) // step + 1
    if count > MAX_F_GRID_VALUES:
        raise _UsageError(
            f"f-grid {text!r} has {count:,.0f} values, more than "
            f"{MAX_F_GRID_VALUES:,}"
        )
    grid = []
    v = start
    # a value above 1 is rejected later, so the grid need not grow past it
    while v <= stop + 1e-9 and (not grid or grid[-1] <= 1.0):
        grid.append(round(v, 12) + 0.0)  # + 0.0 turns a -0.0 into 0.0
        v = start + len(grid) * step
    return grid


def _require_distinct_outputs(*flag_paths: tuple[str, str]) -> None:
    """A usage error when two output flags resolve to one file, since the
    later write would replace the earlier one."""
    seen: dict[str, str] = {}
    for flag, path in flag_paths:
        key = os.path.realpath(path)
        if key in seen:
            raise _UsageError(f"{seen[key]} and {flag} name the same file {path}")
        seen[key] = flag


def _require_seed(seed: int) -> None:
    if seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {seed}")


def _protected_spec(args) -> ingest.ProtectedSpec:
    if args.protected_equals is not None:
        return ingest.ProtectedSpec.equals(args.protected_col, args.protected_equals)
    return ingest.ProtectedSpec.less_than(
        args.protected_col, args.protected_less_than
    )


def _score_spec(args) -> ingest.ScoreSpec:
    if args.score_col is not None:
        return ingest.ScoreSpec.single_attribute(args.score_col)
    return ingest.ScoreSpec.equal_weight_sum(args.score_sum)


def cmd_measure(args) -> int:
    rk = ranking.read_ranking_csv(args.ranking_csv)
    report = measures.fairness_report(rk, step=args.step)
    if report.rrd is None and not args.allow_majority_rrd:
        note = "rRD inapplicable: protected group is the majority"
    elif report.rrd is None and args.allow_majority_rrd:
        rrd = measures.measure_from_flags(
            measures.MeasureKind.RRD, rk.flags, args.step, allow_majority_rrd=True
        )
        note = f"rRD (majority override) = {rrd:.6f}"
    else:
        note = None
    del rk  # free the ids, most of the memory of a large ranking, before the text
    text = measures.report_to_json(report)
    if args.out:
        with ranking.open_atomic(args.out) as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    if note:
        print(note)
    return EXIT_OK


def cmd_generate(args) -> int:
    _require_seed(args.seed)
    have_counts = args.n is not None or args.n_plus is not None
    if have_counts == (args.base is not None):
        raise _UsageError("give either --n/--n-plus or --base, not both")
    if have_counts and (args.n is None or args.n_plus is None):
        raise _UsageError("--n and --n-plus go together")
    if not 0.0 <= args.f <= 1.0:
        raise _UsageError(f"--f must be in [0, 1], got {args.f}")
    if args.base is not None:
        base = ranking.read_ranking_csv(args.base)
    else:
        base = generator.random_base_ranking(args.n, args.n_plus, args.seed)
    measures.check_group(base.n, base.n_plus)
    out = generator.generate_unfair(base, args.f, args.seed)
    ranking.write_ranking_csv(out, args.out)
    print(f"wrote {args.out} ({out.n} items, {out.n_plus} protected)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.seeds < 1:
        raise _UsageError(f"--seeds must be >= 1, got {args.seeds}")
    agg_out = args.agg_out or str(Path(args.out).with_suffix(".agg.csv"))
    _require_distinct_outputs(("--out", args.out), ("--agg-out", agg_out))
    f_grid = parse_f_grid(args.f_grid)
    seeds = list(range(args.seeds))
    rows = generator.sweep(args.n, args.n_plus, f_grid, seeds, step=args.step)
    aggs = generator.aggregate_sweep(rows)
    generator.write_sweep_csv(rows, args.out)
    generator.write_aggregate_csv(aggs, agg_out)
    print(f"wrote {args.out} ({len(rows)} rows) and {agg_out} ({len(aggs)} rows)")
    return EXIT_OK


def _load_ranked_dataset(args):
    table = ingest.load_table(
        args.dataset_csv,
        row_id_column=args.id_col,
        drop_incomplete_rows=args.drop_incomplete_rows,
    )
    protected, proportion = ingest.derive_protected(table, _protected_spec(args))
    measures.check_group(protected.size, int(np.count_nonzero(protected)))
    return table, protected, proportion


def cmd_rank(args) -> int:
    table, protected, proportion = _load_ranked_dataset(args)
    rk = ingest.score_and_rank(table, _score_spec(args), protected)
    ranking.write_ranking_csv(rk, args.out)
    if table.dropped_rows:
        print(f"dropped {len(table.dropped_rows)} incomplete rows")
    print(
        f"wrote {args.out} ({rk.n} items, protected proportion "
        f"{proportion:.6f})"
    )
    return EXIT_OK


def cmd_optimize(args) -> int:
    _require_seed(args.seed)
    _require_distinct_outputs(
        ("--trace-out", args.trace_out),
        ("--model-out", args.model_out),
        ("--ranking-out", args.ranking_out),
    )
    table, protected, proportion = _load_ranked_dataset(args)
    score_spec = _score_spec(args)
    scores = ingest.compute_scores(table, score_spec)
    feature_cols = args.features or list(score_spec.columns)
    for name in feature_cols:
        if table.is_numeric(name):
            ingest.require_finite(table, name)
    features = fairopt.FeatureMatrix(
        x=np.column_stack([table.normalized(c) for c in feature_cols]),
        protected=protected,
        y=ingest.minmax_normalize(scores),
        ids=table.row_ids,
    )
    hyper = fairopt.Hyperparams(
        a_x=args.ax,
        a_y=args.ay,
        a_z=args.az,
        k=args.k,
        learning_rate=args.lr,
        max_iters=args.iters,
        seed=args.seed,
    )
    model, traces = fairopt.train(features, hyper, step=args.step)
    _, ranked = fairopt.apply_model(features, model)
    fairopt.write_trace_csv(traces, args.trace_out)
    fairopt.save_model(model, hyper, args.model_out)
    ranking.write_ranking_csv(ranked, args.ranking_out)
    last = traces[-1]
    print(
        f"finished after {len(traces)} iterations: L={last.total:.6f} "
        f"L_z={last.l_z:.6f} rkl={last.rkl:.6f} score_diff={last.score_diff:.6f}"
    )
    print(f"wrote {args.trace_out}, {args.model_out}, {args.ranking_out}")
    return EXIT_OK


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset_csv", help="input dataset CSV with header")
    p.add_argument("--id-col", default=None, help="row id column (default: row number)")
    p.add_argument("--protected-col", required=True, help="protected attribute column")
    predicate = p.add_mutually_exclusive_group(required=True)
    predicate.add_argument(
        "--protected-equals",
        default=None,
        help="protected iff column equals this value",
    )
    predicate.add_argument(
        "--protected-less-than",
        type=float,
        default=None,
        help="protected iff column is below this threshold",
    )
    score = p.add_mutually_exclusive_group(required=True)
    score.add_argument("--score-col", default=None, help="rank by this raw column")
    score.add_argument(
        "--score-sum",
        nargs="+",
        default=None,
        metavar="COL",
        help="rank by the equal-weight sum of these min-max normalized columns",
    )
    p.add_argument(
        "--drop-incomplete-rows",
        action="store_true",
        help="drop rows with missing values instead of failing",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every ``main``
    call; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="rankfair",
        description="Statistical-parity measures and re-scoring for rankings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="compute rND/rKL/rRD for a ranking CSV")
    p.add_argument("ranking_csv", help="ranking CSV (id,protected,score)")
    p.add_argument("--step", type=int, default=10, help="cutoff step (default 10)")
    p.add_argument(
        "--allow-majority-rrd",
        action="store_true",
        help="also report rRD when the protected group is the majority",
    )
    p.add_argument("--out", default=None, help="write report JSON here instead of stdout")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("generate", help="generate a ranking of controlled unfairness")
    p.add_argument("--n", type=int, default=None, help="item count for a random base")
    p.add_argument("--n-plus", type=int, default=None, help="protected count")
    p.add_argument("--base", default=None, help="use this ranking CSV as the base")
    p.add_argument("--f", type=float, required=True, help="fairness probability in [0, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output ranking CSV")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="measure generated rankings over an f grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-plus", type=int, required=True)
    p.add_argument("--f-grid", required=True, help="start:stop:step, endpoints inclusive")
    p.add_argument("--seeds", type=int, default=50, help="number of seeds k >= 1 (0..k-1)")
    p.add_argument("--step", type=int, default=10)
    p.add_argument("--out", required=True, help="per-cell CSV")
    p.add_argument("--agg-out", default=None, help="per-f means CSV (default: OUT.agg.csv)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rank", help="rank a tabular dataset by a score spec")
    _add_dataset_flags(p)
    p.add_argument("--out", required=True, help="output ranking CSV")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("optimize", help="learn a fairness-improving re-scoring")
    _add_dataset_flags(p)
    p.add_argument(
        "--features",
        nargs="+",
        default=None,
        metavar="COL",
        help="feature columns (default: the score columns)",
    )
    p.add_argument("--k", type=int, default=10, help="prototype count")
    p.add_argument("--ax", type=float, default=0.01, help="reconstruction weight")
    p.add_argument("--ay", type=float, default=1.0, help="accuracy weight")
    p.add_argument("--az", type=float, default=5.0, help="parity weight")
    p.add_argument("--lr", type=float, default=0.05, help="learning rate")
    p.add_argument("--iters", type=int, default=500, help="iteration budget")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=int, default=10, help="cutoff step for trace measures")
    p.add_argument("--trace-out", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--ranking-out", required=True)
    p.set_defaults(func=cmd_optimize)

    return parser


_USAGE_ERRORS = (
    _UsageError,
    ranking.RankingFormatError,
    ingest.UnknownColumnError,
    ingest.SpecError,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # an output path's error names that path, not its temp file
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, fairopt.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        print(f"error: out of memory: {args.command}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
