#!/usr/bin/env python3
"""Train the prototype re-scorer on a synthetic biased dataset and report
how the parity losses and ranking measures evolve.

The dataset shifts both features and scores against the protected group, so
ranking by the raw score buries protected items near the bottom. Training
should drive L_z down and leave the re-ranked output far more balanced than
the raw-score ranking, at some cost in score fidelity.

Writes the per-iteration trace CSV, the learned model JSON, and the
before/after rankings.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from rankfair.cli import check_out_dir, report_errors
from rankfair.fairopt import (
    TRACE_COLUMNS,
    FeatureMatrix,
    Hyperparams,
    apply_model,
    save_model,
    train,
    write_trace_csv,
)
from rankfair.measures import MeasureKind, measure_from_flags
from rankfair.ranking import Ranking, rank_by_score, write_ranking_csv


def biased_dataset(n: int, m: int, n_plus: int, seed: int) -> FeatureMatrix:
    """Features drawn around 0.5 and shifted against the protected group;
    scores follow the feature mean plus noise."""
    rng = np.random.default_rng(seed)
    prot = np.zeros(n, dtype=bool)
    prot[:n_plus] = True
    shift = np.where(prot, -0.35, 0.35)[:, None] * np.linspace(1.0, 0.5, m)
    x = np.clip(rng.normal(0.5, 0.15, (n, m)) + shift, 0, 1)
    raw = x.mean(axis=1) + rng.normal(0, 0.03, n)
    y = (raw - raw.min()) / (raw.max() - raw.min())
    ids = tuple(f"i{j:04d}" for j in range(n))
    return FeatureMatrix(x=x, protected=prot, y=y, ids=ids)


def score_ranking(features: FeatureMatrix) -> Ranking:
    return rank_by_score(features.ids, features.protected, features.y)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=100, help="row count")
    ap.add_argument("--m", type=int, default=4, help="feature count")
    ap.add_argument("--n-plus", type=int, default=30, help="protected rows")
    ap.add_argument("--data-seed", type=int, default=7)
    ap.add_argument("--k", type=int, default=10, help="prototype count")
    ap.add_argument("--ax", type=float, default=0.01)
    ap.add_argument("--ay", type=float, default=1.0)
    ap.add_argument("--az", type=float, default=5.0)
    ap.add_argument("--lr", type=float, default=0.01)
    ap.add_argument("--iters", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0, help="prototype init seed")
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    sys.exit(report_errors(ap.prog, train_and_write, args))


def train_and_write(args) -> int:
    check_out_dir(args.out_dir)
    features = biased_dataset(args.n, args.m, args.n_plus, args.data_seed)
    before = score_ranking(features)
    before_rkl = measure_from_flags(MeasureKind.RKL, before.flags)

    hyper = Hyperparams(
        a_x=args.ax,
        a_y=args.ay,
        a_z=args.az,
        k=args.k,
        learning_rate=args.lr,
        max_iters=args.iters,
        seed=args.seed,
    )
    model, trace = train(features, hyper)
    _, after = apply_model(features, model)
    after_rkl = measure_from_flags(MeasureKind.RKL, after.flags)

    # a bad size or hyperparameter has raised above, before any file is written
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_ranking_csv(before, out_dir / "optimize_before.csv")
    write_ranking_csv(after, out_dir / "optimize_after.csv")
    write_trace_csv(trace, out_dir / "optimize_trace.csv")
    save_model(model, hyper, out_dir / "optimize_model.json")

    l_z, score_diff = (trace[:, TRACE_COLUMNS.index(c)] for c in ("L_z", "score_diff"))
    print(f"wrote trace, model, and rankings to {out_dir}/")
    print(
        f"L_z: {l_z[0]:.4f} -> {l_z[-1]:.4f}, "
        f"score_diff: {score_diff[0]:.4f} -> {score_diff[-1]:.4f}"
    )
    print(f"ranking rKL: {before_rkl:.4f} (raw score) -> {after_rkl:.4f} (learned)")
    return 0


if __name__ == "__main__":
    main()
