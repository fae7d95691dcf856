#!/usr/bin/env python3
"""Sweep the fairness probability over synthetic rankings and record how the
three parity measures respond, for several protected-group sizes.

The per-f mean curves should bottom out where f matches the protected
proportion and rise toward both extremes; the curves for complementary group
sizes (e.g. 200 and 800 of 1000) mirror each other under f -> 1 - f.

Writes one per-cell CSV and one per-f aggregate CSV per group size.
"""

import argparse
import math
import sys
from pathlib import Path

from rankfair.cli import check_out_dir, parse_f_grid, report_errors
from rankfair.generator import (
    aggregate_values,
    sweep_values,
    write_aggregate_csv,
    write_values_csv,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1000, help="ranking length")
    ap.add_argument(
        "--n-plus",
        type=int,
        nargs="+",
        default=[200, 500, 800],
        help="protected-group sizes to sweep",
    )
    ap.add_argument("--seeds", type=int, default=50, help="seeds per grid cell")
    ap.add_argument("--grid-step", type=float, default=0.1, help="f grid spacing over [0, 1]")
    ap.add_argument("--out-dir", default="results", help="output directory")
    args = ap.parse_args()

    if args.seeds < 1:
        ap.error(f"--seeds must be >= 1, got {args.seeds}")
    if not (math.isfinite(args.grid_step) and args.grid_step > 0):
        ap.error(f"--grid-step must be a finite number above 0, got {args.grid_step}")
    try:
        f_grid = parse_f_grid(f"0:1:{args.grid_step}")
    except ValueError as exc:
        ap.error(f"--grid-step {args.grid_step}: {exc}")
    sys.exit(report_errors(ap.prog, sweep_and_write, args, f_grid))


def sweep_and_write(args, f_grid: list[float]) -> int:
    check_out_dir(args.out_dir)
    seeds = range(args.seeds)
    # every group size is swept, and so checked, before the first write
    sweeps = [(p, sweep_values(args.n, p, f_grid, seeds)) for p in args.n_plus]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for n_plus, values in sweeps:
        f, mean = aggregate_values(f_grid, values)
        cells = out_dir / f"sweep_n{args.n}_p{n_plus}.csv"
        means = out_dir / f"sweep_n{args.n}_p{n_plus}.agg.csv"
        write_values_csv(f_grid, seeds, values, cells)
        write_aggregate_csv(f, mean, means)
        print(
            f"n_plus={n_plus}: wrote {cells} and {means}; "
            f"mean rND minimized at f={f[mean[:, 0].argmin()]:g} "
            f"(proportion {n_plus / args.n:g})"
        )
    return 0


if __name__ == "__main__":
    main()
