#!/usr/bin/env python3
"""Hyperparameter sweeps for the robust solver on seed-controlled synthetic
data: latency step size, training-sample count, and confidence level.

For each setting the robust menu is retrained on uncontaminated training
data (contamination level 0, whatever the config's levels), then scored as
(a) mean operator utility on evaluation data at every shift magnitude and
(b) per-type provider utility.  One pair of CSVs per sweep:

    sweep_eta_l_metrics.csv    eta_l,shift,mean_teleop_utility
    sweep_eta_l_asp.csv        eta_l,type_index,asp_utility
    sweep_n_train_*.csv        n_train,...
    sweep_tau_*.csv            tau,...

Usage:
    python scripts/sweep_hyperparams.py --out results/sweeps --seed 0
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from drcontract import run_benchmark
from drcontract.config import RunConfig
from drcontract.csvio import write_table

ETA_L_GRID = (1e3, 5e3, 1e4, 5e4, 1e5)
N_TRAIN_GRID = (10, 50, 100, 200)
TAU_GRID = (0.8, 0.85, 0.9, 0.95, 0.99)


def run_sweep(name, settings, cfg_for, out: Path) -> None:
    metrics_rows, asp_rows = [], []
    for value in settings:
        teleop, asp = run_benchmark(replace(cfg_for(value), extreme_counts=(0,)), ("dro",))
        metrics_rows += [(value, s, u) for _, _, s, u in teleop]
        asp_rows += [(value, i, u) for _, _, i, u in asp]
        print(f"{name}={value}: shift-0 utility {teleop[0][3]:.4f}")
    metrics_path = out / f"sweep_{name}_metrics.csv"
    asp_path = out / f"sweep_{name}_asp.csv"
    write_table(metrics_path, [name, "shift", "mean_teleop_utility"], metrics_rows)
    write_table(asp_path, [name, "type_index", "asp_utility"], asp_rows)
    print(f"wrote {metrics_path} and {asp_path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/sweeps")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = RunConfig(seed=args.seed)

    run_sweep("eta_l", ETA_L_GRID, lambda v: replace(base, eta_l=v), out)
    run_sweep("n_train", N_TRAIN_GRID, lambda v: replace(base, n_train=v), out)
    run_sweep("tau", TAU_GRID, lambda v: replace(base, tau=v), out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
