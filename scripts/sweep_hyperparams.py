#!/usr/bin/env python3
"""Hyperparameter sweeps for the robust solver on seed-controlled synthetic
data: latency step size, training-sample count, and confidence level.

For each setting the robust menu is retrained, then scored as
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
import csv
import sys
from dataclasses import replace
from pathlib import Path

from drcontract import eval_asp_utilities, eval_teleop_utility, shift_samples, solve
from drcontract.config import RunConfig, generate_quality_samples, with_seed

ETA_L_GRID = (1e3, 5e3, 1e4, 5e4, 1e5)
N_TRAIN_GRID = (10, 50, 100, 200)
TAU_GRID = (0.8, 0.85, 0.9, 0.95, 0.99)


def train_and_score(cfg: RunConfig):
    train = generate_quality_samples(
        cfg.n_train, cfg.seed, "train-data", cfg.gen_mean, cfg.gen_sd, cfg.support()
    )
    evals = cfg.eval_samples()
    profile = cfg.profile()
    params = cfg.params()
    report = solve(train, profile, params, cfg.ambiguity_for(train.n), cfg.bcd_config())
    teleop = [
        (m, eval_teleop_utility(report.menu, shift_samples(evals, m), profile, params))
        for m in cfg.shift_magnitudes
    ]
    asp = list(enumerate(eval_asp_utilities(report.menu, profile, params.gamma1), start=1))
    return teleop, asp


def run_sweep(name, settings, cfg_for, out: Path) -> None:
    metrics_path = out / f"sweep_{name}_metrics.csv"
    asp_path = out / f"sweep_{name}_asp.csv"
    with open(metrics_path, "w", newline="") as m_fh, open(asp_path, "w", newline="") as a_fh:
        m_writer = csv.writer(m_fh)
        a_writer = csv.writer(a_fh)
        m_writer.writerow([name, "shift", "mean_teleop_utility"])
        a_writer.writerow([name, "type_index", "asp_utility"])
        for value in settings:
            teleop, asp = train_and_score(cfg_for(value))
            for shift, utility in teleop:
                m_writer.writerow([value, repr(float(shift)), repr(float(utility))])
            for type_index, utility in asp:
                a_writer.writerow([value, type_index, repr(float(utility))])
            print(f"{name}={value}: shift-0 utility {teleop[0][1]:.4f}")
    print(f"wrote {metrics_path} and {asp_path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/sweeps")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = with_seed(RunConfig(), args.seed)

    run_sweep("eta_l", ETA_L_GRID, lambda v: replace(base, eta_l=v), out)
    run_sweep("n_train", N_TRAIN_GRID, lambda v: replace(base, n_train=v), out)
    run_sweep("tau", TAU_GRID, lambda v: replace(base, tau=v), out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
