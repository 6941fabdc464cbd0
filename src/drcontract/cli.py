"""Command-line surface for data generation, solving, scoring, benchmarking,
and oracle verification.

Subcommands: gen-data, solve, evaluate, bench, oracle.
Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .ambiguity import write_samples_csv
from .bcd import write_trace_csv
from .config import RunConfig, load_config
from .contracts import check_feasibility, eval_asp_utilities, read_menu_csv
from .contracts import write_menu_csv, write_profile_csv
from .errors import DataError, NumericError, ParseError, ValidationError
from .evaluation import (
    CANONICAL_METHODS,
    check_oracle_inputs,
    eval_teleop_utility,
    oracle_menu_search,
    run_benchmark,
    train_method,
    write_asp_csv,
    write_metrics_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return dispatch(args.subcommand, cfg, method=args.method, out=Path(args.out))


def dispatch(subcommand: str, cfg: RunConfig, method: str = "dro", out=Path("out")) -> int:
    """Run one subcommand; malformed inputs yield diagnostics, not tracebacks.
    Every library error is a DataError (exit 3, as is an OSError), a
    ValidationError (exit 2) or a NumericError (exit 4)."""
    if subcommand not in HANDLERS:
        print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        HANDLERS[subcommand](cfg, method, out)
        return EXIT_OK
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drcontract",
        description="Distributionally robust contract menus for edge offloading.",
    )
    parser.add_argument("subcommand", choices=HANDLERS)
    parser.add_argument("--config", default="", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--method", choices=CANONICAL_METHODS, default="dro", help="solver for solve"
    )
    parser.add_argument("--out", default="out", help="output directory")
    return parser


def _cmd_gen_data(cfg: RunConfig, method: str, out: Path) -> None:
    train = cfg.train_samples()
    evals = cfg.eval_samples()
    write_samples_csv(train, out / "train.csv")
    write_samples_csv(evals, out / "eval.csv")
    write_profile_csv(cfg.profile(), out / "profile.csv")
    print(f"wrote {out / 'train.csv'} ({train.n} samples)")
    print(f"wrote {out / 'eval.csv'} ({evals.n} samples)")
    print(f"wrote {out / 'profile.csv'} ({cfg.n_types} types)")


def _cmd_solve(cfg: RunConfig, method: str, out: Path) -> None:
    report = train_method(method, cfg.train_samples(), cfg)
    write_menu_csv(report.menu, out / "menu.csv")
    write_trace_csv(report, out / "trace.csv")
    status = "converged" if report.converged else "max iterations reached"
    print(
        f"{method}: {status} after {report.iterations_used} iterations, "
        f"objective {report.objective:.6f}, stop reason {report.stop_reason}"
    )
    print(f"wrote {out / 'menu.csv'} and {out / 'trace.csv'}")


def _cmd_evaluate(cfg: RunConfig, method: str, out: Path) -> None:
    if not cfg.menu_csv:
        raise DataError("evaluate needs menu_csv set in the config")
    menu = read_menu_csv(cfg.menu_csv)
    evals = cfg.eval_samples()
    profile = cfg.profile()
    utility = eval_teleop_utility(menu, evals, profile, cfg.params())
    try:  # nothing is printed for a menu that breaks a constraint
        check_feasibility(menu, profile, cfg.gamma1)
    except DataError as exc:
        raise DataError(f"{cfg.menu_csv}: {exc}") from exc
    print(f"teleop_utility {float(utility)!r}")
    for i, value in enumerate(eval_asp_utilities(menu, profile, cfg.gamma1)):
        print(f"asp_utility {i + 1} {float(value)!r}")


def _cmd_bench(cfg: RunConfig, method: str, out: Path) -> None:
    teleop_rows, asp_rows = run_benchmark(cfg)
    write_metrics_csv(teleop_rows, out / "metrics.csv")
    write_asp_csv(asp_rows, out / "asp_utility.csv")
    print(f"wrote {out / 'metrics.csv'} ({len(teleop_rows)} rows)")
    print(f"wrote {out / 'asp_utility.csv'} ({len(asp_rows)} rows)")


def _cmd_oracle(cfg: RunConfig, method: str, out: Path) -> None:
    train = cfg.train_samples()
    profile = cfg.profile()
    params = cfg.params()
    ambiguity = cfg.ambiguity_for(train.n)
    grid = cfg.oracle_grid_step, cfg.oracle_l_max, cfg.oracle_lambda_max
    check_oracle_inputs(profile, train, ambiguity, *grid)  # refused inputs cost no solve
    report = train_method("dro", train, cfg)
    best_omega, best_lat = oracle_menu_search(profile, train, params, ambiguity, *grid)
    gap = best_omega - report.objective
    print(f"bcd_objective {report.objective!r}")
    print(f"oracle_objective {best_omega!r}")
    print(f"oracle_latencies {','.join(repr(float(v)) for v in best_lat)}")
    print(f"gap {gap!r}")


# one handler per subcommand: the parser's choices and what dispatch runs
HANDLERS = {
    "gen-data": _cmd_gen_data,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "bench": _cmd_bench,
    "oracle": _cmd_oracle,
}


if __name__ == "__main__":
    sys.exit(main())
