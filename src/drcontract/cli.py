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
from .contracts import check_feasibility, read_menu_csv, write_menu_csv, write_profile_csv
from .errors import DataError, NumericError, ParseError, ValidationError
from .evaluation import (
    CANONICAL_METHODS,
    eval_asp_utilities,
    eval_teleop_utility,
    oracle_menu_search,
    run_benchmark,
    train_method,
    write_asp_csv,
    write_metrics_csv,
)
from .inner import inner_candidates, unbounded

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
    train = cfg.train_samples()
    ambiguity = cfg.ambiguity_for(train.n)
    report = train_method(method, train, cfg.profile(), cfg.params(), ambiguity, cfg)
    write_menu_csv(report.menu, out / "menu.csv")
    write_trace_csv(report, out / "trace.csv", method=None if method == "dro" else method)
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
    # nothing is printed for a menu that breaks participation or
    # self-selection: the first broken constraint is named, its types
    # 1-based as in type_index
    report = check_feasibility(menu, profile, cfg.gamma1)
    if report.ir_violations:
        i, own = report.ir_violations[0]
        raise DataError(f"{cfg.menu_csv}: type {i + 1} breaks participation: utility {own!r}")
    if report.ic_violations:
        i, j, deficit = report.ic_violations[0]
        raise DataError(
            f"{cfg.menu_csv}: type {i + 1} breaks self-selection: "
            f"prefers type {j + 1}'s bundle by {deficit!r}"
        )
    print(f"teleop_utility {float(utility)!r}")
    for i, value in enumerate(eval_asp_utilities(menu, profile, cfg.gamma1)):
        print(f"asp_utility {i + 1} {float(value)!r}")


def _cmd_bench(cfg: RunConfig, method: str, out: Path) -> None:
    table = run_benchmark(cfg)
    write_metrics_csv(table, out / "metrics.csv")
    write_asp_csv(table, out / "asp_utility.csv")
    print(f"wrote {out / 'metrics.csv'} ({len(table.teleop_rows)} rows)")
    print(f"wrote {out / 'asp_utility.csv'} ({len(table.asp_rows)} rows)")


def _cmd_oracle(cfg: RunConfig, method: str, out: Path) -> None:
    train = cfg.train_samples()
    profile = cfg.profile()
    params = cfg.params()
    ambiguity = cfg.ambiguity_for(train.n)
    candidates = inner_candidates(train.samples, ambiguity.support)
    if unbounded(candidates, ambiguity.epsilon):
        raise DataError(
            f"mean distance {float(candidates.p_distance.mean())!r} of the training data "
            f"to the support exceeds the radius epsilon = {ambiguity.epsilon!r}: the "
            "robust objective is unbounded in the multiplier"
        )
    report = train_method("dro", train, profile, params, ambiguity, cfg)
    best_omega, best_lat = oracle_menu_search(
        profile,
        train,
        params,
        ambiguity,
        cfg.oracle_grid_step,
        l_max=cfg.oracle_l_max,
        lambda_max=cfg.oracle_lambda_max,
    )
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
