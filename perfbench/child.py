"""One workload execution in a fresh process.

Usage: python3 perfbench/child.py --workload NAME --seed N --out DIR
       [--base-seed N] [--trace 0|1]

Builds the inputs, runs the workload through ``drcontract.cli.dispatch`` and
writes ``DIR/record.json`` (timings, solve counts, captured program output)
and, when traced, ``DIR/trace.json`` (spans, counters, per-layer metrics).
The parent passes its ``time.monotonic()`` at spawn in ``PERFBENCH_T0`` so
set-up is timed from process start.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    t0 = float(os.environ.get("PERFBENCH_T0", time.monotonic()))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from drcontract import cli

    from layers import Recorder
    from tracer import Tracer
    from workloads import WORKLOADS, build_config

    tracer = Tracer()
    recorder = Recorder(tracer, traced=bool(args.trace))
    recorder.install()

    subcommand = WORKLOADS[args.workload][0]
    cfg = build_config(args.workload, args.seed, args.base_seed, out / "inputs")
    program_out = io.StringIO()
    with contextlib.redirect_stdout(program_out):
        exit_code = cli.dispatch(subcommand, cfg, out=out / "out")
    tracer.uninstall()

    offset = time.monotonic() - time.perf_counter()
    calls = [
        {"name": n, "start": a + offset - t0, "end": b + offset - t0, "ok": ok}
        for _, n, a, b, _, _, ok in tracer.spans
        if n in ("evaluation.train", "evaluation.score", "evaluation.oracle")
    ]
    train_starts = [c["start"] for c in calls if c["name"] == "evaluation.train"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "base_seed": args.base_seed,
        "exit_code": exit_code,
        "setup_s": min(train_starts) if train_starts else None,
        "calls": calls,
        "solves": recorder.solves,
        "expected": {
            "extreme_counts": list(cfg.extreme_counts),
            "shifts": list(cfg.shift_magnitudes),
        },
        "program_stdout": program_out.getvalue(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if args.trace:
        trace = tracer.dump()
        trace["layers"] = recorder.layer_metrics()
        (out / "trace.json").write_text(json.dumps(trace))
    (out / "record.json").write_text(json.dumps(record))
    return 0 if exit_code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
