"""drcontract benchmark: one workload, measured end to end or traced per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/drcontract`` must exist).
Each execution of the workload is a fresh single Python process with
BLAS/OpenMP threads pinned to 1, run one at a time:

1. untraced executions repeat while the next one still fits in ``--seconds``
   (at least two, so every run compares two executions' outputs byte for
   byte), with only the top-level calls wrapped;
2. with ``--trace 1``, one more execution runs with every layer wrapped.

The run seed picks one of the ``RUN_SEEDS`` recorded instances (seed modulo
``RUN_SEEDS``), so every run is compared with a recorded reference.  Every
execution's outputs are checked (see ``checks.py``).  Human-readable
lines go to standard output first; the last line is the JSON result with the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).  Everything measured is also written to
``.perfbench_out/<workload>-seed<N>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import RUN_SEEDS, WORKLOADS  # noqa: E402

MIN_EXECUTIONS = 2
DEADLINE_S = 170.0  # every process ends before this, counted from start
THREAD_PINS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


# Every end-to-end figure run.py computes, with its unit.
UNITS = {"wall_s": "s", "setup_s": "s", "train_s": "s", "iterations": "count",
         "ms_per_iter": "ms", "score_s": "s", "oracle_s": "s",
         "peak_rss_mb": "MB", "fail_rate": "ratio"}


class Runner:
    """Spawns workload processes one at a time, all before one deadline."""

    def __init__(self, workload, seed, work_dir, base_seed=0):
        self.workload = workload
        self.seed = seed % RUN_SEEDS
        self.base_seed = base_seed
        self.work_dir = Path(work_dir)
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def execute(self, trace=0):
        """Run one process; returns (record or None, wall seconds, out dir)."""
        out = self.work_dir / f"exec{self.count}"
        self.count += 1
        out.mkdir(parents=True)
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--base-seed", str(self.base_seed),
            "--out", str(out),
            "--trace", str(trace),
        ]
        env = dict(os.environ, **THREAD_PINS)
        env.pop("PYTHONPATH", None)
        with open(out / "log.txt", "w") as log:
            t0 = time.monotonic()
            env["PERFBENCH_T0"] = repr(t0)
            try:
                proc = subprocess.run(
                    cmd,
                    cwd=ROOT,
                    env=env,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.deadline - t0),
                )
                ok = proc.returncode == 0
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                ok = False
            wall = time.monotonic() - t0
        record_path = out / "record.json"
        record = json.loads(record_path.read_text()) if ok and record_path.is_file() else None
        return record, wall, out

    def remaining(self):
        return self.deadline - time.monotonic()


class Tally:
    """Attempted and failed operations over executions, one line per failure."""

    def __init__(self, reference, ordering=True):
        self.reference = reference
        self.ordering = ordering
        self.first_bytes = None
        self.attempted = self.failed = 0
        self.problems = []

    def fail(self, problem):
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)

    def check(self, record, out):
        """Check one execution's outputs; False if it produced none."""
        if record is None:
            self.fail(f"execution {out.name} failed; see {out / 'log.txt'}")
            return False
        attempted, failed, problems = checks.check_execution(
            record, out, self.reference, self.first_bytes, self.ordering
        )
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        if self.first_bytes is None:
            self.first_bytes = checks.output_bytes(record, out)
        return True


def measure(runner, seconds, trace):
    """Execute, check and summarize one workload; returns the result dict.

    The recorded instance (base seed 0) is checked against its reference and
    the criterion-08 ordering; a held-out instance (another base seed) gets
    the seed-independent checks only.
    """
    executions = []
    recorded = runner.base_seed == 0
    reference = checks.load_reference(runner.workload, runner.seed) if recorded else None
    tally = Tally(reference, ordering=recorded)
    if recorded and reference is None:
        tally.fail(f"no recorded reference for {runner.workload} seed {runner.seed}")

    start = time.monotonic()
    for count in itertools.count(1):
        record, wall, out = runner.execute()
        if tally.check(record, out):
            executions.append(summarize(record, wall))
        if count >= MIN_EXECUTIONS and time.monotonic() - start + wall > seconds:
            break
        if runner.remaining() < 2 * wall + 5:
            break

    layers = None
    if trace:
        if runner.remaining() < 10:
            tally.fail("no time left for the traced execution")
        else:
            record, wall, out = runner.execute(trace=1)
            if tally.check(record, out) and executions:
                untraced = statistics.median(e["wall_s"] for e in executions)
                layers = traced_layers(out, wall / untraced - 1.0)
    return {
        "workload": runner.workload,
        "seed": runner.seed,
        "base_seed": runner.base_seed,
        "reference_checked": reference is not None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "executions": executions,
        "metrics": end_to_end(executions, tally.attempted, tally.failed),
        "layers": layers,
        "machine": machine_record(executions),
    }


def summarize(record, wall):
    """Per-execution figures from the child's record."""
    calls = record["calls"]

    def total(name):
        return sum(c["end"] - c["start"] for c in calls if c["name"] == name)

    return {
        "wall_s": wall,
        "setup_s": record["setup_s"],
        "train_s": total("evaluation.train"),
        "score_s": total("evaluation.score"),
        "oracle_s": total("evaluation.oracle"),
        "iterations": sum(s["iterations"] for s in record["solves"]),
        "peak_rss_mb": record["peak_rss_mb"],
        "python": record["python"],
        "numpy": record["numpy"],
    }


def end_to_end(executions, attempted, failed):
    """Medians over executions of every end-to-end figure; None without any."""
    fail_rate = failed / attempted if attempted else 1.0
    if not executions:
        return dict.fromkeys(UNITS, None) | {"fail_rate": fail_rate}

    def med(key):
        return statistics.median(e[key] for e in executions)

    return {
        "wall_s": med("wall_s"),
        "setup_s": med("setup_s"),
        "train_s": med("train_s"),
        "iterations": med("iterations"),
        "ms_per_iter": statistics.median(
            1e3 * e["train_s"] / e["iterations"] for e in executions if e["iterations"]
        ),
        "score_s": med("score_s"),
        "oracle_s": med("oracle_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "fail_rate": fail_rate,
    }


def traced_layers(out, overhead_ratio):
    """Per-layer metrics of one traced execution, plus the tracing overhead."""
    trace = json.loads((out / "trace.json").read_text())
    layers = dict(trace["layers"])
    layers["trace.overhead_ratio"] = overhead_ratio
    layers["trace.notes"] = trace["notes"]
    layers["trace.file"] = str((out / "trace.json").relative_to(ROOT))
    return layers


def machine_record(executions):
    """What a later comparison needs to know it compares like with like."""
    sources = sorted((ROOT / "src" / "drcontract").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    first = executions[0] if executions else {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "thread_pinning": THREAD_PINS,
        "source_sha256": digest.hexdigest(),
    }


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def result_line(result, trace):
    end_to_end_spec, per_layer_spec = declared_metrics()
    if trace:
        # a layer whose function is gone reads 0 here; result.json keeps null
        layers = result.get("layers") or {}
        values = {m["name"]: layers.get(m["name"]) or 0 for m in per_layer_spec}
        spec = per_layer_spec
    else:
        # null when no execution succeeded, so a broken run never reads as fast
        values = result["metrics"]
        spec = end_to_end_spec
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }


def print_report(result):
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{len(result['executions'])} execution(s), "
          f"{result['failed']} of {result['attempted']} operations failed")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value!r} {UNITS[name]}")
    for name, value in (result.get("layers") or {}).items():
        print(f"  {name} = {value!r}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "drcontract" / "cli.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'drcontract'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(args.workload, args.seed, work)
    result = measure(runner, args.seconds, args.trace)
    (work / "result.json").write_text(json.dumps(result, indent=1))
    print_report(result)
    print(json.dumps(result_line(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
