"""Run every workload, print every end-to-end metric, and save the results.

Usage:
    python3 perfbench/report.py [--seeds 1-10] [--trace 0|1]
                                [--save perfbench/results/NAME.json]

For each workload and run seed this does what ``run.py`` does with the
``run_seconds`` of ``BENCHMARK.json``, then prints each end-to-end metric's
median and quartiles over the seeds.  It then runs every workload on the
held-out instances of ``HELDOUT_BASE_SEEDS`` (training draw and type
probabilities from another base seed), which get only the seed-independent
checks: provider utilities, the one-sided oracle bound, and byte-identical
outputs across executions.  The saved file carries the machine record (CPU
model, nproc, Python and numpy versions, thread pinning, source hash and git
commit).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess

from run import ROOT, Runner, machine_record, measure, print_report
from workloads import WORKLOADS

HELDOUT_BASE_SEEDS = (1, 2)


def seed_range(text):
    """Seeds from ``"1-10"``, ``"1,2"`` or a mix such as ``"0,5-7"``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(workload, seed, seconds, trace, base_seed=0):
    """``run.py``'s measurement of one workload, in a fresh work directory."""
    name = f"{workload}-seed{seed}" if base_seed == 0 else f"heldout-{workload}-base{base_seed}"
    work = ROOT / ".perfbench_out" / name
    shutil.rmtree(work, ignore_errors=True)
    return measure(Runner(workload, seed, work, base_seed=base_seed), seconds, trace)


def full_machine_record():
    import platform

    import numpy

    record = machine_record([])
    record["python"] = platform.python_version()
    record["numpy"] = numpy.__version__
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        record["cpu_model"] = None
    try:
        record["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except OSError:
        record["commit"] = None
    return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default="")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    report = {"machine": full_machine_record(), "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        results = []
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            print_report(result)
            results.append(result)
        summary = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name] for r in results if r["metrics"][name] is not None]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None, "values": values}
        print(f"== {workload}: {len(results)} seeds, "
              f"{sum(r['failed'] for r in results)} of "
              f"{sum(r['attempted'] for r in results)} operations failed")
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name}: median {s['median']!r} (q1 {s['q1']!r}, q3 {s['q3']!r}, "
                  f"spread {spread})")
        runs = [
            {key: r[key] for key in ("seed", "attempted", "failed", "problems", "metrics", "layers")}
            for r in results
        ]
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        save(report, args.save)
    report["heldout"] = []
    for base_seed in HELDOUT_BASE_SEEDS:
        for workload in WORKLOADS:
            r = run_once(workload, 0, seconds, 0, base_seed=base_seed)
            print(f"held-out {workload} base seed {base_seed}: {len(r['executions'])} "
                  f"executions, {r['failed']} of {r['attempted']} failed {r['problems']}")
            report["heldout"].append(
                {key: r[key] for key in ("workload", "base_seed", "attempted", "failed", "problems")}
            )
            save(report, args.save)


def save(report, path):
    if path:
        (ROOT / path).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
