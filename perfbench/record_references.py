"""Record the reference outputs that ``checks.py`` compares against.

Usage: python3 perfbench/record_references.py

Run once on the seed code; later runs compare each execution's
``metrics.csv`` and ``asp_utility.csv`` values (or the oracle's
``bcd_objective``) with the recording for the same seed within 1e-9
relative.  Records every workload at run seeds 0 to ``RUN_SEEDS - 1`` and
writes ``perfbench/references/<workload>.json``.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
from run import ROOT, Runner
from workloads import RUN_SEEDS, WORKLOADS


def main():
    checks.REFERENCES.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        path = checks.REFERENCES / f"{workload}.json"
        recorded = {}
        for seed in range(RUN_SEEDS):
            work = ROOT / ".perfbench_out" / f"reference-{workload}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            record, wall, out = Runner(workload, seed, work).execute()
            if record is None:
                sys.exit(f"{workload} seed {seed}: execution failed; see {out / 'log.txt'}")
            _, failed, problems = checks.check_execution(record, out, None, None)
            print(f"{workload} seed {seed}: {wall:.1f}s, {failed} failed {problems}", flush=True)
            recorded[str(seed)] = checks.outputs(out, record)
            path.write_text(json.dumps(recorded, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
