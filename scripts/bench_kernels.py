#!/usr/bin/env python3
"""Microseconds per call of the solver's per-iteration kernels.

Times ``bcd.objective``, ``inner.weighted_log``, ``bcd.grad_L``,
``bcd.iron_monotone`` and ``contracts.rewards_from_latencies`` at two sizes,
plus one iteration of ``bcd.solve``:

* ``I8_N200``: the seed-0 reference instance (8 types, 200 training
  samples); the solve is the full 700-iteration reference solve.
* ``I64_N20000``: 64 types (thetas ``linspace(110, 250, 64)``) and 20 000
  training samples; the solve is capped at 10 iterations.

and, under ``oracle``, two whole ``evaluation.oracle_menu_search`` calls
(:func:`oracle_calls`): the criterion-05 instance at grid step 0.025, and a
three-type instance whose multiplier argmax leaves zero, where the oracle's
bound prunes few latency points.

Each kernel is called as a solve calls it: ``objective`` takes the inner
candidates that a solve builds once (``inner.inner_candidates``), so their
construction is not timed.  :func:`kernels` builds the callables and
:func:`measure` times them.  The solve figure is total solve time over
iterations, one start-point evaluation included.  BLAS/OpenMP threads are
pinned to 1 when the script runs.  Each figure is the best of
``REPEATS`` timed loops of about ``BUDGET_S`` seconds each (the solve: best
of ``REPEATS`` solves); both are stored with each run.

``--src DIR`` imports ``drcontract`` from DIR, another checkout's ``src``,
so before and after numbers come from one machine.  Each run stores its
numbers under ``--label`` in ``--out``, keeping the other labels:

    python scripts/bench_kernels.py --src ../parent/src --label before
    python scripts/bench_kernels.py --label after

``--src`` runs this script's calls against the other package, so it works
only while the timed kernels keep their signatures.  Across a signature
change, record "before" with the other checkout's own script, writing into
this checkout's file:

    python ../parent/scripts/bench_kernels.py --label before --out BENCH_kernels.json
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 11
BUDGET_S = 0.2


def best_us_per_call(fn) -> float:
    """Best per-call time, in microseconds, over ``REPEATS`` loops whose
    call count is sized so one loop takes about ``BUDGET_S`` seconds."""
    start = time.perf_counter()
    fn()
    calls = max(1, int(BUDGET_S / max(time.perf_counter() - start, 1e-9)))
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return 1e6 * best


def instances():
    """(name, run config, solve config) of the two benchmarked sizes."""
    import numpy as np
    from drcontract.bcd import BcdConfig
    from drcontract.config import RunConfig

    reference = RunConfig(seed=0)
    thetas = tuple(np.linspace(110.0, 250.0, 64).tolist())
    wide = replace(reference, thetas=thetas, n_train=20_000)
    return [("I8_N200", reference, BcdConfig()), ("I64_N20000", wide, BcdConfig(max_iters=10))]


def kernels(cfg, solve_cfg):
    """The timed calls on one instance: the per-iteration kernels by name,
    and a call that runs the whole solve and returns its report."""
    import numpy as np
    from drcontract import bcd, contracts, inner

    profile, params = cfg.profile(), cfg.params()
    samples = cfg.train_samples()
    amb = cfg.ambiguity_for(samples.n)
    candidates = inner.inner_candidates(samples.samples, amb.support)
    n_types = profile.n_types
    lat = np.linspace(0.0, 100.0, n_types)
    xi = np.clip(samples.samples, amb.support.lo, amb.support.hi)
    rough = lat + np.random.default_rng(0).normal(0.0, 5.0, n_types)  # PAVA pools
    weights = np.maximum(profile.alphas, 1e-12)
    calls = {
        "objective": lambda: bcd.objective(lat, 0.5, candidates, amb.epsilon, profile, params),
        "weighted_log": lambda: inner.weighted_log(xi, lat, profile.alphas, params),
        "grad_L": lambda: bcd.grad_L(xi, lat, profile, params),
        "iron_monotone": lambda: bcd.iron_monotone(rough, weights),
        "rewards_from_latencies": lambda: contracts.rewards_from_latencies(
            lat, profile, params.gamma1
        ),
    }
    return calls, lambda: bcd.solve(samples, profile, params, amb, solve_cfg)


def oracle_calls():
    """The timed oracle searches by name: the criterion-05 instance (two
    types, 20 training samples) at the perfbench ``oracle`` workload's grid
    step 0.025, and a three-type, seven-anchor instance with radius 5, whose
    multiplier argmax is positive."""
    from drcontract import evaluation
    from drcontract.ambiguity import AmbiguityConfig, QualitySampleSet, SupportInterval
    from drcontract.config import RunConfig
    from drcontract.contracts import AspTypeProfile, UtilityParams

    cfg = replace(RunConfig(seed=0), thetas=(110.0, 140.0), n_train=20)
    samples = cfg.train_samples()
    criterion_05 = (cfg.profile(), samples, cfg.params(), cfg.ambiguity_for(samples.n), 0.025)
    three_type = (
        AspTypeProfile(thetas=[110.0, 140.0, 180.0], alphas=[0.25, 0.35, 0.4]),
        QualitySampleSet([50.0, 60.0, 72.5, 81.0, 93.25, 100.0, 108.0]),
        UtilityParams(),
        AmbiguityConfig(SupportInterval(60.0, 100.0), 5.0),
        1.0,
    )
    return {
        "oracle_criterion_05": lambda: evaluation.oracle_menu_search(
            *criterion_05, l_max=cfg.oracle_l_max, lambda_max=cfg.oracle_lambda_max
        ),
        "oracle_three_type": lambda: evaluation.oracle_menu_search(
            *three_type, l_max=130.0, lambda_max=3.0
        ),
    }


def measure(cfg, solve_cfg) -> dict:
    calls, solve = kernels(cfg, solve_cfg)
    result = {name: best_us_per_call(fn) for name, fn in calls.items()}
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        report = solve()
        best = min(best, (time.perf_counter() - start) / report.iterations_used)
    result["solve_per_iteration"] = 1e6 * best
    result["solve_iterations"] = report.iterations_used
    return result


def source_hash(src: Path) -> str:
    """SHA-256 over the package's Python files, in path order."""
    digest = hashlib.sha256()
    for path in sorted((src / "drcontract").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record() -> dict:
    import numpy as np

    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": "1 (OMP/OPENBLAS/MKL_NUM_THREADS)",
        "cpu_model": None,
    }
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return record


def main(argv=None) -> int:
    # before numpy is first imported, so its thread pools start with one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key to store this run under")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="drcontract source dir")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_kernels.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    run = {"source_sha256": source_hash(args.src), "repeats": REPEATS, "budget_s": BUDGET_S}
    for name, cfg, solve_cfg in instances():
        run[name] = measure(cfg, solve_cfg)
        print(name, json.dumps(run[name]))
    run["oracle"] = {name: best_us_per_call(fn) for name, fn in oracle_calls().items()}
    print("oracle", json.dumps(run["oracle"]))

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["unit"] = "us per call; solve_per_iteration in us per iteration"
    data["machine"] = machine_record()
    data.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {args.out} ({args.label})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
