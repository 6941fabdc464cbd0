#!/usr/bin/env python3
"""Microseconds per call of the solver's per-iteration kernels.

Times ``bcd.objectives``, ``inner.weighted_log``, ``bcd.iron_monotone`` and
``contracts.rewards_from_latencies`` at two sizes, plus one iteration of
``bcd.solve``:

* ``I8_N200``: the seed-0 reference instance (8 types, 200 training
  samples); the solve is the full 700-iteration reference solve.
* ``I64_N20000``: 64 types (thetas ``linspace(110, 250, 64)``) and 20 000
  training samples; the solve is capped at 10 iterations.

Under ``I8_N200_extreme100`` it times one iteration of the bench grid's
contamination-100 dro solve (:func:`contaminated_solve`), whose 1500
iterations keep their inner winners throughout, and under ``oracle`` two
whole ``evaluation.oracle_menu_search`` calls
(:func:`oracle_calls`): the criterion-05 instance at grid step 0.025, and a
three-type instance whose multiplier argmax leaves zero, where the oracle's
bound prunes few latency points.

Each kernel is called as a solve calls it: ``objectives`` takes the inner
candidates that a solve builds once (``inner.inner_candidates``), so their
construction is not timed, and a stack of as many menus as the solver's
batches hold at most, ``inner.rows_per_block(I * points)``: 20 at
``I8_N200``, 1 at ``I64_N20000``.  The latency step is not timed on its
own, as the solver runs it in a private workspace kernel; its cost shows in
the solve figure.  :func:`kernels` builds the callables and
:func:`samplers` times them.  The solve figure is total solve time over
iterations, one start-point evaluation included.
BLAS/OpenMP threads are pinned to 1 when the script runs.

``--ab DIR`` times another checkout (before), DIR being its ``src``,
against this one (after) in one process, so both sides come from one
machine.  It imports the two ``drcontract`` packages under two names
(:func:`load_package`), and each side's samplers come from its own copy
of this script (:func:`load_script`), ``DIR/../scripts/bench_kernels.py``
for the before side, so each side calls each kernel as its own code
does, across a change of signature too.  Figures are paired by group and
name; a figure that only one side times is listed under ``unpaired``.
The two sides' timed loops alternate, ``REPEATS`` pairs per figure, so
load on the machine moves both sides of a pair alike.  Each figure gets
the median per-call time of each side and the median and quartiles of
the after/before ratio over the pairs (:func:`paired`), stored with the
machine's description under ``ab`` and ``--label`` in ``--out``, keeping
the other labels:

    python scripts/bench_kernels.py --ab ../parent/src --label change
"""

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 11
BUDGET_S = 0.2


def timer(fn):
    """A sampler: each call times one loop of ``fn`` and returns seconds per
    call, the loop's call count sized so one loop takes about ``BUDGET_S``
    seconds."""
    start = time.perf_counter()
    fn()
    calls = max(1, int(BUDGET_S / max(time.perf_counter() - start, 1e-9)))

    def sample():
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    return sample


def solve_timer(solve):
    """A sampler: each call times one whole ``solve`` and returns seconds
    per iteration."""

    def sample():
        start = time.perf_counter()
        report = solve()
        return (time.perf_counter() - start) / report.iterations_used

    return sample


def modules(package, *names):
    """The named submodules of the imported package ``package``."""
    return [importlib.import_module(f"{package}.{name}") for name in names]


def instances(package="drcontract"):
    """(name, run config) of the two benchmarked sizes."""
    import numpy as np

    (config,) = modules(package, "config")
    reference = config.RunConfig(seed=0)
    thetas = tuple(np.linspace(110.0, 250.0, 64).tolist())
    wide = replace(reference, thetas=thetas, n_train=20_000, itr_max=10)
    return [("I8_N200", reference), ("I64_N20000", wide)]


def kernels(cfg, package="drcontract"):
    """The timed calls on one instance: the per-iteration kernels by name,
    and a call that runs the whole solve and returns its report."""
    import numpy as np

    bcd, contracts, inner = modules(package, "bcd", "contracts", "inner")
    profile, params = cfg.profile(), cfg.params()
    samples = cfg.train_samples()
    amb = cfg.ambiguity_for(samples.n)
    candidates = inner.inner_candidates(samples.samples, amb.support)
    n_types = profile.n_types
    lat = np.linspace(0.0, 100.0, n_types)
    # the solver's batch cap: one stack's log table fills one type block
    height = inner.rows_per_block(n_types * candidates.points.size)
    stack, lams = lat + np.linspace(0.0, 1.0, height)[:, None], np.full(height, 0.5)
    xi = np.clip(samples.samples, amb.support.lo, amb.support.hi)
    rough = lat + np.random.default_rng(0).normal(0.0, 5.0, n_types)  # PAVA pools
    weights = np.maximum(profile.alphas, 1e-12)
    calls = {
        "objectives": lambda: bcd.objectives(
            stack, lams, candidates, amb.epsilon, profile, params
        ),
        "weighted_log": lambda: inner.weighted_log(xi, lat, profile.alphas, params),
        "iron_monotone": lambda: bcd.iron_monotone(rough, weights),
        "rewards_from_latencies": lambda: contracts.rewards_from_latencies(
            lat, profile, params.gamma1
        ),
    }
    return calls, lambda: bcd.solve(samples, profile, params, amb, cfg)


def contaminated_solve(package="drcontract"):
    """A call that runs the bench grid's contamination-100 dro solve: the
    seed-0 reference instance with 100 training samples moved to the
    extreme value, which runs the whole 1500-iteration budget with no change
    of inner winners."""
    ambiguity, bcd, config = modules(package, "ambiguity", "bcd", "config")
    cfg = config.RunConfig(seed=0)
    train = cfg.train_samples()
    samples = ambiguity.inject_extreme_points(train, 100, cfg.extreme_value, cfg.seed)
    args = (samples, cfg.profile(), cfg.params(), cfg.ambiguity_for(train.n), cfg)
    return lambda: bcd.solve(*args)


def oracle_calls(package="drcontract"):
    """The timed oracle searches by name: the criterion-05 instance (two
    types, 20 training samples) at the perfbench ``oracle`` workload's grid
    step 0.025, and a three-type, seven-anchor instance with radius 5, whose
    multiplier argmax is positive."""
    ambiguity, config, contracts, evaluation = modules(
        package, "ambiguity", "config", "contracts", "evaluation"
    )
    cfg = replace(config.RunConfig(seed=0), thetas=(110.0, 140.0), n_train=20)
    samples = cfg.train_samples()
    criterion_05 = (cfg.profile(), samples, cfg.params(), cfg.ambiguity_for(samples.n), 0.025)
    three_type = (
        contracts.AspTypeProfile(thetas=[110.0, 140.0, 180.0], alphas=[0.25, 0.35, 0.4]),
        ambiguity.QualitySampleSet([50.0, 60.0, 72.5, 81.0, 93.25, 100.0, 108.0]),
        contracts.UtilityParams(),
        ambiguity.AmbiguityConfig(ambiguity.SupportInterval(60.0, 100.0), 5.0),
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


def samplers(package="drcontract"):
    """Per group (each size of :func:`instances`, ``I8_N200_extreme100``
    for :func:`contaminated_solve`, then ``oracle``), a sampler per figure,
    built on ``package``."""
    groups = {}
    for name, cfg in instances(package):
        calls, solve = kernels(cfg, package)
        groups[name] = {figure: timer(fn) for figure, fn in calls.items()}
        groups[name]["solve_per_iteration"] = solve_timer(solve)
    groups["I8_N200_extreme100"] = {"solve_per_iteration": solve_timer(contaminated_solve(package))}
    groups["oracle"] = {figure: timer(fn) for figure, fn in oracle_calls(package).items()}
    return groups


def paired(before, after, pairs: int) -> dict:
    """Time the two samplers in alternation, ``pairs`` pairs with the order
    flipped from pair to pair: the median per-call time of each side in
    microseconds, and the median and quartiles of the pairs' after/before
    ratios."""
    sides, times = (before, after), ([], [])
    for i in range(pairs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            times[side].append(sides[side]())
    ratios = [b / a for a, b in zip(*times)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "before_us": 1e6 * statistics.median(times[0]),
        "after_us": 1e6 * statistics.median(times[1]),
        "ratio": median,
        "ratio_q1": q1,
        "ratio_q3": q3,
    }


def load_package(src: Path, name: str) -> str:
    """Import the ``drcontract`` package under ``src`` as ``name``, which
    its relative imports allow, and return ``name``."""
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    init = src / "drcontract" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return name


def load_script(path: Path, name: str):
    """Import the script at ``path`` as the module ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ab_run(before_src: Path, pairs: int) -> dict:
    """Every figure that both checkouts time, each side sampled by its own
    script's :func:`samplers`, timed in alternation (:func:`paired`)."""
    script = load_script(before_src.parent / "scripts" / "bench_kernels.py", "bench_kernels_before")
    before = script.samplers(load_package(before_src, "drcontract_before"))
    after_src = ROOT / "src"
    after = samplers(load_package(after_src, "drcontract_after"))
    run = {
        "before_sha256": source_hash(before_src),
        "after_sha256": source_hash(after_src),
        "pairs": pairs,
        "budget_s": BUDGET_S,
        "machine": machine_record(),
        "unpaired": unpaired(before, after),
    }
    for group, figures in after.items():
        shared = {name: s for name, s in figures.items() if name in before.get(group, {})}
        if shared:
            run[group] = {name: paired(before[group][name], s, pairs) for name, s in shared.items()}
            print(group, json.dumps(run[group]))
    return run


def unpaired(before, after) -> dict:
    """Each figure, ``group/name``, that only one side's samplers time,
    mapped to that side."""

    def names(groups):
        return {f"{group}/{name}" for group, figures in groups.items() for name in figures}

    b, a = names(before), names(after)
    return {**dict.fromkeys(sorted(b - a), "before"), **dict.fromkeys(sorted(a - b), "after")}


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
    parser.add_argument(
        "--ab",
        type=Path,
        required=True,
        help="another checkout's source dir, timed in alternation as before",
    )
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_kernels.json")
    args = parser.parse_args(argv)

    run = ab_run(args.ab, REPEATS)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["unit"] = (
        "us per call; solve_per_iteration in us per iteration; ab ratios are after/before"
    )
    data.setdefault("ab", {})[args.label] = run
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {args.out} ({args.label})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
