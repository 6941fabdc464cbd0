"""Which program functions the benchmark wraps, and the per-layer metrics
computed from what the wrappers record.

Untraced runs wrap only the top-level calls (``train_method``,
``eval_teleop_utility`` and ``oracle_menu_search``: under 100 calls per run).
Traced runs also wrap the inner, bcd, baselines, contracts, ambiguity, config
and CSV-writer functions, each at the module attribute its caller resolves
at call time.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os

import numpy as np

# (module, attribute) sites of the top-level calls.
TOP_LEVEL = [
    ("drcontract.cli", "train_method", "evaluation.train"),
    ("drcontract.evaluation", "train_method", "evaluation.train"),
    ("drcontract.evaluation", "eval_teleop_utility", "evaluation.score"),
    ("drcontract.cli", "eval_teleop_utility", "evaluation.score"),
    ("drcontract.cli", "oracle_menu_search", "evaluation.oracle"),
]

# Fine-grained sites, traced runs only: (module, attribute, span, keep record).
FINE = [
    ("drcontract.evaluation", "solve", "bcd.loop", True),
    ("drcontract.evaluation", "solve_sp", "baselines.solve_sp", True),
    ("drcontract.evaluation", "solve_ro", "baselines.solve_ro", True),
    ("drcontract.bcd", "objective", "bcd.objective", False),
    ("drcontract.bcd", "solve_inner", "inner.solve_inner", False),
    ("drcontract.inner", "solve_xi_p", "inner.bisect", False),
    ("drcontract.bcd", "g_of_L", "inner.g_of_L", False),
    ("drcontract.bcd", "grad_L", "bcd.grad_L", False),
    ("drcontract.bcd", "grad_lambda", "bcd.grad_lambda", False),
    ("drcontract.bcd", "iron_monotone", "bcd.iron", False),
    ("drcontract.bcd", "rewards_from_latencies", "contracts.rewards", False),
    ("drcontract.evaluation", "shift_samples", "ambiguity.transform", True),
    ("drcontract.evaluation", "inject_extreme_points", "ambiguity.transform", True),
    ("drcontract.config", "generate_quality_samples", "config.gen_samples", True),
    ("drcontract.config", "generate_alphas", "config.alphas", True),
    ("drcontract.ambiguity", "write_samples_csv", "io.write", True),
    ("drcontract.cli", "write_samples_csv", "io.write", True),
    ("drcontract.cli", "write_metrics_csv", "io.write", True),
    ("drcontract.cli", "write_asp_csv", "io.write", True),
    ("drcontract.cli", "write_menu_csv", "io.write", True),
    ("drcontract.cli", "write_trace_csv", "io.write", True),
    ("drcontract.cli", "write_profile_csv", "io.write", True),
]

# Bytes per evaluated (latency tuple, sample) pair in the oracle: one float64.
ORACLE_BYTES_PER_POINT = 8


class Recorder:
    """Observers that turn wrapped calls into counters and solve records."""

    def __init__(self, tracer, traced):
        self.tracer = tracer
        self.traced = traced
        self.solves = []  # per training call: method, iterations, converged, lam walk
        self._prev_point = None

    def install(self):
        t = self.tracer
        # Observers of arguments by name; the two hot inner observers take
        # the raw call instead, to keep tracing overhead down.
        by_name = {
            "evaluation.train": self._on_train,
            "evaluation.score": self._on_score,
            "evaluation.oracle": self._on_oracle,
            "bcd.objective": self._on_objective,
            "bcd.iron": self._on_iron,
            "io.write": self._on_write,
        }
        raw = {"inner.solve_inner": self._on_inner, "inner.bisect": self._on_bisect}
        sites = [(m, a, n, True) for m, a, n in TOP_LEVEL]
        if self.traced:
            sites += FINE
        for module, attr, name, keep in sites:
            observe = raw.get(name)
            if name in by_name:
                observe = _bound(module, attr, by_name[name])
            t.wrap(module, attr, name, keep=keep, observe=observe)

    def _on_train(self, a, result):
        solve = {
            "method": a.get("method"),
            "iterations": int(getattr(result, "iterations_used", 0)),
            "converged": bool(getattr(result, "converged", True)),
        }
        if self.traced:
            solve["lam_walk_iters"] = _lam_walk(a, result)
        self.solves.append(solve)

    def _on_score(self, a, result):
        self.tracer.counters["score.sample_types"] += a["eval_samples"].n * a["menu"].n_types

    def _on_oracle(self, a, result):
        n_l = int(math.floor(a["l_max"] / a["grid_step"] + 1e-9)) + 1
        n_types = a["profile"].n_types
        points = math.comb(n_l + n_types - 1, n_types) * a["samples"].n
        self.tracer.counters["oracle.points"] += points

    def _on_objective(self, a, result):
        point = (np.array(a["latencies"], dtype=float), float(a["lam"]))
        prev = self._prev_point
        if prev is not None and prev[1] == point[1] and np.array_equal(prev[0], point[0]):
            self.tracer.counters["objective.repeats"] += 1
        self._prev_point = point

    def _on_inner(self, args, kwargs, result):
        self.tracer.counters["inner.win." + str(getattr(result, "candidate_tag", "unknown"))] += 1

    def _on_bisect(self, args, kwargs, result):
        if result is not None:
            self.tracer.counters["bisect.roots"] += 1

    def _on_iron(self, a, result):
        if not np.array_equal(np.asarray(a["latencies"], dtype=float), result):
            self.tracer.counters["iron.changed"] += 1

    def _on_write(self, a, result):
        self.tracer.counters["io.write.bytes"] += os.path.getsize(a["path"])

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self):
        """Every per-layer metric; None where the layer's function is absent."""
        t = self.tracer
        c = t.counters
        m = {}

        def calls_self(span, prefix):
            layer = t.layer(span)
            m[prefix + ".calls"] = None if layer is None else layer[0]
            m[prefix + ".self_s"] = None if layer is None else layer[2]
            return layer

        inner = calls_self("inner.solve_inner", "inner.solve_inner")
        m["inner.solve_inner.us_per_call"] = _ratio(inner, lambda l: 1e6 * l[2], lambda l: l[0])
        for tag in ("lo", "anchor", "stationary", "hi"):
            m["inner.win." + tag] = None if inner is None else c["inner.win." + tag]
        bisect = calls_self("inner.bisect", "inner.bisect")
        m["inner.bisect.useful_ratio"] = (
            None
            if bisect is None or inner is None
            else (c["inner.win.stationary"] / bisect[0] if bisect[0] else 0.0)
        )
        calls_self("inner.g_of_L", "inner.g_of_L")
        obj = calls_self("bcd.objective", "bcd.objective")
        m["bcd.objective.repeat_ratio"] = _ratio(obj, lambda l: c["objective.repeats"], lambda l: l[0])
        m["bcd.grad_L.self_s"] = _self(t, "bcd.grad_L")
        iron = calls_self("bcd.iron", "bcd.iron")
        m["bcd.iron.active_ratio"] = _ratio(iron, lambda l: c["iron.changed"], lambda l: l[0])
        m["bcd.grad_lambda.self_s"] = _self(t, "bcd.grad_lambda")
        m["bcd.loop.self_s"] = _self(t, "bcd.loop")
        dro = [s for s in self.solves if s["method"] == "dro"]
        m["bcd.lam_walk_iters"] = sum(s.get("lam_walk_iters") or 0 for s in dro)
        m["bcd.capped_solves"] = sum(1 for s in self.solves if not s["converged"])
        m["baselines.solve_sp.self_s"] = _self(t, "baselines.solve_sp")
        m["baselines.solve_sp.iterations"] = sum(
            s["iterations"] for s in self.solves if s["method"] == "sp"
        )
        m["baselines.solve_ro.self_s"] = _self(t, "baselines.solve_ro")
        calls_self("contracts.rewards", "contracts.rewards")
        score = calls_self("evaluation.score", "evaluation.score")
        m["evaluation.score.samples_per_s"] = _ratio(
            score, lambda l: c["score.sample_types"], lambda l: l[2]
        )
        oracle = t.layer("evaluation.oracle")
        m["evaluation.oracle.self_s"] = None if oracle is None else oracle[2]
        m["evaluation.oracle.points"] = None if oracle is None else c["oracle.points"]
        m["evaluation.oracle.points_per_s"] = _ratio(
            oracle, lambda l: c["oracle.points"], lambda l: l[2]
        )
        m["evaluation.oracle.bytes_computed"] = (
            None if oracle is None else c["oracle.points"] * ORACLE_BYTES_PER_POINT
        )
        m["ambiguity.transform.self_s"] = _self(t, "ambiguity.transform")
        m["config.gen_samples.self_s"] = _self(t, "config.gen_samples")
        m["config.alphas.self_s"] = _self(t, "config.alphas")
        m["io.write.self_s"] = _self(t, "io.write")
        m["io.write.bytes"] = None if t.layer("io.write") is None else c["io.write.bytes"]
        return m


def _bound(module, attr, observe):
    """Adapt ``observe(arguments_by_name, result)`` to the tracer's hook, so
    observers do not depend on argument order."""
    try:
        signature = inspect.signature(getattr(importlib.import_module(module), attr))
    except (ImportError, AttributeError):
        return None

    def hook(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        observe(bound.arguments, result)

    return hook


def _self(tracer, span):
    layer = tracer.layer(span)
    return None if layer is None else layer[2]


def _ratio(layer, num, den):
    if layer is None:
        return None
    d = den(layer)
    return num(layer) / d if d else 0.0


def _lam_walk(a, report):
    """Iterations whose latency step is at most 1e-4 x max L, so that only
    the multiplier moved."""
    trace = np.asarray(getattr(report, "latency_trace", []), dtype=float)
    if trace.ndim != 2 or trace.shape[0] == 0:
        return None
    cfg = a.get("bcd_cfg")
    start = (
        cfg.initial_latencies(trace.shape[1])
        if cfg is not None and hasattr(cfg, "initial_latencies")
        else np.zeros(trace.shape[1])
    )
    steps = np.abs(np.diff(np.vstack([start, trace]), axis=0)).max(axis=1)
    return int(np.count_nonzero(steps <= 1e-4 * float(trace[-1].max())))
