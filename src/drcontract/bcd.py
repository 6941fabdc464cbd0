"""Block-coordinate ascent over the slack, latency, and multiplier blocks.

Each iteration (1) takes a fixed-step approximate-gradient ascent step on
the latency vector and projects it back onto the nondecreasing cone by
weighted pool-adjacent-violators ironing, (2) takes a projected gradient
step on the multiplier, both at the per-sample inner minimizers of the
current point, and (3) evaluates the objective at the new point, which also
yields the inner minimizers for the next iteration.  The loop stops when
consecutive objective values differ by at most the convergence threshold.

The latency gradient deliberately treats the inner minimizers as constants,
so per-step objective improvement is not guaranteed and is not asserted;
in practice the trajectory climbs monotonically on the tested instances.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .ambiguity import AmbiguityConfig, sample_values
from .contracts import AspTypeProfile, ContractMenu, UtilityParams, rewards_from_latencies
from .errors import NonPositiveDenominator, NumericError, SizeMismatch, ValidationError
from .inner import g_of_L, inner_minima, weighted_log


@dataclass(frozen=True)
class BcdConfig:
    """Loop hyperparameters.  Defaults give the reference configuration:
    1500 iterations max, 1e-3 convergence threshold, step sizes 1e4 for the
    latency block and 1e-3 for the multiplier, all-zero initial latencies,
    initial multiplier 6."""

    max_iters: int = 1500
    conv_tol: float = 1e-3
    eta_L: float = 1e4
    eta_lambda: float = 1e-3
    L_init: float = 0.0
    lambda_init: float = 6.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not self.conv_tol > 0.0:
            raise ValidationError("conv_tol must be > 0")
        if self.eta_L < 0.0 or self.eta_lambda < 0.0:
            raise ValidationError("step sizes must be >= 0")
        if self.lambda_init < 0.0:
            raise ValidationError("lambda_init must be >= 0")

    def initial_latencies(self, n_types: int) -> np.ndarray:
        return np.full(n_types, float(self.L_init))


@dataclass(frozen=True)
class BcdState:
    """One iterate: latencies, multiplier, inner minimizers, slacks, objective."""

    latencies: np.ndarray
    lam: float
    xi_stars: np.ndarray
    s_values: np.ndarray
    objective: float


@dataclass
class SolveReport:
    """Solver output: the contract menu plus the convergence trajectory."""

    menu: ContractMenu
    converged: bool
    iterations_used: int
    objective_trace: np.ndarray
    latency_trace: np.ndarray
    lambda_trace: np.ndarray

    @property
    def objective(self) -> float:
        return float(self.objective_trace[-1])


def objective(
    latencies,
    lam: float,
    samples,
    ambiguity: AmbiguityConfig,
    profile: AspTypeProfile,
    params: UtilityParams,
):
    """Evaluate the robust objective at (latencies, lam).

    Takes every anchor's inner minimum at once, forms each slack as the
    inner minimum net of the expected reward, and returns
    (objective, xi_stars, s_values) with
    objective = -lam * epsilon + mean(s_values).
    """
    f_min, xi_stars = inner_minima(
        latencies, lam, sample_values(samples), ambiguity.support, params, profile.alphas
    )
    g = g_of_L(latencies, profile, params.gamma1)
    s_values = f_min - g
    return -lam * ambiguity.epsilon + _mean_in_order(s_values), xi_stars, s_values


def _pinned_objective(
    latencies,
    lam: float,
    anchors: np.ndarray,
    profile: AspTypeProfile,
    params: UtilityParams,
):
    """Objective with the inner point pinned to each anchor (no adversary):
    the transport penalty vanishes because the evaluation point equals the
    anchor."""
    g = g_of_L(latencies, profile, params.gamma1)
    s_values = weighted_log(anchors, latencies, profile.alphas, params) - g
    return _mean_in_order(s_values), anchors.copy(), s_values


def _mean_in_order(values: np.ndarray) -> float:
    """Mean accumulated sample by sample in order (a running sum of
    value / n), so results do not depend on numpy's pairwise summation."""
    return float(np.cumsum(values / values.size)[-1])


def grad_L(xi_stars, latencies, profile: AspTypeProfile, params: UtilityParams) -> np.ndarray:
    """Approximate latency gradient, holding the inner minimizers fixed.

    Component i is mean_n [alpha_i*gamma3/(gamma2*xi_n + gamma3*L_i)]
    minus alpha_i*gamma1/theta_i.
    """
    xi = np.asarray(xi_stars, dtype=float)
    inverse_sums = np.empty(len(latencies))
    for i, lat_i in enumerate(np.asarray(latencies, dtype=float)):
        denom = params.gamma2 * xi + params.gamma3 * lat_i
        if np.any(denom <= 0.0):
            raise NonPositiveDenominator("gamma2*xi + gamma3*L must be > 0")
        inverse_sums[i] = np.cumsum(1.0 / denom)[-1]  # in sample order
    benefit = params.gamma3 * (inverse_sums / xi.size)
    return profile.alphas * (benefit - params.gamma1 / profile.thetas)


def grad_lambda(xi_stars, anchors, epsilon: float) -> float:
    """Multiplier gradient: mean transport distance minus the radius."""
    xi = np.asarray(xi_stars, dtype=float)
    anc = sample_values(anchors)
    if xi.size != anc.size:
        raise SizeMismatch(f"xi_stars ({xi.size}) vs anchors ({anc.size})")
    return float(-epsilon + np.mean(np.abs(xi - anc)))


def iron_monotone(latencies, weights) -> np.ndarray:
    """Weighted least-squares projection onto the nondecreasing cone.

    Pool-adjacent-violators: scan left to right, merging any block whose
    weighted mean falls below its predecessor's.  Idempotent; inputs that
    are already nondecreasing come back unchanged.
    """
    vals = np.asarray(latencies, dtype=float)
    w = np.asarray(weights, dtype=float)
    if vals.size != w.size:
        raise SizeMismatch("latencies and weights must have equal length")
    if np.any(~np.isfinite(vals)):
        raise ValidationError("latencies must be finite")
    if np.any(w <= 0.0):
        raise ValidationError("weights must be strictly positive")
    # blocks of (weight sum, weighted value sum, member count)
    blocks = []
    for v, wt in zip(vals.tolist(), w.tolist()):
        blocks.append([wt, wt * v, 1])
        while len(blocks) > 1 and blocks[-2][1] / blocks[-2][0] > blocks[-1][1] / blocks[-1][0]:
            wt2, sv2, c2 = blocks.pop()
            blocks[-1][0] += wt2
            blocks[-1][1] += sv2
            blocks[-1][2] += c2
    out = np.empty_like(vals)
    pos = 0
    for wt, sv, count in blocks:
        out[pos : pos + count] = sv / wt
        pos += count
    return out


def bcd_step(
    state: BcdState,
    anchors,
    epsilon: float,
    evaluate,
    profile: AspTypeProfile,
    params: UtilityParams,
    bcd_cfg: BcdConfig,
) -> BcdState:
    """One loop body: a latency step + ironing and a projected multiplier
    step, both taken at the state's inner minimizers, then one objective
    evaluation at the new point.

    ``evaluate(lat, lam)`` returns (objective, xi_stars, s_values) and fixes
    the inner rule.  Raises NumericError when the new iterate or its
    objective is not finite, or the latencies decrease.
    """
    lat = _latency_update(state.latencies, state.xi_stars, profile, params, bcd_cfg)
    g_lam = grad_lambda(state.xi_stars, anchors, epsilon)
    lam = max(state.lam + bcd_cfg.eta_lambda * g_lam, 0.0)
    if not math.isfinite(lam):  # lam >= 0 holds by the projection above
        raise NumericError(f"multiplier iterate {lam!r} is not finite")
    if np.any(np.diff(lat) < 0.0):
        raise NumericError(f"latency iterate {lat.tolist()!r} is not nondecreasing")
    omega, xi_stars, s_values = evaluate(lat, lam)
    if not math.isfinite(omega):
        raise NumericError(f"objective {omega!r} at lam={lam!r} is not finite")
    return BcdState(
        latencies=lat, lam=lam, xi_stars=xi_stars, s_values=s_values, objective=omega
    )


def _latency_update(latencies, xi_stars, profile, params, bcd_cfg) -> np.ndarray:
    g = grad_L(xi_stars, latencies, profile, params)
    stepped = np.asarray(latencies, dtype=float) + bcd_cfg.eta_L * g
    if not np.all(np.isfinite(stepped)):
        raise NumericError(f"latency step {stepped.tolist()!r} is not finite")
    return _project(stepped, profile)


def _project(latencies, profile) -> np.ndarray:
    """Iron onto the nondecreasing cone, then clip at zero: inverse
    latencies cannot go negative.  Zero-probability types get a tiny
    ironing weight so pooling stays defined."""
    return np.maximum(iron_monotone(latencies, np.maximum(profile.alphas, 1e-12)), 0.0)


def solve(
    samples,
    profile: AspTypeProfile,
    params: UtilityParams,
    ambiguity: AmbiguityConfig,
    bcd_cfg: BcdConfig = None,
) -> SolveReport:
    """Run the full block-coordinate loop and return the robust menu.

    Failing to converge within the iteration budget is reported, not raised.
    Identical inputs produce bitwise-identical traces.
    """

    def evaluate(lat, lam):
        return objective(lat, lam, samples, ambiguity, profile, params)

    anchors = sample_values(samples)
    bcd_cfg = bcd_cfg or BcdConfig()
    return _run_loop(anchors, profile, params, bcd_cfg, evaluate, ambiguity.epsilon)


def _run_loop(anchors, profile, params, bcd_cfg, evaluate, epsilon) -> SolveReport:
    """Shared ascent engine; ``evaluate`` fixes the inner rule.  The
    objective is evaluated once before the loop and once per iteration."""
    lat = _project(bcd_cfg.initial_latencies(profile.n_types), profile)
    lam = float(bcd_cfg.lambda_init)
    omega, xi_stars, s_values = evaluate(lat, lam)
    state = BcdState(latencies=lat, lam=lam, xi_stars=xi_stars, s_values=s_values, objective=omega)

    omega_star = -np.inf
    converged = False
    obj_trace, lam_trace, lat_trace = [], [], []
    for _ in range(bcd_cfg.max_iters):
        state = bcd_step(state, anchors, epsilon, evaluate, profile, params, bcd_cfg)
        obj_trace.append(state.objective)
        lam_trace.append(state.lam)
        lat_trace.append(state.latencies.copy())
        if abs(omega_star - state.objective) <= bcd_cfg.conv_tol:
            converged = True
            break
        omega_star = state.objective

    rewards = rewards_from_latencies(state.latencies, profile, params.gamma1)
    return SolveReport(
        menu=ContractMenu(latencies=state.latencies, rewards=rewards),
        converged=converged,
        iterations_used=len(obj_trace),
        objective_trace=np.array(obj_trace),
        latency_trace=np.array(lat_trace),
        lambda_trace=np.array(lam_trace),
    )


def solve_pinned(anchors, profile, params, bcd_cfg=None) -> SolveReport:
    """Ascent with the inner point pinned to each anchor and a zero radius.

    The multiplier gradient is identically zero, so the multiplier is held
    at zero from the start whatever ``bcd_cfg.lambda_init`` says; the loop
    controls and stopping rule are otherwise the robust solver's.
    """
    anchors = sample_values(anchors)

    def evaluate(lat, lam):
        return _pinned_objective(lat, lam, anchors, profile, params)

    bcd_cfg = replace(bcd_cfg or BcdConfig(), lambda_init=0.0)
    return _run_loop(anchors, profile, params, bcd_cfg, evaluate, 0.0)


def write_trace_csv(report: SolveReport, path, method: str = None) -> None:
    """Per-iteration trace: iter,objective,lambda,L_1..L_I.

    Baseline traces prepend a ``method`` column.
    """
    n_types = report.menu.n_types
    header = ["iter", "objective", "lambda"] + [f"L_{i + 1}" for i in range(n_types)]
    if method is not None:
        header = ["method"] + header
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(report.iterations_used):
            row = [
                t + 1,
                repr(float(report.objective_trace[t])),
                repr(float(report.lambda_trace[t])),
            ] + [repr(float(v)) for v in report.latency_trace[t]]
            if method is not None:
                row = [method] + row
            writer.writerow(row)
