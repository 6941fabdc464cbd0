"""Block-coordinate ascent over the latency and multiplier blocks.

One loop, :func:`_ascend`, serves every solver.  It projects the start
point, evaluates it, and on each iteration (1) takes a fixed-step
approximate-gradient ascent step on the latency vector, irons it back onto
the nondecreasing cone by weighted pool-adjacent-violators and clips it at
zero, (2) takes a projected gradient step on the multiplier, both at the
inner minimizers of the last evaluation, and (3) evaluates the objective at
the new point, which also yields the inner minimizers for the next
iteration.  The loop stops when consecutive objective values differ by at
most the convergence threshold.  :func:`solve` evaluates the robust
objective; :func:`solve_pinned` pins the inner point to each anchor.

The latency gradient deliberately treats the inner minimizers as constants,
so per-step objective improvement is not guaranteed and is not asserted;
in practice the trajectory climbs monotonically on the tested instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ambiguity import AmbiguityConfig, sample_values
from .contracts import AspTypeProfile, ContractMenu, UtilityParams, rewards_from_latencies
from .csvio import write_table
from .errors import NonPositiveDenominator, NumericError, SizeMismatch, ValidationError
from .inner import (
    InnerCandidates,
    argument_blocks,
    g_of_L,
    inner_candidates,
    inner_minima,
    weighted_log,
)


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
        if not (self.eta_L >= 0.0 and self.eta_lambda >= 0.0):
            raise ValidationError("step sizes must be >= 0")
        if not math.isfinite(self.L_init):
            raise ValidationError("L_init must be finite")
        if not self.lambda_init >= 0.0:
            raise ValidationError("lambda_init must be >= 0")

    def initial_latencies(self, n_types: int) -> np.ndarray:
        return np.full(n_types, float(self.L_init))


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
    candidates: InnerCandidates,
    epsilon: float,
    profile: AspTypeProfile,
    params: UtilityParams,
):
    """Evaluate the robust objective at (latencies, lam).

    Takes every anchor's inner minimum at once over ``candidates``
    (``inner_candidates(anchors, support)``, which a solve builds once and
    passes to every call), forms each slack as the inner minimum net of the
    expected reward, and returns (objective, xi_stars) with
    objective = -lam * epsilon + mean(s_values).
    """
    f_min, xi_stars = inner_minima(latencies, lam, candidates, params, profile.alphas)
    g = g_of_L(latencies, profile, params.gamma1)
    s_values = f_min - g
    return -lam * epsilon + _mean_in_order(s_values), xi_stars


def _mean_in_order(values: np.ndarray) -> float:
    """Mean accumulated sample by sample in order (a running sum of
    value / n), so results do not depend on numpy's pairwise summation."""
    return float(np.cumsum(values / values.size)[-1])


def grad_L(xi_stars, latencies, profile: AspTypeProfile, params: UtilityParams) -> np.ndarray:
    """Approximate latency gradient, holding the inner minimizers fixed.

    Component i is mean_n [alpha_i*gamma3/(gamma2*xi_n + gamma3*L_i)]
    minus alpha_i*gamma1/theta_i.

    The denominators come from :func:`inner.argument_blocks`, one
    ``(k, N)`` table per block of types over the 1-D minimizers, each with
    one sign check and one row-wise ``cumsum``.  A cumsum adds strictly in
    sample order, unlike numpy's pairwise ``sum``, so each type's sum is the
    same float sequence whatever the block size.  Raises ValidationError
    unless ``xi_stars`` is 1-D.
    """
    xi = np.asarray(xi_stars, dtype=float)
    inverse_sums = np.empty(np.size(latencies))
    for types, denom in argument_blocks(xi, latencies, params):
        if (denom <= 0.0).any():
            raise NonPositiveDenominator("gamma2*xi + gamma3*L must be > 0")
        inverse_sums[types] = np.cumsum(1.0 / denom, axis=1)[:, -1]
    benefit = params.gamma3 * (inverse_sums / xi.size)
    return profile.alphas * (benefit - params.gamma1 / profile.thetas)


def grad_lambda(xi_stars, anchors, epsilon: float) -> float:
    """Multiplier gradient: mean transport distance minus the radius."""
    xi = np.asarray(xi_stars, dtype=float)
    anc = sample_values(anchors)
    if xi.size != anc.size:
        raise SizeMismatch(f"xi_stars ({xi.size}) vs anchors ({anc.size})")
    return float(-epsilon + np.abs(xi - anc).mean())


def iron_monotone(latencies, weights) -> np.ndarray:
    """Weighted least-squares projection onto the nondecreasing cone.

    Pool-adjacent-violators: scan left to right, merging any block whose
    weighted mean falls below its predecessor's.  An input that is already
    nondecreasing comes back unchanged up to one rounding per entry: each
    singleton block is written back as (w*v)/w, which is within 1 ulp of v
    while w*v stays a normal float, and often differs from v in the last
    bit.  Neighbours less than 2 ulps apart (ties, say) can therefore cross
    after rounding and get pooled, which moves them by a few ulps more.
    """
    vals = np.asarray(latencies, dtype=float)
    w = np.asarray(weights, dtype=float)
    if vals.size != w.size:
        raise SizeMismatch("latencies and weights must have equal length")
    if not np.isfinite(vals).all():
        raise ValidationError("latencies must be finite")
    if (w <= 0.0).any():
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

    anchors = sample_values(samples)
    candidates = inner_candidates(anchors, ambiguity.support)

    def evaluate(lat, lam):
        return objective(lat, lam, candidates, ambiguity.epsilon, profile, params)

    return _ascend(anchors, ambiguity.epsilon, evaluate, profile, params, bcd_cfg or BcdConfig())


def solve_pinned(anchors, profile, params, bcd_cfg=None) -> SolveReport:
    """Ascent with the inner point pinned to each anchor and a zero radius.

    The transport penalty vanishes because the evaluation point equals the
    anchor, so the anchors are the inner minimizers and the multiplier
    gradient is identically zero: the multiplier is held at zero from the
    start whatever ``bcd_cfg.lambda_init`` says.  The loop controls and
    stopping rule are otherwise the robust solver's.
    """
    anchors = sample_values(anchors)

    def evaluate(lat, lam):
        g = g_of_L(lat, profile, params.gamma1)
        s_values = weighted_log(anchors, lat, profile.alphas, params) - g
        return _mean_in_order(s_values), anchors

    bcd_cfg = replace(bcd_cfg or BcdConfig(), lambda_init=0.0)
    return _ascend(anchors, 0.0, evaluate, profile, params, bcd_cfg)


def _ascend(anchors, epsilon, evaluate, profile, params, cfg: BcdConfig) -> SolveReport:
    """The ascent engine.  ``evaluate(lat, lam)`` returns (objective,
    xi_stars) and fixes the inner rule; it runs once at the start point and
    once per iteration.  Raises NumericError when an iterate or its
    objective is not finite, or the latencies decrease."""
    # Zero-probability types get a tiny ironing weight so pooling stays defined.
    weights = np.maximum(profile.alphas, 1e-12)
    # Latencies are ironed onto the nondecreasing cone, then clipped at zero:
    # inverse latencies cannot go negative.
    lat = np.maximum(iron_monotone(cfg.initial_latencies(profile.n_types), weights), 0.0)
    lam = float(cfg.lambda_init)
    omega, xi_stars = evaluate(lat, lam)

    omega_prev = -np.inf
    converged = False
    obj_trace, lam_trace, lat_trace = [], [], []
    for _ in range(cfg.max_iters):
        stepped = lat + cfg.eta_L * grad_L(xi_stars, lat, profile, params)
        if not np.isfinite(stepped).all():
            raise NumericError(f"latency step {stepped.tolist()!r} is not finite")
        lat = np.maximum(iron_monotone(stepped, weights), 0.0)
        lam = max(lam + cfg.eta_lambda * grad_lambda(xi_stars, anchors, epsilon), 0.0)
        if not math.isfinite(lam):  # lam >= 0 holds by the projection above
            raise NumericError(f"multiplier iterate {lam!r} is not finite")
        if (lat[1:] < lat[:-1]).any():
            raise NumericError(f"latency iterate {lat.tolist()!r} is not nondecreasing")
        omega, xi_stars = evaluate(lat, lam)
        if not math.isfinite(omega):
            raise NumericError(f"objective {omega!r} at lam={lam!r} is not finite")
        obj_trace.append(omega)
        lam_trace.append(lam)
        lat_trace.append(lat)
        if abs(omega_prev - omega) <= cfg.conv_tol:
            converged = True
            break
        omega_prev = omega

    rewards = rewards_from_latencies(lat, profile, params.gamma1)
    return SolveReport(
        menu=ContractMenu(latencies=lat, rewards=rewards),
        converged=converged,
        iterations_used=len(obj_trace),
        objective_trace=np.array(obj_trace),
        latency_trace=np.array(lat_trace),
        lambda_trace=np.array(lam_trace),
    )


def write_trace_csv(report: SolveReport, path, method: str = None) -> None:
    """Per-iteration trace: iter,objective,lambda,L_1..L_I.

    Baseline traces prepend a ``method`` column.
    """
    n_types = report.menu.n_types
    header = ["iter", "objective", "lambda"] + [f"L_{i + 1}" for i in range(n_types)]
    traces = zip(report.objective_trace, report.lambda_trace, report.latency_trace)
    rows = ([t, obj, lam, *lat] for t, (obj, lam, lat) in enumerate(traces, start=1))
    if method is not None:
        header = ["method"] + header
        rows = ([method] + row for row in rows)
    write_table(path, header, rows)
