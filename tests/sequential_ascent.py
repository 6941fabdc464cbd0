"""A test-only reference: the ascent with one step per evaluation.

This is the loop :func:`drcontract.bcd._ascend` ran before it evaluated its
iterates in batches, with :func:`drcontract.bcd.solve` and
:func:`drcontract.bcd.solve_pinned` built on it as they were then.  Each
iteration steps the latencies and the multiplier at the inner minimizers of
the last evaluation, then evaluates the new point alone (one-menu kernel
calls), so each iterate's inner winners reach the very next step.  The
batched loop must reproduce its traces, stop reasons, menus and errors bit
for bit.  The kernels are looked up on ``drcontract.bcd`` at call time, as
the solver looks them up, so a test's patch there reaches both loops; the
latency gradient is the exception, as the loop computes it itself, one type
at a time (:func:`per_type_latency_gradient`), so the solver's step kernel
is checked against arithmetic it does not share.  ``flips`` on the report
lists the iterations (1-based) whose winners differ from those of the
evaluation before them.
"""

import math

import numpy as np

from drcontract import ContractMenu, NumericError, bcd
from drcontract.ambiguity import sample_values
from drcontract.bcd import SolveReport
from drcontract.inner import inner_candidates, unbounded


def per_type_latency_gradient(xi, latencies, profile, params):
    """The latency gradient at the inner minimizers ``xi``, one type at a
    time: alpha_i * (gamma3 * (sum_n 1/(gamma2*xi_n + gamma3*L_i) / N) -
    gamma1/theta_i), the sum added in sample order, which is the solver's
    float order.  It makes no check: the evaluation that returned ``xi``
    took logs at these arguments, and would have raised on one not
    positive."""
    scaled_xi = params.gamma2 * np.asarray(xi, dtype=float)
    gradient = np.empty(len(latencies))
    for i, lat_i in enumerate(np.asarray(latencies, dtype=float)):
        denom = scaled_xi + params.gamma3 * lat_i
        mean = np.add.accumulate(1.0 / denom)[-1] / denom.size
        price = params.gamma1 / profile.thetas[i]
        gradient[i] = profile.alphas[i] * (params.gamma3 * mean - price)
    return gradient


def sequential_solve(samples, profile, params, ambiguity, cfg) -> SolveReport:
    anchors = sample_values(samples)
    candidates = inner_candidates(anchors, ambiguity.support)
    lo, projections = float(candidates.points[0]), candidates.points[1:]

    def evaluate(lat, lam):
        omega, wins = bcd.objectives(lat, lam, candidates, ambiguity.epsilon, profile, params)
        distances = np.where(wins, candidates.p_distance, candidates.lo_distance)
        return float(omega), np.where(wins, projections, lo), distances, wins

    report = _sequential_ascend(ambiguity.epsilon, evaluate, profile, params, cfg, cfg.lambda_init)
    if unbounded(candidates, ambiguity.epsilon):
        report.stop_reason = "unbounded"
    return report


def sequential_solve_pinned(anchors, profile, params, cfg) -> SolveReport:
    anchors = sample_values(anchors)
    distances = np.zeros(anchors.size)

    def evaluate(lat, lam):
        rewards = bcd.rewards_from_latencies(lat, profile, params.gamma1)
        g = bcd.expected_reward(rewards, profile.alphas)
        omega = bcd.sample_value(bcd.weighted_log(anchors, lat, profile.alphas, params), g)
        return float(omega), anchors, distances, None

    return _sequential_ascend(0.0, evaluate, profile, params, cfg, 0.0)


# as in the solver, an overflow reaches the finite checks silently
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _sequential_ascend(epsilon, evaluate, profile, params, cfg, lam) -> SolveReport:
    weights = np.maximum(profile.alphas, 1e-12)
    start = np.full(profile.n_types, float(cfg.l_init))
    lat = np.maximum(bcd.iron_monotone(start, weights), 0.0)
    lam = float(lam)
    omega, xi, distances, wins = evaluate(lat, lam)

    omega_prev = -np.inf
    converged = False
    obj_trace, lam_trace, lat_trace, flips = [], [], [], []
    for t in range(1, cfg.itr_max + 1):
        gradient = per_type_latency_gradient(xi, lat, profile, params)
        stepped = lat + cfg.eta_l * gradient
        if not np.logical_and.reduce(np.isfinite(stepped)):
            raise NumericError(f"latency step {stepped.tolist()!r} is not finite")
        lat = np.maximum(bcd.iron_monotone(stepped, weights, validate=False), 0.0)
        lam = max(lam + cfg.eta_lambda * bcd.grad_lambda(distances, epsilon), 0.0)
        if not math.isfinite(lam):
            raise NumericError(f"multiplier iterate {lam!r} is not finite")
        previous = wins
        omega, xi, distances, wins = evaluate(lat, lam)
        if wins is not None and not np.array_equal(wins, previous):
            flips.append(t)
        if not math.isfinite(omega):
            raise NumericError(f"objective {omega!r} at lam={lam!r} is not finite")
        obj_trace.append(omega)
        lam_trace.append(lam)
        lat_trace.append(lat)
        if abs(omega_prev - omega) <= cfg.conv_tol:
            converged = True
            break
        omega_prev = omega

    rewards = bcd.rewards_from_latencies(lat, profile, params.gamma1)
    report = SolveReport(
        menu=ContractMenu(latencies=lat, rewards=rewards),
        converged=converged,
        stop_reason="tol" if converged else "max_iters",
        objective_trace=np.array(obj_trace),
        latency_trace=np.array(lat_trace),
        lambda_trace=np.array(lam_trace),
    )
    report.flips = flips
    return report
