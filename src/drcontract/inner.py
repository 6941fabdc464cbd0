"""Per-sample inner minimization in closed form.

For a fixed latency vector and multiplier lam, the per-anchor inner function

    f(xi) = h(xi) + lam * |xi - anchor|,
    h(xi) = sum_i alpha_i * ln(gamma2*xi + gamma3*L_i),

is an increasing concave log benefit h plus a V-shaped transport penalty
that is linear on each side of the anchor.  On each side f is therefore
concave, and a concave function attains its minimum over an interval at an
endpoint.  The only branch endpoints inside the support [lo, hi] are lo, the
anchor and hi, so the minimum over the support sits at

* lo or the anchor, for an anchor inside the support: f is concave on
  [lo, anchor] and increasing on [anchor, hi];
* lo or hi, for an anchor above the support: one concave branch;
* lo, for an anchor below the support: f is increasing on the support.

A stationary point of the descending branch is that branch's maximum, never
its minimum, so no root finding is needed.  Candidates are compared in the
order lo < anchor < hi, and a later candidate wins only when strictly lower,
so ties break toward the smaller xi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import SupportInterval
from .contracts import UtilityParams
from .errors import (
    NonMonotoneLatencies,
    NonPositiveLogArgument,
    ValidationError,
)

_MONOTONE_TOL = 1e-12


@dataclass(frozen=True)
class InnerSolution:
    """Minimizer, minimum value, and which candidate won.

    candidate_tag is one of "lo", "anchor", "hi".
    """

    xi_star: float
    f_value: float
    candidate_tag: str


def weighted_log(xi, latencies, alphas, params: UtilityParams) -> np.ndarray:
    """Log benefit h(xi) = sum_i alpha_i * ln(gamma2*xi + gamma3*L_i).

    Type i's latency is ``latencies[..., i]``, which broadcasts against
    ``xi``: a 1-D menu with an array of quality points gives one value per
    point, and a ``(rows, 1, I)`` stack of menus with ``(1, n)`` points gives
    a ``(rows, n)`` table.  Terms are accumulated type by type, in type
    order, into one array of the broadcast shape.

    Raises NonPositiveLogArgument when a log argument is not strictly
    positive; its ``sample_index`` is the first offending flat position.
    """
    lat = np.asarray(latencies, dtype=float)
    total = np.zeros(np.broadcast_shapes(np.shape(xi), lat.shape[:-1]))
    for i, alpha in enumerate(alphas):
        arg = params.gamma2 * xi + params.gamma3 * lat[..., i]
        try:
            # ln of a negative argument is invalid and of zero divides by
            # zero; trapping those flags costs nothing per element
            with np.errstate(divide="raise", invalid="raise"):
                log_arg = np.log(arg)
        except FloatingPointError:
            raise _nonpositive_log_argument(xi, lat, params, total.shape) from None
        total += alpha * log_arg
    return total


def _nonpositive_log_argument(xi, lat, params, shape) -> NonPositiveLogArgument:
    """The error for the first flat position with a nonpositive argument in
    any type (error path only, so the full argument table is affordable)."""
    args = np.stack(
        [
            np.broadcast_to(params.gamma2 * xi + params.gamma3 * lat[..., i], shape)
            for i in range(lat.shape[-1])
        ],
        axis=-1,
    ).reshape(-1, lat.shape[-1])
    k = int(np.argmax(np.any(args <= 0.0, axis=1)))
    i = int(np.argmax(args[k] <= 0.0))
    x = float(np.broadcast_to(xi, shape).reshape(-1)[k])
    return NonPositiveLogArgument(
        f"log argument {float(args[k, i])!r} at xi={x!r} must be > 0", sample_index=k
    )


def inner_minima(
    latencies,
    lam: float,
    anchors,
    support: SupportInterval,
    params: UtilityParams,
    alphas,
):
    """Minimize the penalized log benefit over the support for every anchor.

    Returns ``(f_min, xi_star)``, one entry per anchor.  Each anchor's
    minimum is the lowest of its closed-form candidates (see the module
    docstring); the anchor candidate is evaluated only for anchors inside
    the support.
    """
    if lam < 0.0:
        raise ValidationError("lam must be >= 0")
    anchors = np.asarray(anchors, dtype=float)
    lo, hi = support.lo, support.hi
    inside = (anchors >= lo) & (anchors <= hi)
    h = weighted_log(np.concatenate(([lo, hi], anchors[inside])), latencies, alphas, params)
    h_lo, h_hi, h_anchor = h[0], h[1], h[2:]

    # lo, then the anchor, then hi; a later candidate must be strictly lower
    f_min = h_lo + lam * np.abs(lo - anchors)
    xi_star = np.full(anchors.shape, lo)
    idx = np.flatnonzero(inside)
    wins = h_anchor < f_min[idx]
    f_min[idx[wins]] = h_anchor[wins]
    xi_star[idx[wins]] = anchors[idx[wins]]
    v_hi = h_hi + lam * np.abs(hi - anchors)
    at_hi = v_hi < f_min
    f_min[at_hi] = v_hi[at_hi]
    xi_star[at_hi] = hi
    return f_min, xi_star


def g_of_L(latencies, alphas, thetas, gamma1: float) -> float:
    """Expected reward of the constructed menu, accumulated in O(I).

    Equals dot(alphas, rewards_from_latencies(latencies)) via the telescoping
    reward recursion.
    """
    lat = [float(x) for x in latencies]
    if any(b - a < -_MONOTONE_TOL for a, b in zip(lat, lat[1:])):
        raise NonMonotoneLatencies("latencies must be nondecreasing")
    total = 0.0
    reward = 0.0
    prev = 0.0
    for lat_i, alpha_i, theta_i in zip(lat, alphas, thetas):
        reward += gamma1 * (lat_i - prev) / theta_i
        prev = lat_i
        total += alpha_i * reward
    return total


def solve_inner(
    latencies,
    lam: float,
    anchor: float,
    support: SupportInterval,
    params: UtilityParams,
    alphas,
) -> InnerSolution:
    """Scalar view of :func:`inner_minima` for a single anchor."""
    f_min, xi_star = inner_minima(latencies, lam, [anchor], support, params, alphas)
    xi = float(xi_star[0])
    tag = "lo" if xi == support.lo else ("anchor" if xi == anchor else "hi")
    return InnerSolution(xi_star=xi, f_value=float(f_min[0]), candidate_tag=tag)

