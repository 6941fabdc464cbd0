"""Per-sample inner minimization in closed form.

For a fixed latency vector and multiplier lam, the per-anchor inner function

    f(xi) = h(xi) + lam * |xi - anchor|,
    h(xi) = sum_i alpha_i * ln(gamma2*xi + gamma3*L_i),

is an increasing concave log benefit h plus a V-shaped transport penalty
that is linear on each side of the anchor.  On each side f is therefore
concave, and a concave function attains its minimum over an interval at an
endpoint.  Over the support [lo, hi] the minimum is the lower of two
candidates:

* the support floor lo;
* the anchor's projection p = clip(anchor, lo, hi).

For an anchor inside the support f is concave on [lo, anchor] and
increasing on [anchor, hi], so hi never beats p = anchor; for an anchor
above the support p = hi and f is one concave branch; for an anchor below
it p = lo, f is increasing and the two candidates coincide.  A stationary
point of the descending branch is that branch's maximum, never its minimum,
so no root finding is needed.  p wins only when strictly lower, so ties
break toward lo.
"""

from __future__ import annotations

import numpy as np

from .ambiguity import SupportInterval
from .contracts import AspTypeProfile, UtilityParams, rewards_from_latencies
from .errors import NonPositiveLogArgument, ValidationError


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


def candidate_points(anchors, support: SupportInterval) -> np.ndarray:
    """The floor lo followed by every anchor's projection clip(anchor, lo, hi):
    the two candidates of each anchor's inner minimum."""
    return np.concatenate(([support.lo], np.clip(anchors, support.lo, support.hi)))


def inner_minima(
    latencies,
    lam: float,
    anchors,
    support: SupportInterval,
    params: UtilityParams,
    alphas,
):
    """Minimize the penalized log benefit over the support for every anchor.

    Returns ``(f_min, xi_star)``, one entry per anchor: the lower of the
    floor and the anchor's projection, the projection winning only when
    strictly lower (see the module docstring).
    """
    if lam < 0.0:
        raise ValidationError("lam must be >= 0")
    anchors = np.asarray(anchors, dtype=float)
    points = candidate_points(anchors, support)
    h = weighted_log(points, latencies, alphas, params)
    lo, p = points[0], points[1:]
    v_lo = h[0] + lam * np.abs(anchors - lo)
    v_p = h[1:] + lam * np.abs(anchors - p)
    return np.minimum(v_lo, v_p), np.where(v_p < v_lo, p, lo)


def g_of_L(latencies, profile: AspTypeProfile, gamma1: float) -> float:
    """Expected reward ``sum_i alpha_i * R_i`` of the constructed menu,
    accumulated type by type in order."""
    rewards = rewards_from_latencies(latencies, profile, gamma1)
    return float(np.cumsum(profile.alphas * rewards)[-1])
