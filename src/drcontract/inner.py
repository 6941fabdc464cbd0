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

from typing import NamedTuple

import numpy as np

from .ambiguity import SupportInterval
from .contracts import AspTypeProfile, UtilityParams, rewards_from_latencies
from .errors import NonPositiveLogArgument, ValidationError


# Points per table of a type-blocked kernel: a block of types holds at most
# this many (type, point) entries, and at least one type.  Small problems
# (8 types x 200 samples) take all types in one table, so one ufunc call
# replaces one per type; 20k-point problems run one type per block, so their
# temporaries stay the size of one type's.
TYPE_BLOCK_POINTS = 2**15


def type_blocks(n_types: int, points: int):
    """Consecutive type slices of ``max(1, TYPE_BLOCK_POINTS // points)``
    types each, in type order."""
    step = max(1, TYPE_BLOCK_POINTS // max(points, 1))
    return [slice(start, min(start + step, n_types)) for start in range(0, n_types, step)]


def weighted_log(xi, latencies, alphas, params: UtilityParams) -> np.ndarray:
    """Log benefit h(xi) = sum_i alpha_i * ln(gamma2*xi + gamma3*L_i).

    Type i's latency is ``latencies[..., i]``, which broadcasts against
    ``xi``: a 1-D menu with an array of quality points gives one value per
    point, and a ``(rows, 1, I)`` stack of menus with ``(1, n)`` points gives
    a ``(rows, n)`` table.

    Types are taken in blocks (:func:`type_blocks`): each block's log
    arguments form one ``(k, *shape)`` table with one ``np.log`` call, so the
    per-call overhead is paid per block, not per type.  The weighted logs
    are still accumulated into the total type by type, in type order, so
    every value is the same float sequence as a per-type loop.

    Raises NonPositiveLogArgument when a log argument is not strictly
    positive; its ``sample_index`` is the first offending flat position.
    """
    lat = np.asarray(latencies, dtype=float)
    shape = np.broadcast_shapes(np.shape(xi), lat.shape[:-1])
    total = np.zeros(shape)
    scaled_xi = params.gamma2 * xi
    # types on a leading axis, padded so that a block of k types broadcasts
    # against xi to (k, *shape), as each lat[..., i] does to shape
    pad = (1,) * (len(shape) - lat.ndim + 1)
    by_type = lat.transpose(-1, *range(lat.ndim - 1))
    by_type = by_type.reshape(lat.shape[-1:] + pad + lat.shape[:-1])
    for block in type_blocks(len(alphas), total.size):
        arg = scaled_xi + params.gamma3 * by_type[block]
        try:
            # ln of a negative argument is invalid and of zero divides by
            # zero; trapping those flags costs nothing per element
            with np.errstate(divide="raise", invalid="raise"):
                log_arg = np.log(arg, out=arg)
        except FloatingPointError:
            raise _nonpositive_log_argument(xi, lat, params, shape) from None
        for alpha, log_i in zip(alphas[block], log_arg, strict=True):
            total += alpha * log_i
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


class InnerCandidates(NamedTuple):
    """What an anchor set's inner minima need besides the menu and the
    multiplier, built once per solve: the candidate points (the floor lo,
    then every anchor's projection p = clip(anchor, lo, hi)) and the
    transport distances |anchor - lo| and |anchor - p|."""

    points: np.ndarray
    lo_distance: np.ndarray
    p_distance: np.ndarray


def inner_candidates(anchors, support: SupportInterval) -> InnerCandidates:
    """The two candidates of every anchor's inner minimum, and their
    transport distances."""
    anchors = np.asarray(anchors, dtype=float)
    points = np.concatenate(([support.lo], np.clip(anchors, support.lo, support.hi)))
    return InnerCandidates(points, np.abs(anchors - points[0]), np.abs(anchors - points[1:]))


def inner_minima(
    latencies,
    lam: float,
    candidates: InnerCandidates,
    params: UtilityParams,
    alphas,
):
    """Minimize the penalized log benefit over the support for every anchor
    of ``candidates`` (see :func:`inner_candidates`).

    Returns ``(f_min, xi_star)``, one entry per anchor: the lower of the
    floor and the anchor's projection, the projection winning only when
    strictly lower (see the module docstring).
    """
    if lam < 0.0:
        raise ValidationError("lam must be >= 0")
    points = candidates.points
    h = weighted_log(points, latencies, alphas, params)
    v_lo = h[0] + lam * candidates.lo_distance
    v_p = h[1:] + lam * candidates.p_distance
    return np.minimum(v_lo, v_p), np.where(v_p < v_lo, points[1:], points[0])


def g_of_L(latencies, profile: AspTypeProfile, gamma1: float) -> float:
    """Expected reward ``sum_i alpha_i * R_i`` of the constructed menu,
    accumulated type by type in order."""
    rewards = rewards_from_latencies(latencies, profile, gamma1)
    return float(np.cumsum(profile.alphas * rewards)[-1])
