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
from .errors import NonPositiveLogArgument, SizeMismatch, ValidationError


# Points per table of a type-blocked kernel: a block of types holds at most
# this many (type, point) entries, and at least one type.  Small problems
# (8 types x 200 samples) take all types in one table, so one ufunc call
# replaces one per type; 20k-point problems run one type per block, so their
# temporaries stay the size of one type's.
TYPE_BLOCK_POINTS = 2**15


def argument_blocks(xi, latencies, params: UtilityParams):
    """Yield ``(types, table)`` for consecutive blocks of types, in type
    order: ``types`` is a slice of ``latencies`` and ``table`` the ``(k, N)``
    array of ``gamma2*xi + gamma3*L_i`` over the block's k types and the N
    points of ``xi``.  A block holds ``max(1, TYPE_BLOCK_POINTS // N)``
    types.  Raises ValidationError unless ``xi`` is 1-D."""
    lat = np.asarray(latencies, dtype=float)
    points = np.asarray(xi, dtype=float)
    if points.ndim != 1:
        raise ValidationError(f"points must be a 1-D array, got shape {points.shape}")
    scaled_xi = params.gamma2 * points
    step = max(1, TYPE_BLOCK_POINTS // max(scaled_xi.size, 1))
    for start in range(0, lat.size, step):
        types = slice(start, min(start + step, lat.size))
        yield types, scaled_xi + params.gamma3 * lat[types, None]


def log_blocks(xi, latencies, params: UtilityParams):
    """:func:`argument_blocks` with the natural log of each table taken in
    place.  Raises NonPositiveLogArgument when an argument is not strictly
    positive; its ``sample_index`` is the first point of ``xi`` with a
    nonpositive argument in any type."""
    for types, table in argument_blocks(xi, latencies, params):
        try:
            # ln of a negative argument is invalid and of zero divides by
            # zero; trapping those flags costs nothing per element
            with np.errstate(divide="raise", invalid="raise"):
                np.log(table, out=table)
        except FloatingPointError:
            raise _nonpositive_log_argument(xi, latencies, params) from None
        yield types, table


def _nonpositive_log_argument(xi, latencies, params) -> NonPositiveLogArgument:
    """The error for the first point with a nonpositive argument in any type
    (error path only, so the full argument table is affordable)."""
    args = np.concatenate([table for _, table in argument_blocks(xi, latencies, params)])
    bad = args <= 0.0
    k = int(np.argmax(bad.any(axis=0)))
    arg, x = float(args[np.argmax(bad[:, k]), k]), float(np.asarray(xi)[k])
    return NonPositiveLogArgument(f"log argument {arg!r} at xi={x!r} must be > 0", sample_index=k)


def weighted_log(xi, latencies, alphas, params: UtilityParams) -> np.ndarray:
    """Log benefit h(xi) = sum_i alpha_i * ln(gamma2*xi + gamma3*L_i), one
    value per point of the 1-D array ``xi``.

    The logs come from :func:`log_blocks`, one ``np.log`` call per block of
    types, and are accumulated into the total type by type, in type order:
    the same float sequence as a per-type loop.  Raises ValidationError
    unless ``xi`` is 1-D, and SizeMismatch unless there is one alpha per
    latency.
    """
    lat = np.asarray(latencies, dtype=float)
    if len(alphas) != lat.size:
        raise SizeMismatch(f"{len(alphas)} alphas vs {lat.size} latencies")
    total = np.zeros(np.shape(xi))
    for types, logs in log_blocks(xi, lat, params):
        for alpha, log_i in zip(alphas[types], logs, strict=True):
            total += alpha * log_i
    return total


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
