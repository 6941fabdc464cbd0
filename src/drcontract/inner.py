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

For a fixed menu both candidates are affine in lam, so each anchor's
minimum (:func:`branch_minima`) is concave and piecewise linear in lam: the
floor is the lower up to the flip point (h(p) - h(lo)) / (p - lo), the
projection after it.  So is the objective -lam*eps + mean_n minimum_n: its
slope falls from mean|anchor - lo| - eps by (p_n - lo)/N at each flip, to
mean|anchor - p| - eps, and its argmax is the flip where the slope reaches
zero (:func:`multiplier_argmax`), if it does (else :func:`unbounded`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ambiguity import SupportInterval
from .contracts import UtilityParams
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
    f_min = branch_minima(h, lam, candidates)
    return f_min, np.where(f_min < h[0] + lam * candidates.lo_distance, points[1:], points[0])


def branch_minima(h, lam, candidates: InnerCandidates) -> np.ndarray:
    """Each anchor's min(h(lo) + lam*|anchor - lo|, h(p) + lam*|anchor - p|),
    ``h`` being the log benefit at ``candidates.points``, for one menu (1-D
    ``h``, scalar ``lam``) or a stack (a row of ``h`` and a ``lam`` each)."""
    lam = np.asarray(lam, dtype=float)[..., None]
    # in place: two temporaries of the result's shape
    minima = lam * candidates.p_distance
    minima += h[..., 1:]
    floor = lam * candidates.lo_distance
    floor += h[..., :1]
    np.minimum(minima, floor, out=minima)
    return minima


def multiplier_argmax(h, candidates: InnerCandidates, eps: float):
    """Per row of ``h`` (a menu's log benefit at ``candidates.points``), the
    lam >= 0 maximizing -lam*eps + mean(branch_minima): ``inf`` if
    :func:`unbounded`, 0 if the slope at 0 is not positive, else the first
    flip point where the slope reaches zero (see the module docstring)."""
    if unbounded(candidates, eps):
        return np.full(h.shape[0], np.inf)
    s0 = -eps + float(candidates.lo_distance.mean())
    if s0 <= 0.0:
        return np.zeros(h.shape[0])
    drops = candidates.points[1:] - candidates.points[0]
    flippable = drops > 0.0  # p = lo never flips
    rises = h[:, 1:] - h[:, :1]
    flips = np.divide(rises, drops, out=np.full_like(rises, np.inf), where=flippable)
    np.maximum(flips, 0.0, out=flips)
    order = np.argsort(flips, axis=1)
    drops_sorted = np.take_along_axis(np.broadcast_to(drops, flips.shape), order, axis=1)
    crossed = s0 - np.cumsum(drops_sorted, axis=1) / drops.size <= 0.0
    # the slope ends at mean|anchor - p| - eps <= 0, rounding aside
    crossed[:, np.count_nonzero(flippable) - 1] = True
    first = np.take_along_axis(order, np.argmax(crossed, axis=1)[:, None], axis=1)
    return np.take_along_axis(flips, first, axis=1)[:, 0]


def unbounded(candidates: InnerCandidates, eps: float) -> bool:
    """Whether the anchors lie farther than eps from the support on average,
    mean|anchor - p| > eps, so the robust objective is unbounded in lam."""
    return float(candidates.p_distance.mean()) > eps


def sample_value(benefit, g, lam=0.0, eps=0.0):
    """The objective, ``-lam*eps + mean(benefit - g)`` over the last axis (the
    samples), of one menu or a stack (a ``g`` and ``lam`` per row).  The mean
    adds ``(benefit_n - g) / n`` in sample order, so rows are independent."""
    values = benefit - np.asarray(g, dtype=float)[..., None]
    values /= values.shape[-1]
    np.cumsum(values, axis=-1, out=values)
    return -lam * eps + values.T[-1]  # the last column; a scalar for one menu
