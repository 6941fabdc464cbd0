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
minimum (:func:`inner_minima`) is concave and piecewise linear in lam: the
floor is the lower up to the flip point (h(p) - h(lo)) / (p - lo), the
projection after it.  So is the objective -lam*eps + mean_n minimum_n: its
slope falls from mean|anchor - lo| - eps by (p_n - lo)/N at each flip, to
mean|anchor - p| - eps, and its argmax is the flip where the slope reaches
zero (:func:`multiplier_argmax`), if it does (else :func:`unbounded`).  A
flip is the slope of a secant of h from lo, and h is concave and increasing
(gamma2 > 0 is validated), so for every menu the flips ascend as p falls.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .ambiguity import SupportInterval
from .contracts import UtilityParams, running_sums
from .errors import DataError, NonPositiveLogArgument, ValidationError


# Points per table of a type-blocked kernel: a block of types holds at most
# this many (type, point) entries, and at least one type.  Small problems
# (8 types x 200 samples) take all types in one table, so one ufunc call
# replaces one per type; 20k-point problems run one type per block, so their
# temporaries stay the size of one type's.
TYPE_BLOCK_POINTS = 2**15


def rows_per_block(row_points) -> int:
    """How many rows of ``row_points`` entries one table of a type-blocked
    kernel holds: ``TYPE_BLOCK_POINTS // row_points``, and at least one."""
    return max(1, TYPE_BLOCK_POINTS // max(row_points, 1))


def least_argument(scaled_xi, scaled_lat) -> float:
    """The least entry of the table ``scaled_xi + scaled_lat[:, None]`` (see
    :func:`log_blocks`), NaN entries aside, in O(N + I) without building
    it.  Exact because rounding is monotone: a <= a' and b <= b' give
    fl(a + b) <= fl(a' + b'), so no entry lies below fl(min a + min b), which
    is an entry itself.  ``np.fmin`` skips NaNs, as a sign test of the table
    would (NaN <= 0 is false); +inf plus -inf gives NaN, and then every entry
    is NaN or +inf.  A stack of latency vectors is taken whole."""
    least_lat = np.fmin.reduce(scaled_lat, axis=None, initial=np.inf)
    return np.fmin.reduce(scaled_xi, initial=np.inf) + least_lat


def log_blocks(xi, latencies, params: UtilityParams):
    """Yield ``(types, logs)`` for consecutive blocks of types, in type
    order: ``types`` is a slice of the types and ``logs`` the natural log,
    taken in place, of the ``(k, N)`` table ``gamma2*xi + gamma3*L_i`` over
    the block's k types and the N points of ``xi``.  A ``(K, I)`` stack of
    latency vectors gives ``(k, K, N)`` tables, the type axis first.  Tables
    are C-ordered whatever the inputs' strides, so the points are the
    contiguous axis.  A block holds ``rows_per_block(K*N)`` types.  Raises
    ValidationError unless ``xi`` is 1-D, and NonPositiveLogArgument, before
    any log is taken, when an argument is not strictly positive
    (:func:`least_argument`); its ``sample_index`` is the first point of
    ``xi`` with a nonpositive argument in any type, in the first such row of
    a stack."""
    points = np.asarray(xi, dtype=float)
    if points.ndim != 1:
        raise ValidationError(f"points must be a 1-D array, got shape {points.shape}")
    scaled_xi = params.gamma2 * points
    scaled_lat = params.gamma3 * np.asarray(latencies, dtype=float)
    if least_argument(scaled_xi, scaled_lat) <= 0.0:
        raise _nonpositive_log_argument(scaled_xi, scaled_lat, points)
    by_type = scaled_lat.T  # types first; a vector is its own transpose
    step = rows_per_block(scaled_xi.size * math.prod(scaled_lat.shape[:-1]))
    for start in range(0, len(by_type), step):
        types = slice(start, min(start + step, len(by_type)))
        table = np.add(scaled_xi, by_type[types, ..., None], order="C")
        yield types, np.log(table, out=table)


def _nonpositive_log_argument(scaled_xi, scaled_lat, xi) -> NonPositiveLogArgument:
    """The error for the first point with a nonpositive argument in any type,
    in the first row of a stack that has one (error path only, so the full
    argument table is affordable)."""
    rows = np.reshape(scaled_lat, (-1, scaled_lat.shape[-1]))
    args = scaled_xi + rows[:, :, None]
    bad = args <= 0.0
    row = int(np.argmax(bad.any(axis=(1, 2))))
    k = int(np.argmax(bad[row].any(axis=0)))
    arg, x = float(args[row, np.argmax(bad[row, :, k]), k]), float(xi[k])
    return NonPositiveLogArgument(f"log argument {arg!r} at xi={x!r} must be > 0", sample_index=k)


def weighted_log(xi, latencies, alphas, params: UtilityParams) -> np.ndarray:
    """Log benefit h(xi) = sum_i alpha_i * ln(gamma2*xi + gamma3*L_i), one
    value per point of the 1-D array ``xi``, for one latency vector or, from
    a ``(K, I)`` stack, one row of values per latency vector.

    The logs come from :func:`log_blocks`, one ``np.log`` call per block of
    types.  Each block's logs are scaled by their alphas in place, the
    previous blocks' total (0.0 before the first block) is added into the
    block's first row, and the block's rows are summed in type order.  So
    every point's total is ``(((0 + a_1) + a_2) + ...)``, a_i being
    ``alpha_i * ln(...)``: the float sequence of a per-type loop, signed
    zeros included (0.0 + -0.0 is 0.0), whatever the block size.  A stack's
    ``(k, K, N)`` tables are summed as ``(k, K*N)`` ones, so each row of a
    stack is the one-vector result bit for bit.  One ``np.add.reduce`` over
    the type axis sums the rows one after another, since numpy pairs terms
    up only along the contiguous axis (see ``np.sum``), here the points; a
    table of one entry per type (one vector at one point) makes the type
    axis the contiguous one, so its column is summed by
    :func:`contracts.running_sums`, which adds strictly in order.
    Accumulating along the type axis of a wider table would run one short
    inner loop per point.  Raises ValidationError unless ``xi`` is 1-D, and
    DataError unless there is one alpha per latency.
    """
    lat = np.asarray(latencies, dtype=float)
    if len(alphas) != lat.shape[-1]:
        raise DataError(f"{len(alphas)} alphas vs {lat.shape[-1]} latencies")
    weights = np.asarray(alphas, dtype=float)[:, None]
    shape = lat.shape[:-1] + np.shape(xi)
    total = np.zeros(math.prod(shape))
    for types, logs in log_blocks(xi, lat, params):
        logs = logs.reshape(len(logs), -1)  # a view: the table is fresh
        logs *= weights[types]
        first = logs[0]
        first += total
        if len(logs) == 1:
            total = first
        elif logs.shape[1] != 1:
            total = np.add.reduce(logs, axis=0)
        else:  # one point
            total = running_sums(logs[:, 0])[-1:]
    return total.reshape(shape)


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


def inner_minima(h, lam, candidates: InnerCandidates):
    """Minimize the penalized log benefit over the support for every anchor
    of ``candidates`` (see :func:`inner_candidates`), given ``h``, the log
    benefit at ``candidates.points`` (:func:`weighted_log`), for one menu
    (1-D ``h``, scalar ``lam``) or a stack (a row of ``h`` and a multiplier
    per menu; each row's multiplier and h(lo) broadcast along it).

    Returns ``(f_min, wins)``, one entry per anchor (a row per menu of a
    stack): the lower of the projection's branch h(p) + lam*|anchor - p|
    and the floor's h(lo) + lam*|anchor - lo|, and whether the projection
    won, so that the minimizer xi* is
    ``np.where(wins, candidates.points[1:], candidates.points[0])``.  The
    projection wins only when strictly lower (see the module docstring).
    Raises ValidationError unless every ``lam`` is >= 0.
    """
    lam = np.asarray(lam, dtype=float)
    # NaN skipped, as NaN < 0 is false; an empty stack has no multiplier
    if np.fmin.reduce(lam, axis=None, initial=np.inf) < 0.0:
        raise ValidationError("lam must be >= 0")
    lam = lam[..., None]
    # in place: two temporaries of the result's shape
    projection = lam * candidates.p_distance
    projection += h[..., 1:]
    floor = lam * candidates.lo_distance
    floor += h[..., :1]
    wins = projection < floor
    return np.minimum(projection, floor, out=projection), wins


def multiplier_argmax(h, candidates: InnerCandidates, eps: float):
    """Per row of ``h`` (a menu's log benefit at ``candidates.points``), the
    lam >= 0 maximizing -lam*eps + mean(f_min), ``f_min`` being
    :func:`inner_minima`'s: ``inf`` if :func:`unbounded`, 0 if the slope at
    0 is not positive, else the largest flip up to where the slope reaches
    zero, found once for all rows, as the flips ascend as p falls (see the
    module docstring)."""
    if unbounded(candidates, eps):
        return np.full(h.shape[0], np.inf)
    s0 = -eps + float(candidates.lo_distance.mean())
    if s0 <= 0.0:
        return np.zeros(h.shape[0])
    drops = candidates.points[1:] - candidates.points[0]
    order = np.argsort(-drops)  # the flippable anchors (p > lo) first, by descending p
    crossed = s0 - np.cumsum(drops[order]) / drops.size <= 0.0
    # the slope ends at mean|anchor - p| - eps <= 0, rounding aside
    crossed[np.count_nonzero(drops) - 1] = True
    passed = order[: np.argmax(crossed) + 1]  # the last has the largest flip, rounding aside
    return np.max((h[:, 1 + passed] - h[:, :1]) / drops[passed], axis=1, initial=0.0)


def unbounded(candidates: InnerCandidates, eps: float) -> bool:
    """Whether the anchors lie farther than eps from the support on average,
    mean|anchor - p| > eps, so the robust objective is unbounded in lam."""
    return float(candidates.p_distance.mean()) > eps


def sample_value(benefit, g, lam=0.0, eps=0.0):
    """The objective, ``-lam*eps + mean(benefit - g)`` over the last axis (the
    samples), of one menu or a stack (a ``g`` and ``lam`` per row).  The mean
    adds ``(benefit_n - g) / n`` in sample order (:func:`contracts.running_sums`),
    so each row is its one-menu value bit for bit."""
    values = (benefit.T - g).T  # g per row; a scalar for one menu
    values /= values.shape[-1]
    return -lam * eps + running_sums(values).T[-1]  # the last column; a scalar for one menu
