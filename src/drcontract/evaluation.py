"""Benchmark harness: menu scoring under distribution shift, per-type
provider utilities, brute-force verification oracles, and the method grid.

Training data may be contaminated with extreme points; evaluation data never
is.  Evaluation-time shifts translate the scores downward without clipping,
so larger shifts remain distinguishable below the support floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import (
    AmbiguityConfig,
    QualitySampleSet,
    inject_extreme_points,
    shift_samples,
)
from .bcd import BcdConfig, SolveReport, solve, solve_pinned
from .contracts import AspTypeProfile, ContractMenu, UtilityParams, rewards_from_latencies
from .csvio import write_table
from .errors import (
    GridTooLarge,
    NonPositiveLogArgument,
    SizeMismatch,
    ValidationError,
)
from .inner import InnerCandidates, inner_candidates, log_blocks, weighted_log

CANONICAL_METHODS = ("dro", "sp", "ro")

DEFAULT_SHIFTS = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)

_EVALUATION_BUDGET = 1e8
_GRID_TABLE_BUDGET = 1e7  # 8-byte entries in the oracle's grid-sized tables: 80 MB
_CHUNK_ENTRIES = 10**6  # (rows x samples) entries per oracle chunk: 8 MB per float table
_BOUND_SLACK = 2.0**-51  # four unit roundoffs per rounding step; see _RowBound


@dataclass(frozen=True)
class EvaluationScenario:
    """The benchmark grid: evaluation data, shift ladder, and the
    training-contamination levels."""

    eval_samples: QualitySampleSet
    shift_magnitudes: tuple = DEFAULT_SHIFTS
    extreme_counts: tuple = (0,)
    extreme_value: float = 1.0
    seed: int = 0

    def __post_init__(self):
        shifts = tuple(float(m) for m in self.shift_magnitudes)
        object.__setattr__(self, "shift_magnitudes", shifts)
        if not all(m >= 0.0 for m in shifts):
            raise ValidationError("shift magnitudes must be nonnegative")
        if list(shifts) != sorted(shifts):
            raise ValidationError("shift magnitudes must be sorted ascending")
        if any(c < 0 for c in self.extreme_counts):
            raise ValidationError("extreme counts must be nonnegative")


@dataclass
class MetricsTable:
    """Rows behind the benchmark figures.

    teleop_rows: (method, extreme_count, shift, mean_teleop_utility)
    asp_rows:    (method, extreme_count, type_index, asp_utility)
    """

    teleop_rows: list = field(default_factory=list)
    asp_rows: list = field(default_factory=list)

    def teleop(self, method: str, shift: float, extreme_count: int = None) -> float:
        for m, ec, s, v in self.teleop_rows:
            if m == method and s == shift and (extreme_count is None or ec == extreme_count):
                return v
        raise KeyError((method, shift, extreme_count))


def eval_teleop_utility(
    menu: ContractMenu,
    eval_samples: QualitySampleSet,
    profile: AspTypeProfile,
    params: UtilityParams,
) -> float:
    """Mean over evaluation samples of the type-weighted operator utility
    ``sum_i alpha_i * (ln(gamma2*xi + gamma3*L_i) - R_i)``."""
    if menu.n_types != profile.n_types:
        raise SizeMismatch("menu and profile must have the same length")
    xi = eval_samples.samples
    try:
        benefit = weighted_log(xi, menu.latencies, profile.alphas, params)
    except NonPositiveLogArgument as exc:
        idx = exc.sample_index
        raise NonPositiveLogArgument(
            f"sample {idx} (xi={float(xi[idx])!r}): {exc}", sample_index=idx
        ) from exc
    return float(np.mean(benefit)) - float(profile.alphas @ menu.rewards)


def eval_asp_utilities(menu: ContractMenu, profile: AspTypeProfile, gamma1: float) -> np.ndarray:
    """Per-type provider utility theta_i * R_i - gamma1 * L_i."""
    if menu.n_types != profile.n_types:
        raise SizeMismatch("menu and profile must have the same length")
    return profile.thetas * menu.rewards - gamma1 * menu.latencies


def train_method(
    method: str,
    train_samples: QualitySampleSet,
    profile: AspTypeProfile,
    params: UtilityParams,
    ambiguity: AmbiguityConfig,
    bcd_cfg: BcdConfig = None,
) -> SolveReport:
    """Train one method on the given samples and return its report.

    ``dro`` climbs the robust objective; ``sp`` the mean operator utility at
    the observed scores; ``ro`` the utility at the support floor, ignoring
    the samples (the log benefit increases with quality, so the floor is
    the worst point).  sp and ro pin the inner point to each anchor
    (:func:`solve_pinned`).  All three run the same ascent engine and
    stopping rule, so benchmark differences come from the objective alone.
    """
    if method == "dro":
        return solve(train_samples, profile, params, ambiguity, bcd_cfg)
    if method == "sp":
        return solve_pinned(train_samples, profile, params, bcd_cfg)
    if method == "ro":
        return solve_pinned([ambiguity.support.lo], profile, params, bcd_cfg)
    raise ValidationError(f"unknown method {method!r}; expected one of {CANONICAL_METHODS}")


def run_benchmark(
    scenario: EvaluationScenario,
    methods,
    train_samples: QualitySampleSet,
    *,
    profile: AspTypeProfile,
    params: UtilityParams,
    ambiguity: AmbiguityConfig,
    bcd_cfg: BcdConfig = None,
) -> MetricsTable:
    """At each contamination level, train each requested method on the
    contaminated training data, then score it on the evaluation data at
    every shift magnitude.

    Levels run in the scenario's order and methods in the canonical order,
    so output files are deterministic for a given seed.
    """
    requested = set(methods)
    unknown = requested.difference(CANONICAL_METHODS)
    if unknown:
        raise ValidationError(f"unknown methods {sorted(unknown)}")
    table = MetricsTable()
    for count in scenario.extreme_counts:
        contaminated = inject_extreme_points(
            train_samples, count, scenario.extreme_value, scenario.seed
        )
        for method in CANONICAL_METHODS:
            if method not in requested:
                continue
            report = train_method(method, contaminated, profile, params, ambiguity, bcd_cfg)
            for magnitude in scenario.shift_magnitudes:
                shifted = shift_samples(scenario.eval_samples, magnitude)
                utility = eval_teleop_utility(report.menu, shifted, profile, params)
                table.teleop_rows.append((method, count, magnitude, utility))
            for i, utility in enumerate(eval_asp_utilities(report.menu, profile, params.gamma1)):
                table.asp_rows.append((method, count, i + 1, float(utility)))
    return table


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def oracle_menu_search(
    profile: AspTypeProfile,
    samples: QualitySampleSet,
    params: UtilityParams,
    ambiguity: AmbiguityConfig,
    grid_step: float,
    l_max: float = 50.0,
    lambda_max: float = 10.0,
):
    """Exhaustive search of the robust objective over a monotone latency grid
    and a multiplier grid.  Returns (best objective, best latency vector).

    Every latency is a grid value ``k * grid_step``, so the log terms
    ``ln(gamma2*x + gamma3*L)`` at the inner minimum's candidate points x
    (the floor lo and each anchor's projection onto the support) take only
    ``n_l * (n + 1)`` distinct values, the same for every type.  They are
    computed once into a table by :func:`inner.log_blocks`, the grid values
    taking the place of types, scaled by each type's probability, and each
    latency point's log benefits are gathered from it type by type in type
    order: the same float sequence as :func:`weighted_log`, so the values are
    bit-identical to evaluating it per point.

    For each latency point the per-anchor inner minimum is the lower of two
    functions affine in the multiplier, the floor branch and the projection
    branch (see the inner-solver module), so the objective is concave
    piecewise-linear in the multiplier.  The grid maximum over the
    multiplier axis is therefore found exactly by locating the subgradient
    sign change and evaluating the bracketing grid points
    (:func:`_chunk_best`).

    Only latency points that can still win are evaluated exactly.  Each
    chunk of points gets :class:`_RowBound`'s upper bound, O(types) per
    point.  A chunk whose largest bound is below the incumbent is skipped.
    Otherwise the point with the largest bound is evaluated exactly first,
    then every point whose bound is at least the larger of the incumbent and
    that point's value.  A pruned point can beat neither, so the chunk's
    first maximal point is evaluated whenever it beats the incumbent.  The
    survivors keep chunk order, so ties still go to the first point within
    a chunk, and a later chunk replaces the incumbent only when strictly
    better: the result is bit-identical to evaluating every point.  Each
    point's value depends on that point alone, provided the expected
    rewards are computed over the whole chunk (a matrix-vector product over
    a subset of rows can round differently).  On the criterion-05 instance
    at grid step 0.025, 7 of the 41 chunks are skipped and 34 of the
    2,003,001 points are evaluated exactly.

    The evaluation budget caps (latency points) x (samples) at
    ``_EVALUATION_BUDGET``, the work if nothing were pruned.  A second term
    caps the tables sized by the grid (the grid values, the log table, its
    per-type scaled copies, their per-type sample means and the per-type
    tuple counts) at ``_GRID_TABLE_BUDGET`` = 1e7 entries, 80 MB; the
    criterion-05 instance at grid step 0.025 needs about 1.4e5.  Either
    excess raises GridTooLarge before any table is built.
    """
    if not grid_step > 0.0:
        raise ValidationError("grid_step must be > 0")
    if not (0.0 <= l_max < math.inf and 0.0 <= lambda_max < math.inf):
        raise ValidationError("l_max and lambda_max must be finite and >= 0")
    n_l = int(math.floor(l_max / grid_step + 1e-9)) + 1
    n_types = profile.n_types
    n_tuples = math.comb(n_l + n_types - 1, n_types)
    anchors = np.asarray(samples.samples, dtype=float)
    if n_tuples * anchors.size > _EVALUATION_BUDGET:
        raise GridTooLarge(
            f"{n_tuples} latency points x {anchors.size} samples exceeds "
            f"the {_EVALUATION_BUDGET:.0e} evaluation budget"
        )
    table_entries = n_l * (1 + (n_types + 1) * (anchors.size + 1) + n_types) + n_types * (n_l + 1)
    if table_entries > _GRID_TABLE_BUDGET:
        raise GridTooLarge(
            f"{n_l} grid values x {anchors.size} samples need {table_entries} table "
            f"entries, over the {_GRID_TABLE_BUDGET:.0e} table budget"
        )
    values = grid_step * np.arange(n_l)
    candidates = inner_candidates(anchors, ambiguity.support)
    eps = ambiguity.epsilon
    scaled = _scaled_tables(candidates.points, values, profile, params)
    row_bound = _RowBound(scaled, candidates, eps, lambda_max)

    def exact_best(chunk, g, rows):
        prof = _AffineInnerProfile(_gather(scaled, chunk[rows]), g[rows], candidates, eps)
        return _chunk_best(prof, grid_step, lambda_max)

    best_omega = -np.inf
    best_lat = None
    for chunk in _monotone_chunks(n_l, n_types, anchors.size):
        lat = values[chunk]
        g = rewards_from_latencies(lat, profile, params.gamma1) @ profile.alphas
        bound = row_bound(chunk, g)
        top = int(np.argmax(bound))
        if bound[top] < best_omega:
            continue
        threshold = max(best_omega, exact_best(chunk, g, [top])[0])
        survivors = np.flatnonzero(bound >= threshold)
        omega, idx = exact_best(chunk, g, survivors)
        if omega > best_omega:
            best_omega = omega
            best_lat = lat[survivors[idx]].copy()
    return float(best_omega), best_lat


def _scaled_tables(points, values, profile: AspTypeProfile, params: UtilityParams):
    """Per type, ``alpha_i * ln(gamma2*x + gamma3*v)`` over the grid values
    v (rows) and the candidate points x (columns)."""
    table = np.empty((values.size, points.size))
    for rows, logs in log_blocks(points, values, params):
        table[rows] = logs
    return [alpha * table for alpha in profile.alphas]


def _gather(tables, chunk) -> np.ndarray:
    """Sum over types of ``tables[i][chunk[:, i]]``, accumulated in type
    order."""
    total = tables[0][chunk[:, 0]]
    for i in range(1, len(tables)):
        total += tables[i][chunk[:, i]]
    return total


class _RowBound:
    """Upper bound on each latency point's objective over lam in
    [0, lambda_max], from per-type tables, O(types) per point.

    **Bound.**  With ``s_lo = mean|anchor - lo| - eps`` and
    ``s_p = mean|anchor - p| - eps``, the mean of a minimum is at most the
    minimum of the means, so a point's objective at lam is at most
    ``min(h(lo) + lam*s_lo, mean_n h(p_n) + lam*s_p) - g``, g being its
    expected reward, and over lam in [0, lambda_max] at most

        U = min(h(lo) + max(s_lo, 0)*lambda_max,
                mean_n h(p_n) + max(s_p, 0)*lambda_max) - g.

    ``h(lo)`` is gathered from column 0 of the scaled tables, the float the
    exact evaluation uses, and ``mean_n h(p_n)`` is the sum over types of the
    per-type means ``m_i = mean(scaled_i[:, 1:], axis=1)``, computed once
    per grid value.

    **Slack.**  Both U and the objective are computed in floats.  Let
    u = 2**-53 and gamma_m = m*u / (1 - m*u), which bounds the error of a
    sum of m + 1 terms relative to the sum of their magnitudes, pairwise
    sums included (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., §3.1 and §4.2).  Every term either side adds is
    at most ``T = A + D + g`` in magnitude, with ``A`` the sum over types of
    the largest magnitude in the type's scaled table, ``D = lambda_max * (max|anchor - lo| +
    eps)`` (as |anchor - p| <= |anchor - lo|) and g >= 0 on the grid.  The
    objective sums k types, then n samples, and subtracts two terms; U
    takes n-sample means, sums k types, adds and subtracts g.  Each errs by
    at most gamma_{n+k+4} * T, so together by less than
    ``2 * (2n + 2k + 8) * u * T`` while (2n + 2k + 8) * u <= 1/2, which the
    oracle's table budget guarantees.  The slack
    ``_BOUND_SLACK * (n + k + 5) * T``, with ``_BOUND_SLACK = 4u``, covers
    that, and the rounding of the slack and of its addition too.
    """

    def __init__(self, scaled, candidates: InnerCandidates, eps: float, lambda_max: float):
        self.lo = [s[:, 0] for s in scaled]
        self.p_mean = [s[:, 1:].mean(axis=1) for s in scaled]
        self.rise_lo = _rise(candidates.lo_distance, eps, lambda_max)
        self.rise_p = _rise(candidates.p_distance, eps, lambda_max)
        self.magnitude = sum(float(np.abs(s).max()) for s in scaled)
        self.magnitude += lambda_max * (float(candidates.lo_distance.max()) + eps)
        self.slack_rate = _BOUND_SLACK * (candidates.lo_distance.size + len(scaled) + 5)

    def __call__(self, chunk, g) -> np.ndarray:
        """U plus the slack for each row of grid indices in ``chunk``, whose
        expected rewards are ``g``."""
        bound = _gather(self.lo, chunk)
        bound += self.rise_lo
        p_branch = _gather(self.p_mean, chunk)
        p_branch += self.rise_p
        np.minimum(bound, p_branch, out=bound)
        bound -= g
        bound += self.slack_rate * (self.magnitude + g)
        return bound


def _rise(distances, eps: float, lambda_max: float) -> float:
    """Largest gain over lam in [0, lambda_max] of a line with slope
    ``mean(distances) - eps``."""
    slope = float(distances.mean()) - eps
    return slope * lambda_max if slope > 0.0 else 0.0


def _monotone_chunks(n_l: int, n_types: int, n_samples: int):
    """Yield (rows, n_types) arrays of grid indices of the nondecreasing
    latency tuples, in lexicographic order, ``_CHUNK_ENTRIES // n_samples``
    rows at a time, so each (rows, samples) float table of a chunk takes at
    most 8 MB.  Each chunk unranks its own ranks, so the full list is never
    held: with ``counts[m][k]`` nondecreasing (m + 1)-tuples on k grid
    values, each index is the highest with as many tuples from it on as from
    the rank on, or more."""
    counts = [np.arange(n_l + 1)]
    for _ in range(1, n_types):
        counts.append(np.cumsum(counts[-1]))
    n_tuples = int(counts[-1][n_l])
    chunk_rows = max(1, _CHUNK_ENTRIES // n_samples)
    for start in range(0, n_tuples, chunk_rows):
        rank = np.arange(start, min(start + chunk_rows, n_tuples))
        chunk = np.empty((rank.size, n_types), dtype=rank.dtype)
        low = np.zeros_like(rank)
        for i in range(n_types - 1):
            tail = counts[n_types - 1 - i]
            rank -= tail[n_l - low]  # -rank tuples from here to the block's end
            span = np.searchsorted(tail, -rank)
            rank += tail[span]  # in place, so few (rows,) arrays outlive the yield
            low = chunk[:, i] = n_l - span
        chunk[:, -1] = low + rank
        yield chunk


class _AffineInnerProfile:
    """Exact inner minima for a latency chunk, as functions of the multiplier.

    Per (row, anchor) the inner minimum is the lower of two branches affine
    in the multiplier (value A + lam * B; see the inner-solver module):

    * floor branch: (h(lo), |anchor - lo|);
    * projection branch: (h(p), |anchor - p|), p = clip(anchor, lo, hi).

    The floor branch is active at lam = 0 (h is increasing), and past the
    flip point (h(p) - h(lo)) / (p - lo) the projection branch takes over,
    dropping the slope by p - lo.  The resulting objective is concave
    piecewise-linear in the multiplier.

    ``h`` holds each row's log benefit at the points of ``candidates``
    (:func:`inner.inner_candidates`): lo, then every anchor's projection,
    and ``g_of_rows`` each row's expected reward.
    """

    def __init__(self, h, g_of_rows, candidates: InnerCandidates, eps):
        self.eps = eps
        self.n = candidates.lo_distance.size
        self.g_of_rows = g_of_rows
        self.h_lo, self.h_p = h[:, 0], h[:, 1:]
        self.b_lo = candidates.lo_distance
        self.b_p = candidates.p_distance
        self.drops = candidates.points[1:] - candidates.points[0]

    def psi(self, lam_rows, rows=slice(None)) -> np.ndarray:
        """Objective value per selected row at the given per-row multiplier."""
        lam = np.asarray(lam_rows, dtype=float)[:, None]
        # in place: two (rows, n) temporaries per call
        phi = lam * self.b_p
        phi += self.h_p[rows]
        floor = lam * self.b_lo
        floor += self.h_lo[rows, None]
        np.minimum(phi, floor, out=phi)
        return phi.mean(axis=1) - self.g_of_rows[rows] - lam[:, 0] * self.eps

    def argmax_lambda(self, lambda_max: float) -> np.ndarray:
        """Continuous argmax of psi per row: where the subgradient
        (-eps + mean active slope) crosses zero, scanning flips in order."""
        n_rows = self.g_of_rows.size
        s0 = -self.eps + float(self.b_lo.mean())
        if s0 <= 0.0:
            return np.zeros(n_rows)
        flips = np.full((n_rows, self.n), np.inf)
        flippable = self.drops > 0.0  # p = lo never flips
        flips[:, flippable] = (
            self.h_p[:, flippable] - self.h_lo[:, None]
        ) / self.drops[flippable]
        np.maximum(flips, 0.0, out=flips)
        order = np.argsort(flips, axis=1)
        flips_sorted = np.take_along_axis(flips, order, axis=1)
        drops_sorted = np.take_along_axis(np.broadcast_to(self.drops, flips.shape), order, axis=1)
        slope_after = s0 - np.cumsum(drops_sorted, axis=1) / self.n
        crossed = slope_after <= 0.0
        has_cross = crossed.any(axis=1)
        first_k = np.argmax(crossed, axis=1)
        lam_star = np.where(
            has_cross,
            np.take_along_axis(flips_sorted, first_k[:, None], axis=1)[:, 0],
            lambda_max,
        )
        return np.clip(lam_star, 0.0, lambda_max)


def _chunk_best(prof: _AffineInnerProfile, grid_step: float, lambda_max: float):
    """Best (objective, row index) over one latency chunk: locate the
    continuous multiplier argmax per row, then evaluate the bracketing grid
    points (exact for a concave piecewise-linear profile); a row whose
    argmax sits on a grid point is evaluated there once."""
    lam_star = prof.argmax_lambda(lambda_max)
    lam_floor = np.clip(np.floor(lam_star / grid_step) * grid_step, 0.0, lambda_max)
    lam_ceil = np.clip(np.ceil(lam_star / grid_step) * grid_step, 0.0, lambda_max)
    omega = prof.psi(lam_floor)
    up = np.flatnonzero(lam_ceil != lam_floor)
    if up.size:
        omega[up] = np.maximum(omega[up], prof.psi(lam_ceil[up], up))
    idx = int(np.argmax(omega))
    return float(omega[idx]), idx


# ---------------------------------------------------------------------------
# Benchmark CSV interfaces
# ---------------------------------------------------------------------------

def write_metrics_csv(table: MetricsTable, path) -> None:
    header = ["method", "extreme_count", "shift", "mean_teleop_utility"]
    write_table(path, header, table.teleop_rows)


def write_asp_csv(table: MetricsTable, path) -> None:
    write_table(path, ["method", "extreme_count", "type_index", "asp_utility"], table.asp_rows)
