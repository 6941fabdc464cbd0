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
    sign change and evaluating the bracketing grid points.

    The evaluation budget caps (latency points) x (samples) at
    ``_EVALUATION_BUDGET``: each pair costs one inner minimum at the lower
    bracketing multiplier, and a second one only where the sign change lies
    strictly between two grid points.  The flip points and their sort are
    computed only when the subgradient at lam = 0 is positive.  A second
    term caps the tables sized by the grid (the grid values, the log table,
    its per-type scaled copies and the per-type tuple counts) at
    ``_GRID_TABLE_BUDGET`` = 1e7 entries, 80 MB; the criterion-05 instance at
    grid step 0.025 needs about 1.3e5.  Either excess raises GridTooLarge
    before any table is built.
    """
    if not grid_step > 0.0:
        raise ValidationError("grid_step must be > 0")
    if not (l_max >= 0.0 and lambda_max >= 0.0):
        raise ValidationError("l_max and lambda_max must be >= 0")
    n_l = int(math.floor(l_max / grid_step + 1e-9)) + 1
    n_types = profile.n_types
    n_tuples = math.comb(n_l + n_types - 1, n_types)
    anchors = np.asarray(samples.samples, dtype=float)
    if n_tuples * anchors.size > _EVALUATION_BUDGET:
        raise GridTooLarge(
            f"{n_tuples} latency points x {anchors.size} samples exceeds "
            f"the {_EVALUATION_BUDGET:.0e} evaluation budget"
        )
    table_entries = n_l * (1 + (n_types + 1) * (anchors.size + 1)) + n_types * (n_l + 1)
    if table_entries > _GRID_TABLE_BUDGET:
        raise GridTooLarge(
            f"{n_l} grid values x {anchors.size} samples need {table_entries} table "
            f"entries, over the {_GRID_TABLE_BUDGET:.0e} table budget"
        )
    values = grid_step * np.arange(n_l)
    candidates = inner_candidates(anchors, ambiguity.support)
    table = np.empty((n_l, candidates.points.size))
    for rows, logs in log_blocks(candidates.points, values, params):
        table[rows] = logs
    scaled = [alpha * table for alpha in profile.alphas]

    best_omega = -np.inf
    best_lat = None
    for chunk in _monotone_chunks(n_l, n_types, anchors.size):
        h = scaled[0][chunk[:, 0]]
        for i in range(1, n_types):
            h += scaled[i][chunk[:, i]]
        lat = values[chunk]
        prof = _AffineInnerProfile(h, lat, candidates, profile, params, ambiguity.epsilon)
        omega, idx = _chunk_best(prof, grid_step, lambda_max)
        if omega > best_omega:
            best_omega = omega
            best_lat = lat[idx].copy()
    return float(best_omega), best_lat


def _monotone_chunks(n_l: int, n_types: int, n_samples: int):
    """Yield (rows, n_types) arrays of grid indices of the nondecreasing
    latency tuples, in lexicographic order, ``1e6 // n_samples`` rows at a
    time, so each (rows, samples) float table of a chunk takes at most 8 MB.
    Each chunk unranks its own ranks, so the full list is never held: with
    ``counts[m][k]`` nondecreasing (m + 1)-tuples on k grid values, each index
    is the highest with as many tuples from it on as from the rank on, or more."""
    counts = [np.arange(n_l + 1)]
    for _ in range(1, n_types):
        counts.append(np.cumsum(counts[-1]))
    n_tuples = int(counts[-1][n_l])
    chunk_rows = max(1, int(1e6 // n_samples))
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
    (:func:`inner.inner_candidates`): lo, then every anchor's projection.
    """

    def __init__(self, h, lat, candidates: InnerCandidates, profile, params, eps):
        self.eps = eps
        self.n = candidates.lo_distance.size
        self.g_of_rows = rewards_from_latencies(lat, profile, params.gamma1) @ profile.alphas
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
