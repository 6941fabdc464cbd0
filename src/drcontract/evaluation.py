"""Benchmark harness: menu scoring under distribution shift, per-type
provider utilities, brute-force verification oracles, and the method grid.

Training data may be contaminated with extreme points; evaluation data never
is.  Evaluation-time shifts translate the scores downward without clipping,
so larger shifts remain distinguishable below the support floor.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import (
    AmbiguityConfig,
    QualitySampleSet,
    inject_extreme_points,
    shift_samples,
)
from .baselines import solve_ro, solve_sp
from .bcd import BcdConfig, SolveReport, solve
from .contracts import AspTypeProfile, ContractMenu, UtilityParams
from .errors import (
    GridTooLarge,
    NonPositiveLogArgument,
    SizeMismatch,
    ValidationError,
)
from .inner import weighted_log

CANONICAL_METHODS = ("dro", "sp", "ro")

DEFAULT_SHIFTS = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)

_EVALUATION_BUDGET = 1e8


@dataclass(frozen=True)
class EvaluationScenario:
    """One benchmark cell family: evaluation data, shift ladder, and the
    training-contamination level."""

    eval_samples: QualitySampleSet
    shift_magnitudes: tuple = DEFAULT_SHIFTS
    extreme_count: int = 0
    extreme_value: float = 1.0
    seed: int = 0
    menu: ContractMenu = None

    def __post_init__(self):
        shifts = tuple(float(m) for m in self.shift_magnitudes)
        object.__setattr__(self, "shift_magnitudes", shifts)
        if any(m < 0.0 for m in shifts):
            raise ValidationError("shift magnitudes must be nonnegative")
        if list(shifts) != sorted(shifts):
            raise ValidationError("shift magnitudes must be sorted ascending")
        if self.extreme_count < 0:
            raise ValidationError("extreme_count must be >= 0")


@dataclass
class MetricsTable:
    """Rows behind the benchmark figures.

    teleop_rows: (method, extreme_count, shift, mean_teleop_utility)
    asp_rows:    (method, extreme_count, type_index, asp_utility)
    """

    teleop_rows: list = field(default_factory=list)
    asp_rows: list = field(default_factory=list)

    def extend(self, other: "MetricsTable") -> None:
        self.teleop_rows.extend(other.teleop_rows)
        self.asp_rows.extend(other.asp_rows)

    def teleop(self, method: str, shift: float, extreme_count: int = None) -> float:
        for m, ec, s, v in self.teleop_rows:
            if m == method and s == shift and (extreme_count is None or ec == extreme_count):
                return v
        raise KeyError((method, shift, extreme_count))

    def asp(self, method: str, type_index: int, extreme_count: int = None) -> float:
        for m, ec, t, v in self.asp_rows:
            if m == method and t == type_index and (extreme_count is None or ec == extreme_count):
                return v
        raise KeyError((method, type_index, extreme_count))


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
    return profile.thetas * menu.rewards - gamma1 * menu.latencies


def train_method(
    method: str,
    train_samples: QualitySampleSet,
    profile: AspTypeProfile,
    params: UtilityParams,
    ambiguity: AmbiguityConfig,
    bcd_cfg: BcdConfig = None,
) -> SolveReport:
    """Train one method on the given samples and return its report."""
    if method == "dro":
        return solve(train_samples, profile, params, ambiguity, bcd_cfg)
    if method == "sp":
        return solve_sp(train_samples, profile, params, bcd_cfg)
    if method == "ro":
        return solve_ro(ambiguity.support, profile, params, bcd_cfg)
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
    """Train each requested method on (possibly contaminated) training data,
    then score it on the evaluation data at every shift magnitude.

    Methods always run in the canonical order so output files are
    deterministic for a given seed.
    """
    requested = set(methods)
    unknown = requested.difference(CANONICAL_METHODS)
    if unknown:
        raise ValidationError(f"unknown methods {sorted(unknown)}")
    contaminated = inject_extreme_points(
        train_samples, scenario.extreme_count, scenario.extreme_value, scenario.seed
    )
    table = MetricsTable()
    for method in CANONICAL_METHODS:
        if method not in requested:
            continue
        report = train_method(method, contaminated, profile, params, ambiguity, bcd_cfg)
        for magnitude in scenario.shift_magnitudes:
            shifted = shift_samples(scenario.eval_samples, magnitude)
            utility = eval_teleop_utility(report.menu, shifted, profile, params)
            table.teleop_rows.append(
                (method, scenario.extreme_count, magnitude, utility)
            )
        for i, utility in enumerate(eval_asp_utilities(report.menu, profile, params.gamma1)):
            table.asp_rows.append(
                (method, scenario.extreme_count, i + 1, float(utility))
            )
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

    For each latency point the per-anchor inner minimum is an exact min of
    at most two functions affine in the multiplier (the support endpoints
    dominate the remaining candidates; see the inner-solver module), so the
    objective is concave piecewise-linear in the multiplier.  The grid
    maximum over the multiplier axis is therefore found exactly by locating
    the subgradient sign change and evaluating the two bracketing grid
    points, which keeps the work at one inner evaluation per (latency point,
    sample).  That product is the budgeted evaluation count.
    """
    if profile.n_types > 3:
        raise GridTooLarge("oracle supports at most 3 types")
    if not grid_step > 0.0:
        raise ValidationError("grid_step must be > 0")
    n_l = int(math.floor(l_max / grid_step + 1e-9)) + 1
    n_types = profile.n_types
    n_tuples = math.comb(n_l + n_types - 1, n_types)
    anchors = np.asarray(samples.samples, dtype=float)
    if n_tuples * anchors.size > _EVALUATION_BUDGET:
        raise GridTooLarge(
            f"{n_tuples} latency points x {anchors.size} samples exceeds "
            f"the {_EVALUATION_BUDGET:.0e} evaluation budget"
        )
    values = grid_step * np.arange(n_l)

    best_omega = -np.inf
    best_lat = None
    for chunk in _monotone_chunks(values, n_types, anchors.size):
        omega, idx = _chunk_best(
            chunk, anchors, profile, params, ambiguity, grid_step, lambda_max
        )
        if omega > best_omega:
            best_omega = omega
            best_lat = chunk[idx].copy()
    return float(best_omega), best_lat


def _monotone_chunks(values: np.ndarray, n_types: int, n_samples: int):
    """Yield (rows, n_types) arrays of nondecreasing latency tuples."""
    n_l = values.size
    chunk_rows = max(1, int(2e6 // max(n_samples, 1)))
    if n_types == 1:
        grid = values[:, None]
        for start in range(0, n_l, chunk_rows):
            yield grid[start : start + chunk_rows]
    elif n_types == 2:
        ii, jj = np.triu_indices(n_l)
        grid = np.stack([values[ii], values[jj]], axis=1)
        for start in range(0, grid.shape[0], chunk_rows):
            yield grid[start : start + chunk_rows]
    else:
        for first in range(n_l):
            ii, jj = np.triu_indices(n_l - first)
            grid = np.stack(
                [
                    np.full(ii.size, values[first]),
                    values[first + ii],
                    values[first + jj],
                ],
                axis=1,
            )
            for start in range(0, grid.shape[0], chunk_rows):
                yield grid[start : start + chunk_rows]


class _AffineInnerProfile:
    """Exact inner minima for a latency chunk, as functions of the multiplier.

    Per (row, anchor) the inner minimum is the lower of two branches affine
    in the multiplier: the anchor branch and a support-endpoint branch (the
    remaining candidates are dominated; see the inner-solver module).  The
    resulting objective is concave piecewise-linear in the multiplier.
    """

    def __init__(self, lat, anchors, profile, params, ambiguity):
        g1 = params.gamma1
        alphas, thetas = profile.alphas, profile.thetas
        lo, hi = ambiguity.support.lo, ambiguity.support.hi
        self.eps = ambiguity.epsilon
        n_rows = lat.shape[0]
        n = anchors.size
        self.n = n

        increments = np.diff(lat, axis=1, prepend=0.0)
        rewards = np.cumsum(g1 * increments / thetas[None, :], axis=1)
        self.g_of_rows = rewards @ alphas

        in_sup = (anchors >= lo) & (anchors <= hi)
        above = anchors > hi

        h_lo = weighted_log(lo, lat, alphas, params)
        h_hi = weighted_log(hi, lat, alphas, params)
        # anchors outside the support have no anchor branch; evaluating them
        # at lo keeps every log argument in the support's positive range
        h_anchor = weighted_log(
            np.where(in_sup, anchors, lo)[None, :], lat[:, None, :], alphas, params
        )

        # Two affine candidates (value A + lam * B) per (row, anchor):
        #   in support:    (h_anchor, 0)       and (h_lo, anchor - lo)
        #   below support: (h_lo, lo - anchor) twice (single branch)
        #   above support: (h_lo, anchor - lo) and (h_hi, anchor - hi)
        self.a1 = np.where(in_sup[None, :], h_anchor, h_lo[:, None])
        self.b1 = np.where(in_sup, 0.0, np.abs(anchors - lo))
        self.a2 = np.where(above[None, :], h_hi[:, None], h_lo[:, None])
        self.b2 = np.where(above, anchors - hi, np.abs(anchors - lo))

        # Active slope at lam=0+ and the lam at which each anchor's branch
        # flips; the slope drop at a flip feeds the subgradient scan.
        self.slope_start = np.where(above, anchors - lo, self.b2)
        self.drops = np.where(in_sup, self.b2, np.where(above, hi - lo, 0.0))
        flips = np.full((n_rows, n), np.inf)
        flippable = in_sup & (self.b2 > 0.0)
        if flippable.any():
            flips[:, flippable] = (h_anchor[:, flippable] - h_lo[:, None]) / self.b2[
                flippable
            ]
        if above.any():
            flips[:, above] = ((h_hi - h_lo) / (hi - lo))[:, None]
        self.flips = np.maximum(flips, 0.0)

    def psi(self, lam_rows) -> np.ndarray:
        """Objective value per row at the given per-row multiplier."""
        lam_rows = np.asarray(lam_rows, dtype=float)
        phi = np.minimum(
            self.a1 + lam_rows[:, None] * self.b1[None, :],
            self.a2 + lam_rows[:, None] * self.b2[None, :],
        )
        return phi.mean(axis=1) - self.g_of_rows - lam_rows * self.eps

    def argmax_lambda(self, lambda_max: float) -> np.ndarray:
        """Continuous argmax of psi per row: where the subgradient
        (-eps + mean active slope) crosses zero, scanning flips in order."""
        n_rows = self.flips.shape[0]
        s0 = -self.eps + float(self.slope_start.mean())
        if s0 <= 0.0:
            return np.zeros(n_rows)
        order = np.argsort(self.flips, axis=1)
        flips_sorted = np.take_along_axis(self.flips, order, axis=1)
        drops_sorted = np.take_along_axis(
            np.broadcast_to(self.drops, self.flips.shape), order, axis=1
        )
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


def _chunk_best(lat, anchors, profile, params, ambiguity, grid_step, lambda_max):
    """Best (objective, row index) over one latency chunk: locate the
    continuous multiplier argmax per row, then evaluate the two bracketing
    grid points (exact for a concave piecewise-linear profile)."""
    prof = _AffineInnerProfile(lat, anchors, profile, params, ambiguity)
    lam_star = prof.argmax_lambda(lambda_max)
    lam_floor = np.clip(np.floor(lam_star / grid_step) * grid_step, 0.0, lambda_max)
    lam_ceil = np.clip(np.ceil(lam_star / grid_step) * grid_step, 0.0, lambda_max)
    omega = np.maximum(prof.psi(lam_floor), prof.psi(lam_ceil))
    idx = int(np.argmax(omega))
    return float(omega[idx]), idx


# ---------------------------------------------------------------------------
# Benchmark CSV interfaces
# ---------------------------------------------------------------------------

def write_metrics_csv(table: MetricsTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "extreme_count", "shift", "mean_teleop_utility"])
        for method, ec, shift, value in table.teleop_rows:
            writer.writerow([method, ec, repr(float(shift)), repr(float(value))])


def write_asp_csv(table: MetricsTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "extreme_count", "type_index", "asp_utility"])
        for method, ec, type_index, value in table.asp_rows:
            writer.writerow([method, ec, type_index, repr(float(value))])
