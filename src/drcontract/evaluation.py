"""Benchmark harness: menu scoring under distribution shift, brute-force
verification oracles, and the method grid.

Training data may be contaminated with extreme points; evaluation data never
is.  Evaluation-time shifts translate the scores downward without clipping,
so larger shifts remain distinguishable below the support floor.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .ambiguity import (
    AmbiguityConfig,
    QualitySampleSet,
    inject_extreme_points,
    shift_samples,
)
from .bcd import SolveReport, solve, solve_pinned
from .config import RunConfig
from .contracts import AspTypeProfile, ContractMenu, UtilityParams
from .contracts import eval_asp_utilities, expected_reward, rewards_from_latencies
from .csvio import write_table
from .errors import DataError, NonPositiveLogArgument, ValidationError
from .inner import (
    InnerCandidates,
    inner_candidates,
    inner_minima,
    log_blocks,
    multiplier_argmax,
    sample_value,
    unbounded,
    weighted_log,
)

CANONICAL_METHODS = ("dro", "sp", "ro")

_EVALUATION_BUDGET = 1e8
_GRID_TABLE_BUDGET = 1e7  # 8-byte entries in the oracle's grid-sized tables: 80 MB
# (rows x samples) entries per oracle chunk: 1 MiB per float table.  From a
# sweep of 2**14 to 2**20 timing one search per process, as the CLI runs it:
# against 10**6, criterion-05 read 0.98x and the three-type search 0.88x,
# and the oracle run's peak RSS fell from 41.5 to 38.3 MB.  Smaller budgets
# cut the boxes into more chunks, each searched from a weaker incumbent, and
# slow criterion-05 (1.2x at 2**16).
_CHUNK_ENTRIES = 2**17
_BOUND_SLACK = 2.0**-51  # four unit roundoffs per rounding step; see _Bound
_BOX_POINTS = 64  # about this many latency points per box of the oracle's search


def eval_teleop_utility(
    menu: ContractMenu,
    eval_samples: QualitySampleSet,
    profile: AspTypeProfile,
    params: UtilityParams,
) -> float:
    """Mean over evaluation samples of the type-weighted operator utility
    ``sum_i alpha_i * (ln(gamma2*xi + gamma3*L_i) - R_i)``, assembled as the
    solvers' objective (:func:`inner.sample_value`).  Raises DataError
    unless the menu has one bundle per type."""
    try:
        benefit = weighted_log(eval_samples.samples, menu.latencies, profile.alphas, params)
    except NonPositiveLogArgument as exc:
        k = exc.sample_index
        raise NonPositiveLogArgument(f"sample {k}: {exc}", k) from exc
    return float(sample_value(benefit, expected_reward(menu.rewards, profile.alphas)))


def train_method(method: str, train_samples: QualitySampleSet, cfg: RunConfig) -> SolveReport:
    """Train one method on the given samples and return its report.

    The model comes from ``cfg`` alone: its type profile, utility weights
    and, for dro, the radius of ``train_samples.n`` samples.  ``dro`` climbs
    the robust objective; ``sp`` the mean operator utility at the observed
    scores; ``ro`` the utility at the support floor ``cfg.support_lo``,
    ignoring the samples (the log benefit increases with quality, so the
    floor is the worst point).  sp and ro pin the inner point to each
    anchor (:func:`solve_pinned`).  All three run the same ascent engine
    and stopping rule, read from ``cfg``'s loop keys, so benchmark
    differences come from the objective alone.  A nonpositive log argument
    names its point: ``sample k: `` for sp, and ``support floor lo: `` for
    dro and ro, whose least candidate point, the first to fail, is the floor.
    """
    if method not in CANONICAL_METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {CANONICAL_METHODS}")
    profile, params = cfg.profile(), cfg.params()
    try:
        if method == "dro":
            ambiguity = cfg.ambiguity_for(train_samples.n)
            return solve(train_samples, profile, params, ambiguity, cfg)
        anchors = train_samples if method == "sp" else [cfg.support_lo]
        return solve_pinned(anchors, profile, params, cfg)
    except NonPositiveLogArgument as exc:
        k = exc.sample_index
        where = f"sample {k}" if method == "sp" else f"support floor {cfg.support_lo!r}"
        raise NonPositiveLogArgument(f"{where}: {exc}", k) from exc


def run_benchmark(cfg: RunConfig, methods=CANONICAL_METHODS):
    """At each of the config's contamination levels, train each requested
    method on the contaminated training data, then score it on the
    evaluation data at every shift magnitude.

    Returns ``(teleop_rows, asp_rows)``, the rows behind the benchmark
    figures: ``(method, extreme_count, shift, mean_teleop_utility)`` per
    scored cell and ``(method, extreme_count, type_index, asp_utility)``
    per trained type.  Levels run in the config's order and methods in the
    canonical order, so output files are deterministic for a given seed.
    Every level's contaminated set is built before any method trains, so a
    level past the sample count raises its DataError before any training.
    """
    requested = set(methods)
    unknown = requested.difference(CANONICAL_METHODS)
    if unknown:
        raise ValidationError(f"unknown methods {sorted(unknown)}")
    train = cfg.train_samples()
    evals = cfg.eval_samples()
    profile = cfg.profile()
    params = cfg.params()
    teleop_rows, asp_rows = [], []
    levels = [
        (count, inject_extreme_points(train, count, cfg.extreme_value, cfg.seed))
        for count in cfg.extreme_counts
    ]
    for count, contaminated in levels:
        for method in CANONICAL_METHODS:
            if method not in requested:
                continue
            report = train_method(method, contaminated, cfg)
            for magnitude in map(float, cfg.shift_magnitudes):
                shifted = shift_samples(evals, magnitude)
                utility = eval_teleop_utility(report.menu, shifted, profile, params)
                teleop_rows.append((method, count, magnitude, utility))
            for i, utility in enumerate(eval_asp_utilities(report.menu, profile, params.gamma1)):
                asp_rows.append((method, count, i + 1, float(utility)))
    return teleop_rows, asp_rows


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def oracle_menu_search(
    profile: AspTypeProfile,
    samples: QualitySampleSet,
    params: UtilityParams,
    ambiguity: AmbiguityConfig,
    grid_step: float,
    l_max: float,
    lambda_max: float,
):
    """Exhaustive search of the robust objective over a monotone latency grid
    and a multiplier grid.  Returns (best objective, best latency vector).
    The latency grid runs 0, grid_step, 2*grid_step, ... to the last multiple
    of the step at or below ``l_max``; the multiplier grid is the multiples
    of the step below ``lambda_max``, and ``lambda_max`` itself.

    Every latency is a grid value ``k * grid_step``, so the log terms
    ``ln(gamma2*x + gamma3*L)`` at the inner minimum's candidate points x
    (the floor lo and each anchor's projection onto the support) take only
    ``n_l * (n + 1)`` distinct values, the same for every type.  They are
    computed once into a table by :func:`inner.log_blocks`, the grid values
    taking the place of types, scaled by each type's probability, and each
    latency point's log benefits are gathered from it type by type in type
    order, as :func:`weighted_log` adds them.  With the solver's inner
    minimum (:func:`inner.inner_minima`), expected reward and assembly
    (:func:`inner.sample_value`), a point's value at a grid multiplier is
    :func:`bcd.objectives`' bit for bit and depends on that point alone.

    Each point's objective is concave and piecewise linear in the
    multiplier (:func:`inner.inner_minima`), so its grid maximum is found
    exactly at the grid points that bracket its continuous argmax
    (:func:`inner.multiplier_argmax`; :func:`_chunk_best`).

    Only latency points that can still win are evaluated exactly, and boxes
    of points are bounded before single points.  Each type's grid is cut
    into cells of ``S = round(64 ** (1 / types))`` consecutive values; a box
    is a nondecreasing tuple of cells, one per type, and holds the
    nondecreasing points whose grid indices lie in those cells, at most S**I
    (32 to 81 for up to six types; one from 11 types on).  :class:`_Bound`
    bounds a box above every point in it, and a point as a box of one-value
    cells, each at O(types) cost.  Boxes and points are searched in chunks
    of one height, ``_CHUNK_ENTRIES // n`` rows (n samples): boxes, about
    150 B each, as the nondecreasing tuples of cell indices
    (:func:`_monotone_chunks`), and a box's points, whose (rows, samples)
    float tables take at most 1 MiB (:func:`_box_points`).  One best-first
    rule serves both: unless even the row with the largest bound is below
    the incumbent, that row is searched first, then every other row whose
    bound reaches the incumbent.  A bound is at least the objective of each
    point it covers, so a pruned row can neither beat nor tie the incumbent.
    An exact tie goes to the lexicographically least point, within a chunk
    (:func:`_chunk_best`) and across chunks: the result is bit-identical to
    evaluating every point.  On the criterion-05 instance at grid step 0.025
    (S = 8), 31,626 boxes are bounded in 5 chunks, the 32,952 points of 577
    of them are bounded too, and 10 of the 2,003,001 points are evaluated
    exactly.  Where the multiplier's argmax is positive the bounds are
    loose: on the three-type instance of ``scripts/bench_kernels.py``
    (S = 4), the points of 6,318 of the 6,545 boxes are bounded and 362,510
    of the 383,306 points are evaluated exactly.  Unbounded samples and an
    over-budget grid raise first (:func:`check_oracle_inputs`).
    """
    grid = grid_step, l_max, lambda_max
    candidates, (n_l, size, n_cells) = check_oracle_inputs(profile, samples, ambiguity, *grid)
    values = grid_step * np.arange(n_l)
    eps = ambiguity.epsilon
    scaled = _scaled_tables(candidates.points, values, profile, params)
    point_bound = _Bound(scaled, np.arange(n_l), candidates, eps, lambda_max)
    box_bound = _Bound(scaled, np.arange(0, n_l, size), candidates, eps, lambda_max)
    chunk_rows = max(1, _CHUNK_ENTRIES // samples.n)
    best_omega, best_point = -np.inf, None

    def best_first(bound, visit):
        top = int(np.argmax(bound))
        if bound[top] < best_omega:
            return
        visit([top])
        bound[top] = -np.inf
        rest = np.flatnonzero(bound >= best_omega)
        if rest.size:
            visit(rest)

    def evaluate(points, g):
        nonlocal best_omega, best_point
        h = _gather(scaled, points)
        omega, idx = _chunk_best(h, g, candidates, eps, grid_step, lambda_max, points)
        point = tuple(points[idx].tolist())
        if omega > best_omega or (omega == best_omega and point < best_point):
            best_omega, best_point = omega, point

    def search(boxes):
        for points in _box_points(boxes, size, n_l, chunk_rows):
            g = _expected_rewards(values[points], profile, params.gamma1)
            best_first(point_bound(points, g, g), lambda rows: evaluate(points[rows], g[rows]))

    for cells in _monotone_chunks(n_cells, profile.n_types, chunk_rows):
        bound = box_bound(cells, *_box_rewards(cells, size, values, profile, params.gamma1))
        best_first(bound, lambda rows: search(cells[rows]))
    return float(best_omega), values[list(best_point)]


def check_oracle_inputs(profile, samples, ambiguity, grid_step, l_max, lambda_max):
    """Check the inputs of :func:`oracle_menu_search` before any table is
    built, so that a caller can refuse them before it trains, and return
    ``(candidates, (n_l, size, n_cells))``: the samples' inner candidates,
    and the grid's values per type, its cell size S and its cell count.
    Raises DataError when the samples lie farther than the radius from the
    support on average (:func:`inner.unbounded`), as the robust objective
    then has no maximum; then ValidationError on a step that is not
    positive, a bound that is negative or not finite, and a grid past a
    budget.

    The evaluation budget caps (latency points) x (samples) at
    ``_EVALUATION_BUDGET``, the work if nothing were pruned.  A second term
    caps the tables sized by the grid (the grid values, the log table, its
    per-type scaled copies and the point bound's two per-type tables) or by
    its cells (the box bound's two per-type tables and the per-type counts
    of nondecreasing cell tuples) at ``_GRID_TABLE_BUDGET`` = 1e7 entries,
    80 MB; the criterion-05 instance at grid step 0.025 needs about 1.4e5,
    and a grid of 1e7 steps or more is over it."""
    candidates = inner_candidates(samples.samples, ambiguity.support)
    if unbounded(candidates, ambiguity.epsilon):
        raise DataError(
            f"mean distance {float(candidates.p_distance.mean())!r} of the training data "
            f"to the support exceeds the radius epsilon = {ambiguity.epsilon!r}: the "
            "robust objective is unbounded in the multiplier"
        )
    n_types, n_samples = profile.n_types, samples.n
    if not grid_step > 0.0:
        raise ValidationError("grid_step must be > 0")
    if not (0.0 <= l_max < math.inf and 0.0 <= lambda_max < math.inf):
        raise ValidationError("l_max and lambda_max must be finite and >= 0")
    if not l_max / grid_step < _GRID_TABLE_BUDGET:
        raise ValidationError(
            f"l_max / grid_step is over the {_GRID_TABLE_BUDGET:.0e} table budget"
        )
    n_l = int(math.floor(l_max / grid_step + 1e-9)) + 1
    n_tuples = math.comb(n_l + n_types - 1, n_types)
    if n_tuples * n_samples > _EVALUATION_BUDGET:
        raise ValidationError(
            f"{n_tuples} latency points x {n_samples} samples exceeds "
            f"the {_EVALUATION_BUDGET:.0e} evaluation budget"
        )
    size = round(_BOX_POINTS ** (1.0 / n_types))
    n_cells = -(-n_l // size)
    table_entries = n_l * (1 + (n_types + 1) * (n_samples + 1) + 2 * n_types)
    table_entries += n_types * (3 * n_cells + 1)
    if table_entries > _GRID_TABLE_BUDGET:
        raise ValidationError(
            f"{n_l} grid values x {n_samples} samples need {table_entries} table "
            f"entries, over the {_GRID_TABLE_BUDGET:.0e} table budget"
        )
    return candidates, (n_l, size, n_cells)


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


class _Bound:
    """Upper bound on the objective over lam in [0, lambda_max] of every
    latency point in a box, from per-type tables, O(types) per box.

    Each type's grid is cut into cells of consecutive values, the cells
    starting at the grid indices ``starts``.  A box is a nondecreasing
    tuple of cell indices, one per type; its points are the nondecreasing
    grid tuples whose indices lie in those cells.  With cells of ``size``
    values, ``starts = np.arange(0, n_l, size)``, the last cell possibly
    shorter; with ``starts = np.arange(n_l)`` each cell holds one value and
    a box is one point.

    **Bound.**  With ``s_lo = mean|anchor - lo| - eps`` and
    ``s_p = mean|anchor - p| - eps``, the mean of a minimum is at most the
    minimum of the means, so a point's objective at lam is at most
    ``min(h(lo) + lam*s_lo, mean_n h(p_n) + lam*s_p) - g``, g being its
    expected reward; the samples are bounded (:func:`check_oracle_inputs`),
    so s_p <= 0, and over lam in [0, lambda_max] it is at most

        U = min(h(lo) + max(s_lo, 0)*lambda_max, mean_n h(p_n)) - g.

    ``h(lo)`` is the sum over types of column 0 of the scaled tables, the
    float the exact evaluation uses, and ``mean_n h(p_n)`` the sum over
    types of the per-type means ``m_i = mean(scaled_i[:, 1:], axis=1)``.
    A box's bound computes U by the same float operations in the same
    order, from each type's maxima of ``h(lo)`` and of ``m_i`` over the
    box's cell (``np.maximum.reduceat``, a copy for one-value cells), with
    a floor ``g_low`` on the float expected rewards of the box's points
    subtracted and a ceiling ``g_high`` on them in the slack (for a point,
    both are its g).  Each float it adds is then at least the one a point
    of the box adds in that place, and rounding is monotone: ``a <= a'``
    and ``b <= b'`` give ``fl(a + b) <= fl(a' + b')``, and likewise
    ``fl(a - b') <= fl(a' - b)`` and ``fl(c*a) <= fl(c*a')`` for c > 0.
    So a box's bound is at least each of its points' bounds.

    **Slack.**  Both U and the objective are computed in floats.  With
    u = 2**-53, a sum of terms that each pass through at most m roundings
    errs by at most gamma_m = m*u / (1 - m*u) times the sum of their
    magnitudes, pairwise sums included (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., §3.1 and §4.2).  Every term either side
    adds is at most ``T = A + D + g`` in magnitude: ``A`` sums over types
    the largest magnitude in the type's scaled table,
    ``D = lambda_max * (max|anchor - lo| + eps)`` (as |anchor - p| <=
    |anchor - lo|) and g >= 0 on the grid.  The objective sums k types, adds
    the transport term, subtracts g, divides by n, sums the n samples in
    order and adds -lam*eps; U takes n-sample means, sums k types, adds
    max(s_lo, 0)*lambda_max (a mean, a difference and a product) and subtracts
    g.  Either way a term passes through at most n + k + 3 roundings, so the
    two err by less than 4*(n + k + 3)*u*T while (n + k + 3)*u <= 1/2, which
    the table budget guarantees.  The slack ``_BOUND_SLACK * (n + k + 4) * T``
    (``_BOUND_SLACK = 4u``), taken at ``g_high``, covers that and its own
    rounding and addition.  So the bound is at least the objective of every
    point of the box at every multiplier.
    """

    def __init__(self, scaled, starts, candidates: InnerCandidates, eps, lambda_max):
        self.lo = [np.maximum.reduceat(s[:, 0], starts) for s in scaled]
        self.p_mean = [np.maximum.reduceat(s[:, 1:].mean(axis=1), starts) for s in scaled]
        self.rise_lo = max(float(candidates.lo_distance.mean()) - eps, 0.0) * lambda_max
        self.magnitude = sum(float(np.abs(s).max()) for s in scaled)
        self.magnitude += lambda_max * (float(candidates.lo_distance.max()) + eps)
        self.slack_rate = _BOUND_SLACK * (candidates.lo_distance.size + len(scaled) + 4)

    def __call__(self, rows, g_low, g_high) -> np.ndarray:
        """The bound of each box, a row of cell indices in ``rows``, whose
        points' float expected rewards lie in ``[g_low, g_high]``."""
        bound = _gather(self.lo, rows)
        bound += self.rise_lo
        np.minimum(bound, _gather(self.p_mean, rows), out=bound)
        bound -= g_low
        bound += self.slack_rate * (self.magnitude + g_high)
        return bound


def _box_rewards(cells, size: int, values, profile: AspTypeProfile, gamma1: float):
    """``(g_low, g_high)``: a floor and a ceiling on the float expected
    rewards of the points of each box, a row of indices in ``cells`` of
    cells of ``size`` grid ``values``, the last cell possibly shorter.

    A box's lowest point takes each cell's first value and its highest
    point each cell's last; both are points of the box.  Under the binding
    reward recursion the expected reward is ``g(L) = gamma1 * sum_i L_i *
    (A_i/theta_i - A_{i+1}/theta_{i+1})``, with tail masses ``A_i = alpha_i
    + ... + alpha_I`` and ``A_{I+1} = 0``.  Thetas are nondecreasing and
    tail masses nonincreasing, so every price ``A_i/theta_i -
    A_{i+1}/theta_{i+1}`` is >= 0 and g is nondecreasing in every latency:
    in exact arithmetic, g at a point of a box lies between g at its lowest
    and at its highest point.  In floats,
    :func:`contracts.rewards_from_latencies` and
    :func:`contracts.expected_reward` add the terms ``alpha_i * gamma1 *
    (L_j - L_{j-1}) / theta_j`` (j <= i), all >= 0 at a nondecreasing
    point, each through at most 2I + 2 roundings: the difference, the
    product by gamma1, the division by theta_j, at most I - 1 running
    additions, the product by alpha_i and at most I - 1 additions over
    types.  So a point's float g lies within gamma_{2I+2}*G of its exact g
    (with u and gamma_m as in :class:`_Bound`), where ``G = gamma1 * v_max
    / theta_1`` bounds g on the grid: the prices add up to gamma1 * A_1 /
    theta_1, and A_1 = 1.  Hence a point's float g is at least the lowest
    point's float g less 2*gamma_{2I+2}*G, and at most the highest point's
    plus as much; 2*gamma_{2I+2}*G = (4I + 4)*u*G*(1 + O(u)).  The two
    float g's move by the margin ``_BOUND_SLACK * (I + 2) * G = (4I +
    8)*u*G``, which covers that, the margin's own rounding and the rounding
    of the move, each at most u*G*(1 + O(u)).
    """
    margin = _BOUND_SLACK * (profile.n_types + 2) * gamma1 * values[-1] / profile.thetas[0]
    low = cells * size
    high = np.minimum(low + (size - 1), values.size - 1)
    g_low = _expected_rewards(values[low], profile, gamma1) - margin
    return g_low, _expected_rewards(values[high], profile, gamma1) + margin


def _expected_rewards(latencies, profile: AspTypeProfile, gamma1: float) -> np.ndarray:
    """The expected reward of each row of ``latencies`` under the binding
    reward recursion."""
    return expected_reward(rewards_from_latencies(latencies, profile, gamma1), profile.alphas)


def _monotone_chunks(n_l: int, n_types: int, chunk_rows: int):
    """Yield (rows, n_types) arrays of the nondecreasing tuples of indices
    into ``n_l`` values (grid values, or the oracle's cells of them), in
    lexicographic order, ``chunk_rows`` rows at a time.  Each chunk unranks
    its own ranks, so the full list is never held: with ``counts[m][k]``
    nondecreasing (m + 1)-tuples on k grid values, each index is the highest
    with as many tuples from it on as from the rank on, or more."""
    counts = [np.arange(n_l + 1)]
    for _ in range(1, n_types):
        counts.append(np.cumsum(counts[-1]))
    n_tuples = int(counts[-1][n_l])
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


def _box_points(boxes, size: int, n_l: int, rows: int):
    """Yield (at most ``rows``, types) arrays of the grid indices of the
    nondecreasing latency tuples in ``boxes``, rows of cell indices of cells
    of ``size`` consecutive values out of ``n_l``: box by box, and each
    box's tuples in lexicographic order."""
    n_types = boxes.shape[1]
    # C order, the last type fastest; numpy arrays have at most 64 dimensions
    offsets = np.array(list(itertools.product(range(size), repeat=n_types))).T
    per_batch = max(1, rows // offsets.shape[1])
    for start in range(0, len(boxes), per_batch):
        # column by column: a broadcast over a last axis of `types` entries
        # runs one short inner loop per row
        batch = boxes[start : start + per_batch] * size
        columns = [(batch[:, i, None] + offsets[i]).ravel() for i in range(n_types)]
        inside = columns[-1] < n_l
        for left, right in zip(columns, columns[1:]):
            inside &= left <= right
        kept = np.flatnonzero(inside)
        points = np.empty((kept.size, n_types), dtype=kept.dtype)
        for i, column in enumerate(columns):
            points[:, i] = column[kept]
        for first in range(0, len(points), rows):
            yield points[first : first + rows]


def _chunk_best(
    h, g, candidates: InnerCandidates, eps, grid_step: float, lambda_max: float, points
):
    """Best (objective, row index) over latency points with grid indices
    ``points``, log benefits ``h`` and expected rewards ``g`` (one row
    each): evaluate the grid points that bracket each row's multiplier
    argmax clipped to [0, lambda_max], or the grid point it sits on.  An
    exact tie goes to the lexicographically least point."""
    lam_star = np.clip(multiplier_argmax(h, candidates, eps), 0.0, lambda_max)
    lam_floor = np.clip(np.floor(lam_star / grid_step) * grid_step, 0.0, lambda_max)
    lam_ceil = np.clip(np.ceil(lam_star / grid_step) * grid_step, 0.0, lambda_max)
    omega = _psi(h, g, lam_floor, candidates, eps)
    up = np.flatnonzero(lam_ceil != lam_floor)
    omega[up] = np.maximum(omega[up], _psi(h[up], g[up], lam_ceil[up], candidates, eps))
    ties = np.flatnonzero(omega == omega.max())
    idx = int(ties[np.lexsort(points[ties].T[::-1])[0]])
    return float(omega[idx]), idx


def _psi(h, g, lam, candidates: InnerCandidates, eps: float) -> np.ndarray:
    """Objective per row of ``h`` at that row's multiplier ``lam``."""
    return sample_value(inner_minima(h, lam, candidates)[0], g, lam, eps)


# ---------------------------------------------------------------------------
# Benchmark CSV interfaces
# ---------------------------------------------------------------------------

def write_metrics_csv(rows, path) -> None:
    write_table(path, ["method", "extreme_count", "shift", "mean_teleop_utility"], rows)


def write_asp_csv(rows, path) -> None:
    write_table(path, ["method", "extreme_count", "type_index", "asp_utility"], rows)
