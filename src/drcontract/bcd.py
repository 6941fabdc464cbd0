"""Block-coordinate ascent over the latency and multiplier blocks.

One loop, :func:`_ascend`, serves every solver.  It projects the start
point, evaluates it, and on each iteration (1) takes a fixed-step
approximate-gradient ascent step on the latency vector, irons it back onto
the nondecreasing cone by weighted pool-adjacent-violators and clips it at
zero, (2) takes a projected gradient step on the multiplier, both at the
inner minimizers of the last evaluation, and (3) evaluates the objective at
the new point, which also yields the inner minimizers for the next
iteration.  The loop stops when consecutive objective values differ by at
most the convergence threshold.  :func:`solve` evaluates the robust
objective; :func:`solve_pinned` pins the inner point to each anchor.

The inner winners (floor or projection) that fix the minimizers seldom
change from one iteration to the next, so the loop runs in batches: up to K
steps at the last evaluation's winners, then one stacked evaluation of the
K iterates (:func:`objectives`), cut at the first iterate whose winners
differ.  K doubles while the winners hold, up to the iteration budget and
to ``inner.rows_per_block(I * points)``, the stack whose log table fits one
type block; it is 1 at 64 types and 20k samples.  Traces, stop reasons,
menus and errors are those of one step per evaluation, bit for bit (see
:func:`_ascend`).

A batch's K steps run in one workspace built for the batch: one
``(k, N)`` table of reciprocals (:func:`_reciprocal_table`), which every
step (:func:`_gradient`) and every block of types reuses, and ``(K, I)``
rows for the raw steps and the iterates, all filled in place.  The checks
of the steps (finite steps and multipliers) run once per batch, on the
stacks, after the steps; the batch's evaluation tests the iterates' order
(:func:`contracts.rewards_from_latencies`).  The loop runs with numpy's
floating-point warnings off, so an overflow or a division by zero reaches
these checks, or the finite-objective check, as a non-finite value and
nothing else reports it.

The latency gradient deliberately treats the inner minimizers as constants,
so per-step objective improvement is not guaranteed and is not asserted;
in practice the trajectory climbs monotonically on the tested instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import AmbiguityConfig, sample_values
from .config import RunConfig
from .contracts import AspTypeProfile, ContractMenu, UtilityParams
from .contracts import expected_reward, rewards_from_latencies, running_sums
from .csvio import write_table
from .errors import ContractSolverError, DataError, NumericError, ValidationError
from .inner import (
    InnerCandidates,
    inner_candidates,
    inner_minima,
    rows_per_block,
    sample_value,
    unbounded,
    weighted_log,
)


@dataclass
class SolveReport:
    """Solver output: menu, trajectory, and stop reason: tol, max_iters or unbounded."""

    menu: ContractMenu
    converged: bool
    stop_reason: str
    objective_trace: np.ndarray
    latency_trace: np.ndarray
    lambda_trace: np.ndarray

    @property
    def iterations_used(self) -> int:
        return len(self.objective_trace)

    @property
    def objective(self) -> float:
        return float(self.objective_trace[-1])


def objectives(
    latencies,
    lam,
    candidates: InnerCandidates,
    epsilon: float,
    profile: AspTypeProfile,
    params: UtilityParams,
):
    """The robust objective of one menu (1-D ``latencies``, scalar ``lam``)
    or of each menu of a stack (a ``(K, I)`` row of latencies and a
    multiplier each): returns ``(values, wins)``, the values being
    :func:`inner.sample_value` of every anchor's inner minimum over
    ``candidates`` (``inner_candidates(anchors, support)``, built once per
    solve) and the expected reward, and ``wins`` marking the anchors whose
    minimizer is their projection rather than the floor (see
    :func:`inner.inner_minima`), a row per menu of a stack.  Every kernel
    treats a stack's rows independently, in one menu's float order, so each
    row is the one-menu result bit for bit."""
    h = weighted_log(candidates.points, latencies, profile.alphas, params)
    f_min, wins = inner_minima(h, lam, candidates)
    g = expected_reward(rewards_from_latencies(latencies, profile, params.gamma1), profile.alphas)
    return sample_value(f_min, g, lam, epsilon), wins


def _reciprocal_table(n_types: int, points: int) -> np.ndarray:
    """The ``(k, points)`` workspace of :func:`_gradient`: a block of
    ``k = min(n_types, rows_per_block(points))`` types, all 8 at 8 types x
    200 points, one at 20k points."""
    return np.empty((min(n_types, rows_per_block(points)), points))


def _gradient(scaled_xi, scaled_lat, alphas, price, gamma3, table, out) -> np.ndarray:
    """The approximate latency gradient, holding the inner minimizers xi*
    fixed, written into ``out`` and returned: component i is alpha_i *
    (gamma3 * mean_n 1/(gamma2*xi*_n + gamma3*L_i) - gamma1/theta_i), given
    the 1-D ``scaled_xi`` = gamma2*xi*, ``scaled_lat`` = gamma3*L and
    ``price`` = gamma1/theta.  It makes no check, and needs no test of its
    denominators: each is an entry of the log argument table
    gamma2*xi + gamma3*L_i, the same floats, that :func:`inner.log_blocks`
    has found positive in the evaluation that picked xi* (see
    :func:`_ascend`).  The denominators of each block of types
    are written into ``table`` (:func:`_reciprocal_table`), inverted in
    place and summed row-wise by :func:`contracts.running_sums`, which adds
    strictly in sample order, unlike numpy's pairwise ``sum``, so each
    type's sum is the same float sequence whatever the block size."""
    block = len(table)
    for start in range(0, len(out), block):
        types = slice(start, start + block)
        denom = table[: len(out) - start]
        np.add(scaled_xi, scaled_lat[types, None], out=denom)
        np.divide(1.0, denom, out=denom)
        out[types] = running_sums(denom)[:, -1]
    out /= scaled_xi.size
    out *= gamma3
    out -= price
    out *= alphas
    return out


def grad_lambda(distances, epsilon: float) -> float:
    """Multiplier gradient: the mean transport distance |anchor - xi*| of the
    inner minimizers, given as ``distances``, minus the radius.  The mean is
    ``np.add.reduce(d) / n``, the float ``d.mean()`` computes, without its
    Python wrapper."""
    distances = np.asarray(distances, dtype=float)
    return float(-epsilon + np.add.reduce(distances) / distances.size)


def iron_monotone(latencies, weights, *, validate=True, out=None) -> np.ndarray:
    """Weighted least-squares projection onto the nondecreasing cone.

    Pool-adjacent-violators: scan left to right, merging any block whose
    weighted mean falls below its predecessor's.  An input that is already
    nondecreasing comes back unchanged up to one rounding per entry: each
    singleton block is written back as (w*v)/w, which is within 1 ulp of v
    while w*v stays a normal float, and often differs from v in the last
    bit.  Neighbours less than 2 ulps apart (ties, say) can therefore cross
    after rounding and get pooled, which moves them by a few ulps more.

    When no singleton mean (w*v)/w exceeds its successor's, the scan never
    merges (its first merge compares two singletons), so those rounded means
    are returned at once: the loop's output bit for bit, so the few-ulp
    moves above are kept, not fixed.  ``validate=False`` skips the finiteness and weight
    checks, for a caller that has made them (the ascent checks its steps
    and validates its weights at the start point).  ``out``, an array the
    size of ``latencies`` and not ``latencies`` itself, receives the result.
    """
    vals = np.asarray(latencies, dtype=float)
    w = np.asarray(weights, dtype=float)
    if vals.size != w.size:
        raise DataError("latencies and weights must have equal length")
    if validate:
        if not np.isfinite(vals).all():
            raise ValidationError("latencies must be finite")
        if (w <= 0.0).any():
            raise ValidationError("weights must be strictly positive")
    means = np.multiply(w, vals, out=out)
    means /= w
    if not np.logical_or.reduce(means[:-1] > means[1:]):
        return means
    # blocks of (weight sum, weighted value sum, member count)
    blocks = []
    for v, wt in zip(vals.tolist(), w.tolist()):
        blocks.append([wt, wt * v, 1])
        while len(blocks) > 1 and blocks[-2][1] / blocks[-2][0] > blocks[-1][1] / blocks[-1][0]:
            wt2, sv2, c2 = blocks.pop()
            blocks[-1][0] += wt2
            blocks[-1][1] += sv2
            blocks[-1][2] += c2
    pos = 0
    for wt, sv, count in blocks:
        means[pos : pos + count] = sv / wt
        pos += count
    return means


def solve(
    samples,
    profile: AspTypeProfile,
    params: UtilityParams,
    ambiguity: AmbiguityConfig,
    cfg: RunConfig,
) -> SolveReport:
    """Run the full block-coordinate loop and return the robust menu.

    ``cfg`` gives the loop keys, and the ascent starts from its
    ``lambda_init``.  Failing to converge within the iteration budget is
    reported, not raised, and so is an :func:`inner.unbounded` objective,
    whatever stopped the loop.  Identical inputs produce bitwise-identical
    traces.
    """

    anchors = sample_values(samples)
    candidates = inner_candidates(anchors, ambiguity.support)
    # gamma2*xi* and |anchor - xi*| per candidate; the winners pick one each
    scaled = params.gamma2 * candidates.points
    scaled_lo, scaled_p = float(scaled[0]), scaled[1:]

    def evaluate(lat, lam):
        return objectives(lat, lam, candidates, ambiguity.epsilon, profile, params)

    def minimizers(wins):
        distances = np.where(wins, candidates.p_distance, candidates.lo_distance)
        return np.where(wins, scaled_p, scaled_lo), grad_lambda(distances, ambiguity.epsilon)

    points = candidates.points.size
    report = _ascend(evaluate, minimizers, points, profile, params, cfg, cfg.lambda_init)
    if unbounded(candidates, ambiguity.epsilon):
        report.stop_reason = "unbounded"
    return report


def solve_pinned(anchors, profile, params, cfg: RunConfig) -> SolveReport:
    """Ascent with the inner point pinned to each anchor and a zero radius.

    The transport penalty vanishes because the evaluation point equals the
    anchor, so the anchors are the inner minimizers, at transport distance
    zero: ``minimizers`` returns gamma2 times the anchors and a multiplier
    gradient of 0.0, the float ``grad_lambda`` gives for zero distances and
    a zero radius.  The multiplier is held at zero from the start whatever
    ``cfg.lambda_init`` says.  The loop keys and stopping rule are otherwise
    the robust solver's.
    """
    anchors = sample_values(anchors)
    scaled = params.gamma2 * anchors

    def evaluate(lat, lam):
        g = expected_reward(rewards_from_latencies(lat, profile, params.gamma1), profile.alphas)
        omega = sample_value(weighted_log(anchors, lat, profile.alphas, params), g)
        return omega, np.zeros((len(lat), 0), dtype=bool)  # no inner choice, so no winners

    def minimizers(wins):
        return scaled, 0.0

    return _ascend(evaluate, minimizers, anchors.size, profile, params, cfg, 0.0)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _ascend(evaluate, minimizers, points, profile, params, cfg, lam) -> SolveReport:
    """The ascent engine, from all-``cfg.l_init`` latencies and the
    multiplier ``lam``, with ``cfg``'s step sizes ``eta_l`` and
    ``eta_lambda``, iteration budget ``itr_max`` and threshold ``conv_tol``.
    ``evaluate(lat, lam)`` takes a ``(K, I)`` stack of latency iterates and
    their K multipliers and returns the K objective values and a row of
    inner winners per iterate; ``minimizers(wins)`` returns, at the inner
    minimizers xi* one row of winners picks, gamma2*xi* and the multiplier
    gradient there (:func:`grad_lambda` of the transport distances
    |anchor - xi*| and the radius).  Together they fix the inner rule.
    ``points`` is the number of points ``evaluate`` takes the log benefit
    at.

    Each batch takes K steps from the last traced iterate, all at the
    winners of the last evaluation, so the multiplier gradient is computed
    once; evaluates the K iterates in one call; then walks them in order,
    tracing each and applying the stop test.  At the first iterate whose
    winners differ from those the steps assumed, it keeps that iterate and
    drops the rest.  Each kept iterate is thus the one a loop of one step
    per evaluation computes, bit for bit: until the winners change, the
    steps read the same minimizers, and a stacked evaluation's rows equal
    one-iterate evaluations.  K is 1 at the start and after a change, and
    doubles after each batch kept in full, up to the remaining budget and to
    ``inner.rows_per_block(I * points)``, so a batch's log table
    fits one type block.  Doubling rather than starting at that cap keeps
    the steps computed past a stop no more than those kept.

    The steps share one workspace (see the module docstring).  A step's
    denominators gamma2*xi* + gamma3*L_i need no test.  The step starts from
    an evaluated iterate: the start point, the last traced iterate, or, in a
    batch, a row of the batch's stacked evaluation, which runs before any
    row is traced.  That evaluation took logs at points that include xi*,
    and :func:`inner.log_blocks` found every argument, the same floats,
    positive; had one not been, it would have raised NonPositiveLogArgument
    at that iterate first.  Every batch checks its steps once, after they
    are taken, in the order of the one-step loop: that the raw steps and the
    multipliers are finite.  Their order needs no test here: a PAVA result
    clipped at zero has no adjacent decrease, and the evaluation's
    :func:`contracts.rewards_from_latencies` tests every row before any is
    traced.  A failed check
    raises the one-step loop's error for row 0, the only row at K = 1.  A
    failed check or a library error in a batch of K > 1, in its steps or its
    evaluation, drops the batch and redoes it at K = 1.  The loop runs with
    numpy's floating-point warnings off; IEEE results do not depend on them,
    and a stack's rows are independent, so the kept rows are the one-step
    loop's bit for bit and an overflow shows only as a non-finite value that
    a check reports.  Each error is thus the one-step loop's, at its
    iterate, and no step past that loop's stop raises or warns.  Raises
    NumericError when an iterate or its objective is not finite, and the
    evaluation's errors: NonPositiveLogArgument, and NumericError for
    latencies that decrease."""
    # Zero-probability types get a tiny ironing weight so pooling stays defined.
    alphas = profile.alphas
    weights = np.maximum(alphas, 1e-12)
    price = params.gamma1 / profile.thetas
    # Latencies are ironed onto the nondecreasing cone, then clipped at zero:
    # inverse latencies cannot go negative.  This first call validates the
    # weights; the steps are checked for finiteness in ``steps``.
    lat = np.maximum(iron_monotone(np.full(profile.n_types, float(cfg.l_init)), weights), 0.0)
    lam = float(lam)
    wins = evaluate(lat[None], np.array([lam]))[1][0]
    cap = rows_per_block(profile.n_types * points)

    def steps(lat, lam, size, scaled_xi, lam_gradient):
        """``size`` steps from (lat, lam), all at the minimizers given: the
        ``(size, I)`` latency iterates and their multipliers."""
        scaled_lat = np.empty(profile.n_types)
        table = _reciprocal_table(profile.n_types, scaled_xi.size)
        # apart, as the trace keeps views of the iterates but not of the raw steps
        raws, lats = np.empty((size, profile.n_types)), np.empty((size, profile.n_types))
        lams = np.empty(size)
        lam_step = cfg.eta_lambda * lam_gradient  # fixed by the minimizers
        for j, (raw, row) in enumerate(zip(raws, lats)):
            np.multiply(params.gamma3, lat, out=scaled_lat)
            gradient = _gradient(scaled_xi, scaled_lat, alphas, price, params.gamma3, table, raw)
            stepped = np.multiply(cfg.eta_l, gradient, out=raw)
            stepped += lat
            lat = np.maximum(iron_monotone(stepped, weights, validate=False, out=row), 0.0, out=row)
            lam = lams[j] = max(lam + lam_step, 0.0)
        # the batch's checks, in the one-step loop's order, naming row 0 (the
        # only row at K = 1); ufunc reductions, as ndarray.all/any wrap them in Python
        if not np.logical_and.reduce(np.isfinite(raws), axis=None):
            raise NumericError(f"latency step {raws[0].tolist()!r} is not finite")
        if not np.logical_and.reduce(np.isfinite(lams)):  # lams >= 0 by the projection
            raise NumericError(f"multiplier iterate {lams[0].item()!r} is not finite")
        return lats, lams

    omega_prev = -np.inf
    converged = False
    obj_trace, lam_trace, lat_trace = [], [], []
    size = 1
    while not converged and len(obj_trace) < cfg.itr_max:
        size = min(size, cap, cfg.itr_max - len(obj_trace))
        try:
            lats, lams = steps(lat, lam, size, *minimizers(wins))
            omegas, batch_wins = evaluate(lats, lams)
        except ContractSolverError:
            if size == 1:
                raise
            size = 1  # redo the batch one step per evaluation
            continue
        changed = np.logical_or.reduce(batch_wins != wins, axis=1).tolist()
        # (lat, lam) ends at the last iterate traced
        rows = zip(omegas.tolist(), lats, lams.tolist(), changed, batch_wins)
        for omega, lat, lam, change, row_wins in rows:
            if not math.isfinite(omega):
                raise NumericError(f"objective {omega!r} at lam={lam!r} is not finite")
            obj_trace.append(omega)
            lam_trace.append(lam)
            lat_trace.append(lat)
            if abs(omega_prev - omega) <= cfg.conv_tol:
                converged = True
                break
            omega_prev = omega
            if change:  # the later rows stepped from the old winners
                wins, size = row_wins, 1
                break
        else:
            size *= 2

    rewards = rewards_from_latencies(lat, profile, params.gamma1)
    return SolveReport(
        menu=ContractMenu(latencies=lat, rewards=rewards),
        converged=converged,
        stop_reason="tol" if converged else "max_iters",
        objective_trace=np.array(obj_trace),
        latency_trace=np.array(lat_trace),
        lambda_trace=np.array(lam_trace),
    )


def write_trace_csv(report: SolveReport, path) -> None:
    """Per-iteration trace: iter,objective,lambda,L_1..L_I, for every method."""
    n_types = report.menu.n_types
    header = ["iter", "objective", "lambda"] + [f"L_{i + 1}" for i in range(n_types)]
    traces = zip(report.objective_trace, report.lambda_trace, report.latency_trace)
    rows = ([t, obj, lam, *lat] for t, (obj, lam, lat) in enumerate(traces, start=1))
    write_table(path, header, rows)
