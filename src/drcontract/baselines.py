"""Sample-average and worst-case comparison solvers.

Both reuse the exact ascent engine and stopping rule of the robust solver so
that benchmark differences isolate the objective being climbed, not the
optimizer.  The sample-average solver maximizes the mean operator utility at
the observed quality scores; the worst-case solver maximizes the utility at
the support floor and ignores the samples entirely (the log benefit is
increasing in quality, so the floor is the worst point).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .ambiguity import SupportInterval
from .bcd import BcdConfig, SolveReport, solve_pinned
from .contracts import AspTypeProfile, UtilityParams


def _baseline_config(bcd_cfg: BcdConfig) -> BcdConfig:
    """Same loop controls, but the multiplier starts (and stays) at zero."""
    return replace(bcd_cfg or BcdConfig(), lambda_init=0.0)


def solve_sp(
    samples,
    profile: AspTypeProfile,
    params: UtilityParams,
    bcd_cfg: BcdConfig = None,
) -> SolveReport:
    """Maximize the sample-average operator utility over monotone latencies.

    The latency gradient is the robust solver's with each inner minimizer
    replaced by its anchor; invariant to sample permutations.
    """
    return solve_pinned(samples, profile, params, _baseline_config(bcd_cfg))


def solve_ro(
    support: SupportInterval,
    profile: AspTypeProfile,
    params: UtilityParams,
    bcd_cfg: BcdConfig = None,
) -> SolveReport:
    """Maximize the operator utility at the support floor (worst case)."""
    return solve_pinned(
        np.array([support.lo]), profile, params, _baseline_config(bcd_cfg)
    )
