"""Type ladder, utility models, and contract-menu feasibility machinery.

A provider of type theta earns ``theta * R - gamma1 * L`` from accepting the
bundle (L, R), where L is an inverse latency commitment and R the reward.
The operator's benefit from a bundle is ``ln(gamma2 * xi + gamma3 * L) - R``
at quality level xi.  Given a nondecreasing latency vector, the reward
recursion below makes the lowest type's participation constraint bind and
every adjacent downward self-selection constraint bind, which eliminates
rewards as free variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import read_indexed_table, write_table
from .errors import DataError, NumericError, ParseError, ValidationError

MONOTONE_TOL = 1e-12
FEASIBILITY_TOL = 1e-9  # slack of each participation and self-selection check


def _as_readonly_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    if arr.ndim != 1:
        raise ValidationError(f"expected a 1-D vector, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class AspTypeProfile:
    """Provider type ladder: willingness values and their probabilities.

    thetas must be strictly positive and nondecreasing; alphas must be
    nonnegative and sum to one.  Duplicate thetas are allowed (bunched types
    share a marginal price in the reward recursion).
    """

    thetas: np.ndarray
    alphas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "thetas", _as_readonly_array(self.thetas))
        object.__setattr__(self, "alphas", _as_readonly_array(self.alphas))
        if self.thetas.size < 1:
            raise ValidationError("profile needs at least one type")
        if self.thetas.size != self.alphas.size:
            raise ValidationError(
                f"thetas ({self.thetas.size}) and alphas ({self.alphas.size}) "
                "must have identical length"
            )
        if not np.all(self.thetas > 0.0):
            raise ValidationError("thetas must be strictly positive")
        if np.any(np.diff(self.thetas) < 0.0):
            raise ValidationError("thetas must be nondecreasing")
        if np.any(self.alphas < 0.0):
            raise ValidationError("alphas must be nonnegative")
        if not abs(float(self.alphas.sum()) - 1.0) <= 1e-12:
            raise ValidationError(
                f"alphas must sum to 1 within 1e-12, got {self.alphas.sum()!r}"
            )

    @property
    def n_types(self) -> int:
        return int(self.thetas.size)


@dataclass(frozen=True)
class UtilityParams:
    """Weighting coefficients of the two utility models.

    gamma1 maps latency to provider cost, gamma2 weights quality and gamma3
    weights latency in the operator's log benefit.  gamma3 may be zero; the
    log argument is then guarded by quality alone.
    """

    gamma1: float = 1.0
    gamma2: float = 1.0
    gamma3: float = 1.0

    def __post_init__(self):
        if not self.gamma1 > 0.0:
            raise ValidationError("gamma1 must be > 0")
        if not self.gamma2 > 0.0:
            raise ValidationError("gamma2 must be > 0")
        if not self.gamma3 >= 0.0:
            raise ValidationError("gamma3 must be >= 0")


@dataclass(frozen=True)
class ContractMenu:
    """Per-type bundles: inverse-latency commitments and rewards."""

    latencies: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "latencies", _as_readonly_array(self.latencies))
        object.__setattr__(self, "rewards", _as_readonly_array(self.rewards))
        if self.latencies.size != self.rewards.size:
            raise ValidationError("latencies and rewards must have equal length")
        if not (np.all(np.isfinite(self.latencies)) and np.all(np.isfinite(self.rewards))):
            raise ValidationError("latencies and rewards must be finite")
        if np.any(self.latencies < 0.0):
            raise ValidationError("latencies are inverse latencies and must be >= 0")

    @property
    def n_types(self) -> int:
        return int(self.latencies.size)


def rewards_from_latencies(latencies, profile: AspTypeProfile, gamma1: float):
    """Rewards that bind the lowest type's participation constraint and every
    adjacent downward self-selection constraint.

    R_1 = gamma1 * L_1 / theta_1 and
    R_i = R_{i-1} + gamma1 * (L_i - L_{i-1}) / theta_i, so each increment of
    latency is priced at the marginal rate of the type receiving it.  The
    types run along the last axis, so a stack of latency vectors gives one
    reward vector per row.

    The increments are summed in type order (:func:`running_sums`).
    """
    lat = np.asarray(latencies, dtype=float)
    if lat.shape[-1] != profile.n_types:
        raise DataError(
            f"latencies ({lat.shape[-1]}) and profile ({profile.n_types}) differ"
        )
    # lat[..., 0] - 0.0 == lat[..., 0], so this is np.diff(prepend=0.0)
    # bit for bit, at a fraction of its cost
    increments = lat.copy()
    increments[..., 1:] -= lat[..., :-1]
    # the least increment; fmin skips NaNs as the comparison did
    if np.fmin.reduce(increments[..., 1:], axis=None, initial=np.inf) < -MONOTONE_TOL:
        raise NumericError(
            f"latencies must be nondecreasing within {MONOTONE_TOL}"
        )
    rewards = np.multiply(gamma1, increments, out=increments)
    rewards /= profile.thetas
    return running_sums(rewards)


def expected_reward(rewards, alphas):
    """Expected reward ``sum_i alpha_i * R_i`` of a reward vector, a numpy
    scalar, or of each row of a (menus, types) stack, a 1-D array: the last
    running sum of ``alphas * rewards`` along the types, added in type
    order (:func:`running_sums`)."""
    if rewards.shape[-1] != len(alphas):
        raise DataError(f"{len(alphas)} alphas vs {rewards.shape[-1]} rewards")
    return running_sums(alphas * rewards).T[-1]  # [..., -1] would be 0-d for a vector


def running_sums(terms):
    """The running sums of ``terms`` along its last axis, taken in place and
    in order, for one vector or a 2-D stack of rows (menus by types, say, or
    types by samples): by ``np.add.accumulate`` along the rows for a vector
    or a stack no taller than it is wide, and for a taller stack column by
    column, one vectorized add per column, since a cumulative sum along a
    short last axis runs one inner loop per row.  Both add the same terms in
    the same order, so each row's sums are its 1-D call's bit for bit."""
    columns = terms.T
    if len(terms) <= len(columns):  # a vector is its own transpose
        return np.add.accumulate(terms, axis=-1, out=terms)
    for i in range(1, len(columns)):
        columns[i] += columns[i - 1]
    return terms


def eval_asp_utilities(menu: ContractMenu, profile: AspTypeProfile, gamma1: float) -> np.ndarray:
    """Per-type provider utility theta_i * R_i - gamma1 * L_i."""
    if menu.n_types != profile.n_types:
        raise DataError("menu and profile must have the same length")
    return profile.thetas * menu.rewards - gamma1 * menu.latencies


def check_feasibility(menu: ContractMenu, profile: AspTypeProfile, gamma1: float) -> None:
    """Raise a DataError naming the menu's first broken constraint, its types
    1-based: participation (IR) by type, then self-selection (IC) by type and
    then by bundle, each at slack FEASIBILITY_TOL, then a decrease of the
    latencies or else of the rewards beyond MONOTONE_TOL."""
    own = eval_asp_utilities(menu, profile, gamma1)
    (broken,) = np.nonzero(own < -FEASIBILITY_TOL)
    if broken.size:
        i = broken[0]
        raise DataError(f"type {i + 1} breaks participation: utility {float(own[i])!r}")
    # cross[i, j] is type i's utility from bundle j; its diagonal is own
    cross = profile.thetas[:, None] * menu.rewards - gamma1 * menu.latencies
    broken = np.argwhere(own[:, None] < cross - FEASIBILITY_TOL)
    if broken.size:
        i, j = broken[0]
        raise DataError(
            f"type {i + 1} breaks self-selection: "
            f"prefers type {j + 1}'s bundle by {float(cross[i, j] - own[i])!r}"
        )
    for name, values in (("latency", menu.latencies), ("reward", menu.rewards)):
        (broken,) = np.nonzero(np.diff(values) < -MONOTONE_TOL)
        if broken.size:
            i = broken[0] + 1
            raise DataError(
                f"type {i + 1} breaks monotonicity: {name} {float(values[i])!r} "
                f"below type {i}'s {float(values[i - 1])!r}"
            )


# ---------------------------------------------------------------------------
# CSV interfaces (type_index columns are 1-based)
# ---------------------------------------------------------------------------

def write_profile_csv(profile: AspTypeProfile, path) -> None:
    rows = zip(range(1, profile.n_types + 1), profile.thetas, profile.alphas)
    write_table(path, ["type_index", "theta", "alpha"], rows)


def write_menu_csv(menu: ContractMenu, path) -> None:
    rows = zip(range(1, menu.n_types + 1), menu.latencies, menu.rewards)
    write_table(path, ["type_index", "L", "R"], rows)


def read_menu_csv(path) -> ContractMenu:
    """The menu a menu file holds; a menu that ContractMenu refuses is a
    ParseError naming the file."""
    table = read_indexed_table(path, ["type_index", "L", "R"])
    try:
        return ContractMenu(table[:, 0], table[:, 1])
    except ValidationError as exc:
        raise ParseError(str(exc), str(path)) from exc
