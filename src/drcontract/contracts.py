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

from dataclasses import dataclass, field

import numpy as np

from .csvio import read_indexed_table, write_table
from .errors import NonMonotoneLatencies, ParseError, SizeMismatch, ValidationError

MONOTONE_TOL = 1e-12


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


@dataclass
class FeasibilityReport:
    """Outcome of enumerating every participation and self-selection check.

    Indices are 0-based.  ``ir_violations`` holds (i, utility) pairs with
    utility < -tol; ``ic_violations`` holds (i, j, deficit) triples where
    type i strictly prefers bundle j by more than tol.
    """

    ir_violations: list = field(default_factory=list)
    ic_violations: list = field(default_factory=list)
    latencies_monotone: bool = True
    rewards_monotone: bool = True
    tol: float = 1e-9

    @property
    def feasible(self) -> bool:
        return (
            not self.ir_violations
            and not self.ic_violations
            and self.latencies_monotone
            and self.rewards_monotone
        )


def rewards_from_latencies(latencies, profile: AspTypeProfile, gamma1: float):
    """Rewards that bind the lowest type's participation constraint and every
    adjacent downward self-selection constraint.

    R_1 = gamma1 * L_1 / theta_1 and
    R_i = R_{i-1} + gamma1 * (L_i - L_{i-1}) / theta_i, so each increment of
    latency is priced at the marginal rate of the type receiving it.  The
    types run along the last axis, so a stack of latency vectors gives one
    reward vector per row.
    """
    lat = np.asarray(latencies, dtype=float)
    if lat.shape[-1] != profile.n_types:
        raise SizeMismatch(
            f"latencies ({lat.shape[-1]}) and profile ({profile.n_types}) differ"
        )
    # lat[..., 0] - 0.0 == lat[..., 0], so this is np.diff(prepend=0.0)
    # bit for bit, at a fraction of its cost
    increments = lat.copy()
    increments[..., 1:] -= lat[..., :-1]
    if (increments[..., 1:] < -MONOTONE_TOL).any():
        raise NonMonotoneLatencies(
            f"latencies must be nondecreasing within {MONOTONE_TOL}"
        )
    return np.cumsum(gamma1 * increments / profile.thetas, axis=-1)


def check_feasibility(
    menu: ContractMenu,
    profile: AspTypeProfile,
    gamma1: float,
    tol: float = 1e-9,
) -> FeasibilityReport:
    """Enumerate all I participation and I(I-1) self-selection constraints.

    An infeasible menu yields a populated report rather than an error.
    """
    if menu.n_types != profile.n_types:
        raise SizeMismatch("menu and profile must have the same length")
    lat, rew, thetas = menu.latencies, menu.rewards, profile.thetas
    n = menu.n_types
    report = FeasibilityReport(tol=tol)
    report.latencies_monotone = not np.any(np.diff(lat) < -MONOTONE_TOL)
    report.rewards_monotone = not np.any(np.diff(rew) < -MONOTONE_TOL)
    own = thetas * rew - gamma1 * lat
    for i in range(n):
        if own[i] < -tol:
            report.ir_violations.append((i, float(own[i])))
        for j in range(n):
            if j == i:
                continue
            cross = thetas[i] * rew[j] - gamma1 * lat[j]
            if own[i] < cross - tol:
                report.ic_violations.append((i, j, float(cross - own[i])))
    return report


# ---------------------------------------------------------------------------
# CSV interfaces (type_index columns are 1-based)
# ---------------------------------------------------------------------------

def write_profile_csv(profile: AspTypeProfile, path) -> None:
    rows = zip(range(1, profile.n_types + 1), profile.thetas, profile.alphas)
    write_table(path, ["type_index", "theta", "alpha"], rows)


def read_profile_csv(path) -> AspTypeProfile:
    return _read_type_table(path, ["type_index", "theta", "alpha"], AspTypeProfile)


def write_menu_csv(menu: ContractMenu, path) -> None:
    rows = zip(range(1, menu.n_types + 1), menu.latencies, menu.rewards)
    write_table(path, ["type_index", "L", "R"], rows)


def read_menu_csv(path) -> ContractMenu:
    return _read_type_table(path, ["type_index", "L", "R"], ContractMenu)


def _read_type_table(path, header, build):
    """``build`` of a type table's two columns; a ParseError names the file."""
    table = read_indexed_table(path, header)
    try:
        return build(table[:, 0], table[:, 1])
    except ValidationError as exc:
        raise ParseError(str(exc), str(path)) from exc
