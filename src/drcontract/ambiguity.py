"""Empirical quality distributions, the ambiguity radius, and evaluation-time
sample transforms (downward shift, extreme-point contamination).

The ambiguity ball is centred on the uniform empirical distribution of
historical quality scores; its radius shrinks as O(1/sqrt(N)) in the sample
count and grows with the confidence level and the support diameter.
Transport cost between equal-size empirical measures on the line is the mean
absolute difference of order statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import read_table, write_table
from .errors import DataError, ValidationError
from .seeding import rng_for


@dataclass(frozen=True)
class SupportInterval:
    """Closed interval of representable quality scores."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValidationError(f"support requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def diameter(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class QualitySampleSet:
    """Historical quality observations.

    Values outside the support interval are retained verbatim: they still act
    as transport anchors even when they cannot be evaluation points.
    """

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float).copy()
        if arr.ndim != 1:
            raise ValidationError(f"samples must be 1-D, got shape {arr.shape}")
        if arr.size < 1:
            raise DataError("sample set must contain at least one observation")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class AmbiguityConfig:
    """Support interval and ball radius: what the solver reads."""

    support: SupportInterval
    epsilon: float

    def __post_init__(self):
        if not self.epsilon >= 0.0:
            raise ValidationError("epsilon must be >= 0")

    @classmethod
    def derive(cls, support: SupportInterval, tau: float, n_samples: int) -> "AmbiguityConfig":
        """Build a config whose radius follows the closed-form sample bound
        at confidence ``tau``."""
        return cls(support, radius(n_samples, tau, support.diameter))


def radius(n_samples: int, tau: float, diameter: float) -> float:
    """Ambiguity-ball radius ``D * sqrt((2/N) * ln(1/(1-tau)))``."""
    if not 0.0 < tau < 1.0:
        raise ValidationError(f"tau must lie in (0, 1), got {tau}")
    if n_samples < 1:
        raise ValidationError("n_samples must be a positive integer")
    if not diameter > 0.0:
        raise ValidationError("diameter must be > 0")
    return diameter * math.sqrt((2.0 / n_samples) * math.log(1.0 / (1.0 - tau)))


def sample_values(samples) -> np.ndarray:
    """The observations of a sample set, or any sequence of reals, as a float
    array."""
    if isinstance(samples, QualitySampleSet):
        return samples.samples
    return np.asarray(samples, dtype=float)


def wasserstein_1d(p, q) -> float:
    """Exact transport cost between equal-size uniform empirical measures.

    Sorting both supports pairs the order statistics, which is the optimal
    coupling on the line; the cost is the mean absolute pairwise gap.
    """
    a = sample_values(p)
    b = sample_values(q)
    if a.size != b.size:
        raise DataError(f"sample counts differ: {a.size} vs {b.size}")
    if a.size == 0:
        raise DataError("cannot compare empty distributions")
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def shift_samples(samples: QualitySampleSet, magnitude: float) -> QualitySampleSet:
    """Translate every observation downward by ``magnitude`` (no clipping).

    A uniform translation moves the empirical distribution by exactly the
    translation magnitude in transport distance.
    """
    if not magnitude >= 0.0:
        raise ValidationError("shift magnitude must be >= 0")
    return QualitySampleSet(samples=samples.samples - magnitude)


def inject_extreme_points(
    samples: QualitySampleSet, count: int, value: float, seed: int
) -> QualitySampleSet:
    """Overwrite ``count`` seeded-random positions with ``value``.

    The sample count is preserved; positions are drawn without replacement
    and are deterministic for a given seed.
    """
    if count < 0:
        raise ValidationError("count must be >= 0")
    if count > samples.n:
        raise DataError(f"count {count} exceeds sample count {samples.n}")
    if count == 0:
        return samples
    rng = rng_for(seed, "extreme-points")
    positions = rng.choice(samples.n, size=count, replace=False)
    out = samples.samples.copy()
    out[positions] = value
    return QualitySampleSet(samples=out)


# ---------------------------------------------------------------------------
# Sample CSV interface: header line "xi", one real per line
# ---------------------------------------------------------------------------

def write_samples_csv(samples: QualitySampleSet, path) -> None:
    # Python floats reach the csv writer faster than numpy scalars
    write_table(path, ["xi"], zip(map(float, samples.samples)))


def read_samples_csv(path) -> QualitySampleSet:
    values = read_table(path, ["xi"])[:, 0]
    if not values.size:
        raise DataError(f"{path} contains no observations")
    return QualitySampleSet(samples=values)
