"""Run configuration: flat ``key = value`` files with reference defaults.

An empty file reproduces the reference setup exactly: eight provider types
with willingness values {110, 140, 175, 200, 220, 235, 245, 250}, unit
weighting coefficients, confidence 0.99, 200 training samples on the
support [60, 100], a 1500-iteration budget with threshold 1e-3, initial
multiplier 6, and step sizes 1e4 (latencies) and 1e-3 (multiplier).

Type probabilities come from the config when given explicitly, otherwise
from a seeded symmetric Dirichlet draw (concentration 1).  The real quality
scores behind the reference experiments are external, so the bundled
generator draws a truncated normal stand-in (mean 85, sd 8 by default);
its parameters are config keys.

Evaluation-time shift magnitudes must be nonnegative and sorted ascending;
contamination levels (extreme counts) must be nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .ambiguity import AmbiguityConfig, QualitySampleSet, SupportInterval, read_samples_csv
from .bcd import BcdConfig
from .contracts import AspTypeProfile, UtilityParams
from .errors import ParseError, ValidationError
from .seeding import rng_for

DEFAULT_THETAS = (110.0, 140.0, 175.0, 200.0, 220.0, 235.0, 245.0, 250.0)
DEFAULT_EXTREME_COUNTS = (0, 50, 100)
DEFAULT_SHIFTS = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
# Rounds of the quality-score rejection sampler.  Each round draws more than
# twice the scores still missing; the reference setup needs 1 round, and a
# support holding 1e-3 of the normal's mass needs about 2000 for 200 scores.
_MAX_REJECTION_ROUNDS = 10_000


@dataclass(frozen=True)
class RunConfig:
    thetas: tuple[float, ...] = DEFAULT_THETAS
    alphas: tuple[float, ...] = ()  # empty: draw from the seeded Dirichlet
    gamma1: float = 1.0
    gamma2: float = 1.0
    gamma3: float = 1.0
    tau: float = 0.99
    n_train: int = 200
    n_eval: int = 50
    support_lo: float = 60.0
    support_hi: float = 100.0
    itr_max: int = 1500
    conv_tol: float = 1e-3
    eta_l: float = 1e4
    eta_lambda: float = 1e-3
    lambda_init: float = 6.0
    l_init: float = 0.0
    seed: int = 0
    shift_magnitudes: tuple[float, ...] = DEFAULT_SHIFTS
    extreme_counts: tuple[int, ...] = DEFAULT_EXTREME_COUNTS
    extreme_value: float = 1.0
    gen_mean: float = 85.0
    gen_sd: float = 8.0
    train_csv: str = ""
    eval_csv: str = ""
    menu_csv: str = ""
    oracle_grid_step: float = 0.05
    oracle_l_max: float = 50.0
    oracle_lambda_max: float = 10.0

    def __post_init__(self):
        # the seed feeds every draw, the Dirichlet one in profile() included
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must lie in [0, 2**64 - 1], got {self.seed!r}")
        # Constructing the component objects runs every invariant check.
        self.support()
        self.params()
        self.profile()
        self.bcd_config()
        # numpy cannot size an array past intp
        top = np.iinfo(np.intp).max
        if not (1 <= self.n_train <= top and 1 <= self.n_eval <= top):
            raise ValidationError(f"n_train and n_eval must lie in [1, {top}]")
        self.ambiguity_for(self.n_train)
        if not all(m >= 0 for m in self.shift_magnitudes):
            raise ValidationError("shift magnitudes must be nonnegative")
        if list(self.shift_magnitudes) != sorted(self.shift_magnitudes):
            raise ValidationError("shift magnitudes must be sorted ascending")
        if any(c < 0 for c in self.extreme_counts):
            raise ValidationError("extreme counts must be nonnegative")
        if not self.gen_sd > 0:
            raise ValidationError("gen_sd must be > 0")
        # Python ints are finite, and np.isfinite rejects those past int64
        for f in fields(self):
            value = getattr(self, f.name)
            if "float" in f.type and not np.all(np.isfinite(value)):
                raise ValidationError(f"{f.name} must be finite, got {value!r}")

    @property
    def n_types(self) -> int:
        return len(self.thetas)

    def profile(self) -> AspTypeProfile:
        alphas = (
            np.asarray(self.alphas, dtype=float)
            if self.alphas
            else generate_alphas(self.n_types, self.seed)
        )
        return AspTypeProfile(thetas=np.asarray(self.thetas, dtype=float), alphas=alphas)

    def params(self) -> UtilityParams:
        return UtilityParams(gamma1=self.gamma1, gamma2=self.gamma2, gamma3=self.gamma3)

    def support(self) -> SupportInterval:
        return SupportInterval(lo=self.support_lo, hi=self.support_hi)

    def ambiguity_for(self, n_samples: int) -> AmbiguityConfig:
        return AmbiguityConfig.derive(self.support(), self.tau, n_samples)

    def bcd_config(self) -> BcdConfig:
        return BcdConfig(
            max_iters=self.itr_max,
            conv_tol=self.conv_tol,
            eta_L=self.eta_l,
            eta_lambda=self.eta_lambda,
            L_init=self.l_init,
            lambda_init=self.lambda_init,
        )

    def train_samples(self) -> QualitySampleSet:
        if self.train_csv:
            return read_samples_csv(self.train_csv)
        return generate_quality_samples(
            self.n_train, self.seed, "train-data", self.gen_mean, self.gen_sd, self.support()
        )

    def eval_samples(self) -> QualitySampleSet:
        if self.eval_csv:
            return read_samples_csv(self.eval_csv)
        return generate_quality_samples(
            self.n_eval, self.seed, "eval-data", self.gen_mean, self.gen_sd, self.support()
        )


def generate_alphas(n_types: int, seed: int) -> np.ndarray:
    """Symmetric Dirichlet (concentration 1) type probabilities."""
    if n_types < 1:
        raise ValidationError("n_types must be >= 1")
    rng = rng_for(seed, "alphas")
    draw = rng.dirichlet(np.ones(n_types))
    return draw / draw.sum()  # renormalize to absorb rounding


def generate_quality_samples(
    n: int,
    seed: int,
    label: str,
    mean: float,
    sd: float,
    support: SupportInterval,
) -> QualitySampleSet:
    """Truncated-normal quality scores on the support, via rejection.

    Raises ValidationError before any draw unless ``mean`` is finite and
    ``sd`` finite and > 0, or when the support's mass under the normal is
    0.0 in float64 (both ends about 8 sd out on the same side), and after
    ``_MAX_REJECTION_ROUNDS`` rounds short of ``n`` scores: the normal then
    puts almost no mass on the support.
    """
    if not (math.isfinite(mean) and math.isfinite(sd) and sd > 0):
        raise ValidationError(f"normal(mean={mean!r}, sd={sd!r}) needs finite mean and sd, sd > 0")
    scale = sd * math.sqrt(2.0)
    if math.erf((support.hi - mean) / scale) == math.erf((support.lo - mean) / scale):
        raise ValidationError(
            f"normal(mean={mean!r}, sd={sd!r}) puts no mass on the support "
            f"[{support.lo!r}, {support.hi!r}]"
        )
    rng = rng_for(seed, label)
    out = np.empty(n)
    filled = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        draw = rng.normal(mean, sd, size=2 * (n - filled) + 8)
        keep = draw[(draw >= support.lo) & (draw <= support.hi)][: n - filled]
        out[filled : filled + keep.size] = keep
        filled += keep.size
        if filled == n:
            return QualitySampleSet(samples=out)
    raise ValidationError(
        f"normal(mean={mean!r}, sd={sd!r}) gave {filled} of {n} scores on the support "
        f"[{support.lo!r}, {support.hi!r}] in {_MAX_REJECTION_ROUNDS} rejection rounds"
    )


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

def _tuple_of(parse):
    return lambda value: tuple(parse(part) for part in value.split(",") if part.strip())


# A key's parser is its RunConfig field's annotation, read as text (the
# module's annotations are postponed, so ``Field.type`` is that text).
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "tuple[int, ...]": _tuple_of(int),
    "tuple[float, ...]": _tuple_of(float),
}


def load_config(path) -> RunConfig:
    """Parse a ``key = value`` file; missing keys take the defaults above."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config: {exc}", path=str(path))
    return RunConfig(**parse_config_text(text, source=str(path)))


def parse_config_text(text: str, source: str = "<config>") -> dict:
    parsers = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}
    overrides, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw!r}", path=source, line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in parsers:
            raise ValidationError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValidationError(
                f"{source}:{lineno}: config key {key!r} repeats line {first_line[key]}"
            )
        first_line[key] = lineno
        try:
            overrides[key] = parsers[key](value)
        except ValueError:
            raise ParseError(f"bad value for {key}: {value!r}", path=source, line=lineno)
    return overrides
