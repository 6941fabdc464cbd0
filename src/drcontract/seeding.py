"""Deterministic fan-out of one top-level seed to independent consumers.

Every random draw in the library flows from ``rng_for(seed, label)`` with a
fixed label per consumer, so adding a new consumer never perturbs the
streams of existing ones.
"""

import numpy as np

from .errors import ValidationError

# Fixed label codes; never renumber, only append.
_LABEL_CODES = {
    "train-data": 1,
    "eval-data": 2,
    "alphas": 3,
    "extreme-points": 4,
}


def rng_for(seed: int, label: str) -> np.random.Generator:
    try:
        code = _LABEL_CODES[label]
    except KeyError:
        raise ValidationError(f"unknown rng label {label!r}; known: {sorted(_LABEL_CODES)}")
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), code)))
