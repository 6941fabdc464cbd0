import numpy as np
import pytest

from drcontract import AspTypeProfile
from drcontract.config import RunConfig
from drcontract.contracts import FEASIBILITY_TOL, MONOTONE_TOL


@pytest.fixture(scope="session")
def default_cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def default_profile(default_cfg):
    return default_cfg.profile()


@pytest.fixture(scope="session")
def train_samples(default_cfg):
    return default_cfg.train_samples()


@pytest.fixture(scope="session")
def eval_samples(default_cfg):
    return default_cfg.eval_samples()


def random_monotone_instance(rng, n_types=None):
    """Random (profile, latencies) pair with sorted thetas and latencies."""
    if n_types is None:
        n_types = int(rng.integers(1, 9))
    thetas = np.sort(rng.uniform(50.0, 500.0, n_types))
    alphas = rng.dirichlet(np.ones(n_types))
    latencies = np.sort(rng.uniform(0.0, 300.0, n_types))
    profile = AspTypeProfile(thetas=thetas, alphas=alphas / alphas.sum())
    return profile, latencies


def feasibility_violations(menu, profile, gamma1):
    """Reference: the double loop that :func:`contracts.check_feasibility`
    replaced, with its monotonicity flags made per type.  Returns the
    message of every broken constraint, types 1-based, in the order
    check_feasibility names them: participation by type, self-selection by
    type and then by bundle, then latency and then reward decreases."""
    lat, rew, thetas = menu.latencies, menu.rewards, profile.thetas
    n = menu.n_types
    ir, ic, monotone = [], [], []
    own = thetas * rew - gamma1 * lat
    for i in range(n):
        if own[i] < -FEASIBILITY_TOL:
            ir.append(f"type {i + 1} breaks participation: utility {float(own[i])!r}")
        for j in range(n):
            if j == i:
                continue
            cross = thetas[i] * rew[j] - gamma1 * lat[j]
            if own[i] < cross - FEASIBILITY_TOL:
                ic.append(
                    f"type {i + 1} breaks self-selection: "
                    f"prefers type {j + 1}'s bundle by {float(cross - own[i])!r}"
                )
    for name, values in (("latency", lat), ("reward", rew)):
        for i in range(1, n):
            if values[i] - values[i - 1] < -MONOTONE_TOL:
                monotone.append(
                    f"type {i + 1} breaks monotonicity: {name} {float(values[i])!r} "
                    f"below type {i}'s {float(values[i - 1])!r}"
                )
    return ir + ic + monotone
