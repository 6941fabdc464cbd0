"""Scaling laws of the whole program, checked through the CLI at seed 0.

Each relation changes the input in a way whose effect on the output is
known in closed form, so the program is compared with itself and needs no
reference implementation.

* Scaling (gamma2, gamma3) by k multiplies every log argument
  gamma2*xi + gamma3*L by k: each log benefit shifts by ln(k) * sum(alpha)
  = ln k, while its derivatives, which drive the ascent, do not change
  (for a power of two k, not even in rounding).  So the menu and the
  multiplier and latency paths stay put, and every objective shifts by
  ln k.
* Scaling theta and gamma1 by k leaves every reward gamma1 * L / theta
  unchanged, so every menu and every teleoperator figure stays put, and
  each provider utility theta*R - gamma1*L scales by k.
"""

import csv
import math
from dataclasses import replace

import pytest

from drcontract import cli
from drcontract.config import RunConfig

BASE = RunConfig(seed=0)

# The two runs round independently.  A trace objective is a running mean
# over the 200 training samples, and each of its 200 additions rounds by up
# to half an ulp of a partial sum below 8, 2**-51 = 4.4e-16; these dominate
# the few roundings of each sample's logs, which the mean divides by 200.
# So each run is within about 200 * 2**-51 = 8.9e-14 of exact, and the
# tolerance is twice that.  Measured worst over the 700 rows: 1.2e-14 at
# k = 2 and 1.9e-14 at k = 0.5.  A wrong shift misses by far more: ln 2 is
# 0.69.
OBJECTIVE_TOL = 2 * 200 * 2.0**-51


def run(tmp_path, subcommand, cfg, name):
    out = tmp_path / name
    assert cli.dispatch(subcommand, cfg, method="dro", out=out) == 0
    return out


def rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


@pytest.mark.parametrize("k", [2.0, 0.5])
def test_scaling_the_log_argument_shifts_the_objective_by_log_k(tmp_path, k):
    base = run(tmp_path, "solve", BASE, "base")
    scaled = replace(BASE, gamma2=BASE.gamma2 * k, gamma3=BASE.gamma3 * k)
    out = run(tmp_path, "solve", scaled, "scaled")
    assert (out / "menu.csv").read_bytes() == (base / "menu.csv").read_bytes()
    want, got = rows(base / "trace.csv"), rows(out / "trace.csv")
    assert len(got) == len(want) == 700
    paths = [name for name in want[0] if name != "objective"]
    assert paths[:3] == ["iter", "lambda", "L_1"]
    assert [[r[c] for c in paths] for r in got] == [[r[c] for c in paths] for r in want]
    shifts = [float(g["objective"]) - float(w["objective"]) for g, w in zip(got, want)]
    assert max(abs(s - math.log(k)) for s in shifts) <= OBJECTIVE_TOL


def test_scaling_theta_and_gamma1_scales_only_the_provider_utilities(tmp_path):
    scaled = replace(BASE, thetas=tuple(2.0 * t for t in BASE.thetas), gamma1=2.0 * BASE.gamma1)
    base, out = run(tmp_path, "solve", BASE, "base"), run(tmp_path, "solve", scaled, "scaled")
    for name in ("menu.csv", "trace.csv"):
        assert (out / name).read_bytes() == (base / name).read_bytes()
    base, out = run(tmp_path, "bench", BASE, "bench"), run(tmp_path, "bench", scaled, "bench2")
    assert (out / "metrics.csv").read_bytes() == (base / "metrics.csv").read_bytes()
    want, got = rows(base / "asp_utility.csv"), rows(out / "asp_utility.csv")
    assert len(got) == len(want) == 72
    for w, g in zip(want, got):
        assert {**g, "asp_utility": None} == {**w, "asp_utility": None}
        assert float(g["asp_utility"]) == 2.0 * float(w["asp_utility"])
