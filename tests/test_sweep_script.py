import csv
import importlib.util
from dataclasses import replace
from pathlib import Path

from drcontract.config import RunConfig

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sweep_hyperparams.py"


def load_sweep_script():
    spec = importlib.util.spec_from_file_location("sweep_hyperparams", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_one_setting_writes_both_csvs(tmp_path):
    sweep = load_sweep_script()
    base = RunConfig(seed=0)
    sweep.run_sweep("n_train", (10,), lambda v: replace(base, n_train=v), tmp_path)

    metrics = read_rows(tmp_path / "sweep_n_train_metrics.csv")
    assert metrics[0] == ["n_train", "shift", "mean_teleop_utility"]
    assert len(metrics) == 1 + len(base.shift_magnitudes)
    assert [row[1] for row in metrics[1:]] == [repr(m) for m in base.shift_magnitudes]

    asp = read_rows(tmp_path / "sweep_n_train_asp.csv")
    assert asp[0] == ["n_train", "type_index", "asp_utility"]
    assert len(asp) == 1 + base.n_types
    assert [row[1] for row in asp[1:]] == [str(i) for i in range(1, base.n_types + 1)]
    assert all(row[0] == "10" for row in metrics[1:] + asp[1:])
