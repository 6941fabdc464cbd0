"""Correctness checks on one workload execution, counted per operation.

An operation is one training, scoring, oracle search or file write.  It fails
if it raised, if its output is missing, or if a check on its output fails:

- training: provider utilities start at 0 and are nondecreasing (criterion
  07), and equal the recorded reference within 1e-9 relative;
- scoring: the ``metrics.csv`` row equals the reference within 1e-9 relative;
- oracle search: ``oracle_objective - bcd_objective <= 1e-2``, one-sided, so
  a solver that beats the grid never reads as a failure; the training call
  of the ``oracle`` workload is checked on ``bcd_objective``;
- file write: the file parses, has every row, is byte-identical to the first
  execution of the same inputs, and on ``bench-grid`` the table keeps the
  criterion-08 ordering.

References are recorded by ``record_references.py`` from the seed code for
every run seed of the recorded instance (base seed 0).  Held-out instances
(another base seed) get the seed-independent checks only: utilities, the
oracle bound and byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

METHODS = ("dro", "sp", "ro")
REL_TOL = 1e-9
ABS_TOL = 1e-12  # floor for values that are zero up to rounding
UTILITY_TOL = 1e-9
ORACLE_GAP = 1e-2
REFERENCES = Path(__file__).resolve().parent / "references"


def load_reference(workload, seed):
    path = REFERENCES / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def read_values(path, label_columns):
    """Rows of a benchmark CSV as (labels..., value); None if unreadable."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return [tuple(r[:label_columns]) + (float(r[label_columns]),) for r in rows]
    except (OSError, ValueError, IndexError):
        return None


def outputs(out_dir, record):
    """The values the checks and references compare, from one execution."""
    out_dir = Path(out_dir) / "out"
    if _is_bench(record):
        metrics = read_values(out_dir / "metrics.csv", 3)
        asp = read_values(out_dir / "asp_utility.csv", 3)
        return {
            "metrics": None if metrics is None else [r[-1] for r in metrics],
            "asp": None if asp is None else [r[-1] for r in asp],
        }
    return {"bcd_objective": _stdout_value(record, "bcd_objective")}


def check_execution(record, out_dir, reference, first_bytes, ordering=True):
    """(attempted, failed, problems) for one workload execution.

    ``ordering=False`` skips the criterion-08 ordering, which is a property
    of the reference instance and is not checked on held-out instances.
    """
    if _is_bench(record):
        return _check_bench(record, Path(out_dir) / "out", reference, first_bytes, ordering)
    return _check_oracle(record, reference, first_bytes)


def _is_bench(record):
    return record.get("workload") != "oracle"


def _check_bench(record, out_dir, reference, first_bytes, ordering):
    ecs = record["expected"]["extreme_counts"]
    shifts = record["expected"]["shifts"]
    groups = [(ec, m) for ec in ecs for m in METHODS]
    cells = [(ec, m, s) for ec, m in groups for s in shifts]
    calls = sorted(record.get("calls", []), key=lambda c: c["start"])
    trains = [c for c in calls if c["name"] == "evaluation.train"]
    scores = [c for c in calls if c["name"] == "evaluation.score"]
    metrics = read_values(out_dir / "metrics.csv", 3)
    asp = read_values(out_dir / "asp_utility.csv", 3)
    problems = []

    for k, (ec, method) in enumerate(groups):
        utils = [
            (i, r[-1]) for i, r in enumerate(asp or []) if r[0] == method and int(r[1]) == ec
        ]
        ok = k < len(trains) and trains[k]["ok"] and bool(utils)
        if ok:
            values = [v for _, v in utils]
            ok = abs(values[0]) <= UTILITY_TOL and all(
                b - a >= -UTILITY_TOL for a, b in zip(values, values[1:])
            )
            if not ok:
                problems.append(f"train {method} ec={ec}: utilities not 0-based nondecreasing")
            elif reference is not None and not all(
                _close(v, reference["asp"][i]) for i, v in utils
            ):
                ok = False
                problems.append(f"train {method} ec={ec}: utilities differ from reference")
        else:
            problems.append(f"train {method} ec={ec}: raised or produced no utilities")

    for k, (ec, method, shift) in enumerate(cells):
        row = metrics[k] if metrics is not None and k < len(metrics) else None
        ok = (
            k < len(scores)
            and scores[k]["ok"]
            and row is not None
            and (row[0], int(row[1]), float(row[2])) == (method, ec, float(shift))
        )
        if not ok:
            problems.append(f"score {method} ec={ec} shift={shift}: raised or row missing")
        elif reference is not None and not _close(row[-1], reference["metrics"][k]):
            problems.append(f"score {method} ec={ec} shift={shift}: differs from reference")

    for name, rows, expected in (
        ("metrics.csv", metrics, len(cells)),
        ("asp_utility.csv", asp, None),
    ):
        data = _read_bytes(out_dir / name)
        if rows is None or data is None or (expected is not None and len(rows) != expected):
            problems.append(f"write {name}: missing or malformed")
        elif first_bytes is not None and data != first_bytes.get(name):
            problems.append(f"write {name}: not byte-identical to the first execution")
        elif ordering and name == "metrics.csv" and record["workload"] == "bench-grid":
            problems.extend(f"write {name}: {p}" for p in criterion_08(rows))

    attempted = len(groups) + len(cells) + 2
    return attempted, len({p.split(":")[0] for p in problems}), problems


def criterion_08(rows):
    """Violations of the acceptance robustness ordering on a metrics table."""
    table = {(r[0], int(r[1]), float(r[2])): r[-1] for r in rows}
    shifts = sorted({s for _, ec, s in table if ec == 0})
    problems = []
    if not all(table[("ro", 0, s)] <= table[("dro", 0, s)] for s in shifts):
        problems.append("criterion 08(a): ro above dro on clean data")
    if not table[("dro", 100, 60.0)] >= table[("sp", 100, 60.0)]:
        problems.append("criterion 08(b): dro below sp at 100 extremes, shift 60")
    d0, s0 = table[("dro", 0, 0.0)], table[("sp", 0, 0.0)]
    if not abs(d0 - s0) / abs(s0) <= 0.05:
        problems.append("criterion 08(c): clean shift-0 dro/sp gap above 5%")
    return problems


def _check_oracle(record, reference, first_bytes):
    problems = []
    calls = record.get("calls", [])
    bcd = _stdout_value(record, "bcd_objective")
    oracle = _stdout_value(record, "oracle_objective")
    train_ok = any(c["name"] == "evaluation.train" and c["ok"] for c in calls) and bcd is not None
    if not train_ok:
        problems.append("train dro: raised or no bcd_objective")
    elif reference is not None and not _close(bcd, reference["bcd_objective"]):
        problems.append("train dro: bcd_objective differs from reference")
    search_ok = any(c["name"] == "evaluation.oracle" and c["ok"] for c in calls)
    if not search_ok or oracle is None or bcd is None:
        problems.append("oracle: raised or no oracle_objective")
    elif not oracle - bcd <= ORACLE_GAP:
        problems.append(f"oracle: oracle_objective - bcd_objective = {oracle - bcd!r} > 1e-2")
    elif first_bytes is not None and record["program_stdout"] != first_bytes.get("stdout"):
        problems.append("oracle: output not identical to the first execution")
    return 2, len({p.split(":")[0] for p in problems}), problems


def output_bytes(record, out_dir):
    """What later executions of the same inputs must reproduce exactly."""
    if _is_bench(record):
        return {n: _read_bytes(Path(out_dir) / "out" / n) for n in ("metrics.csv", "asp_utility.csv")}
    return {"stdout": record.get("program_stdout")}


def _stdout_value(record, key):
    for line in record.get("program_stdout", "").splitlines():
        name, _, value = line.partition(" ")
        if name == key:
            try:
                return float(value)
            except ValueError:
                return None
    return None


def _read_bytes(path):
    try:
        return Path(path).read_bytes()
    except OSError:
        return None


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
