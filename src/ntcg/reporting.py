"""CSV and JSON reporting for solver runs.

The CSV column schema is fixed and versioned; convergence plots key the
objective on cumulative oracle calls (props).  Floats are written with
Python's shortest round-trip repr, so identical runs produce byte-identical
files.
"""

import csv
import json
from operator import attrgetter

import numpy as np

CSV_SCHEMA_VERSION = 1

# One entry per CSV column, in order: (column, IterationRecord attribute,
# parser of the written text).  Empty cells stand for None both ways.
_COLUMNS = (
    ("iter", "k", int),
    ("f", "f_value", float),
    ("grad_est_norm", "grad_est_norm", float),
    ("grad_true_norm", "grad_true_norm", float),
    ("d_type", "d_type", str),
    ("step_class", "step_class", str),
    ("alpha", "alpha", float),
    ("ls_trials", "ls_trials", int),
    ("cg_iters", "cg_iters", int),
    ("meo_iters", "meo_iters", int),
    ("f_calls", "f_calls", int),
    ("grad_calls", "grad_calls", int),
    ("hv_calls", "hv_calls", int),
    ("props", "props", int),
)
CSV_COLUMNS = [column for column, _, _ in _COLUMNS]
_ROW = attrgetter(*(attr for _, attr, _ in _COLUMNS))
_PARSERS = {column: parse for column, _, parse in _COLUMNS}


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_run_csv(path, report):
    """One row per IterationRecord, schema above, '\\n' line endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in report.records:
            writer.writerow([_fmt(value) for value in _ROW(r)])


def read_run_csv(path):
    """Read a run CSV back into a list of dicts keyed by column."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            {key: None if val == "" else _PARSERS[key](val)
             for key, val in row.items()}
            for row in csv.DictReader(fh)
        ]


def trajectory(records):
    """(props, f) arrays from record dicts or IterationRecords."""
    if not records:
        return np.zeros(0), np.zeros(0)
    if isinstance(records[0], dict):
        props = np.array([r["props"] for r in records], dtype=float)
        f = np.array([r["f"] for r in records], dtype=float)
    else:
        props = np.array([r.props for r in records], dtype=float)
        f = np.array([r.f_value for r in records], dtype=float)
    return props, f


def _step_interp(grid, props, f):
    """Objective as a right-continuous step function of cumulative props,
    sampled on `grid`; before the first record the initial f is used,
    after the last the final f persists."""
    out = np.empty_like(grid, dtype=float)
    j = np.searchsorted(props, grid, side="right") - 1
    j = np.clip(j, 0, len(props) - 1)
    out[:] = f[j]
    return out


def aggregate_runs(run_records, n_bins=200):
    """Mean trajectory and 1-standard-deviation band over repeats.

    run_records : list of record lists (one per repeat).
    The objective of each run is binned on a common props grid spanning
    the largest cumulative count among repeats; runs that end earlier are
    extended with their final value.  std is the population standard
    deviation across repeats (zero for a single repeat).
    """
    curves = [trajectory(rr) for rr in run_records]
    if not curves or any(len(p) == 0 for p, _ in curves):
        raise ValueError("aggregate_runs needs nonempty runs")
    top = max(float(p[-1]) for p, _ in curves)
    grid = np.linspace(0.0, top, n_bins)
    sampled = np.vstack([_step_interp(grid, p, f) for p, f in curves])
    return {
        "schema_version": CSV_SCHEMA_VERSION,
        "bins": grid.tolist(),
        "mean": sampled.mean(axis=0).tolist(),
        "std": sampled.std(axis=0).tolist(),
        "repeats": len(curves),
    }


def write_aggregate_json(path, aggregate, extra=None):
    payload = dict(aggregate)
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
