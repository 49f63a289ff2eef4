"""Small shared helpers: JSON hygiene, the one CSV writer, a sorted
dedupe and an unused order-preserving map."""

from __future__ import annotations

import math

import numpy as np


# No caller: kept only because the benchmark's tracer wraps it by name at install.
def parallel_starmap(fn, arg_tuples):
    """Apply fn over argument tuples, results in input order, in this process."""
    return [fn(*args) for args in arg_tuples]


def sorted_unique(values) -> np.ndarray:
    """np.unique of a float array, bitwise, without the numpy.ma import that
    np.unique triggers on its first call."""
    return np.array(sorted(set(np.ravel(values).tolist())), dtype=float)


def write_csv(path, header, *columns):
    """One row per element of the (raveled, equal-size) columns, every number as %.17g."""
    rows = np.column_stack([np.ravel(c) for c in columns])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def reject_non_finite(obj, path="$"):
    """Raise if a JSON-bound structure contains NaN or infinities."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            reject_non_finite(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            reject_non_finite(v, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"non-finite value at {path}")
