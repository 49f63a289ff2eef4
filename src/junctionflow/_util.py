"""Small shared helpers: the one CSV writer, a sorted dedupe and an
order-preserving map that only the benchmark's tracer names."""

from __future__ import annotations

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

