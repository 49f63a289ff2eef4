"""Small shared helpers: JSON hygiene and an unused order-preserving map."""

from __future__ import annotations

import math


# No caller: kept only because the benchmark's tracer wraps it by name at install.
def parallel_starmap(fn, arg_tuples):
    """Apply fn over argument tuples, results in input order, in this process."""
    return [fn(*args) for args in arg_tuples]


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
