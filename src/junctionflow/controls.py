"""Piecewise-constant flux limiters A: [0, T] -> [A0, 0] and exact integrals."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

MERGE_TOL = 1e-12
RANGE_TOL = 1e-12


class ControlError(ValueError):
    """Malformed control (times not increasing, values missing, range abuse)."""


@dataclass(frozen=True)
class Control:
    """Right-continuous step function on [0, T].

    times has k+1 entries 0 = tau_0 < ... < tau_k = T; values has k entries,
    values[i] holding on [tau_i, tau_{i+1}). Adjacent equal cells are merged
    at construction so every control has one canonical representation.
    """

    times: Tuple[float, ...]
    values: Tuple[float, ...]
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or len(times) != len(values) + 1:
            raise ControlError("need len(times) == len(values) + 1")
        if len(values) < 1:
            raise ControlError("control needs at least one cell")
        if times[0] != 0.0:
            raise ControlError(f"times must start at 0, got {times[0]}")
        if np.any(np.diff(times) <= 0):
            raise ControlError("times must be strictly increasing")
        if np.any(~np.isfinite(values)):
            raise ControlError("control values must be finite")
        # canonicalize: merge adjacent cells with equal values
        keep = np.concatenate([[True], np.abs(np.diff(values)) > MERGE_TOL])
        values = values[keep]
        times = np.concatenate([times[:-1][keep], times[-1:]])
        object.__setattr__(self, "times", tuple(times.tolist()))
        object.__setattr__(self, "values", tuple(values.tolist()))
        cum = np.concatenate([[0.0], np.cumsum(values * np.diff(times))])
        object.__setattr__(self, "_cum", cum)

    @property
    def horizon(self) -> float:
        return self.times[-1]

    def __call__(self, t):
        """A(t); right-continuous, with A(T) = last value."""
        t = np.asarray(t, dtype=float)
        idx = np.clip(
            np.searchsorted(self.times, t, side="right") - 1, 0, len(self.values) - 1
        )
        out = np.asarray(self.values, dtype=float)[idx]
        return float(out) if out.ndim == 0 else out

    def cumulative(self, t):
        """I(t) = integral of A over [0, t], exact and piecewise linear."""
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.times, self._cum)
        return float(out) if out.ndim == 0 else out

    def is_bangbang(self, A0: float, tol: float = 1e-12) -> bool:
        v = np.asarray(self.values)
        return bool(np.all((np.abs(v) <= tol) | (np.abs(v - A0) <= tol)))

    def restricted_values_ok(self, A0: float, tol: float = RANGE_TOL) -> bool:
        v = np.asarray(self.values)
        return bool(np.all(v >= A0 - tol) and np.all(v <= tol))

    def shifted(self, s: float) -> "Control":
        """The control t -> A(s + t) on [0, T - s]."""
        T = self.horizon
        if not 0.0 <= s < T:
            raise ControlError(f"shift {s} outside [0, {T})")
        times = [0.0]
        values = []
        for i, v in enumerate(self.values):
            hi = self.times[i + 1]
            if hi <= s:
                continue
            values.append(v)
            times.append(hi - s)
        return Control(tuple(times), tuple(values))

    def ident(self) -> str:
        return f"A(times={self.times!r},values={self.values!r})"


def integrate(A: Control, a: float, b: float) -> float:
    """Exact integral of A over [a, b] inside [0, T]."""
    T = A.horizon
    if a < -RANGE_TOL or b > T + RANGE_TOL or a > b + RANGE_TOL:
        raise ControlError(f"[{a}, {b}] not inside [0, {T}]")
    a = min(max(a, 0.0), T)
    b = min(max(b, 0.0), T)
    return float(A.cumulative(b) - A.cumulative(a))


def weak_star_square_wave(n: int, T: float, A0: float) -> Control:
    """2n equal cells alternating 0, A0; converges weak-* to the constant A0/2."""
    if n < 1:
        raise ControlError("n must be >= 1")
    times = tuple(np.linspace(0.0, T, 2 * n + 1))
    values = tuple(0.0 if i % 2 == 0 else A0 for i in range(2 * n))
    return Control(times, values)


def clamp_project(values: Sequence[float], A0: float, T: float = 1.0) -> Control:
    """Uniform-cell control with each value clipped into [A0, 0]."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) == 0 or np.any(~np.isfinite(values)):
        raise ControlError("values must be a non-empty finite 1-d array")
    clipped = np.clip(values, A0, 0.0)
    times = tuple(np.linspace(0.0, T, len(values) + 1))
    return Control(times, tuple(clipped))
