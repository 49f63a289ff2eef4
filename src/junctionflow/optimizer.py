"""Derivative-free search for minimizing flux limiters.

Two routes share one coordinate descent (`_descend`): enumeration of
bang-bang switch patterns, each from uniform switches with a golden section
per switch time, and a relaxed cellwise baseline over [A0, 0]^m. Cost
evaluations go through a per-run cache keyed by the canonical control, since
the value field is the expensive object.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .controls import Control, clamp_project
from .functionals import CostSpec, Problem
from .hj_junction import Mesh

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SWITCH_MARGIN = 1e-6
SNAP_REL = 1e-3
MIN_BUDGET = 50


class OptimizerError(ValueError):
    """Bad optimizer configuration."""


@dataclass(frozen=True)
class BangBangPattern:
    """Switch structure of a two-level control."""

    k: int
    start_value: float
    switch_times: Tuple[float, ...]

    def as_dict(self):
        return dict(k=self.k, start_value=self.start_value, switch_times=list(self.switch_times))


@dataclass(frozen=True)
class PatternRejection:
    """Cells too far from both levels to snap; distances are in control units."""

    distances: Tuple[float, ...]

    def as_dict(self):
        return dict(rejected=True, distances=list(self.distances))


@dataclass
class OptimizeResult:
    control: Control
    cost: float
    evals: int
    history: Tuple[Tuple[int, float], ...]
    method: str
    k: Optional[int] = None
    start_value: Optional[float] = None
    budget_exhausted: bool = False

    def integrals(self):
        """(integral A, integral s A(s) ds) of the found control, exact."""
        times = np.asarray(self.control.times)
        vals = np.asarray(self.control.values)
        int_a = float(np.sum(vals * np.diff(times)))
        int_sa = float(np.sum(vals * 0.5 * (times[1:] ** 2 - times[:-1] ** 2)))
        return int_a, int_sa

    def as_dict(self):
        int_a, int_sa = self.integrals()
        out = dict(
            method=self.method,
            cost=self.cost,
            evals=self.evals,
            times=list(self.control.times),
            values=list(self.control.values),
            budget_exhausted=self.budget_exhausted,
            int_A=int_a,
            int_sA=int_sa,
        )
        if self.k is not None:
            out["k"] = self.k
        if self.start_value is not None:
            out["start_value"] = self.start_value
        if self.method == "bangbang":
            out["switch_times"] = list(self.control.times[1:-1])
        return out


class _CostCache:
    """Caches J(A) per canonical control; counts distinct evaluations."""

    def __init__(self, model, u0, spec, mesh, budget):
        self.problem = Problem(model, u0, spec, mesh)
        self.budget = budget
        self.cache = {}
        self.evals = 0
        self.history = []
        self.best = math.inf
        self.exhausted = False

    def __call__(self, A: Control) -> float:
        key = (A.times, A.values)
        if key in self.cache:
            return self.cache[key]
        if self.evals >= self.budget:
            self.exhausted = True
            return math.inf
        val = self.problem.cost(A)
        self.evals += 1
        self.cache[key] = val
        if val < self.best:
            self.best = val
        self.history.append((self.evals, self.best))
        return val


def _bangbang_control(T: float, start_value: float, other: float, switches) -> Control:
    times = (0.0,) + tuple(switches) + (T,)
    values = tuple(start_value if i % 2 == 0 else other for i in range(len(switches) + 1))
    return Control(times, values)


def _golden_min(fun, lo: float, hi: float, iters: int = 20):
    """Golden-section minimization; returns the best probed point and value."""
    pts = {}

    def f(x):
        if x not in pts:
            pts[x] = fun(x)
        return pts[x]

    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
    f(lo)
    f(hi)
    best = min(pts, key=lambda x: (pts[x], x))
    return best, pts[best]


def _descend(evalJ, x, val, line_min, sweeps):
    """Coordinate descent from x with cost val: line_min(x, j) proposes a
    (coordinate, cost) pair for x[j], kept when it beats val by more than
    1e-14 (1 + |val|). Stops after `sweeps` sweeps, after a sweep that moves
    nothing, or when the budget is spent; returns the final x and cost."""
    for _ in range(sweeps):
        improved = False
        for j in range(len(x)):
            if evalJ.exhausted:
                break
            xj, vj = line_min(x, j)
            if vj < val - 1e-14 * (1.0 + abs(val)):
                x[j] = xj
                val = vj
                improved = True
        if not improved or evalJ.exhausted:
            break
    return x, val


def optimize_bangbang(model, u0, spec: CostSpec, T: float, k_max: int, budget: int,
                      mesh: Mesh) -> OptimizeResult:
    """Best two-level control over switch counts k = 0..k_max and both start
    values.

    Each pattern starts from the k uniform switches T (i + 1) / (k + 1) and
    runs coordinate descent with a golden section per switch time, inside the
    bracket of its neighbours less a small margin, so the times stay ordered.
    """
    if k_max < 1:
        raise OptimizerError("k_max must be >= 1")
    if budget < MIN_BUDGET:
        raise OptimizerError(f"budget must be >= {MIN_BUDGET} evaluations")
    evalJ = _CostCache(model, u0, spec, mesh, budget)
    A0 = model.A0
    margin = SWITCH_MARGIN * T

    best = None
    for k, start in itertools.product(range(k_max + 1), (A0, 0.0)):
        other = 0.0 if start == A0 else A0

        def golden_in_bracket(s, j):
            lo = (s[j - 1] if j > 0 else 0.0) + margin
            hi = (s[j + 1] if j + 1 < len(s) else T) - margin
            if hi <= lo:
                return s[j], math.inf

            def coord(x):
                trial = list(s)
                trial[j] = x
                return evalJ(_bangbang_control(T, start, other, trial))

            return _golden_min(coord, lo, hi)

        s = [T * (i + 1) / (k + 1) for i in range(k)]
        s, val = _descend(evalJ, s, evalJ(_bangbang_control(T, start, other, s)),
                          golden_in_bracket, sweeps=3)
        if best is None or val < best[0]:
            best = (val, _bangbang_control(T, start, other, s))
        if evalJ.exhausted:
            break
    val, ctrl = best
    return OptimizeResult(
        control=ctrl,
        cost=float(val),
        evals=evalJ.evals,
        history=tuple(evalJ.history),
        method="bangbang",
        k=len(ctrl.times) - 2,
        start_value=float(ctrl.values[0]),
        budget_exhausted=evalJ.exhausted,
    )


def optimize_relaxed(model, u0, spec: CostSpec, T: float, m_cells: int, budget: int,
                     mesh: Mesh) -> OptimizeResult:
    """Projected cellwise coordinate descent over [A0, 0]^m.

    Each coordinate step probes both levels first and keeps a level when it
    is within a tie of the interior golden-section minimum (the least
    restrictive level wins ties), which keeps flat coordinates at a level
    instead of parking them mid-interval.
    """
    if m_cells < 1:
        raise OptimizerError("m_cells must be >= 1")
    if budget < MIN_BUDGET:
        raise OptimizerError(f"budget must be >= {MIN_BUDGET} evaluations")
    evalJ = _CostCache(model, u0, spec, mesh, budget)
    A0 = model.A0

    def make(vals):
        return clamp_project(vals, A0, T)

    def level_or_golden(vals, j):
        def coord(x):
            trial = vals.copy()
            trial[j] = x
            return evalJ(make(trial))

        c_floor = coord(A0)
        c_zero = coord(0.0)
        xb, vb = _golden_min(coord, A0, 0.0, iters=14)
        tie = 1e-9 * (1.0 + abs(vb))
        if c_floor <= vb + tie:
            return A0, c_floor
        if c_zero <= vb + tie:
            return 0.0, c_zero
        return xb, vb

    best = None
    for start_vec in (np.full(m_cells, A0), np.zeros(m_cells), np.full(m_cells, A0 / 2.0)):
        vals, val = _descend(evalJ, start_vec, evalJ(make(start_vec)), level_or_golden, sweeps=4)
        if best is None or val < best[0]:
            best = (val, make(vals))
        if evalJ.exhausted:
            break
    val, ctrl = best
    return OptimizeResult(
        control=ctrl,
        cost=float(val),
        evals=evalJ.evals,
        history=tuple(evalJ.history),
        method="relaxed",
        budget_exhausted=evalJ.exhausted,
    )


def pattern_extract(result: OptimizeResult, A0: float) -> Union[BangBangPattern, PatternRejection]:
    """Snap a result to a two-level pattern, or reject with per-cell distances."""
    vals = np.asarray(result.control.values, dtype=float)
    dist = np.minimum(np.abs(vals), np.abs(vals - A0))
    if np.any(dist > SNAP_REL * abs(A0)):
        return PatternRejection(tuple(float(d) for d in dist))
    snapped = np.where(np.abs(vals) <= np.abs(vals - A0), 0.0, A0)
    ctrl = Control(result.control.times, tuple(snapped))
    return BangBangPattern(
        k=len(ctrl.values) - 1,
        start_value=float(ctrl.values[0]),
        switch_times=tuple(ctrl.times[1:-1]),
    )
