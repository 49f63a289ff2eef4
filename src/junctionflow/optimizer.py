"""Derivative-free search for minimizing flux limiters.

Both routes run one search (`_search`): coordinate descent from a list of
start points under one evaluation budget. The bang-bang route starts each
switch pattern from uniform switches and line-searches each switch time by
golden section; the relaxed baseline over [A0, 0]^m starts from three
constants and line-searches each cell by its levels or golden section. Cost
evaluations go through a per-run cache keyed by the canonical control, since
the value field is the expensive object.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Tuple, Union

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
        if self.method == "bangbang":
            out["k"] = len(self.control.times) - 2
            out["start_value"] = self.control.values[0]
            out["switch_times"] = list(self.control.times[1:-1])
        return out


class _CostCache:
    """Caches J(A) per canonical control; counts distinct evaluations."""

    def __init__(self, model, u0, spec, mesh, budget):
        if budget < MIN_BUDGET:
            raise OptimizerError(f"budget must be >= {MIN_BUDGET} evaluations")
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

    def along(self, make, x, j):
        """J as a function of coordinate j of x, the others held."""
        return lambda xj: self(make([*x[:j], xj, *x[j + 1:]]))


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


def _search(evalJ, runs, line_min, sweeps: int, method: str) -> OptimizeResult:
    """Coordinate descent from each (x, make) of runs, make mapping x to its
    Control: line_min(x, j, coord) proposes a (coordinate, cost) pair for x[j],
    kept when it beats the cost by more than 1e-14 (1 + |cost|). A run stops
    after `sweeps` sweeps or a sweep that moves nothing; the search stops when
    the budget is spent, and returns the best control found."""
    best = None
    for x, make in runs:
        val = evalJ(make(x))
        for _ in range(sweeps):
            improved = False
            for j in range(len(x)):
                if evalJ.exhausted:
                    break
                xj, vj = line_min(x, j, evalJ.along(make, x, j))
                if vj < val - 1e-14 * (1.0 + abs(val)):
                    x[j] = xj
                    val = vj
                    improved = True
            if not improved or evalJ.exhausted:
                break
        if best is None or val < best[0]:
            best = (val, make(x))
        if evalJ.exhausted:
            break
    val, ctrl = best
    return OptimizeResult(ctrl, float(val), evalJ.evals, tuple(evalJ.history), method,
                          evalJ.exhausted)


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
    evalJ = _CostCache(model, u0, spec, mesh, budget)
    A0 = model.A0
    margin = SWITCH_MARGIN * T

    def golden_in_bracket(s, j, coord):
        lo = (s[j - 1] if j > 0 else 0.0) + margin
        hi = (s[j + 1] if j + 1 < len(s) else T) - margin
        if hi <= lo:
            return s[j], math.inf
        return _golden_min(coord, lo, hi)

    runs = (([T * (i + 1) / (k + 1) for i in range(k)],
             functools.partial(_bangbang_control, T, start, 0.0 if start == A0 else A0))
            for k, start in itertools.product(range(k_max + 1), (A0, 0.0)))
    return _search(evalJ, runs, golden_in_bracket, 3, "bangbang")


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
    evalJ = _CostCache(model, u0, spec, mesh, budget)
    A0 = model.A0

    def level_or_golden(vals, j, coord):
        c_floor = coord(A0)
        c_zero = coord(0.0)
        xb, vb = _golden_min(coord, A0, 0.0, iters=14)
        tie = 1e-9 * (1.0 + abs(vb))
        if c_floor <= vb + tie:
            return A0, c_floor
        if c_zero <= vb + tie:
            return 0.0, c_zero
        return xb, vb

    make = functools.partial(clamp_project, A0=A0, T=T)
    runs = ((np.full(m_cells, level), make) for level in (A0, 0.0, A0 / 2.0))
    return _search(evalJ, runs, level_or_golden, 4, "relaxed")


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
