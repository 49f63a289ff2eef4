"""Derivative-free search for minimizing flux limiters.

Two routes: enumeration of bang-bang switch patterns (golden-section per
switch time under coordinate descent, deterministic multi-start), and a
relaxed cellwise baseline over [A0, 0]^m. Cost evaluations go through a
per-run cache keyed by the canonical control, since the value field is the
expensive object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .controls import Control, clamp_project, integrate
from .functionals import BoxWeight, CostSpec, cost
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
        self.model = model
        self.u0 = u0
        self.spec = spec
        self.mesh = mesh
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
        val = cost(self.model, self.u0, self.spec, A, self.mesh)
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


def _seed_switches(k: int, T: float, box_times):
    """Five deterministic seedings: uniform, early, late, box-aligned, box-mid."""
    seeds = [
        [T * (i + 1) / (k + 1) for i in range(k)],
        [T * (i + 1) / (2 * k + 2) for i in range(k)],
        [T - T * (k - i) / (2 * k + 2) for i in range(k)],
    ]
    if box_times:
        aligned = sorted(box_times)[:k]
        while len(aligned) < k:
            aligned.append(aligned[-1] + (T - aligned[-1]) / 2.0)
        seeds.append(sorted(aligned))
        mids = [0.5 * (a + b) for a, b in zip(seeds[0], seeds[3])]
        seeds.append(sorted(mids))
    out = []
    margin = SWITCH_MARGIN * T
    for s in seeds:
        s = list(np.clip(np.sort(np.asarray(s, dtype=float)), margin, T - margin))
        for i in range(1, len(s)):
            s[i] = max(s[i], s[i - 1] + margin)
        if s[-1] <= T - margin / 2 and tuple(s) not in {tuple(x) for x in out}:
            out.append(s)
    return out


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


def optimize_bangbang(model, u0, spec: CostSpec, T: float, k_max: int, budget: int,
                      mesh: Mesh) -> OptimizeResult:
    """Best two-level control over switch counts k = 0..k_max.

    Coordinate descent with golden-section per switch time, keeping the
    times ordered with a small margin; deterministic multi-start from
    uniform / early / late / box-aligned seedings.
    """
    if k_max < 1:
        raise OptimizerError("k_max must be >= 1")
    if budget < MIN_BUDGET:
        raise OptimizerError(f"budget must be >= {MIN_BUDGET} evaluations")
    evalJ = _CostCache(model, u0, spec, mesh, budget)
    A0 = model.A0
    box_times = []
    if isinstance(spec.weight, BoxWeight):
        w = spec.weight
        box_times = [t for t in (w.t2, w.t3, w.t1, w.t4) if 0 < t < T]

    best = None
    for k in range(0, k_max + 1):
        for start in (A0, 0.0):
            other = 0.0 if start == A0 else A0
            if k == 0:
                ctrl = Control((0.0, T), (start,))
                cand = (evalJ(ctrl), ctrl, k, start)
                if best is None or cand[0] < best[0]:
                    best = cand
                continue
            for seed in _seed_switches(k, T, box_times):
                s = list(seed)
                ctrl = _bangbang_control(T, start, other, s)
                val = evalJ(ctrl)
                for _ in range(3):  # coordinate-descent sweeps
                    improved = False
                    for j in range(k):
                        if evalJ.exhausted:
                            break
                        lo = (s[j - 1] if j > 0 else 0.0) + SWITCH_MARGIN * T
                        hi = (s[j + 1] if j + 1 < k else T) - SWITCH_MARGIN * T
                        if hi <= lo:
                            continue

                        def coord(x, j=j):
                            trial = list(s)
                            trial[j] = x
                            return evalJ(_bangbang_control(T, start, other, trial))

                        xb, vb = _golden_min(coord, lo, hi)
                        if vb < val - 1e-14 * (1.0 + abs(val)):
                            s[j] = xb
                            val = vb
                            improved = True
                    if not improved or evalJ.exhausted:
                        break
                if val < (best[0] if best else math.inf):
                    best = (val, _bangbang_control(T, start, other, s), k, start)
            if evalJ.exhausted:
                break
        if evalJ.exhausted:
            break
    val, ctrl, k, start = best
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

    best = None
    for start_vec in (np.full(m_cells, A0), np.zeros(m_cells), np.full(m_cells, A0 / 2.0)):
        vals = np.asarray(start_vec, dtype=float).copy()
        val = evalJ(make(vals))
        for _ in range(4):
            improved = False
            for j in range(m_cells):
                if evalJ.exhausted:
                    break

                def coord(x, j=j):
                    trial = vals.copy()
                    trial[j] = x
                    return evalJ(make(trial))

                c_floor = coord(A0)
                c_zero = coord(0.0)
                xb, vb = _golden_min(coord, A0, 0.0, iters=14)
                tie = 1e-9 * (1.0 + abs(vb))
                if c_floor <= vb + tie:
                    xb, vb = A0, c_floor
                elif c_zero <= vb + tie:
                    xb, vb = 0.0, c_zero
                if vb < val - 1e-14 * (1.0 + abs(val)):
                    vals[j] = xb
                    val = vb
                    improved = True
            if not improved or evalJ.exhausted:
                break
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
