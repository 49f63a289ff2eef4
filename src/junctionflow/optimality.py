"""First-order optimality audit for the box-flux control problem.

The directional-derivative conditions are checked through the dwell
indicator of selected optimal trajectories: with

  D(s) = integral over {t > s} of phi(x, t) 1{selected path dwells at s}

a minimizer must satisfy D_plus(s) <= f'(A(s)) wherever the limiter can be
raised (A < 0) and D_minus(s) >= f'(A(s)) wherever it can be lowered
(A > A0), with D_plus / D_minus computed from the most- / least-at-zero
selections. Past the left end of the last connected component of
{u^A(0,.) < u^free(0,.)} the two selections coincide and the inequality
tightens to the sign trichotomy in A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .controls import Control
from .functionals import BoxWeight, CostSpec, _trapezoid_weights
from .hj_junction import (
    LEAST_AT_ZERO,
    MOST_AT_ZERO,
    Mesh,
    SolverError,
    junction_values,
    optimal_trajectory,
    trajectory_field,
    value_grid,
)


@dataclass(frozen=True)
class ComponentReport:
    """Connected components of {u^A(0,.) < u^free(0,.)} and box-time markers."""

    components: Tuple[Tuple[float, float], ...]
    theta: float
    tau_hat: Tuple[Optional[float], ...] = ()
    tau: Optional[float] = None
    s_bar_minus: Optional[float] = None

    @property
    def last_component(self) -> Optional[Tuple[float, float]]:
        return self.components[-1] if self.components else None

    def as_dict(self):
        return dict(
            intervals=[list(c) for c in self.components],
            theta=self.theta,
            tau=self.tau,
            tau_hat=[t for t in self.tau_hat],
            s_bar_minus=self.s_bar_minus,
        )


@dataclass(frozen=True)
class OptimalityAudit:
    """Per-sample verdicts of the first-order conditions."""

    samples: Tuple[dict, ...]
    violations: int
    tolerances: dict

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def as_dict(self):
        return dict(
            samples=list(self.samples),
            violations=self.violations,
            tolerances=dict(self.tolerances),
        )


def _phi_and_weights(spec: CostSpec, mesh: Mesh):
    phi_vals = spec.weight.phi_grid(mesh)
    wx = _trapezoid_weights(mesh.xs)
    wt = _trapezoid_weights(mesh.ts)
    return phi_vals, wx, wt


def _indicator_integral(phi_vals, wx, wt, ts, tfield, s):
    ind = (
        tfield["is_dwell"]
        & (np.nan_to_num(tfield["a"], nan=np.inf) <= s)
        & (s <= np.nan_to_num(tfield["b"], nan=-np.inf))
        & (ts[None, :] > s)
    )
    return float(np.einsum("i,j,ij->", wx, wt, phi_vals * ind))


def dwell_measure(model, u0, A, spec: CostSpec, s: float, select: str, mesh: Mesh,
                  _tfield=None) -> float:
    """Weighted measure of mesh points past s whose selected path dwells at s."""
    phi_vals, wx, wt = _phi_and_weights(spec, mesh)
    tf = _tfield if _tfield is not None else trajectory_field(model, u0, A, mesh, select)
    return _indicator_integral(phi_vals, wx, wt, mesh.ts, tf, float(s))


def default_s_samples(T: float, A: Control, n: int = 128, nudge: float = 1e-9):
    """Midpoints of a uniform partition of (0, T), nudged off control breakpoints."""
    s = (np.arange(n) + 0.5) * T / n
    for tau in A.times:
        hit = np.abs(s - tau) < nudge
        s[hit] += nudge
    return s


def component_report(model, u0, A, mesh: Mesh, theta: Optional[float] = None,
                     spec: Optional[CostSpec] = None, _tfield_minus=None) -> ComponentReport:
    """Thresholded components of the junction-value gap and box-time markers.

    tau is the largest dwell time of least-at-zero trajectories from grid
    points in the positive-weight box (clipped to its time window); the
    s_bar_minus marker is the first dwell time of the most-at-zero path to
    the last component's right endpoint.
    """
    T = A.horizon
    inner = [s for s in A.times if 0.0 < s < T]
    ts = np.unique(np.concatenate([np.linspace(0.0, T, 513)[1:], inner])) if inner else \
        np.linspace(0.0, T, 513)[1:]
    u_bar = junction_values(model, u0, A, ts)
    free = Control((0.0, T), (model.A0,))
    u_free = junction_values(model, u0, free, ts)
    if theta is None:
        theta = 1e-6 * (1.0 + float(np.abs(u_free).max(initial=0.0)))
    gap = u_free - u_bar
    below = gap > theta
    components = []
    i = 0
    while i < len(ts):
        if below[i]:
            j = i
            while j + 1 < len(ts) and below[j + 1]:
                j += 1
            lo = _cross(ts, gap, theta, i, -1)
            hi = _cross(ts, gap, theta, j, +1)
            components.append((lo, hi))
            i = j + 1
        else:
            i += 1

    tau_hat = []
    for (a, b) in components:
        # downward switches of the control inside the component
        hit = [s for s in A.times[1:-1] if a < s < b and A(s + 1e-12) < A(s - 1e-12)]
        tau_hat.append(hit[-1] if hit else None)

    tau = None
    s_bar_minus = None
    if spec is not None and isinstance(spec.weight, BoxWeight):
        box = spec.weight
        sub_x = mesh.xs[(mesh.xs > box.x1) & (mesh.xs < box.x2)]
        sub_t = mesh.ts[(mesh.ts > box.t1) & (mesh.ts < box.t2)]
        tau = 0.0
        if len(sub_x) and len(sub_t):
            sub = Mesh(sub_x, sub_t)
            tf = _tfield_minus if _tfield_minus is not None else trajectory_field(
                model, u0, A, sub, LEAST_AT_ZERO
            )
            f_free = value_grid(model, u0, free, sub)
            q = tf["is_dwell"] & (tf["value"] < f_free.u - theta)
            if np.any(q):
                cand = np.clip(tf["b"][q], None, box.t2)
                best = float(np.max(cand))
                tau = best if best >= box.t1 else 0.0
        if components:
            # probe just inside the component so the edge tie does not degenerate
            a_bar, b_bar = components[-1]
            inside = ts[(ts > a_bar) & (ts < b_bar) & (gap > 3.0 * theta)]
            probe = float(inside[-1]) if len(inside) else 0.5 * (a_bar + b_bar)
            d = optimal_trajectory(model, u0, A, 0.0, min(probe, A.horizon), MOST_AT_ZERO)
            if d.dwells:
                s_bar_minus = d.a
    return ComponentReport(tuple(components), float(theta), tuple(tau_hat), tau, s_bar_minus)


def _cross(ts, gap, theta, i, direction):
    """Linear interpolation of the gap = theta crossing next to index i."""
    j = i + direction
    if j < 0 or j >= len(ts):
        return float(ts[i])
    g0, g1 = gap[i], gap[j]
    if (g0 - theta) * (g1 - theta) > 0:
        return float(ts[i])
    if g0 == g1:
        return float(ts[i])
    w = (g0 - theta) / (g0 - g1)
    return float(ts[i] + w * (ts[j] - ts[i]))


def check_optimality(model, u0, A, spec: CostSpec, mesh: Mesh, s_samples=None,
                     tol_opt: Optional[float] = None) -> OptimalityAudit:
    """Audit the directional-derivative conditions at the given times.

    tol_opt defaults to five times an internal quadrature-error estimate of
    the indicator integrals (mesh-coarsening difference). The audit always
    returns; violations are counted, not raised.
    """
    T = A.horizon
    if s_samples is None:
        s_samples = default_s_samples(T, A)
    s_samples = np.asarray(s_samples, dtype=float)
    phi_vals, wx, wt = _phi_and_weights(spec, mesh)
    tf_plus = trajectory_field(model, u0, A, mesh, MOST_AT_ZERO)
    tf_minus = trajectory_field(model, u0, A, mesh, LEAST_AT_ZERO)

    h_plus = np.array([_indicator_integral(phi_vals, wx, wt, mesh.ts, tf_plus, s) for s in s_samples])
    h_minus = np.array([_indicator_integral(phi_vals, wx, wt, mesh.ts, tf_minus, s) for s in s_samples])

    if tol_opt is None:
        est = _quadrature_error_estimate(phi_vals, mesh, tf_plus, s_samples)
        tol_opt = 5.0 * max(est, 1e-12)

    report = component_report(model, u0, A, mesh, spec=spec)
    a_bar = report.last_component[0] if report.last_component else None

    tol_a = 1e-9 * (1.0 + abs(model.A0))
    samples = []
    violations = 0
    a_vals = A(s_samples)
    for i, s in enumerate(s_samples):
        a_s = float(a_vals[i])
        fp = spec.fprime(a_s)
        checks = []
        if a_s < -tol_a:
            checks.append(("raiseable", h_plus[i] - fp <= tol_opt))
        if a_s > model.A0 + tol_a:
            checks.append(("lowerable", h_minus[i] - fp >= -tol_opt))
        if a_bar is not None and s > a_bar:
            if model.A0 + tol_a < a_s < -tol_a:
                checks.append(("last_component_equality", abs(h_plus[i] - fp) <= tol_opt))
            elif a_s >= -tol_a:
                checks.append(("last_component_at_zero", h_plus[i] - fp >= -tol_opt))
            else:
                checks.append(("last_component_at_floor", h_plus[i] - fp <= tol_opt))
        bad = [name for name, ok in checks if not ok]
        if bad:
            violations += 1
        samples.append(
            dict(
                s=float(s),
                H_plus=float(h_plus[i]),
                H_minus=float(h_minus[i]),
                A=a_s,
                verdict="ok" if not bad else "violated:" + ",".join(bad),
            )
        )
    tolerances = dict(tol_opt=float(tol_opt), tol_a=float(tol_a), theta=report.theta)
    return OptimalityAudit(tuple(samples), violations, tolerances)


def _quadrature_error_estimate(phi_vals, mesh: Mesh, tfield, s_samples):
    """Mesh-coarsening difference of the indicator integrals, maxed over s."""
    if len(mesh.xs) < 5 or len(mesh.ts) < 5:
        return 0.0
    wx = _trapezoid_weights(mesh.xs)
    wt = _trapezoid_weights(mesh.ts)
    cx = _trapezoid_weights(mesh.xs[::2])
    ct = _trapezoid_weights(mesh.ts[::2])
    coarse_t = mesh.ts[::2]
    sub = {k: (v[::2, ::2] if hasattr(v, "ndim") and v.ndim == 2 else v) for k, v in tfield.items()}
    worst = 0.0
    for s in s_samples[:: max(1, len(s_samples) // 16)]:
        full = _indicator_integral(phi_vals, wx, wt, mesh.ts, tfield, float(s))
        coarse = _indicator_integral(phi_vals[::2, ::2], cx, ct, coarse_t, sub, float(s))
        worst = max(worst, abs(full - coarse))
    return worst
