"""First-order optimality audit for the box-flux control problem.

The directional-derivative conditions are checked through the dwell
indicator of selected optimal trajectories: with

  D(s) = integral over {t > s} of phi(x, t) 1{selected path dwells at s}

a minimizer must satisfy D_plus(s) <= f'(A(s)) wherever the limiter can be
raised (A < 0) and D_minus(s) >= f'(A(s)) wherever it can be lowered
(A > A0), with D_plus / D_minus computed from the most- / least-at-zero
selections. Past the left end of the last connected component of
{u^A(0,.) < u^free(0,.)} the two selections coincide and the inequality
tightens to the sign trichotomy in A. check_optimality draws each
selection once, as a trajectory field on the mesh, and builds the
weight's rule (functionals.Rule, the quadrature of J) once; _dwell_measures
reads D at every sample time in the rule's one sum over a node-by-sample
mask of the fields' support nodes. D is the exact one-sided derivative of
the discrete J the optimizer minimizes, so tol_opt is that sum's rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._util import sorted_unique
from .controls import Control
from .functionals import BoxWeight, CostSpec, Rule
from .hj_junction import (
    LEAST_AT_ZERO,
    MOST_AT_ZERO,
    Mesh,
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
    """Per-sample verdicts of the first-order conditions, and the component
    report they were checked against (not part of as_dict)."""

    samples: Tuple[dict, ...]
    violations: int
    tolerances: dict
    components: ComponentReport

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def as_dict(self):
        return dict(
            samples=list(self.samples),
            violations=self.violations,
            tolerances=dict(self.tolerances),
        )


def _dwell_measures(rule: Rule, tfield, s):
    """D(s) at every time in s: the rule's sum of phi over the nodes past s
    whose selected path dwells at s, read from the full-mesh trajectory
    field. a and b are NaN on straight paths, so the mask is False there.
    On an empty support D is 0."""
    s = np.asarray(s, dtype=float)
    on = np.ix_(rule.rows, rule.cols)
    # built in place, so at most one node-by-sample temporary lives beside it
    mask = tfield["a"][on][..., None] <= s
    mask &= s <= tfield["b"][on][..., None]
    if rule.mesh is not None:
        mask &= rule.mesh.ts[:, None] > s
    return rule.sum(mask)


def default_s_samples(T: float, A: Control, n: int = 128):
    """Midpoints of a uniform partition of (0, T), nudged 1e-9 off control breakpoints."""
    s = (np.arange(n) + 0.5) * T / n
    for tau in A.times:
        s[np.abs(s - tau) < 1e-9] += 1e-9
    return s


def component_report(model, u0, A, mesh: Mesh, spec: Optional[CostSpec] = None,
                     _tfield_minus=None) -> ComponentReport:
    """Thresholded components of the junction-value gap and box-time markers.

    The gap threshold is theta = 1e-6 (1 + max |u^free(0, .)|).
    tau is the largest dwell time of least-at-zero trajectories from grid
    points in the positive-weight box (clipped to its time window); the
    s_bar_minus marker is the first dwell time of the most-at-zero path to
    the last component's right endpoint. _tfield_minus, when given, is the
    least-at-zero trajectory field on mesh; its box nodes are read from it.
    """
    T = A.horizon
    inner = [s for s in A.times if 0.0 < s < T]
    ts = sorted_unique(np.concatenate([np.linspace(0.0, T, 513)[1:], inner]))
    u_bar = junction_values(model, u0, A, ts)
    free = Control((0.0, T), (model.A0,))
    u_free = junction_values(model, u0, free, ts)
    theta = 1e-6 * (1.0 + float(np.abs(u_free).max(initial=0.0)))
    gap = u_free - u_bar
    components = _components(ts, gap, theta)

    tau_hat = []
    for (a, b) in components:
        # downward switches of the control inside the component
        hit = [s for s, before, after in zip(A.times[1:-1], A.values, A.values[1:])
               if a < s < b and after < before]
        tau_hat.append(hit[-1] if hit else None)

    tau = None
    s_bar_minus = None
    if spec is not None and isinstance(spec.weight, BoxWeight):
        box = spec.weight
        in_x = (mesh.xs > box.x1) & (mesh.xs < box.x2)
        in_t = (mesh.ts > box.t1) & (mesh.ts < box.t2)
        tau = 0.0
        if in_x.any() and in_t.any():
            sub = Mesh(mesh.xs[in_x], mesh.ts[in_t])
            if _tfield_minus is None:
                tf = trajectory_field(model, u0, A, sub, LEAST_AT_ZERO)
            else:
                tf = {k: v[np.ix_(in_x, in_t)] for k, v in _tfield_minus.items()}
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


def _components(ts, gap, theta):
    """The runs of gap > theta, each end at its interpolated theta crossing."""
    edge = np.diff((gap > theta).astype(int), prepend=0, append=0)  # +1 run start, -1 past its end
    return [(_cross(ts, gap, theta, i, -1), _cross(ts, gap, theta, j - 1, +1))
            for i, j in zip(np.flatnonzero(edge == 1), np.flatnonzero(edge == -1))]


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


def check_optimality(model, u0, A, spec: CostSpec, mesh: Mesh, s_samples=None) -> OptimalityAudit:
    """Audit the directional-derivative conditions at the given times.

    D+- are compared with f'(A) to the rounding of the rule's sum, tol_opt =
    1e-12 (1 + the rule's sum of |phi|). The audit always returns;
    violations are counted, not raised.
    """
    if s_samples is None:
        s_samples = default_s_samples(A.horizon, A)
    s_samples = np.asarray(s_samples, dtype=float)
    rule = Rule(spec.weight.phi_grid(mesh), mesh)
    tf_plus = trajectory_field(model, u0, A, mesh, MOST_AT_ZERO)
    tf_minus = trajectory_field(model, u0, A, mesh, LEAST_AT_ZERO)
    h_plus = _dwell_measures(rule, tf_plus, s_samples)
    h_minus = _dwell_measures(rule, tf_minus, s_samples)
    tol_opt = 1e-12 * (1.0 + float(np.einsum("i,j,ij->", rule.wx, rule.wt, np.abs(rule.phi))))

    report = component_report(model, u0, A, mesh, spec=spec, _tfield_minus=tf_minus)
    a_bar = report.last_component[0] if report.last_component else None
    tol_a = 1e-9 * (1.0 + abs(model.A0))
    a_vals = np.asarray(A(s_samples), dtype=float)
    fp = spec.fprime(a_vals)
    dp, dm = h_plus - fp, h_minus - fp
    up, down = a_vals < -tol_a, a_vals > model.A0 + tol_a  # raiseable, lowerable
    last = s_samples > a_bar if a_bar is not None else np.zeros(len(s_samples), dtype=bool)
    failed = dict(
        raiseable=up & (dp > tol_opt),
        lowerable=down & (dm < -tol_opt),
        last_component_equality=last & up & down & (np.abs(dp) > tol_opt),
        last_component_at_zero=last & ~up & (dp < -tol_opt),
        last_component_at_floor=last & up & ~down & (dp > tol_opt),
    )
    names = np.array(list(failed))
    bad = np.stack(list(failed.values()), axis=1)
    samples = tuple(
        dict(s=float(s), H_plus=float(hp), H_minus=float(hm), A=float(a),
             verdict="violated:" + ",".join(names[row]) if row.any() else "ok")
        for s, hp, hm, a, row in zip(s_samples, h_plus, h_minus, a_vals, bad)
    )
    tolerances = dict(tol_opt=float(tol_opt), tol_a=float(tol_a), theta=report.theta)
    return OptimalityAudit(samples, int(bad.any(axis=1).sum()), tolerances, report)
