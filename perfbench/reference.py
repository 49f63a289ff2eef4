"""Independent reference computations for the junctionflow benchmark.

Nothing here imports junctionflow. Everything is rebuilt from the model's
definitions: closed-form leg costs of quadratic Hamiltonians, an own
piecewise-linear datum, an own box weight and trapezoid rule, and upper
bounds of the value built from true path costs. Since the value is an
infimum over paths, no path cost computed here may lie below it.
"""

from __future__ import annotations

import numpy as np

TIE_SCALE = 1e-8  # the documented tie band of the path selectors: 1e-8 (1 + |u|)
# path_upper_bound: points of the (a, b) grid, points of the finer scan of b
# around the best grid point, and query points handled at once
BOUND_GRID = 1501
BOUND_REFINE = 65
BOUND_CHUNK = 256


class Quad:
    """H(p) = kappa p (p + R) on [-R, 0], with its closed-form leg costs."""

    def __init__(self, kappa: float, R: float):
        self.kappa = float(kappa)
        self.R = float(R)
        self.dh0 = self.kappa * self.R  # H'(0)
        self.dhr = -self.kappa * self.R  # H'(-R)

    def H(self, p):
        return self.kappa * p * (p + self.R)

    def dH(self, p):
        return self.kappa * (2.0 * p + self.R)

    def leg(self, dx, s):
        """s L(dx / s) for a straight leg of duration s >= 0 covering dx.

        L(a) is 0 for a >= H'(0), -R a for a <= H'(-R) and
        (a - H'(0))^2 / (4 kappa) in between; a leg of zero duration is
        free only if it does not move.
        """
        dx, s = np.broadcast_arrays(np.asarray(dx, dtype=float), np.asarray(s, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            mid = (dx - self.dh0 * s) ** 2 / (4.0 * self.kappa * s)
        out = np.where(dx >= self.dh0 * s, 0.0, np.where(dx <= self.dhr * s, -self.R * dx, mid))
        return np.where((s == 0.0) & (dx != 0.0), np.inf, out)


class Datum:
    """Piecewise-linear u0 with u0(0) = 0; slopes[i] holds between breakpoints."""

    def __init__(self, breakpoints, slopes):
        b = np.asarray(breakpoints, dtype=float)
        self.q = np.asarray(slopes, dtype=float)
        self.lo = np.concatenate([[-np.inf], b])
        self.hi = np.concatenate([b, [np.inf]])
        self._at_zero = np.clip(0.0, self.lo, self.hi)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)[..., None]
        return np.sum(self.q * (np.clip(y, self.lo, self.hi) - self._at_zero), axis=-1)


def side_min(H: Quad, u0: Datum, side: int, x, s):
    """min over y on one closed side of u0(y) + leg(x - y, s), for s > 0.

    On each linear piece of u0 the objective is convex in y with its
    stationary point at x - s H'(q), so the piece minimum is that point
    clipped into the piece; the result is the cheapest of the pieces.
    """
    x = np.asarray(x, dtype=float)[..., None]
    s = np.asarray(s, dtype=float)[..., None]
    lo = np.maximum(u0.lo, 0.0) if side > 0 else u0.lo
    hi = u0.hi if side > 0 else np.minimum(u0.hi, 0.0)
    keep = lo <= hi
    y = np.clip(x - s * H.dH(u0.q[keep]), lo[keep], hi[keep])
    return np.min(u0(y) + H.leg(x - y, s), axis=-1)


def straight_value(left: Quad, right: Quad, u0: Datum, x, t):
    """Cheapest straight leg into (x, t) that stays on one closed side of 0."""
    x = np.asarray(x, dtype=float)
    vl = np.where(x <= 0, side_min(left, u0, -1, x, t), np.inf)
    vr = np.where(x >= 0, side_min(right, u0, 1, x, t), np.inf)
    return np.minimum(vl, vr)


def approach_cost(left: Quad, right: Quad, u0: Datum, a):
    """Cheapest straight approach to the junction point (0, a); 0 at a = 0."""
    a = np.asarray(a, dtype=float)
    pos = np.maximum(a, 1e-300)
    zero = np.zeros_like(a)
    g = np.minimum(side_min(left, u0, -1, zero, pos), side_min(right, u0, 1, zero, pos))
    return np.where(a > 0, g, 0.0)


def cumulative(times, values, s):
    """I(s), the exact integral of a piecewise-constant control over [0, s]."""
    times = np.asarray(times, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(np.asarray(values, dtype=float) * np.diff(times))])
    return np.interp(s, times, cum)


def exit_cost(left: Quad, right: Quad, x, s):
    """Exit leg (0, t - s) -> (x, t); at x = 0 only s = 0 is a path."""
    x, s = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(s, dtype=float))
    w = np.where(x < 0, left.leg(x, s), right.leg(x, s))
    return np.where(x == 0, np.where(s == 0, 0.0, np.inf), w)


def free_field(H_of_p: float, p: float, xs, ts):
    """Free flow with one Hamiltonian on both sides and datum p x: p x - H(p) t."""
    return p * np.asarray(xs, dtype=float)[:, None] - H_of_p * np.asarray(ts, dtype=float)[None, :]


def blocked_field(left: Quad, right: Quad, u0: Datum, xs, ts):
    """u for A = 0 and a one-slope datum p x, at t > 0.

    With A = 0 parking is free and every approach to the junction costs at
    least -H(p) a >= 0, so the dwell family reduces to parking from t = 0
    and one exit leg: 0 on the right, -R_L x on the left (a leg steep enough
    to pay -R per unit distance). The straight family is exact per side.
    """
    X, T = np.meshgrid(np.asarray(xs, dtype=float), np.asarray(ts, dtype=float), indexing="ij")
    dwell = np.where(X < 0, -left.R * X, 0.0)
    return np.minimum(straight_value(left, right, u0, X, T), dwell)


def path_upper_bound(left: Quad, right: Quad, u0: Datum, times, values, xs, ts):
    """An upper bound of u^A at the points (xs[i], ts[i]), all with t > 0.

    It is the cheapest of the exact straight family and of dwell paths
    (y, 0) -> (0, a) -> park until b -> (x, t) with a and b scanned on a
    dense grid that holds the control's breakpoints, followed by a finer
    scan of b around the best grid point. Every candidate is the cost of a
    real path, so the bound can never lie below the true value.
    """
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    horizon = float(np.max(ts))
    inner = [s for s in times if 0.0 < s < horizon]
    grid = np.unique(np.concatenate([np.linspace(0.0, horizon, BOUND_GRID), inner]))
    phi = approach_cost(left, right, u0, grid) + cumulative(times, values, grid)
    prefix = np.minimum.accumulate(phi)
    psi_grid = -cumulative(times, values, grid)
    out = straight_value(left, right, u0, xs, ts)
    for lo in range(0, len(xs), BOUND_CHUNK):
        x = xs[lo:lo + BOUND_CHUNK, None]
        t = ts[lo:lo + BOUND_CHUNK, None]
        ok = grid[None, :] <= t
        tot = np.where(ok, prefix[None, :] + psi_grid[None, :]
                       + exit_cost(left, right, x, np.maximum(t - grid[None, :], 0.0)), np.inf)
        k = np.argmin(tot, axis=1)
        best = tot[np.arange(len(k)), k]
        # b = t exactly: no exit leg, the only admissible end at x = 0
        last = np.searchsorted(grid, t[:, 0], side="right") - 1
        at_t = prefix[last] - cumulative(times, values, t[:, 0]) + exit_cost(left, right, x[:, 0], 0.0)
        best = np.minimum(best, at_t)
        # finer scan of b between the grid neighbours of the best grid point
        b_lo = grid[np.maximum(k - 1, 0)]
        b_hi = np.minimum(grid[np.minimum(k + 1, len(grid) - 1)], t[:, 0])
        frac = np.linspace(0.0, 1.0, BOUND_REFINE)[None, :]
        b = b_lo[:, None] + frac * np.maximum(b_hi - b_lo, 0.0)[:, None]
        m = prefix[np.searchsorted(grid, b, side="right") - 1]
        fine = m - cumulative(times, values, b) + exit_cost(left, right, x, t - b)
        out[lo:lo + BOUND_CHUNK] = np.minimum(out[lo:lo + BOUND_CHUNK], np.minimum(best, fine.min(axis=1)))
    return out


def dwell_path_cost(left: Quad, right: Quad, u0: Datum, times, values, x, t, a, b):
    """Cost of the cheapest dwell path that parks at the junction on [a, b]."""
    stay = -(cumulative(times, values, b) - cumulative(times, values, a))
    return approach_cost(left, right, u0, a) + stay + exit_cost(left, right, x, t - b)


# ---- the box weight and its quadrature -------------------------------------------


def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def box_phi(box: dict, xs, ts):
    """phi(x, t) = psi1(x) psi2'(t) of the flux-in-a-box functional, on a mesh.

    psi1 is the C^1 plateau bump min(S((x - x1)/delta), S((x2 - x)/delta))
    on (x1, x2) with S(s) = 3 s^2 - 2 s^3; psi2 rises by S on [t1, t2],
    holds 1 and falls by S on [t3, t4].
    """
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    x1, x2, d = box["x1"], box["x2"], box["delta"]
    t1, t2, t3, t4 = box["t1"], box["t2"], box["t3"], box["t4"]
    psi1 = np.where((xs > x1) & (xs < x2),
                    np.minimum(_smoothstep((xs - x1) / d), _smoothstep((x2 - xs) / d)), 0.0)
    s_up = (ts - t1) / (t2 - t1)
    s_dn = (t4 - ts) / (t4 - t3)
    rise = np.where((s_up > 0) & (s_up < 1), 6.0 * s_up * (1.0 - s_up) / (t2 - t1), 0.0)
    fall = np.where((s_dn > 0) & (s_dn < 1), -6.0 * s_dn * (1.0 - s_dn) / (t4 - t3), 0.0)
    return psi1[:, None] * (rise + fall)[None, :]


def trapezoid_weights(axis):
    axis = np.asarray(axis, dtype=float)
    w = np.zeros(len(axis))
    w[:-1] += np.diff(axis) / 2.0
    w[1:] += np.diff(axis) / 2.0
    return w


def box_quadrature(box: dict, xs, ts, u):
    """Tensor trapezoid rule of phi u on the mesh, and of |phi| for scaling."""
    w = trapezoid_weights(xs)[:, None] * trapezoid_weights(ts)[None, :] * box_phi(box, xs, ts)
    return float(np.sum(w * u)), float(np.sum(np.abs(w)))


def box_conditions(box: dict, H: Quad, p: float, A0: float):
    """The four admissibility conditions of the canonical box, as (lhs, rhs, ok)."""
    hp = float(H.H(p))
    return [
        (box["x2"], hp * box["t1"] / p, box["x2"] <= hp * box["t1"] / p),
        (box["t2"] * H.dh0 / (H.dh0 - hp / p), box["t3"],
         box["t2"] * H.dh0 / (H.dh0 - hp / p) < box["t3"]),
        (-box["t2"] * A0 / (hp - A0), box["t3"], -box["t2"] * A0 / (hp - A0) < box["t3"]),
        (box["x1"] / box["t2"], box["x2"] / box["t3"], box["x1"] / box["t2"] > box["x2"] / box["t3"]),
    ]
