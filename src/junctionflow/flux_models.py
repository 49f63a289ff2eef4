"""Static model data: Hamiltonians, concave fluxes, Lagrangians, initial datum.

Conventions used throughout the package:
  - densities live in [0, R], the flux is f(rho) = -H(-rho), concave with
    f(0) = f(R) = 0;
  - H is convex on [-R, 0] with H(-R) = H(0) = 0 and a negative minimum
    at p_hat in (-R, 0);
  - every H is one convex piecewise-quadratic table; the quadratic
    kappa*p*(p+R) is its one-piece case;
  - the running cost of a path slope is the constrained conjugate
    L(alpha) = sup_{p in [-R,0]} (alpha*p - H(p)), which is 0 for
    alpha >= H'(0) and -R*alpha for alpha <= H'(-R).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

DOMAIN_TOL = 1e-9
_CONVEXITY_FLOOR = 1e-10


class ModelError(ValueError):
    """Invalid model data (domain violations, non-convex tables, bad slopes)."""


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _find(edges, x, scale=1.0):
    """Piece of each x / scale among ascending inner piece edges: 0 below
    edges[0], k from edges[k-1] on. A one-piece table has no edges and gets
    the scalar 0, with no division and no search."""
    return np.searchsorted(edges, x / scale, side="right") if len(edges) else 0


@dataclass(frozen=True)
class Hamiltonian:
    """Convex Hamiltonian on [-R, 0] vanishing at both endpoints.

    Both kinds are one convex piecewise-quadratic table (lo, hi, c0, c1, c2):
    on piece j, H(p) = c0 + c1*dp + c2*dp**2 with dp = p - lo. Kind
    "quadratic" is H(p) = kappa*p*(p+R), the one piece lo = -R, hi = 0,
    c0 = 0, c1 = -kappa*R, c2 = kappa; kind "tabulated" interpolates sample
    pairs with a shape-preserving (convex, C^1) piecewise quadratic. Equality
    and hashing read only the defining entries R, kind, kappa and samples.
    """

    R: float
    kind: str = "quadratic"
    kappa: float = 1.0
    samples: Optional[Tuple[Tuple[float, float], ...]] = None
    # derived from the table at construction
    p_hat: float = field(init=False, compare=False)
    h_min: float = field(init=False, compare=False)
    dh0: float = field(init=False, compare=False)
    dhr: float = field(init=False, compare=False)
    _table: tuple = field(init=False, repr=False, compare=False)
    _at_zero: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.R > 0:
            raise ModelError(f"capacity R must be positive, got {self.R}")
        if self.kind == "quadratic":
            if not self.kappa > 0:
                raise ModelError(f"kappa must be positive, got {self.kappa}")
            one = (-self.R, 0.0, 0.0, -self.kappa * self.R, self.kappa)
            table = tuple(np.array([v], dtype=float) for v in one)
        elif self.kind == "tabulated":
            table = self._build_table()
        else:
            raise ModelError(f"unknown Hamiltonian kind {self.kind!r}")
        lo, hi, c0, c1, c2 = table
        set_ = lambda name, v: object.__setattr__(self, name, v)
        set_("_table", table)
        # each piece's parabola, continued to p = 0: its slope and value there
        set_("_at_zero", (c1 - 2.0 * c2 * lo, c0 - c1 * lo + c2 * lo * lo))
        set_("dh0", float(self._at_zero[0][-1]))
        set_("dhr", float(c1[0]))
        # argmin: the root of H' on the piece whose knot slopes bracket 0
        v = _find(c1[1:], 0.0)
        set_("p_hat", float(lo[v] - c1[v] / (2.0 * c2[v])))
        set_("h_min", float(self.value(self.p_hat)))
        if not (-self.R < self.p_hat < 0 and self.h_min < 0 and self.dhr < 0 < self.dh0):
            raise ModelError("Hamiltonian violates shape requirements")

    def _build_table(self):
        if self.samples is None or len(self.samples) < 4:
            raise ModelError("tabulated Hamiltonian needs at least 4 (p, H) samples")
        pts = np.array(sorted(self.samples), dtype=float)
        p, h = pts[:, 0], pts[:, 1]
        if abs(p[0] + self.R) > 1e-9 or abs(p[-1]) > 1e-9:
            raise ModelError("tabulated samples must span exactly [-R, 0]")
        if np.any(np.diff(p) <= 0):
            raise ModelError("tabulated sample abscissae must be strictly increasing")
        scale = max(1.0, float(np.max(np.abs(h))))
        if abs(h[0]) > 1e-12 * scale or abs(h[-1]) > 1e-12 * scale:
            raise ModelError("tabulated Hamiltonian must vanish at -R and 0")
        h = h.copy()
        h[0] = 0.0
        h[-1] = 0.0
        d = np.diff(h) / np.diff(p)  # chord slopes, must be increasing
        if np.any(np.diff(d) / (0.5 * (np.diff(p)[1:] + np.diff(p)[:-1])) < _CONVEXITY_FLOOR):
            raise ModelError("tabulated Hamiltonian is not strictly convex")
        # node slopes between adjacent chords keep the quadratic spline convex
        m = np.empty(len(p))
        m[1:-1] = 0.5 * (d[:-1] + d[1:])
        m[0] = d[0] - 0.5 * (d[1] - d[0])
        m[-1] = d[-1] + 0.5 * (d[-1] - d[-2])
        # each data interval splits at one knot where the slope equals the chord
        lo, hi, c0, c1, c2 = [], [], [], [], []
        for i in range(len(p) - 1):
            dp = p[i + 1] - p[i]
            lam = (m[i + 1] - d[i]) / (m[i + 1] - m[i])
            xi = p[i] + lam * dp
            for (a0, a1, v0, s0) in (
                (p[i], xi, h[i], m[i]),
                (xi, p[i + 1], h[i] + 0.5 * (m[i] + d[i]) * (xi - p[i]), d[i]),
            ):
                width = a1 - a0
                if width <= 0:
                    continue
                s1 = d[i] if a0 == p[i] else m[i + 1]
                lo.append(a0)
                hi.append(a1)
                c0.append(v0)
                c1.append(s0)
                c2.append((s1 - s0) / (2.0 * width))
        return tuple(np.array(v) for v in (lo, hi, c0, c1, c2))

    # -- evaluation ------------------------------------------------------

    def value(self, p):
        lo, hi, c0, c1, c2 = self._table
        p = _as_float_array(p)
        j = _find(lo[1:], p)
        dp = p - lo[j]
        return c0[j] + (c1[j] + c2[j] * dp) * dp

    def deriv(self, p):
        lo, hi, c0, c1, c2 = self._table
        p = _as_float_array(p)
        j = _find(lo[1:], p)
        return c1[j] + 2.0 * c2[j] * (p - lo[j])

    def leg_cost(self, dx, dt):
        """Cost dt*L(dx/dt) of an affine leg, safe at dt = 0.

        A zero-duration leg is free only if it does not move; the three
        L-branches are split on products so no division by dt occurs. On the
        middle branch the slope dx/dt lies in piece j (found among the knot
        slopes c1), where L(a) = (a - s_j)**2 / (4 c2_j) - H_j(0) with s_j and
        H_j(0) the slope and value of the piece's parabola at p = 0.
        """
        dx = _as_float_array(dx)
        dt = _as_float_array(dt)  # not broadcast: products with dt stay at its size
        lo_branch = dx <= self.dhr * dt
        mid = ~(lo_branch | (dx >= self.dh0 * dt))
        out = np.where(lo_branch, -self.R * dx, 0.0)
        if mid.any():
            c1, c2 = self._table[3:]
            s, h0 = self._at_zero
            denom = np.where(mid, dt, 1.0)
            j = _find(c1[1:], dx, denom)
            out = np.where(mid, np.square(dx - s[j] * dt) / (4.0 * c2[j] * denom) - h0[j] * dt, out)
        still = dt == 0.0
        if still.any():
            out = np.where(still & (dx != 0.0), np.inf, out)
        return out

    def slope_for_cost_slope(self, q):
        """Leg slope alpha with L'(alpha) = q, i.e. alpha = H'(q), q in (-R, 0)."""
        return self.deriv(np.minimum(np.maximum(q, -self.R), 0.0))

    def level_line(self, h, branch: int):
        """(alpha, beta) with H'(p)**2 = alpha + beta H(p) on the piece that
        holds level h on one monotone branch of H: the squared speed is affine
        in the level on each piece, alpha = c1**2 - 4 c2 c0 and beta = 4 c2.

        branch > 0 takes p in [p_hat, 0], branch < 0 takes p in [-R, p_hat];
        the knot values c0 rise after the vertex piece and fall before it.
        """
        lo, hi, c0, c1, c2 = self._table
        v = _find(lo[1:], self.p_hat)
        j = v + _find(c0[v + 1 :], h) if branch > 0 else _find(-c0[1 : v + 1], -h)
        return c1[j] * c1[j] - 4.0 * c2[j] * c0[j], 4.0 * c2[j]

    def level_speed(self, h, branch: int):
        """|H'(p)| at the p with H(p) = h on one branch of H (see level_line),
        h clipped into [h_min, 0]."""
        h = np.clip(_as_float_array(h), self.h_min, 0.0)
        alpha, beta = self.level_line(h, branch)
        return np.sqrt(np.maximum(alpha + beta * h, 0.0))

    def flux(self, rho):
        return -self.value(-_as_float_array(rho))

    @property
    def rho_hat(self) -> float:
        return -self.p_hat

    @property
    def f_max(self) -> float:
        return -self.h_min

    @property
    def max_wave_speed(self) -> float:
        return max(abs(self.dh0), abs(self.dhr))


def pair_duration(approach, exit_, E, X, t, h):
    """Approach duration tau of two legs that share a flux level on one piece
    pair and take t together.

    approach and exit_ are the legs' level lines (alpha, beta), their squared
    speeds alpha + beta h on the pair (Hamiltonian.level_line); E and X are
    their lengths, and at level h of the pair they arrive early:
    E / S_a(h) + X / S_e(h) < t. With r = beta_e / beta_a and
    g = alpha_e - r alpha_a, tau solves
    F(tau) = tau + X tau / sqrt(g tau**2 + r E**2) = t. F rises, and for
    g >= 0 it is concave, so Newton steps from tau(h) climb to the root and
    stop where rounding stalls them. For g < 0 the exit duration solves the
    same equation with the legs swapped, and there it is concave. Legs on
    one parabola give tau = t E / (E + X).
    """
    (aa, ba), (ae, be) = approach, exit_
    r = be / ba
    g = ae - r * aa
    swap = g < 0  # solve for the exit duration D instead; P, Q: the lengths of D's leg and the other
    P, Q = np.where(swap, X, E), np.where(swap, E, X)
    g = np.where(swap, -g / r, g)
    rP2 = np.where(swap, 1.0 / r, r) * P * P
    D = P / np.sqrt(np.where(swap, ae + be * h, aa + ba * h))
    while True:
        s = np.sqrt(g * D * D + rP2)
        new = D - (D + Q * D / s - t) / (1.0 + Q * rP2 / (s * s * s))
        if not (new > D).any():
            break
        D = np.maximum(D, new)
    tau = np.where(swap, t - D, D)
    same = (aa == ae) & (ba == be)
    return np.where(same, t * E / (E + X), tau) if same.any() else tau


def _check_density_domain(H: Hamiltonian, rho):
    rho = _as_float_array(rho)
    if (rho < -DOMAIN_TOL).any() or (rho > H.R + DOMAIN_TOL).any():
        raise ModelError(f"density outside [0, {H.R}]")
    return rho.clip(0.0, H.R)


def flux_branches(H: Hamiltonian, rho):
    """Increasing and decreasing parts (f_plus, f_minus) of the flux at rho.

    H is evaluated once: past rho_hat each branch is f(rho_hat), which is
    f_max to the last bit because h_min is H(p_hat).
    """
    rho = _check_density_domain(H, rho)
    f = H.flux(rho)
    f_plus = np.where(rho > H.rho_hat, H.f_max, f)
    f_minus = np.where(rho < H.rho_hat, H.f_max, f)
    if f_plus.ndim == 0:
        return float(f_plus), float(f_minus)
    return f_plus, f_minus


@dataclass(frozen=True)
class JunctionModel:
    """Two-line junction: left/right Hamiltonians and the limiter range [A0, 0]."""

    left: Hamiltonian
    right: Hamiltonian
    equal_minima: bool = False
    A0: float = field(init=False, compare=False)

    def __post_init__(self):
        a0 = max(self.left.h_min, self.right.h_min)
        if not a0 < 0:
            raise ModelError("junction requires a negative limiter floor")
        if self.equal_minima and abs(self.left.h_min - self.right.h_min) > 1e-12:
            raise ModelError(
                "equal_minima set but the Hamiltonian minima differ: "
                f"{self.left.h_min} vs {self.right.h_min}"
            )
        object.__setattr__(self, "A0", float(a0))

    def side(self, x: float) -> Hamiltonian:
        return self.left if x < 0 else self.right

    def own_side(self, f, side, dx, dt, at_zero=0.0):
        """f(H, dx, dt) with the H of each lane's own side: the left where
        side < 0, the right where side > 0, at_zero where side is 0. An
        at_zero array of the lanes' shape is filled in place and returned.
        Each side is tested on side before it is broadcast: lanes all on one
        side are priced with no gather, and a side with no lane is not priced."""
        side = np.asarray(side)
        sides = ((self.left, side < 0), (self.right, side > 0))
        for H, on in sides:
            if on.all():  # one side: no gather
                return f(H, dx, dt)
        side, dx, dt = np.broadcast_arrays(side, dx, dt)
        out = at_zero if np.shape(at_zero) == side.shape else np.full(side.shape, at_zero)
        for H, on in sides:
            if on.any():
                on = np.broadcast_to(on, side.shape)
                out[on] = f(H, dx[on], dt[on])
        return out

    def speed(self, side, h, inward):
        """|H'(p)| of a leg on the given side at flux level H(p) = h, moving toward
        the junction (inward) or away from it."""
        d = 1 if inward else -1
        return np.where(np.asarray(side) < 0, self.left.level_speed(h, d),
                        self.right.level_speed(h, -d))

    def fan_duration(self, side, E, x, t):
        """Duration of the approach from a datum kink at distance E on the given
        side when it and the exit leg into (x, t) share a flux level h, and
        their durations, falling in h, add up to t; clipped to [0, t].

        The tables' knot levels where the legs arrive late and early bracket h
        on one piece pair, on which pair_duration solves for the duration. A
        leg into x = 0 takes no time, and where the legs arrive late even at
        their fastest (h = 0) the exit takes as long as it can.
        """
        L, R, X = self.left, self.right, np.abs(x)
        pick = lambda on, d, h: [np.where(on, a, b) for a, b in zip(L.level_line(h, d), R.level_line(h, -d))]
        with np.errstate(divide="ignore", invalid="ignore"):
            exit_time = lambda h: X / self.speed(x, h, False)
            late = lambda h: E / self.speed(side, h, True) + exit_time(h) >= t
            lo = np.maximum(np.where(side < 0, L.h_min, R.h_min), np.where(x < 0, L.h_min, R.h_min))
            hi = 0.0
            for k in np.unique(np.concatenate([L._table[2][1:], R._table[2][1:]])):
                on = late(k)
                lo, hi = np.where(on, np.maximum(lo, k), lo), np.where(on, hi, np.minimum(hi, k))
            mid = 0.5 * (lo + hi)
            tau = pair_duration(pick(side < 0, 1, mid), pick(x < 0, -1, mid), E, X, t, hi)
            tau = np.where(late(0.0), t - exit_time(0.0), tau)
            return np.clip(np.where(x == 0, t, tau), 0.0, t)

    def ident(self) -> str:
        def one(H):
            if H.kind == "quadratic":
                return f"quadratic(kappa={H.kappa!r},R={H.R!r})"
            return f"tabulated(n={len(H.samples)},R={H.R!r})"

        return f"{one(self.left)}|{one(self.right)}"


@dataclass(frozen=True)
class InitialData:
    """Piecewise-linear initial datum, normalized so u0(0) = 0.

    slopes[i] applies on (breakpoints[i-1], breakpoints[i]); the first and
    last slopes extend to -inf and +inf. Slopes must stay strictly inside
    (-R_side, 0) on each side unless boundary slopes are explicitly allowed
    (used by experiments that place the datum on the flux-branch edges).
    """

    breakpoints: Tuple[float, ...]
    slopes: Tuple[float, ...]
    capacities: Tuple[float, float]
    allow_boundary_slopes: bool = False
    _nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _node_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        slopes = tuple(float(s) for s in self.slopes)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "slopes", slopes)
        if len(slopes) != len(bps) + 1:
            raise ModelError("need exactly len(breakpoints)+1 slopes")
        if not (np.all(np.isfinite(bps)) and np.all(np.diff(bps) > 0)):
            raise ModelError("breakpoints must be finite and strictly increasing")
        rl, rr = self.capacities
        edges = (-np.inf,) + bps + (np.inf,)
        for i, q in enumerate(slopes):
            lo, hi = edges[i], edges[i + 1]
            if lo < 0 and not self._slope_ok(q, rl):
                raise ModelError(f"slope {q} on a x<0 segment must lie strictly in (-{rl}, 0)")
            if hi > 0 and not self._slope_ok(q, rr):
                raise ModelError(f"slope {q} on a x>0 segment must lie strictly in (-{rr}, 0)")
        nodes = np.array(bps, dtype=float)
        vals = np.zeros(len(nodes))
        if len(nodes):
            # accumulate along nodes, then shift so the value at x = 0 is 0
            for i in range(1, len(nodes)):
                vals[i] = vals[i - 1] + slopes[i] * (nodes[i] - nodes[i - 1])
            idx0 = int(np.searchsorted(nodes, 0.0, side="right"))
            if idx0 == 0:
                v0 = vals[0] + slopes[0] * (0.0 - nodes[0])
            else:
                v0 = vals[idx0 - 1] + slopes[min(idx0, len(slopes) - 1)] * (0.0 - nodes[idx0 - 1])
            vals -= v0
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_node_values", vals)

    def _slope_ok(self, q: float, R: float) -> bool:
        if self.allow_boundary_slopes:
            return -R - DOMAIN_TOL <= q <= DOMAIN_TOL
        return -R + DOMAIN_TOL < q < -DOMAIN_TOL

    def __call__(self, y):
        return self.eval(y)

    def eval(self, y):
        y = _as_float_array(y)
        if not len(self._nodes):
            return self.slopes[0] * y
        idx = np.searchsorted(self._nodes, y, side="right")
        q = np.array(self.slopes, dtype=float)[idx]
        ref = np.concatenate([[self._nodes[0]], self._nodes])[idx]
        refv = np.concatenate([[self._node_values[0]], self._node_values])[idx]
        # the first piece extrapolates left of its reference node
        return refv + q * (y - ref)

    def pieces(self):
        """(lo, hi, slope, y_ref, u_ref) arrays describing each linear piece."""
        edges = np.concatenate([[-np.inf], self._nodes, [np.inf]])
        lo, hi = edges[:-1], edges[1:]
        q = np.array(self.slopes, dtype=float)
        if len(self._nodes):
            yref = np.concatenate([[self._nodes[0]], self._nodes])
            uref = np.concatenate([[self._node_values[0]], self._node_values])
        else:
            yref = np.zeros(1)
            uref = np.zeros(1)
        return lo, hi, q, yref, uref

    @classmethod
    def from_samples(cls, xs, us, capacities):
        """Build piecewise-linear data from samples; slopes clipped into [-R, 0].

        Returns (data, offset) with u(x) ~= data(x) + offset; sampled rows of a
        value field are not anchored at zero, hence the explicit offset.
        """
        xs = _as_float_array(xs)
        us = _as_float_array(us)
        rl, rr = capacities
        slopes = np.diff(us) / np.diff(xs)
        caps = np.where(xs[:-1] + np.diff(xs) / 2 < 0, rl, rr)
        slopes = np.clip(slopes, -caps, 0.0)
        slopes = np.concatenate([[slopes[0]], slopes, [slopes[-1]]])
        data = cls(tuple(xs), tuple(slopes), capacities, allow_boundary_slopes=True)
        return data, float(np.interp(0.0, xs, us))

    def ident(self) -> str:
        return f"u0(breakpoints={self.breakpoints!r},slopes={self.slopes!r})"

