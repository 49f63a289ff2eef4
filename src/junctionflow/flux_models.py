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

    def lagrangian(self, alpha):
        """Constrained conjugate sup_{p in [-R,0]} (alpha*p - H(p))."""
        return self.leg_cost(alpha, 1.0)

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
        if np.any(mid):
            c1, c2 = self._table[3:]
            s, h0 = self._at_zero
            denom = np.where(mid, dt, 1.0)
            j = _find(c1[1:], dx, denom)
            out = np.where(mid, (dx - s[j] * dt) ** 2 / (4.0 * c2[j] * denom) - h0[j] * dt, out)
        still = dt == 0.0
        if np.any(still):
            out = np.where(still & (dx != 0.0), np.inf, out)
        return out

    def slope_for_cost_slope(self, q):
        """Leg slope alpha with L'(alpha) = q, i.e. alpha = H'(q), q in (-R, 0)."""
        return self.deriv(np.clip(q, -self.R, 0.0))

    def level_speed(self, h, branch: int):
        """|H'(p)| at the p with H(p) = h on one monotone branch of H, h clipped
        into [h_min, 0].

        branch > 0 takes p in [p_hat, 0], branch < 0 takes p in [-R, p_hat].
        On piece j, H'(p)**2 = c1**2 + 4 c2 (H(p) - c0); the knot values c0
        rise after the vertex piece and fall before it.
        """
        lo, hi, c0, c1, c2 = self._table
        h = np.clip(_as_float_array(h), self.h_min, 0.0)
        v = _find(lo[1:], self.p_hat)
        j = v + _find(c0[v + 1 :], h) if branch > 0 else _find(-c0[1 : v + 1], -h)
        return np.sqrt(np.maximum(c1[j] * c1[j] + 4.0 * c2[j] * (h - c0[j]), 0.0))

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


def _check_density_domain(H: Hamiltonian, rho):
    rho = _as_float_array(rho)
    if np.any(rho < -DOMAIN_TOL) or np.any(rho > H.R + DOMAIN_TOL):
        raise ModelError(f"density outside [0, {H.R}]")
    return np.clip(rho, 0.0, H.R)


def flux_branches(H: Hamiltonian, rho):
    """Increasing and decreasing parts (f_plus, f_minus) of the flux at rho."""
    rho = _check_density_domain(H, rho)
    f_plus = H.flux(np.minimum(rho, H.rho_hat))
    f_minus = H.flux(np.maximum(rho, H.rho_hat))
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
    _nodes: np.ndarray = field(init=False, repr=False)
    _node_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        slopes = tuple(float(s) for s in self.slopes)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "slopes", slopes)
        if len(slopes) != len(bps) + 1:
            raise ModelError("need exactly len(breakpoints)+1 slopes")
        if len(bps) >= 2 and np.any(np.diff(bps) <= 0):
            raise ModelError("breakpoints must be strictly increasing")
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
    def from_samples(cls, xs, us, capacities, shift_to_zero=True):
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
        offset = float(np.interp(0.0, xs, us)) if shift_to_zero else 0.0
        return data, offset

    def ident(self) -> str:
        return f"u0(breakpoints={self.breakpoints!r},slopes={self.slopes!r})"

