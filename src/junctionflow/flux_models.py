"""Static model data: Hamiltonians, concave fluxes, Lagrangians, initial datum.

Conventions used throughout the package:
  - densities live in [0, R], the flux is f(rho) = -H(-rho), concave with
    f(0) = f(R) = 0;
  - H is convex on [-R, 0] with H(-R) = H(0) = 0 and a negative minimum
    at p_hat in (-R, 0);
  - the running cost of a path slope is the constrained conjugate
    L(alpha) = sup_{p in [-R,0]} (alpha*p - H(p)), which is 0 for
    alpha >= H'(0) and -R*alpha for alpha <= H'(-R).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

DOMAIN_TOL = 1e-9
_CONVEXITY_FLOOR = 1e-10


class ModelError(ValueError):
    """Invalid model data (domain violations, non-convex tables, bad slopes)."""


def _as_float_array(x):
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Hamiltonian:
    """Convex Hamiltonian on [-R, 0] vanishing at both endpoints.

    kind "quadratic" is H(p) = kappa*p*(p+R); kind "tabulated" interpolates
    sample pairs with a shape-preserving (convex, C^1) piecewise quadratic.
    """

    R: float
    kind: str = "quadratic"
    kappa: float = 1.0
    samples: Optional[Tuple[Tuple[float, float], ...]] = None
    # cached at construction
    p_hat: float = field(init=False)
    h_min: float = field(init=False)
    dh0: float = field(init=False)
    dhr: float = field(init=False)
    _table: Optional[tuple] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if not self.R > 0:
            raise ModelError(f"capacity R must be positive, got {self.R}")
        if self.kind == "quadratic":
            if not self.kappa > 0:
                raise ModelError(f"kappa must be positive, got {self.kappa}")
            object.__setattr__(self, "p_hat", -self.R / 2.0)
            object.__setattr__(self, "h_min", -self.kappa * self.R**2 / 4.0)
            object.__setattr__(self, "dh0", self.kappa * self.R)
            object.__setattr__(self, "dhr", -self.kappa * self.R)
        elif self.kind == "tabulated":
            self._build_table()
        else:
            raise ModelError(f"unknown Hamiltonian kind {self.kind!r}")

    # -- tabulated kind -------------------------------------------------

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
        table = tuple(np.array(v) for v in (lo, hi, c0, c1, c2))
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "dh0", float(m[-1]))
        object.__setattr__(self, "dhr", float(m[0]))
        # argmin: root of the piecewise-linear derivative
        p_hat = None
        for j in range(len(table[0])):
            a0, a1 = table[0][j], table[1][j]
            s0 = table[3][j]
            s1 = s0 + 2.0 * table[4][j] * (a1 - a0)
            if s0 <= 0.0 <= s1:
                p_hat = a0 - s0 / (2.0 * table[4][j]) if table[4][j] > 0 else a0
                break
        if p_hat is None or not (-self.R < p_hat < 0):
            raise ModelError("tabulated Hamiltonian has no interior minimum")
        object.__setattr__(self, "p_hat", float(p_hat))
        object.__setattr__(self, "h_min", float(self._table_eval(np.array([p_hat]))[0]))
        if not (self.h_min < 0 and self.dhr < 0 < self.dh0):
            raise ModelError("tabulated Hamiltonian violates shape requirements")

    def _table_eval(self, p):
        lo, hi, c0, c1, c2 = self._table
        idx = np.clip(np.searchsorted(lo, p, side="right") - 1, 0, len(lo) - 1)
        dp = p - lo[idx]
        return c0[idx] + c1[idx] * dp + c2[idx] * dp * dp

    def _table_deriv(self, p):
        lo, hi, c0, c1, c2 = self._table
        idx = np.clip(np.searchsorted(lo, p, side="right") - 1, 0, len(lo) - 1)
        return c1[idx] + 2.0 * c2[idx] * (p - lo[idx])

    # -- evaluation ------------------------------------------------------

    def value(self, p):
        p = _as_float_array(p)
        if self.kind == "quadratic":
            return self.kappa * p * (p + self.R)
        return self._table_eval(p)

    def deriv(self, p):
        p = _as_float_array(p)
        if self.kind == "quadratic":
            return self.kappa * (2.0 * p + self.R)
        return self._table_deriv(p)

    def lagrangian(self, alpha):
        """Constrained conjugate sup_{p in [-R,0]} (alpha*p - H(p))."""
        alpha = _as_float_array(alpha)
        if self.kind == "quadratic":
            a = np.clip(alpha, self.dhr, self.dh0)
            mid = (a - self.dh0) ** 2 / (4.0 * self.kappa)
            out = np.where(alpha >= self.dh0, 0.0, mid)
            return np.where(alpha <= self.dhr, -self.R * alpha, out)
        lo, hi, c0, c1, c2 = self._table
        flat = alpha.reshape(-1)
        # per sub-interval concave quadratic alpha*p - H(p): vertex or endpoints
        best = np.maximum(flat * (-self.R), 0.0)  # endpoints p = -R, p = 0
        for j in range(len(lo)):
            if c2[j] <= 0:
                continue
            pv = np.clip(lo[j] + (flat - c1[j]) / (2.0 * c2[j]), lo[j], hi[j])
            dp = pv - lo[j]
            cand = flat * pv - (c0[j] + c1[j] * dp + c2[j] * dp * dp)
            best = np.maximum(best, cand)
        return best.reshape(alpha.shape)

    def leg_cost(self, dx, dt):
        """Cost dt*L(dx/dt) of an affine leg, safe at dt = 0.

        A zero-duration leg is free only if it does not move; the three
        L-branches are split on products so no division by dt occurs.
        """
        dx = _as_float_array(dx)
        dt = _as_float_array(dt)
        dx, dt = np.broadcast_arrays(dx, dt)
        hi_branch = dx >= self.dh0 * dt
        lo_branch = dx <= self.dhr * dt
        mid = ~hi_branch & ~lo_branch
        out = np.where(lo_branch, -self.R * dx, 0.0)
        if np.any(mid):
            if self.kind == "quadratic":
                denom = np.where(mid, 4.0 * self.kappa * dt, 1.0)
                out = np.where(mid, (dx - self.dh0 * dt) ** 2 / denom, out)
            else:
                denom = np.where(mid, dt, 1.0)
                out = np.where(mid, dt * self.lagrangian(dx / denom), out)
        bad = (dt == 0.0) & (dx != 0.0)
        if np.any(bad):
            out = np.where(bad, np.inf, out)
        return out

    def slope_for_cost_slope(self, q):
        """Leg slope alpha with L'(alpha) = q, i.e. alpha = H'(q), q in (-R, 0)."""
        q = _as_float_array(q)
        if self.kind == "quadratic":
            return self.kappa * (2.0 * q + self.R)
        return self._table_deriv(np.clip(q, -self.R, 0.0))

    def branch_inverse(self, h, branch: int):
        """The p with H(p) = h on one monotone branch of H, h clipped into [h_min, 0].

        branch > 0 takes p in [p_hat, 0] (leg slopes H'(p) >= 0), branch < 0
        takes p in [-R, p_hat]. Closed form for both kinds: the tabulated H is
        a quadratic between consecutive knots, and monotone on each branch.
        """
        h = np.clip(_as_float_array(h), self.h_min, 0.0)
        if self.kind == "quadratic":
            return self.p_hat + branch * np.sqrt(np.maximum(self.p_hat**2 + h / self.kappa, 0.0))
        lo, hi, c0, c1, c2 = self._table
        j_hat = int(np.searchsorted(lo, self.p_hat, side="right")) - 1
        if branch > 0:  # knot values c0 rise after the vertex piece
            j = j_hat + np.searchsorted(c0[j_hat + 1 :], h, side="right")
        else:  # and fall before it
            j = np.searchsorted(-c0[1 : j_hat + 1], -h, side="right")
        r, b = h - c0[j], c1[j]
        s = branch * np.sqrt(np.maximum(b * b + 4.0 * c2[j] * r, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):  # the branch's root, cancellation-free
            dp = np.where(branch * b >= 0, 2.0 * r / (b + s), (s - b) / (2.0 * c2[j]))
        p = lo[j] + np.nan_to_num(dp)  # 0/0 only at a vertex knot, where dp = 0
        return np.clip(p, self.p_hat, 0.0) if branch > 0 else np.clip(p, -self.R, self.p_hat)

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
    A0: float = field(init=False)

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

