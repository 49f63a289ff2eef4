"""Cost functionals J(A) = integral(phi * u^A) + integral(f(A)) and weights.

The flux-in-a-box problem uses the separable weight phi(x, t) =
psi1(x) * psi2'(t): psi1 is a C^1 plateau bump supported exactly on
[x1, x2], psi2 ramps up on [t1, t2], holds 1 on [t2, t3] and ramps down on
[t3, t4], so phi > 0 exactly on (x1, x2) x (t1, t2) and phi < 0 exactly on
(x1, x2) x (t3, t4). The linear control term f(A) = c * A is integrated
exactly against the piecewise-constant control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .controls import Control, integrate
from .hj_junction import Mesh, SolverError, ValueField, value_grid


class FunctionalError(ValueError):
    """Bad weight geometry or quadrature support leakage."""


def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return 3.0 * s * s - 2.0 * s**3


def _smoothstep_deriv(s):
    inside = (s > 0.0) & (s < 1.0)
    return np.where(inside, 6.0 * s * (1.0 - s), 0.0)


@dataclass(frozen=True)
class BoxWeight:
    """Separable box weight phi = psi1(x) * psi2'(t)."""

    x1: float
    x2: float
    t1: float
    t2: float
    t3: float
    t4: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.x1 < self.x2):
            raise FunctionalError("need 0 < x1 < x2")
        if not (self.t1 < self.t2 < self.t3 < self.t4):
            raise FunctionalError("need t1 < t2 < t3 < t4")
        gaps = (self.x2 - self.x1, self.t2 - self.t1, self.t3 - self.t2, self.t4 - self.t3)
        if not 0.0 < self.delta < min(gaps) / 4.0:
            raise FunctionalError(f"delta must lie in (0, {min(gaps) / 4.0})")

    @property
    def geometry_ok(self) -> bool:
        """No characteristic can cross both signed regions: x1/t2 > x2/t3."""
        return self.x1 / self.t2 > self.x2 / self.t3

    def psi1(self, x):
        x = np.asarray(x, dtype=float)
        up = _smoothstep((x - self.x1) / self.delta)
        down = _smoothstep((self.x2 - x) / self.delta)
        return np.where((x > self.x1) & (x < self.x2), np.minimum(up, down), 0.0)

    def psi2(self, t):
        t = np.asarray(t, dtype=float)
        up = _smoothstep((t - self.t1) / (self.t2 - self.t1))
        down = _smoothstep((self.t4 - t) / (self.t4 - self.t3))
        return np.minimum(up, down)

    def dpsi2(self, t):
        t = np.asarray(t, dtype=float)
        rising = (t > self.t1) & (t < self.t2)
        falling = (t > self.t3) & (t < self.t4)
        up = _smoothstep_deriv((t - self.t1) / (self.t2 - self.t1)) / (self.t2 - self.t1)
        down = -_smoothstep_deriv((self.t4 - t) / (self.t4 - self.t3)) / (self.t4 - self.t3)
        return np.where(rising, up, np.where(falling, down, 0.0))

    def phi(self, x, t):
        return self.psi1(x) * self.dpsi2(t)

    def phi_grid(self, mesh: Mesh) -> np.ndarray:
        return self.psi1(mesh.xs)[:, None] * self.dpsi2(mesh.ts)[None, :]

    def support(self):
        return (self.x1, self.x2), (self.t1, self.t4)

    def closed_form_linear_cost(self, p: float, h_of_p: float) -> float:
        """integral(phi * (p x - H(p) t)) for the affine field p x - H(p) t.

        The psi2' time-integral vanishes, so only -H(p) * integral(psi1) *
        integral(psi2) survives after integrating t psi2' by parts.
        """
        mass_x = (self.x2 - self.x1) - self.delta
        int_psi2 = 0.5 * (self.t2 - self.t1) + (self.t3 - self.t2) + 0.5 * (self.t4 - self.t3)
        return h_of_p * mass_x * int_psi2


@dataclass(frozen=True)
class SampledWeight:
    """General weight phi given by samples on the quadrature mesh."""

    xs: np.ndarray
    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ts = np.asarray(self.ts, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(xs), len(ts)):
            raise FunctionalError("weight samples must match the mesh shape")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "values", vals)

    def phi_grid(self, mesh: Mesh) -> np.ndarray:
        if len(mesh.xs) != len(self.xs) or len(mesh.ts) != len(self.ts) or \
                not np.allclose(mesh.xs, self.xs) or not np.allclose(mesh.ts, self.ts):
            raise FunctionalError("sampled weight lives on a different mesh")
        return self.values


@dataclass(frozen=True)
class CostSpec:
    """Weight plus the optional linear control term f(A) = linear_coeff * A."""

    weight: Union[BoxWeight, SampledWeight]
    linear_coeff: float = 0.0

    def fprime(self, a) -> float:
        return self.linear_coeff


def make_box_weight(x1, x2, t1, t2, t3, t4, delta) -> BoxWeight:
    """Validated box weight; see BoxWeight for the profile definitions."""
    return BoxWeight(x1, x2, t1, t2, t3, t4, delta)


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.zeros(len(axis))
    d = np.diff(axis)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def _check_support(phi_vals: np.ndarray, where: str):
    edge = max(
        np.abs(phi_vals[0, :]).max(),
        np.abs(phi_vals[-1, :]).max(),
        np.abs(phi_vals[:, 0]).max(),
        np.abs(phi_vals[:, -1]).max(),
    )
    if edge > 0.0:
        raise FunctionalError(f"weight support leaks through the {where} boundary")


def field_term(spec: CostSpec, field: ValueField) -> float:
    """Tensor-product trapezoidal quadrature of phi * u over the field mesh."""
    mesh = Mesh(field.xs, field.ts)
    phi_vals = spec.weight.phi_grid(mesh)
    _check_support(phi_vals, "mesh")
    wx = _trapezoid_weights(field.xs)
    wt = _trapezoid_weights(field.ts)
    return float(np.einsum("i,j,ij->", wx, wt, phi_vals * field.u))


def cost_from_field(spec: CostSpec, field: ValueField, A: Control) -> float:
    lin = spec.linear_coeff * integrate(A, 0.0, A.horizon) if spec.linear_coeff else 0.0
    return field_term(spec, field) + lin


def cost(model, u0, spec: CostSpec, A: Control, mesh: Mesh) -> float:
    """J(A): quadrature of phi u^A over the mesh plus the exact linear term."""
    field = value_grid(model, u0, A, mesh)
    return cost_from_field(spec, field, A)


def cost_report(model, u0, spec: CostSpec, A: Control, mesh: Mesh):
    field = value_grid(model, u0, A, mesh)
    jf = field_term(spec, field)
    jl = spec.linear_coeff * integrate(A, 0.0, A.horizon) if spec.linear_coeff else 0.0
    return dict(J=jf + jl, J_field_term=jf, J_linear_term=jl,
                mesh=dict(nx=len(mesh.xs), nt=len(mesh.ts),
                          xmin=float(mesh.xs[0]), xmax=float(mesh.xs[-1]),
                          tmin=float(mesh.ts[0]), tmax=float(mesh.ts[-1])))


def cost_weighted_density(model, u0, xi_values: np.ndarray, A: Control, mesh: Mesh) -> float:
    """Density-weighted cost via -integral(xi_x u^A); xi sampled on the mesh.

    Centered differences for xi_x in the interior, one-sided at the mesh
    edges (where a compactly supported xi vanishes anyway).
    """
    xi = np.asarray(xi_values, dtype=float)
    if xi.shape != (len(mesh.xs), len(mesh.ts)):
        raise FunctionalError("xi samples must match the mesh shape")
    phi = np.empty_like(xi)
    xs = mesh.xs
    phi[1:-1, :] = -(xi[2:, :] - xi[:-2, :]) / (xs[2:] - xs[:-2])[:, None]
    phi[0, :] = -(xi[1, :] - xi[0, :]) / (xs[1] - xs[0])
    phi[-1, :] = -(xi[-1, :] - xi[-2, :]) / (xs[-1] - xs[-2])
    spec = CostSpec(SampledWeight(mesh.xs, mesh.ts, phi))
    field = value_grid(model, u0, A, mesh)
    return field_term(spec, field)
