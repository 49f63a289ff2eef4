"""Cost functionals J(A) = integral(phi * u^A) + integral(f(A)) and weights.

The flux-in-a-box problem uses the separable weight phi(x, t) =
psi1(x) * psi2'(t): psi1 is a C^1 plateau bump supported exactly on
[x1, x2], psi2 ramps up on [t1, t2], holds 1 on [t2, t3] and ramps down on
[t3, t4], so phi > 0 exactly on (x1, x2) x (t1, t2) and phi < 0 exactly on
(x1, x2) x (t3, t4). The linear control term f(A) = c * A is integrated
exactly against the piecewise-constant control.

J never reads u where phi vanishes, so cost_report evaluates phi on the
mesh once, checks once that it vanishes on the mesh edge, and draws u^A
only on the tensor sub-mesh of the rows and columns where phi is nonzero,
with 0 at every other node. phi u is formed before the trapezoid weights
multiply in, in the one sum field_term also uses, so J is bitwise the sum
over the full-mesh field. SampledWeight serves as a test weight; no
command builds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import hj_junction
from .controls import Control, integrate
from .hj_junction import Mesh, ValueField

# the full-mesh field under its usual name; the cost itself draws u only on
# the weight's support (the benchmark's fields workload captures this name)
value_grid = hj_junction.value_grid


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


def support(phi_vals: np.ndarray):
    """The mesh rows and columns where phi is nonzero.

    Every node outside their tensor sub-mesh adds an exact zero to a
    trapezoid sum of phi, so J and the dwell measures read u^A and the
    dwell indicator only on that sub-mesh.
    """
    return np.flatnonzero(phi_vals.any(axis=1)), np.flatnonzero(phi_vals.any(axis=0))


def quadrature(phi_vals: np.ndarray, mesh: Mesh, values: np.ndarray, sub=None):
    """Tensor-product trapezoid sum of phi * values over the mesh.

    values shaped (nx, nt) give one sum; (nx, nt, n) give one sum per
    trailing index. Boolean values go in as they are, with no float copy.
    With sub = support(phi_vals), values hold only the nodes of that
    sub-mesh; the sum adds the same nonzero terms in the same order, one
    after another, so it is bitwise the full-mesh sum.
    """
    wx = _trapezoid_weights(mesh.xs)
    wt = _trapezoid_weights(mesh.ts)
    if sub is not None:
        rows, cols = sub
        wx, wt, phi_vals = wx[rows], wt[cols], phi_vals[np.ix_(rows, cols)]
    return np.einsum("i,j,ij,ij...->...", wx, wt, phi_vals, values)


def _phi_u_term(phi_vals: np.ndarray, mesh: Mesh, u: np.ndarray) -> float:
    """The trapezoid sum of phi u, after checking that phi vanishes on the mesh edge."""
    _check_support(phi_vals, "mesh")
    # phi u is formed before the weights multiply in, as J has always been
    # summed: J is flat to the last bit on the optimal plateau, so a change
    # of product order could move the reported switch
    return float(quadrature(phi_vals * u, mesh, np.ones((1, 1))))


def field_term(spec: CostSpec, field: ValueField) -> float:
    """Tensor-product trapezoidal quadrature of phi * u over the field mesh."""
    mesh = Mesh(field.xs, field.ts)
    return _phi_u_term(spec.weight.phi_grid(mesh), mesh, field.u)


def cost(model, u0, spec: CostSpec, A: Control, mesh: Mesh) -> float:
    """J(A): quadrature of phi u^A over the mesh plus the exact linear term."""
    return cost_report(model, u0, spec, A, mesh)["J"]


def cost_report(model, u0, spec: CostSpec, A: Control, mesh: Mesh):
    """J(A) with its field and linear terms and the quadrature mesh.

    u^A is drawn on the rows and columns of the mesh where phi is nonzero
    and is 0 elsewhere. The model, the control and the full mesh are
    checked as value_grid checks them, also when the support is empty.
    """
    phi = spec.weight.phi_grid(mesh)
    rows, cols = support(phi)
    u = np.zeros(phi.shape)
    if rows.size:
        sub = Mesh(mesh.xs[rows], mesh.ts[cols])
        u[np.ix_(rows, cols)] = hj_junction.value_grid(model, u0, A, sub).u
    else:
        hj_junction.Evaluator(model, u0, A)  # checks the model and the control
    hj_junction.check_mesh(mesh, A)
    jf = _phi_u_term(phi, mesh, u)
    jl = spec.linear_coeff * integrate(A, 0.0, A.horizon) if spec.linear_coeff else 0.0
    return dict(J=jf + jl, J_field_term=jf, J_linear_term=jl,
                mesh=dict(nx=len(mesh.xs), nt=len(mesh.ts),
                          xmin=float(mesh.xs[0]), xmax=float(mesh.xs[-1]),
                          tmin=float(mesh.ts[0]), tmax=float(mesh.ts[-1])))

