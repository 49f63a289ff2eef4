"""Cost functionals J(A) = integral(phi * u^A) + integral(f(A)) and weights.

The flux-in-a-box problem uses the separable weight phi(x, t) =
psi1(x) * psi2'(t): psi1 is a C^1 plateau bump supported exactly on
[x1, x2], psi2 ramps up on [t1, t2], holds 1 on [t2, t3] and ramps down on
[t3, t4], so phi > 0 exactly on (x1, x2) x (t1, t2) and phi < 0 exactly on
(x1, x2) x (t3, t4). The linear control term f(A) = c * A is integrated
exactly against the piecewise-constant control.

Rule is the one quadrature of phi on a mesh: the mesh's trapezoid weights
on the tensor sub-mesh of the rows and columns where phi is nonzero, the
only nodes where a sum of phi reads its integrand. J sums phi u^A with it
and the audit's dwell measures D(s) sum phi times the dwell indicator with
it (optimality). Problem builds the rule once for (model, datum, weight,
mesh) and draws u^A per control on the sub-mesh only; cost and cost_report
are one Problem each. field_term is the full-mesh sum the rule reproduces
bitwise on meshes of up to 8,192 nodes. SampledWeight serves as a test
weight; no command builds one.
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
        if not (np.array_equal(mesh.xs, self.xs) and np.array_equal(mesh.ts, self.ts)):
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


def _check_support(phi_vals: np.ndarray):
    if np.abs(phi_vals[[0, -1], :]).max() > 0.0 or np.abs(phi_vals[:, [0, -1]]).max() > 0.0:
        raise FunctionalError("weight support leaks through the mesh boundary")


class Rule:
    """The mesh's trapezoid rule for sums of phi, on phi's support only.

    rows and cols are the mesh rows and columns where phi is nonzero, `mesh`
    their tensor sub-mesh (None when phi is 0 everywhere), and phi, wx and wt
    phi and the full mesh's weights there. Every other node adds an exact
    zero, and the one sum adds the terms one after another in mesh order, as
    the full-mesh sum does on up to 8,192 nodes (numpy's buffer size), so
    there it is bitwise that sum. phi must vanish on the mesh edge.
    """

    def __init__(self, phi_vals: np.ndarray, mesh: Mesh):
        _check_support(phi_vals)
        self.rows, self.cols = np.flatnonzero(phi_vals.any(axis=1)), np.flatnonzero(phi_vals.any(axis=0))
        self.mesh = Mesh(mesh.xs[self.rows], mesh.ts[self.cols]) if self.rows.size else None
        self.phi = phi_vals[np.ix_(self.rows, self.cols)]
        self.wx, self.wt = _trapezoid_weights(mesh.xs)[self.rows], _trapezoid_weights(mesh.ts)[self.cols]

    def _sum(self, phi, values):
        return np.einsum("i,j,ij,ij...->...", self.wx, self.wt, phi, values)

    def sum(self, values: np.ndarray):
        """The sum of phi * values on the sub-mesh: one sum, or with a trailing
        axis one per trailing index. Boolean values go in with no float copy."""
        return self._sum(self.phi, values)

    def field(self, u: np.ndarray) -> float:
        """The sum of phi u, u drawn on the sub-mesh."""
        # phi u is formed before the weights multiply in, as J has always been
        # summed: J is flat to the last bit on the optimal plateau, so a change
        # of product order could move the reported switch. A trailing unit axis
        # keeps the terms in order, as in D; a scalar einsum groups them by row
        # on two-row sub-meshes
        return float(self._sum(self.phi * u, np.ones(u.shape + (1,), dtype=bool))[0])


def field_term(spec: CostSpec, field: ValueField) -> float:
    """Tensor-product trapezoidal quadrature of phi * u over the whole field
    mesh, after checking that phi vanishes on the mesh edge."""
    phi = spec.weight.phi_grid(Mesh(field.xs, field.ts))
    _check_support(phi)
    wx, wt = _trapezoid_weights(field.xs), _trapezoid_weights(field.ts)
    return float(np.einsum("i,j,ij,ij...->...", wx, wt, phi * field.u, np.ones((1, 1))))


class Problem:
    """J on one (model, datum, weight, mesh) with the weight's rule built once. Each control
    and the full mesh are checked as value_grid checks them, also on an empty support."""

    def __init__(self, model, u0, spec: CostSpec, mesh: Mesh):
        self.model, self.u0, self.spec, self.mesh = model, u0, spec, mesh
        self.rule = Rule(spec.weight.phi_grid(mesh), mesh)

    def _terms(self, A: Control):
        if self.rule.mesh is None:
            hj_junction.Evaluator(self.model, self.u0, A)  # checks the model and the control
            jf = 0.0
        else:
            jf = self.rule.field(hj_junction.value_grid(self.model, self.u0, A, self.rule.mesh).u)
        hj_junction.check_times(self.mesh.ts, A)
        c = self.spec.linear_coeff
        return jf, c * integrate(A, 0.0, A.horizon) if c else 0.0

    def cost(self, A: Control) -> float:
        jf, jl = self._terms(A)
        return jf + jl

    def report(self, A: Control) -> dict:
        jf, jl = self._terms(A)
        m = self.mesh
        return dict(J=jf + jl, J_field_term=jf, J_linear_term=jl,
                    mesh=dict(nx=len(m.xs), nt=len(m.ts), xmin=float(m.xs[0]), xmax=float(m.xs[-1]),
                              tmin=float(m.ts[0]), tmax=float(m.ts[-1])))


def cost(model, u0, spec: CostSpec, A: Control, mesh: Mesh) -> float:
    """J(A): quadrature of phi u^A over the mesh plus the exact linear term."""
    return Problem(model, u0, spec, mesh).cost(A)


def cost_report(model, u0, spec: CostSpec, A: Control, mesh: Mesh):
    """J(A) with its field and linear terms and the quadrature mesh."""
    return Problem(model, u0, spec, mesh).report(A)
