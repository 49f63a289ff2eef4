"""Flux-limited traffic junction toolkit.

Evaluates the junction Hamilton-Jacobi value function for piecewise-constant
flux limiters by its variational formula, cross-validates against a Godunov
entropy solver for the coupled conservation law, evaluates box-flux control
costs, audits first-order optimality conditions, and searches for bang-bang
optimal limiters.
"""

from .controls import Control, ControlError, clamp_project, integrate, weak_star_square_wave
from .flux_models import (
    Hamiltonian,
    InitialData,
    JunctionModel,
    ModelError,
    flux_branches,
)
from .hj_junction import (
    LEAST_AT_ZERO,
    MOST_AT_ZERO,
    Mesh,
    SolverError,
    TrajectoryDescriptor,
    ValueField,
    gradient_audit,
    junction_values,
    optimal_trajectory,
    trajectory_field,
    value,
    value_grid,
)

__all__ = [
    "Control",
    "ControlError",
    "Hamiltonian",
    "InitialData",
    "JunctionModel",
    "LEAST_AT_ZERO",
    "MOST_AT_ZERO",
    "Mesh",
    "ModelError",
    "SolverError",
    "TrajectoryDescriptor",
    "ValueField",
    "clamp_project",
    "flux_branches",
    "gradient_audit",
    "integrate",
    "junction_values",
    "optimal_trajectory",
    "trajectory_field",
    "value",
    "value_grid",
    "weak_star_square_wave",
]
