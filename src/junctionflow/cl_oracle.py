"""Godunov entropy solver for the limiter-coupled conservation law.

Independent of the variational evaluator: first-order finite volumes with the
exact concave-flux Godunov formula in the interior and the admissible-trace
junction flux min(-A, f_plus(left), f_minus(right)) on the face at x = 0.
Used to cross-validate rho^A = -u^A_x. junction_flux gives the face at 0
alone; solve_cl's step takes every face from one pair of flux branches per
cell, so an interior face is the exact Riemann flux
min(f_plus(left), f_minus(right)) and the junction face is junction_flux,
bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import sorted_unique, write_csv
from .controls import Control
from .flux_models import JunctionModel, ModelError, flux_branches
from .hj_junction import Mesh, SolverError, value_grid


@dataclass(frozen=True)
class DensityField:
    """Cell-centered densities; the grid straddles 0 with a face exactly at 0."""

    centers: np.ndarray
    times: np.ndarray
    rho: np.ndarray  # shape (len(centers), len(times))
    mass_balance_error: float = 0.0

    def write_csv(self, path):
        write_csv(path, "x,t,rho", *np.meshgrid(self.centers, self.times), self.rho.T)


@dataclass(frozen=True)
class GermElement:
    """Candidate junction trace pair (left density, right density, limiter)."""

    eL: float
    eR: float
    A: float

    def residual(self, model: JunctionModel) -> float:
        """Max deviation from flux equality and the limiter min-formula."""
        fl = float(model.left.flux(self.eL))
        fr = float(model.right.flux(self.eR))
        cap = junction_flux(model, self.eL, self.eR, self.A)
        return max(abs(fl - fr), abs(fl - cap), abs(fr - cap))

    def is_member(self, model: JunctionModel, tol: float = 1e-10) -> bool:
        return self.residual(model) <= tol


def _check_limiter(model: JunctionModel, A):
    """A as a float array; a ModelError unless it lies in [A0, 0] up to 1e-9."""
    A = np.asarray(A, dtype=float)
    if (A < model.A0 - 1e-9).any() or (A > 1e-9).any():
        raise ModelError(f"limiter outside [{model.A0}, 0]")
    return A


def junction_flux(model: JunctionModel, rho_l, rho_r, A):
    """Limited junction flux min(-A, f_plus^L(rho_l), f_minus^R(rho_r)) >= 0."""
    A = _check_limiter(model, A)
    fpl, _ = flux_branches(model.left, rho_l)
    _, fmr = flux_branches(model.right, rho_r)
    out = np.minimum(-A, np.minimum(fpl, fmr))
    return float(out) if np.ndim(out) == 0 else out


def make_grid(xmin: float, xmax: float, cells: int):
    """Uniform cell grid on [xmin, xmax] with a face exactly at 0."""
    if not (xmin < 0.0 < xmax):
        raise SolverError("grid must straddle 0")
    dx = (xmax - xmin) / cells
    k = -xmin / dx
    if abs(k - round(k)) > 1e-9:
        raise SolverError("no cell face lands on 0; adjust cells or bounds")
    faces = xmin + dx * np.arange(cells + 1)
    faces[int(round(k))] = 0.0
    return faces


def solve_cl(
    model: JunctionModel,
    rho0: np.ndarray,
    faces: np.ndarray,
    A: Control,
    times: np.ndarray,
    cfl: float = 0.9,
) -> DensityField:
    """Explicit Godunov marching of the coupled conservation law.

    rho0 holds initial cell averages on the given face grid; snapshots are
    recorded at the requested times. Steps never cross a control breakpoint
    or a snapshot time, so the limiter is sampled exactly on each step. Cells
    so narrow that a full CFL step does not advance the last stop time raise
    SolverError before the first step.
    Boundary faces use zero-gradient ghost cells.

    Each step evaluates the flux branches (f_plus, f_minus) once per cell on
    its own side, then reads every face from them: interior faces
    min(f_plus[i], f_minus[i + 1]), each ghost face min(f_plus, f_minus) of
    its end cell, and the junction face min(-A(t), f_plus^L, f_minus^R) of
    the two cells beside x = 0; the limiter's values are range-checked once,
    before the first step. These are the exact Riemann flux of each face and
    junction_flux, to the last bit.
    """
    if not 0.0 < cfl <= 1.0:
        raise SolverError(f"cfl must be in (0, 1], got {cfl}")
    faces = np.asarray(faces, dtype=float)
    rho = np.asarray(rho0, dtype=float).copy()
    if len(rho) != len(faces) - 1:
        raise SolverError("rho0 must hold one value per cell")
    iz = int(np.argmin(np.abs(faces)))
    if abs(faces[iz]) > 1e-12:
        raise SolverError("face grid must contain x = 0")
    if iz < 1 or iz > len(rho) - 1:
        raise SolverError("grid needs at least one cell on each side of 0")
    left_sel = slice(0, iz)
    right_sel = slice(iz, len(rho))
    if np.any(rho[left_sel] < -1e-12) or np.any(rho[left_sel] > model.left.R + 1e-12):
        raise SolverError("initial density outside [0, R^L] on the left")
    if np.any(rho[right_sel] < -1e-12) or np.any(rho[right_sel] > model.right.R + 1e-12):
        raise SolverError("initial density outside [0, R^R] on the right")
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or not np.all(np.diff(times) > 0) or times[-1] > A.horizon + 1e-12:  # NaN too
        raise SolverError("snapshot times must start at 0, increase, and stay in [0, T]")

    dx = np.diff(faces)
    dt_max = cfl * dx.min() / max(model.left.max_wave_speed, model.right.max_wave_speed)
    stops = sorted_unique(np.concatenate([times, [s for s in A.times if s <= times[-1]]]))
    if stops[-1] + dt_max == stops[-1]:
        raise SolverError(f"the CFL step {dt_max:.3g} does not advance t = {stops[-1]}; "
                          "the cells are too narrow")
    _check_limiter(model, A.values)
    out = np.empty((len(rho), len(times)))
    out[:, 0] = rho
    snap = 1
    mass_err = 0.0
    fl = np.empty(len(faces))
    t = 0.0
    for stop in stops[1:]:
        while t < stop - 1e-14:
            dt = min(dt_max, stop - t)
            fpl, fml = flux_branches(model.left, rho[:iz])
            fpr, fmr = flux_branches(model.right, rho[iz:])
            a = A(t)
            # interior faces per side, zero-gradient ghosts, the junction face
            fl[1:iz] = np.minimum(fpl[:-1], fml[1:])
            fl[iz + 1 : -1] = np.minimum(fpr[:-1], fmr[1:])
            fl[iz] = np.minimum(-a, np.minimum(fpl[-1], fmr[0]))
            fl[0] = np.minimum(fpl[0], fml[0])
            fl[-1] = np.minimum(fpr[-1], fmr[-1])
            new = rho - dt / dx * (fl[1:] - fl[:-1])
            mass_err = max(mass_err, abs(((new - rho) * dx).sum() + dt * (fl[-1] - fl[0])))
            rho = new
            t += dt
        if snap < len(times) and abs(stop - times[snap]) <= 1e-12:
            out[:, snap] = rho
            snap += 1
    centers = 0.5 * (faces[:-1] + faces[1:])
    return DensityField(centers, times, out, mass_balance_error=float(mass_err))


def density_from_value_field(field) -> np.ndarray:
    """Cell averages of -u_x between mesh columns (exact for the primitive)."""
    return (field.u[:-1, :] - field.u[1:, :]) / np.diff(field.xs)[:, None]


def cross_check(
    model: JunctionModel,
    u0,
    A: Control,
    faces: np.ndarray,
    times: np.ndarray,
    cfl: float = 0.9,
):
    """Compare -d/dx of the variational field against the Godunov densities.

    Returns per-slice relative L1 errors and their max, plus the solver's
    conservation defect. The initial density is the exact cell average of
    -u0_x so both routes start from identical data.
    """
    faces = np.asarray(faces, dtype=float)
    u0_faces = np.asarray(u0.eval(faces), dtype=float)
    rho0 = (u0_faces[:-1] - u0_faces[1:]) / np.diff(faces)
    dens = solve_cl(model, rho0, faces, A, times, cfl=cfl)
    mesh = Mesh(faces, np.asarray(times, dtype=float))
    field = value_grid(model, u0, A, mesh)
    rho_hj = density_from_value_field(field)
    dxs = np.diff(faces)[:, None]
    num = np.sum(np.abs(rho_hj - dens.rho) * dxs, axis=0)
    # near-vacuum slices degrade to an absolute comparison at a mass floor
    floor = 1e-12 * max(model.left.R, model.right.R) * (faces[-1] - faces[0])
    den = np.maximum(np.sum(np.abs(dens.rho) * dxs, axis=0), floor)
    rel = num / den
    return dict(
        l1_density_error=float(rel.max()),
        per_slice=rel,
        mass_balance_error=dens.mass_balance_error,
        density=dens,
        field=field,
    )
