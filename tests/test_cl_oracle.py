import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import Control, Hamiltonian, JunctionModel, ModelError, SolverError
from junctionflow._util import sorted_unique
from junctionflow.cl_oracle import (
    DensityField,
    GermElement,
    cross_check,
    junction_flux,
    make_grid,
    solve_cl,
)
from junctionflow.flux_models import flux_branches

from conftest import TAB, T_HORIZON, asym_case, random_control


def godunov_flux(H, rho_l, rho_r):
    """Exact Riemann flux for the concave f: min(f_plus(left), f_minus(right)),
    one face at a time: the reference solve_cl's face march is pinned to."""
    fpl, _ = flux_branches(H, rho_l)
    _, fmr = flux_branches(H, rho_r)
    out = np.minimum(fpl, fmr)
    return float(out) if np.ndim(out) == 0 else out


def centers(faces):
    return 0.5 * (faces[:-1] + faces[1:])


class TestGodunovFlux:
    def test_shock_configuration(self, quad):
        assert godunov_flux(quad, 0.9, 0.1) == pytest.approx(0.25)

    def test_consistency(self, quad):
        for rho in (0.0, 0.3, 0.5, 0.9):
            assert godunov_flux(quad, rho, rho) == pytest.approx(quad.flux(rho), abs=1e-15)

    def test_transonic_vacuum(self, quad):
        assert godunov_flux(quad, 0.0, 1.0) == pytest.approx(0.0)

    def test_riemann_oracle(self, quad):
        # exhaustive min/max over the fan, the textbook Godunov definition
        rng = np.random.default_rng(2)
        grid = np.linspace(0.0, 1.0, 2001)
        for _ in range(40):
            rl, rr = rng.uniform(0.0, 1.0, 2)
            inside = grid[(grid >= min(rl, rr)) & (grid <= max(rl, rr))]
            between = np.concatenate([[rl, rr], inside])
            expect = quad.flux(between).min() if rl <= rr else quad.flux(between).max()
            assert godunov_flux(quad, rl, rr) == pytest.approx(expect, abs=1e-9)


class TestJunctionFlux:
    def test_red_light(self, model):
        assert junction_flux(model, 0.5, 0.5, 0.0) == pytest.approx(0.0)

    def test_capacity(self, model):
        assert junction_flux(model, 0.5, 0.5, model.A0) == pytest.approx(0.25)

    def test_limited(self, model):
        assert junction_flux(model, 0.9, 0.1, -0.09) == pytest.approx(0.09)

    def test_limiter_domain(self, model):
        with pytest.raises(ModelError):
            junction_flux(model, 0.5, 0.5, -0.5)


class TestGermElement:
    def test_stationary_member(self, model):
        assert GermElement(0.9, 0.1, -0.09).is_member(model)

    def test_non_member(self, model):
        assert not GermElement(0.9, 0.4, -0.09).is_member(model)

    def test_free_flow_member(self, model):
        assert GermElement(0.3, 0.3, model.A0).is_member(model)
        assert GermElement(0.5, 0.5, model.A0).is_member(model)


class TestMakeGrid:
    def test_face_at_zero(self):
        faces = make_grid(-2.0, 2.0, 100)
        assert 0.0 in faces
        assert len(faces) == 101

    def test_rejects_misaligned(self):
        with pytest.raises(SolverError):
            make_grid(-1.0, 2.0, 100)  # no face lands on 0
        with pytest.raises(SolverError):
            make_grid(1.0, 2.0, 10)


class TestSolveCL:
    def test_vacuum_stationary(self, model):
        faces = make_grid(-1.0, 1.0, 40)
        rho0 = np.zeros(40)
        out = solve_cl(model, rho0, faces, Control((0.0, 2.0), (0.0,)), np.linspace(0, 2, 5))
        assert np.abs(out.rho).max() == 0.0

    def test_germ_state_stationary(self, model):
        faces = make_grid(-1.0, 1.0, 100)
        rho0 = np.where(centers(faces) < 0, 0.9, 0.1)
        out = solve_cl(model, rho0, faces, Control((0.0, 2.0), (-0.09,)), np.linspace(0, 2, 9))
        assert np.abs(out.rho - rho0[:, None]).max() <= 1e-10
        assert out.mass_balance_error <= 1e-12

    def test_red_light_queue(self, model):
        faces = make_grid(-1.0, 1.0, 100)
        rho0 = np.where(centers(faces) < 0, 0.3, 0.0)
        out = solve_cl(model, rho0, faces, Control((0.0, 2.0), (0.0,)), np.array([0.0, 2.0]))
        iz = 50
        # queue saturates behind a backward shock; the exit line stays empty
        assert np.abs(out.rho[iz - 3 : iz, -1] - 1.0).max() <= 1e-6
        assert np.abs(out.rho[iz:, -1]).max() <= 1e-12
        shock_cells = np.where(out.rho[:iz, -1] > 0.65)[0]
        x_shock = centers(faces)[shock_cells[0]]
        assert x_shock == pytest.approx(-0.3 * 2.0, abs=0.06)  # Rankine-Hugoniot speed -0.3

    def test_max_principle_and_conservation(self, model, u0):
        faces = make_grid(-2.0, 2.0, 80)
        u_faces = u0.eval(faces)
        rho0 = (u_faces[:-1] - u_faces[1:]) / np.diff(faces)
        A = Control((0.0, 3.0, 6.0), (0.0, -0.25))
        out = solve_cl(model, rho0, faces, A, np.linspace(0, 6, 7))
        assert out.rho.min() >= -1e-12
        assert out.rho.max() <= 1.0 + 1e-12
        assert out.mass_balance_error <= 1e-12

    def test_cells_too_narrow_to_advance_raise(self, model):
        # a CFL step of about 9e-301 leaves t = 2 where it is: the march would never end
        faces = make_grid(-1e-300, 1e-300, 2)
        A = Control((0.0, 2.0), (-0.25,))
        with pytest.raises(SolverError, match="does not advance"):
            solve_cl(model, np.full(2, 0.8), faces, A, np.array([0.0, 2.0]))

    def test_cfl_validation(self, model):
        faces = make_grid(-1.0, 1.0, 10)
        with pytest.raises(SolverError):
            solve_cl(model, np.zeros(10), faces, Control((0.0, 1.0), (0.0,)),
                     np.array([0.0, 1.0]), cfl=1.5)

    @pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, 0.5, np.nan]])
    def test_nan_snapshot_time_raises(self, model, times):
        faces = make_grid(-1.0, 1.0, 10)
        with pytest.raises(SolverError, match="snapshot times"):
            solve_cl(model, np.zeros(10), faces, Control((0.0, 1.0), (0.0,)), np.array(times))


def face_march(model, rho, faces, A, times, cfl=0.9):
    """solve_cl's march as it was built face by face on godunov_flux and
    junction_flux: the reference for its one-evaluation-per-cell step."""
    rho, dx = np.array(rho, dtype=float), np.diff(faces)
    iz = int(np.argmin(np.abs(faces)))
    dt_max = cfl * dx.min() / max(model.left.max_wave_speed, model.right.max_wave_speed)
    stops = sorted_unique(np.concatenate([times, [s for s in A.times if s <= times[-1]]]))
    out, snap, mass_err, t = [rho], 1, 0.0, 0.0
    for stop in stops[1:]:
        while t < stop - 1e-14:
            dt = min(dt_max, stop - t)
            fl = np.empty(len(faces))
            fl[1:iz] = godunov_flux(model.left, rho[: iz - 1], rho[1:iz]) if iz > 1 else 0.0
            if iz + 1 < len(faces) - 1:
                fl[iz + 1 : -1] = godunov_flux(model.right, rho[iz:-1], rho[iz + 1 :])
            fl[iz] = junction_flux(model, rho[iz - 1], rho[iz], A(t))
            fl[0] = godunov_flux(model.left, rho[0], rho[0])
            fl[-1] = godunov_flux(model.right, rho[-1], rho[-1])
            new = rho - dt / dx * (fl[1:] - fl[:-1])
            mass_err = max(mass_err, abs(((new - rho) * dx).sum() + dt * (fl[-1] - fl[0])))
            rho = new
            t += dt
        if snap < len(times) and abs(stop - times[snap]) <= 1e-12:
            out.append(rho)
            snap += 1
    return np.column_stack(out), mass_err


SYMMETRIC = JunctionModel(Hamiltonian(R=1.0), Hamiltonian(R=1.0), equal_minima=True)
MARCH_MODELS = {"symmetric": SYMMETRIC, "asymq": asym_case()[0],
                "tabulated": JunctionModel(TAB, TAB, equal_minima=True)}
MARCH_GRIDS = {"40 cells": (-2.0, 2.0, 40), "one cell on the left": (-1.0, 3.0, 4),
               "one cell on the right": (-3.0, 1.0, 4), "one cell a side": (-1.0, 1.0, 2)}


class TestSolveCLMarch:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(MARCH_MODELS)), grid=st.sampled_from(sorted(MARCH_GRIDS)),
           cells=st.integers(1, 5), near_snapshot=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_the_face_march(self, name, grid, cells, near_snapshot, seed):
        model, rng = MARCH_MODELS[name], np.random.default_rng(seed)
        faces = make_grid(*MARCH_GRIDS[grid])
        times = np.linspace(0.0, T_HORIZON, 7)
        A = random_control(rng, model.A0, cells=cells)
        if near_snapshot:  # a breakpoint within 1e-13 of a snapshot time
            k = rng.integers(1, 6)
            switch = times[k] + rng.choice([-1.0, 1.0]) * rng.uniform(1e-15, 1e-13)
            A = Control((0.0, switch, T_HORIZON), tuple(rng.uniform(model.A0, 0.0, 2)))
        # random densities in each side's [0, R], with vacuum, jam and rho_hat cells
        iz = int(np.argmin(np.abs(faces)))
        H = [model.left] * iz + [model.right] * (len(faces) - 1 - iz)
        rho0 = np.array([rng.choice([rng.uniform(0.0, h.R), 0.0, h.R, h.rho_hat]) for h in H])
        got = solve_cl(model, rho0, faces, A, times)
        rho, mass_err = face_march(model, rho0, faces, A, times)
        assert got.rho.tobytes() == rho.tobytes()
        assert got.mass_balance_error == mass_err

    @pytest.mark.parametrize("value", [-0.3, 0.01], ids=["below A0", "above 0"])
    def test_limiter_outside_the_range_raises(self, model, value):
        faces = make_grid(-1.0, 1.0, 10)
        A = Control((0.0, 0.5, 1.0), (model.A0, value))
        with pytest.raises(ModelError, match="limiter outside"):
            solve_cl(model, np.full(10, 0.3), faces, A, np.array([0.0, 1.0]))


class TestCrossCheck:
    def test_free_flow_exact(self, model, u0, free_flow):
        faces = make_grid(-2.0, 2.0, 80)
        rep = cross_check(model, u0, free_flow, faces, np.linspace(0, 2, 5))
        assert rep["l1_density_error"] <= 1e-12

    def test_canonical_switching_refines(self, model, u0, switching):
        times = np.linspace(0.0, T_HORIZON, 13)
        errs = {}
        for cells in (100, 200):
            faces = make_grid(-8.0, 8.0, cells)
            errs[cells] = cross_check(model, u0, switching, faces, times)["l1_density_error"]
        assert errs[200] < errs[100] * 1.2  # decreasing within slack
        assert errs[200] <= 0.05

    def test_vacuum(self, model, blocked):
        from junctionflow import InitialData

        flat = InitialData((), (0.0,), capacities=(1.0, 1.0), allow_boundary_slopes=True)
        faces = make_grid(-1.0, 1.0, 40)
        rep = cross_check(model, flat, blocked, faces, np.linspace(0, 1, 3))
        assert rep["l1_density_error"] == pytest.approx(0.0, abs=1e-15)

    def test_csv_export(self, model, u0, switching, tmp_path):
        faces = make_grid(-1.0, 1.0, 20)
        rep = cross_check(model, u0, switching, faces, np.linspace(0, 1, 3))
        path = tmp_path / "rho.csv"
        rep["density"].write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,t,rho"
        assert len(lines) == 1 + 20 * 3
