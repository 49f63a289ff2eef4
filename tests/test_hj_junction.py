import numpy as np
import pytest

from junctionflow import (
    LEAST_AT_ZERO,
    MOST_AT_ZERO,
    Control,
    Hamiltonian,
    InitialData,
    JunctionModel,
    Mesh,
    SolverError,
    brute_force_value,
    gradient_audit,
    junction_trace,
    junction_values,
    optimal_trajectory,
    trajectory_field,
    value,
    value_grid,
    weak_star_square_wave,
)
from junctionflow.hj_junction import _SELECT_BLOCK, TIE_SCALE, Evaluator, brute_force_field

from conftest import H_OF_P, P_SLOPE, T_HORIZON, random_control


class TestValue:
    def test_free_flow_closed_form(self, model, u0, free_flow):
        v, best = value(model, u0, free_flow, 0.3, 1.0)
        assert v == pytest.approx(P_SLOPE * 0.3 - H_OF_P * 1.0, abs=1e-12)  # -0.08
        assert best.kind == "straight"

    def test_blocked_closed_form(self, model, u0, blocked):
        v, _ = value(model, u0, blocked, 0.1, 1.0)
        assert v == pytest.approx(0.0, abs=1e-12)
        # for x <= 0 the blocked value is min(-R x, p x - H(p) t)
        v2, _ = value(model, u0, blocked, -0.5, 2.0)
        assert v2 == pytest.approx(0.5, abs=1e-12)

    def test_short_time_limit_recovers_datum(self, model, u0, free_flow):
        for x in (-1.0, 0.4, 1.3):
            v, _ = value(model, u0, free_flow, x, 1e-4)
            assert abs(v - u0.eval(x)) <= 1e-3

    def test_time_domain_errors(self, model, u0, free_flow):
        with pytest.raises(SolverError):
            value(model, u0, free_flow, 0.0, 0.0)
        with pytest.raises(SolverError):
            value(model, u0, free_flow, 0.0, T_HORIZON + 1.0)

    def test_control_range_rejected(self, model, u0):
        bad = Control((0.0, T_HORIZON), (-0.3,))  # below A0 = -0.25
        with pytest.raises(SolverError):
            value(model, u0, bad, 0.0, 1.0)


class TestValueGrid:
    def test_free_flow_grid(self, model, u0, free_flow):
        mesh = Mesh.regular(-2.0, 2.0, 61, T_HORIZON, 61)
        f = value_grid(model, u0, free_flow, mesh)
        X, T = np.meshgrid(mesh.xs, mesh.ts, indexing="ij")
        assert np.abs(f.u - (P_SLOPE * X - H_OF_P * T)).max() <= 1e-12

    def test_t0_row_is_datum(self, model, u0, switching):
        mesh = Mesh.regular(-1.0, 1.0, 21, 2.0, 5)
        f = value_grid(model, u0, switching, mesh)
        assert np.abs(f.u[:, 0] - u0.eval(mesh.xs)).max() == 0.0

    def test_single_node_matches_value(self, model, u0, switching):
        mesh = Mesh(np.array([0.3]), np.array([2.0]))
        f = value_grid(model, u0, switching, mesh)
        v, _ = value(model, u0, switching, 0.3, 2.0)
        assert f.u[0, 0] == pytest.approx(v, abs=1e-14)


class TestMonotonicity:
    def test_pointwise_control_ordering(self, model, u0):
        rng = np.random.default_rng(42)
        mesh = Mesh.regular(-2.0, 2.0, 41, T_HORIZON, 41)
        times = (0.0, 1.0, 2.5, 4.0, T_HORIZON)
        for _ in range(3):
            lo = rng.uniform(model.A0, 0.0, 4)
            hi = lo + rng.uniform(0, 1, 4) * (0.0 - lo)
            fa = value_grid(model, u0, Control(times, tuple(lo)), mesh)
            fb = value_grid(model, u0, Control(times, tuple(hi)), mesh)
            assert np.max(fb.u - fa.u) <= 1e-9

    def test_sandwich(self, model, u0, free_flow, blocked, switching):
        mesh = Mesh.regular(-2.0, 2.0, 41, T_HORIZON, 41)
        f0 = value_grid(model, u0, blocked, mesh)
        fa = value_grid(model, u0, switching, mesh)
        ff = value_grid(model, u0, free_flow, mesh)
        assert np.max(f0.u - fa.u) <= 1e-9
        assert np.max(fa.u - ff.u) <= 1e-9


class TestTrajectories:
    def test_free_flow_straight(self, model, u0, free_flow):
        for sel in (MOST_AT_ZERO, LEAST_AT_ZERO):
            d = optimal_trajectory(model, u0, free_flow, 0.3, 1.0, sel)
            assert d.kind == "straight"
            assert d.y == pytest.approx(0.9, abs=1e-9)

    def test_shadow_point_dwells_until_t2(self, model, u0, switching):
        # between the box windows the cheapest route waits at the junction
        # until the switch and exits with the paper's y-window minimum
        v, _ = value(model, u0, switching, 0.15, 3.0)
        assert v == pytest.approx(1.5 * 0.2025, abs=1e-9)  # (t-t2) L(x/(t-t2))
        for sel in (MOST_AT_ZERO, LEAST_AT_ZERO):
            d = optimal_trajectory(model, u0, switching, 0.15, 3.0, sel)
            assert d.kind == "dwell"
            assert d.b <= 1.5 + 1e-4
            # descriptor cost sits within the tie band of the minimum
            assert d.cost == pytest.approx(v, abs=2e-7)

    def test_late_box_is_free_flow(self, model, u0, switching):
        # conditions (ii)/(iii) keep the late window at free flow, so the
        # optimal trajectory there is the straight characteristic
        for sel in (MOST_AT_ZERO, LEAST_AT_ZERO):
            d = optimal_trajectory(model, u0, switching, 0.15, 4.8, sel)
            assert d.kind == "straight"
            assert d.cost == pytest.approx(P_SLOPE * 0.15 - H_OF_P * 4.8, abs=1e-12)

    def test_junction_point_blocked_dwells_to_t(self, model, u0, blocked):
        d = optimal_trajectory(model, u0, blocked, 0.0, 2.0, MOST_AT_ZERO)
        assert d.kind == "dwell"
        assert d.a == pytest.approx(0.0, abs=1e-12)
        assert d.b == pytest.approx(2.0, abs=1e-12)
        assert d.cost == pytest.approx(0.0, abs=1e-12)

    def test_selector_tie_direction(self, model, u0, blocked):
        most = optimal_trajectory(model, u0, blocked, 0.1, 1.0, MOST_AT_ZERO)
        least = optimal_trajectory(model, u0, blocked, 0.1, 1.0, LEAST_AT_ZERO)
        assert most.kind == "dwell" and least.kind == "dwell"
        assert most.a <= least.a + 1e-12
        assert most.b >= 1.0 - 1e-6  # plateau expanded toward t

    def test_descriptor_invariants(self, model, u0):
        rng = np.random.default_rng(3)
        A = random_control(rng, model.A0)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5)
            t = rng.uniform(0.2, T_HORIZON)
            v, _ = value(model, u0, A, x, t)
            for sel in (MOST_AT_ZERO, LEAST_AT_ZERO):
                d = optimal_trajectory(model, u0, A, x, t, sel)
                assert d.cost <= v + 1e-8 * (1.0 + abs(v)) + 1e-12
                assert d.recompute_cost(model, u0, A) == pytest.approx(d.cost, abs=1e-10)
                if d.kind == "straight":
                    assert d.y * x >= 0.0 or x == 0.0
                else:
                    assert -1e-12 <= d.a <= d.b <= t + 1e-12
                    if d.a > 0:
                        assert d.y != 0.0
                    if d.b < t - 1e-12:
                        assert x != 0.0

    def test_dwell_implies_junction_gap(self, model, u0, switching, free_flow):
        # wherever u^A < u^free the returned path dwells with a < b and the
        # junction value at the dwell end stays strictly below free flow
        pts = [(0.12, 1.2), (0.15, 2.5), (0.1, 3.5)]
        for x, t in pts:
            va, _ = value(model, u0, switching, x, t)
            vf, _ = value(model, u0, free_flow, x, t)
            assert va < vf - 1e-9
            d = optimal_trajectory(model, u0, switching, x, t, MOST_AT_ZERO)
            assert d.kind == "dwell" and d.a < d.b
            ua = junction_values(model, u0, switching, [d.b])[0]
            uf = junction_values(model, u0, free_flow, [d.b])[0]
            assert ua < uf + 1e-9

    def test_trajectory_field_matches_pointwise(self, model, u0, switching):
        mesh = Mesh(np.linspace(0.1, 0.18, 5), np.linspace(1.1, 1.4, 4))
        tf = trajectory_field(model, u0, switching, mesh, MOST_AT_ZERO)
        for i, x in enumerate(mesh.xs):
            for j, t in enumerate(mesh.ts):
                d = optimal_trajectory(model, u0, switching, float(x), float(t), MOST_AT_ZERO)
                assert tf["is_dwell"][i, j] == d.dwells
                if d.dwells:
                    assert tf["a"][i, j] == pytest.approx(d.a, abs=1e-9)
                    assert tf["b"][i, j] == pytest.approx(d.b, abs=1e-9)


class TestBruteForce:
    def test_free_flow_golden(self, model, u0, free_flow):
        v = brute_force_value(model, u0, free_flow, 0.3, 1.0, lattice=(200, 200))
        assert v == pytest.approx(-0.08, abs=0.02)

    def test_vacuum_zero_exactly(self, model, free_flow, blocked):
        # zero-cost lattice paths exist at the junction node (parking) and
        # wherever the straight free leg never enters the junction cone
        flat = InitialData((), (0.0,), capacities=(1.0, 1.0), allow_boundary_slopes=True)
        for x in (0.0, 1.1, 1.5):
            v = brute_force_value(model, flat, blocked, x, 1.0, lattice=(64, 64))
            assert v == pytest.approx(0.0, abs=1e-15)
        # inside the cone the parked-then-exit path is first-order accurate
        dt = 1.0 / 64
        v = brute_force_value(model, flat, blocked, 0.2, 1.0, lattice=(64, 64))
        assert 0.0 <= v <= 0.25 * dt

    def test_agreement_with_value(self, model, u0):
        rng = np.random.default_rng(9)
        A = random_control(rng, model.A0)
        nodes, ts, V = brute_force_field(model, u0, A, T_HORIZON, (160, 160), domain=(-8.0, 8.0))
        dx = (nodes[-1] - nodes[0]) / (len(nodes) - 1)
        dt = T_HORIZON / 160
        for _ in range(12):
            i = rng.integers(0, len(nodes))
            k = rng.integers(len(ts) // 4, len(ts))
            x, t = float(nodes[i]), float(ts[k])
            if abs(x) > 2.0:
                continue
            v, _ = value(model, u0, A, x, t)
            assert abs(v - V[i, k]) <= 2.0 * (dx + dt)

    def test_lattice_too_small(self, model, u0, free_flow):
        with pytest.raises(SolverError):
            brute_force_value(model, u0, free_flow, 0.0, 1.0, lattice=(4, 4))


class TestJunctionTrace:
    def test_free_flow_trace(self, model, u0, free_flow):
        mesh = Mesh.regular(-1.0, 1.0, 41, 3.0, 13)
        f = value_grid(model, u0, free_flow, mesh)
        tr = junction_trace(f)
        assert np.abs(tr[:, 1] - (-H_OF_P) * tr[:, 0]).max() <= 1e-9
        assert np.abs(tr[:, 2] - (-H_OF_P) * tr[:, 0]).max() <= 1e-9
        assert tr[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_traces_agree_for_continuous_field(self, model, u0, switching):
        mesh = Mesh.regular(-1.0, 1.0, 81, T_HORIZON, 25)
        f = value_grid(model, u0, switching, mesh)
        tr = junction_trace(f)
        dx = mesh.xs[1] - mesh.xs[0]
        assert np.abs(tr[:, 1] - tr[:, 2]).max() <= 2.0 * dx * 1.0

    def test_requires_zero_column(self, model, u0, free_flow):
        mesh = Mesh.regular(-1.0, 1.0, 40, 2.0, 5)  # no x = 0 node
        f = value_grid(model, u0, free_flow, mesh)
        with pytest.raises(SolverError):
            junction_trace(f)


class TestRestartConsistency:
    def test_dynamic_programming_restart(self, model, u0, switching):
        """Restarting from a sampled slice reproduces the value to mesh error."""
        xs = np.linspace(-8.0, 8.0, 161)
        s = 2.0
        f = value_grid(model, u0, switching, Mesh(xs, np.array([s])))
        data, offset = InitialData.from_samples(xs, f.u[:, 0], (1.0, 1.0))
        A_shift = switching.shifted(s)
        dx = xs[1] - xs[0]
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5)
            t = rng.uniform(s + 0.3, T_HORIZON)
            direct, _ = value(model, u0, switching, x, t)
            restarted, _ = value(model, data, A_shift, x, t - s)
            assert abs(direct - (restarted + offset)) <= 2.0 * dx


class TestWeakStarStability:
    def test_square_wave_convergence(self, model, u0):
        mesh = Mesh.regular(-2.0, 2.0, 41, T_HORIZON, 41)
        half = Control((0.0, T_HORIZON), (model.A0 / 2.0,))
        ref = value_grid(model, u0, half, mesh)
        dists = []
        for n in (2, 8):
            f = value_grid(model, u0, weak_star_square_wave(n, T_HORIZON, model.A0), mesh)
            dists.append(np.abs(f.u - ref.u).max())
        assert dists[1] < dists[0]
        assert dists[1] <= abs(model.A0) * T_HORIZON / (4 * 8) + 1e-9


class TestGradientAudit:
    def test_bounds_hold_on_fields(self, model, u0, switching, blocked):
        mesh = Mesh.regular(-2.0, 2.0, 81, T_HORIZON, 81)
        for A in (switching, blocked):
            rep = gradient_audit(value_grid(model, u0, A, mesh), model)
            assert rep["ok"], rep


# ---- the exact evaluator beyond the symmetric single-slope case ------------------

TAB_P = np.round(np.linspace(-1.0, 0.0, 11), 12)
TAB_H = np.where((TAB_P > -1.0) & (TAB_P < 0.0), -0.3 * TAB_P**3 + 0.7 * TAB_P**2 + TAB_P, 0.0)


def asym_case():
    model = JunctionModel(Hamiltonian(R=1.0, kappa=1.0), Hamiltonian(R=2.0, kappa=0.5))
    u0 = InitialData((-1.0, -0.3, 0.6), (-0.3, -0.7, -0.8, -1.4), capacities=(1.0, 2.0))
    return model, u0


def tab_case():
    H = Hamiltonian(R=1.0, kind="tabulated", samples=tuple(zip(TAB_P, TAB_H)))
    u0 = InitialData((-1.0, -0.3, 0.6), (-0.3, -0.7, -0.8, -0.9), capacities=(1.0, 1.0))
    return JunctionModel(H, H, equal_minima=True), u0


def scan_cost(ev, x, t, n=2001):
    """Cheapest path cost over a dense (a, b) grid holding the control's switches.

    Every grid path is a real path, so the result bounds the value from above.
    """
    g = np.unique(np.concatenate([np.linspace(0.0, t, n), [s for s in ev.A.times if 0.0 < s < t]]))
    prefix = np.minimum.accumulate(ev.approach_cost(g)[0] + ev.A.cumulative(g))
    dwell = prefix - ev.A.cumulative(g) + ev.exit_cost(x, t, g)
    return min(float(dwell.min()), float(ev.straight_value(np.array([x]), t)[0][0]))


class TestExactEvaluator:
    def test_f2_node_reaches_the_infimum(self, model, u0, functional_mesh):
        # the seeded grid search missed this node by 2.26e-4
        A = Control((0.0, 1.2, 2.0, 3.1, T_HORIZON), (-0.05, 0.0, -0.2, -0.1))
        f = value_grid(model, u0, A, functional_mesh)
        i, j = 22, 93
        x, t = float(f.xs[i]), float(f.ts[j])
        assert (x, t) == pytest.approx((0.146, 3.34125), abs=1e-12)
        assert f.u[i, j] <= 0.28767061
        assert f.u[i, j] <= scan_cost(Evaluator(model, u0, A), x, t, n=6001) + 1e-12

    @pytest.mark.parametrize("case", [asym_case, tab_case], ids=["asymq", "tabulated"])
    def test_random_controls(self, case):
        model, u0 = case()
        rng = np.random.default_rng(404)
        mesh = Mesh.regular(-2.0, 2.0, 41, T_HORIZON, 41)
        for _ in range(4):
            A = random_control(rng, model.A0, cells=int(rng.integers(3, 7)))
            ev = Evaluator(model, u0, A)
            for _ in range(12):
                x = 0.0 if rng.random() < 0.15 else float(rng.uniform(-2.0, 2.0))
                t = float(rng.uniform(0.1, T_HORIZON))
                v, _ = ev.value(x, t)
                assert v <= scan_cost(ev, x, t) + 1e-12
                for sel in (MOST_AT_ZERO, LEAST_AT_ZERO):
                    d = optimal_trajectory(model, u0, A, x, t, sel)
                    assert d.recompute_cost(model, u0, A) == pytest.approx(d.cost, abs=1e-10)
                    assert abs(d.cost - v) <= TIE_SCALE * (1.0 + abs(v)) + 1e-12
            frac = rng.uniform(0.0, 1.0, len(A.values))
            raised = Control(A.times, tuple(np.asarray(A.values) * frac))
            f = value_grid(model, u0, A, mesh)
            assert np.max(value_grid(model, u0, raised, mesh).u - f.u) <= 1e-9
            rep = gradient_audit(f, model)
            assert rep["ok"], rep


# ---- the trajectory field: one selection over flat node arrays -----------------


def canonical_case():
    quad = Hamiltonian(R=1.0, kind="quadratic", kappa=1.0)
    return JunctionModel(quad, quad, equal_minima=True), InitialData((), (P_SLOPE,), capacities=(1.0, 1.0))


class TestTrajectoryField:
    @pytest.mark.parametrize("case", [canonical_case, asym_case, tab_case],
                             ids=["canonical", "asymq", "tabulated"])
    def test_field_equals_pointwise_selection(self, case):
        model, u0 = case()
        if case is canonical_case:
            A = Control((0.0, 1.5, T_HORIZON), (0.0, model.A0))
        else:
            A = random_control(np.random.default_rng(505), model.A0, cells=4)
        mesh = Mesh(np.linspace(-1.5, 1.5, 9), np.linspace(0.3, T_HORIZON, 7))
        u = value_grid(model, u0, A, mesh).u
        for sel in (MOST_AT_ZERO, LEAST_AT_ZERO):
            tf = trajectory_field(model, u0, A, mesh, sel)
            assert tf["is_dwell"].any() and not tf["is_dwell"].all()
            assert np.array_equal(tf["value"], u)
            for i, x in enumerate(mesh.xs):
                for j, t in enumerate(mesh.ts):
                    d = optimal_trajectory(model, u0, A, x, t, sel)
                    assert tf["is_dwell"][i, j] == d.dwells
                    if d.dwells:
                        assert (tf["a"][i, j], tf["b"][i, j]) == (d.a, d.b)
                    else:
                        assert np.isnan(tf["a"][i, j]) and np.isnan(tf["b"][i, j])

    def test_sub_mesh_is_a_bitwise_slice(self, model, u0, functional_mesh):
        A = Control((0.0, 1.2, 2.0, 3.1, T_HORIZON), (-0.05, 0.0, -0.2, -0.1))
        ev = Evaluator(model, u0, A)
        width = max(len(ev._seg["lo"]), len(ev._phi["lo"]))
        full = functional_mesh
        assert full.xs.size * full.ts.size > 2 * (_SELECT_BLOCK // width)  # several blocks
        rows, cols = slice(3, 38, 4), slice(10, 150, 9)
        sub = Mesh(full.xs[rows], full.ts[cols])
        for sel in (MOST_AT_ZERO, LEAST_AT_ZERO):
            whole = trajectory_field(model, u0, A, full, sel)
            part = trajectory_field(model, u0, A, sub, sel)
            for key in ("is_dwell", "a", "b", "value"):
                assert np.array_equal(part[key], whole[key][rows, cols], equal_nan=True), key
        assert np.array_equal(value_grid(model, u0, A, sub).u,
                              value_grid(model, u0, A, full).u[rows, cols])

    def test_datum_row_and_time_errors(self, model, u0, switching):
        mesh = Mesh(np.linspace(-1.0, 1.0, 5), np.array([0.0, 1.0]))
        tf = trajectory_field(model, u0, switching, mesh, MOST_AT_ZERO)
        assert not tf["is_dwell"][:, 0].any() and np.isnan(tf["a"][:, 0]).all()
        assert np.array_equal(tf["value"][:, 0], u0.eval(mesh.xs))
        with pytest.raises(SolverError):
            trajectory_field(model, u0, switching, Mesh(mesh.xs, np.array([1.0, 7.0])), MOST_AT_ZERO)
        with pytest.raises(SolverError):
            optimal_trajectory(model, u0, switching, 0.5, 0.0, MOST_AT_ZERO)
