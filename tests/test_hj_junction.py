import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from junctionflow import (
    LEAST_AT_ZERO,
    MOST_AT_ZERO,
    Control,
    Hamiltonian,
    InitialData,
    JunctionModel,
    Mesh,
    SolverError,
    gradient_audit,
    junction_values,
    optimal_trajectory,
    trajectory_field,
    value,
    value_grid,
    weak_star_square_wave,
)
from junctionflow import hj_junction
from junctionflow.dp_oracle import _dp_domain, _dp_side_step, _exit_legs
from junctionflow.hj_junction import Evaluator, brute_force_field

from conftest import (
    H_OF_P,
    P_SLOPE,
    T_HORIZON,
    asym_case,
    brute_force_value,
    random_control,
    recompute_cost,
)


# a path cost within this of the value is the value up to the rounding of its sum
ROUNDING = 1e-14

# one-slope data, and 4-piece data with concave and with convex kinks, by the right capacity R
DATA = {"one-slope": lambda R: ((), (P_SLOPE,)),
        "concave-kinks": lambda R: ((-1.0, -0.3, 0.6), (-0.3, -0.7, -0.8, -0.9 * R)),
        "convex-kinks": lambda R: ((-1.0, -0.3, 0.6), (-0.9, -0.5, -0.2, -0.6 * R))}


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

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(["symmetric", "asymq", "tabulated"]), datum=st.sampled_from(sorted(DATA)),
           cells=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    @example(case="symmetric", datum="one-slope", cells=0, seed=0)
    def test_value_is_the_most_at_zero_selection(self, case, datum, cells, seed):
        """value's u is value_grid's to the bit on a one-node mesh, and its
        descriptor is optimal_trajectory's MostAtZero selection."""
        model = {"symmetric": canonical_case, "asymq": asym_case, "tabulated": tab_case}[case]()[0]
        R = model.right.R
        u0 = InitialData(*DATA[datum](R), capacities=(model.left.R, R))
        rng = np.random.default_rng(seed)
        A = (Control((0.0, 1.5, T_HORIZON), (0.0, model.A0)) if cells == 0  # the canonical switch
             else random_control(rng, model.A0, cells=cells))
        nodes = [(0.3, 2.0)] + [(0.0 if rng.random() < 0.15 else float(rng.uniform(-2.0, 2.0)),
                                 float(rng.uniform(0.05, T_HORIZON))) for _ in range(12)]
        for x, t in nodes:
            v, d = value(model, u0, A, x, t)
            assert d == optimal_trajectory(model, u0, A, x, t, MOST_AT_ZERO), (x, t)
            assert v == value_grid(model, u0, A, Mesh(np.array([x]), np.array([t]))).u[0, 0], (x, t)


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

    def test_mesh_rejects_nan_axes(self):
        for xs, ts in (([0.0, np.nan, 1.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, 1.0, np.nan])):
            with pytest.raises(SolverError, match="strictly increasing"):
                Mesh(np.array(xs), np.array(ts))


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
            assert d.b == 1.5
            assert d.cost == pytest.approx(v, abs=ROUNDING * (1.0 + abs(v)))

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
                assert d.cost <= v + ROUNDING * (1.0 + abs(v))
                assert recompute_cost(d, model, u0, A) == pytest.approx(d.cost, abs=1e-10)
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

    # asym: left R = 1, f_max = 0.25 and right R = 2, f_max = 0.5; mirror: the sides swapped.
    # Both bound the quotients by 2, so on steps of at most 0.02 both tolerances are
    # 3 * 0.02 * 2 = 0.12; a quotient q past its band by d violates it by d - 0.12.
    XS = (-0.02, -0.01, 0.0, 0.01, 0.03)
    TS = (0.0, 0.01, 0.03)

    @staticmethod
    def audit(xs, ts, u, mirror=False):
        left, right = Hamiltonian(R=1.0, kappa=1.0), Hamiltonian(R=2.0, kappa=0.5)
        model = JunctionModel(right, left) if mirror else JunctionModel(left, right)
        xs, ts = np.asarray(xs), np.asarray(ts)
        u = np.broadcast_to(u(xs[:, None], ts[None, :]), (len(xs), len(ts)))
        return gradient_audit(hj_junction.ValueField(xs, ts, u), model)

    @pytest.mark.parametrize("xs, column, shift, violation", [
        (XS, 0, -0.01, 0.88),  # q = +1 on the left pair: 1 - 0.12
        (XS, 0, 0.02, 0.88),  # q = -2 on the left pair, below -R = -1: 2 - 1 - 0.12
        (XS, 4, 0.02, 0.88),  # q = +1 on the right pair
        (XS, 4, -0.06, 0.88),  # q = -3 on the right pair, below -R = -2: 3 - 2 - 0.12
        ((-0.01, 0.01), 1, -0.05, 0.38),  # q = -2.5 across 0, below max(R) = 2: 2.5 - 2 - 0.12
        ((-0.01, 0.01), 1, -0.03, 0.0),  # q = -1.5 across 0: inside [-2, 0], not only [-1, 0]
    ])
    def test_x_band_violations(self, xs, column, shift, violation):
        x0 = xs[column]
        rep = self.audit(xs, self.TS, lambda x, t: np.where(x == x0, shift, 0.0))
        assert rep["max_violation_x"] == pytest.approx(violation, abs=1e-12)
        assert (rep["tol_x"], rep["tol_t"]) == pytest.approx((0.12, 0.12), abs=1e-15)
        assert rep["max_violation_t"] == 0.0
        assert rep["ok"] is (violation == 0.0)

    @pytest.mark.parametrize("xs, mirror, slope, violation", [
        (XS, False, 0.5, 0.13),  # the left columns: 0.5 - 0.25 - 0.12; right and x = 0 hold
        (XS, True, 0.5, 0.13),  # the right columns, f_max 0.25 once the sides swap
        (XS, False, -0.5, 0.38),  # q = -0.5 below 0 on every column: 0.5 - 0.12
        ((0.0, 0.01, 0.03), False, 0.5, 0.0),  # x = 0 takes max(f_max) = 0.5, not the left's 0.25
    ])
    def test_t_band_violations(self, xs, mirror, slope, violation):
        rep = self.audit(xs, self.TS, lambda x, t: slope * t, mirror)
        assert rep["max_violation_t"] == pytest.approx(violation, abs=1e-12)
        assert (rep["tol_x"], rep["tol_t"]) == pytest.approx((0.12, 0.12), abs=1e-15)
        assert rep["max_violation_x"] == 0.0
        assert rep["ok"] is (violation == 0.0)

    def test_one_row_and_one_column_fields_check_only_their_axis(self):
        row = self.audit(self.XS, (1.0,), lambda x, t: np.where(x == -0.02, -0.01, 0.0))
        assert row["max_violation_x"] == pytest.approx(0.88, abs=1e-12)
        assert row["tol_x"] == pytest.approx(0.12, abs=1e-15)
        assert (row["max_violation_t"], row["tol_t"], row["ok"]) == (0.0, 0.0, False)
        col = self.audit((-0.02,), self.TS, lambda x, t: 0.5 * t)
        assert col["max_violation_t"] == pytest.approx(0.13, abs=1e-12)
        assert col["tol_t"] == pytest.approx(0.12, abs=1e-15)
        assert (col["max_violation_x"], col["tol_x"], col["ok"]) == (0.0, 0.0, False)
        assert list(col) == ["max_violation_x", "max_violation_t", "tol_x", "tol_t", "ok"]


# ---- the exact evaluator beyond the symmetric single-slope case ------------------

TAB_P = np.round(np.linspace(-1.0, 0.0, 11), 12)
TAB_H = np.where((TAB_P > -1.0) & (TAB_P < 0.0), -0.3 * TAB_P**3 + 0.7 * TAB_P**2 + TAB_P, 0.0)


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
                v, _ = value(model, u0, A, x, t)
                assert v <= scan_cost(ev, x, t) + 1e-12
                for sel in (MOST_AT_ZERO, LEAST_AT_ZERO):
                    d = optimal_trajectory(model, u0, A, x, t, sel)
                    assert recompute_cost(d, model, u0, A) == pytest.approx(d.cost, abs=1e-10)
                    assert abs(d.cost - v) <= ROUNDING * (1.0 + abs(v))
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

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(["symmetric", "asymq", "tabulated"]), datum=st.sampled_from(sorted(DATA)),
           cells=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @example(case="symmetric", datum="convex-kinks", cells=1, seed=2)
    def test_selection_of_a_node_does_not_depend_on_its_batch(self, case, datum, cells, seed):
        """selection picks a and b only on the batch's dwelling nodes; each
        node's outputs are bitwise those of the node selected alone."""
        model = {"symmetric": canonical_case, "asymq": asym_case, "tabulated": tab_case}[case]()[0]
        R = model.right.R
        u0 = InitialData(*DATA[datum](R), capacities=(model.left.R, R))
        rng = np.random.default_rng(seed)
        ev = Evaluator(model, u0, random_control(rng, model.A0, cells=cells))
        x = np.where(rng.random(16) < 0.15, 0.0, rng.uniform(-1.5, 1.5, 16))
        t = rng.uniform(0.05, T_HORIZON, 16)
        for sel in (MOST_AT_ZERO, LEAST_AT_ZERO):
            batch = ev.selection(x, t, sel)
            for k in range(len(x)):
                alone = ev.selection(x[k], t[k], sel)
                for out, ref in zip(batch, alone):
                    assert out[k : k + 1].tobytes() == ref.tobytes(), (sel, k)

    def test_sub_mesh_is_a_bitwise_slice(self, model, u0, functional_mesh, monkeypatch):
        """Every walk gives its default-block result in blocks of a few rows, and
        on a sub-mesh the slice of its result on the whole mesh."""
        A = Control((0.0, 1.2, 2.0, 3.1, T_HORIZON), (-0.05, 0.0, -0.2, -0.1))
        rows, cols = slice(3, 38, 4), slice(10, 150, 9)
        meshes = dict(full=functional_mesh, sub=Mesh(functional_mesh.xs[rows], functional_mesh.ts[cols]))

        def walks():
            out = {("trace",): junction_values(model, u0, A, functional_mesh.ts)}
            for name, mesh in meshes.items():
                out[name, "u"] = value_grid(model, u0, A, mesh).u
                for sel in (MOST_AT_ZERO, LEAST_AT_ZERO):
                    out.update({(name, sel, k): v for k, v in trajectory_field(model, u0, A, mesh, sel).items()})
            return out

        default = walks()
        ev = Evaluator(model, u0, A)
        lanes = max(len(ev._seg["lo"]), len(ev._phi["lo"]))
        monkeypatch.setattr(hj_junction, "_BLOCK", 1 << 9)
        for mesh in (*meshes.values(), Mesh(np.zeros(1), functional_mesh.ts)):
            assert len(mesh.ts) > 2 * max(1, (1 << 9) // (len(mesh.xs) * lanes))  # several row blocks
        small = walks()
        assert small.keys() == default.keys()
        for key, ref in default.items():
            assert np.array_equal(small[key], ref, equal_nan=True), key
            if key[0] == "sub":
                assert np.array_equal(small[key], small[("full",) + key[1:]][rows, cols], equal_nan=True), key

    def test_datum_row_and_time_errors(self, model, u0, switching):
        mesh = Mesh(np.linspace(-1.0, 1.0, 5), np.array([0.0, 1.0]))
        tf = trajectory_field(model, u0, switching, mesh, MOST_AT_ZERO)
        assert not tf["is_dwell"][:, 0].any() and np.isnan(tf["a"][:, 0]).all()
        assert np.array_equal(tf["value"][:, 0], u0.eval(mesh.xs))
        with pytest.raises(SolverError):
            trajectory_field(model, u0, switching, Mesh(mesh.xs, np.array([1.0, 7.0])), MOST_AT_ZERO)
        with pytest.raises(SolverError):
            optimal_trajectory(model, u0, switching, 0.5, 0.0, MOST_AT_ZERO)

    def test_junction_values_stay_inside_the_horizon(self, model, u0, switching):
        ts = np.array([0.0, 3.0, T_HORIZON])
        trace = junction_values(model, u0, switching, ts)
        assert trace[0] == u0.eval(0.0)
        assert trace[1:].tolist() == [value(model, u0, switching, 0.0, t)[0] for t in ts[1:]]
        for bad in ([5.0, 6.0, 7.0, 50.0], [-1.0, 0.0], [T_HORIZON + 1e-9], [1.0, np.nan]):
            with pytest.raises(SolverError):
                junction_values(model, u0, switching, bad)


# ---- the exit leg and the exact selection ----------------------------------------


def two_sided_exit_cost(ev, x, t, b):
    """The exit leg priced on both sides at every node, then picked by the sign of x."""
    x, t, b = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float),
                                  np.asarray(b, dtype=float))
    s = t - b
    w = np.where(x < 0, ev.model.left.leg_cost(x, s), ev.model.right.leg_cost(x, s))
    return np.where(x == 0, np.where(s == 0.0, 0.0, np.inf), w)


def two_sided_piece(ev, tab, idx, z):
    """The kink-fan leg priced on both sides at every lane, then picked by the side."""
    e, side = tab["e"][idx], tab["side"][idx]
    leg = np.where(side < 0, ev.model.left.leg_cost(-e, z), ev.model.right.leg_cost(-e, z))
    return tab["c"][idx] + tab["v"][idx] * z + np.where(side != 0, leg, 0.0)


def single_slope_tab_case():
    model, _ = tab_case()
    return model, InitialData((), (P_SLOPE,), capacities=(1.0, 1.0))


class TestExitCost:
    @pytest.mark.parametrize("case", [asym_case, tab_case], ids=["asymq", "tabulated"])
    def test_own_side_pricing_is_bitwise_the_two_sided_form(self, case):
        model, u0 = case()
        rng = np.random.default_rng(61)
        ev = Evaluator(model, u0, random_control(rng, model.A0))
        x = np.where(rng.random(400) < 0.1, 0.0, rng.uniform(-2.0, 2.0, 400))
        t = rng.uniform(0.1, T_HORIZON, 400)
        b = np.where(rng.random(400) < 0.1, t, t * rng.random(400))  # s = 0 on a tenth
        for args in [(x, t, b), (np.abs(x), t, b), (-np.abs(x), t, b),  # mixed and one-sided
                     (x[:40, None], t[:40, None], b[None, :30] * t[:40, None] / t[None, :30]),
                     (0.0, 1.0, 1.0), (0.3, 1.0, 1.0), (-0.3, 1.0, 0.4)]:
            assert np.array_equal(ev.exit_cost(*args), two_sided_exit_cost(ev, *args))
        # the kink-fan leg of the trace segments and of the pieces of G + I
        for tab, idx, z in [(ev._seg, slice(None), t[:, None] * rng.random((400, len(ev._seg["lo"])))),
                            (ev._phi, slice(None), t[:, None] * rng.random((400, len(ev._phi["lo"])))),
                            (ev._seg, rng.integers(0, len(ev._seg["lo"]), 400), b)]:
            assert np.array_equal(ev._piece(tab, idx, z), two_sided_piece(ev, tab, idx, z))


def convex_kinks(case):
    """The case's model with the 4-piece datum whose kinks are convex, where
    fan paths, whose G + I is stationary inside a piece, tie."""
    def make():
        model = case()[0]
        return model, InitialData(*DATA["convex-kinks"](model.right.R),
                                  capacities=(model.left.R, model.right.R))
    return make


EDGE_CASES = {"symmetric": canonical_case, "asymq": asym_case, "tabulated": tab_case,
              "tabulated-single-slope": single_slope_tab_case,
              **{f"{name}-convex-kinks": convex_kinks(case) for name, case in
                 (("symmetric", canonical_case), ("asymq", asym_case), ("tabulated", tab_case))}}


class TestBandEdges:
    @settings(max_examples=50, deadline=None)
    @given(case=st.sampled_from(sorted(EDGE_CASES)), cells=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    # selection prices the exit leg with arrays, this test with scalars; the two
    # agree to the last bit (TestLegCost)
    @example(case="tabulated-single-slope", cells=1, seed=4294967295)
    @example(case="symmetric-convex-kinks", cells=1, seed=2)  # dwells start at a fan piece's stationary point
    def test_closed_form_edges(self, case, cells, seed):
        """Each dwelling node's [a, b] comes from exact minimizer sets: the path
        re-summed from a and b costs v to rounding; b is the stay end of a tied
        trace segment, or the end of an A = 0 hold's flat set of stay ends; both
        selectors pick the same b, and MostAtZero's a is no later than LeastAtZero's."""
        model, u0 = EDGE_CASES[case]()
        rng = np.random.default_rng(seed)
        ev = Evaluator(model, u0, random_control(rng, model.A0, cells=cells))
        x = np.where(rng.random(24) < 0.1, 0.0, rng.uniform(-1.5, 1.5, 24))
        t = rng.uniform(0.05, T_HORIZON, 24)
        got = {sel: ev.selection(x, t, sel) for sel in (MOST_AT_ZERO, LEAST_AT_ZERO)}
        S = ev._seg
        stay, cost = (z.T for z in ev._stay_ends(x, t))  # node-major: stay[k], cost[k]
        hold_end = np.minimum(S["hi"], np.where(x == 0, t, np.nextafter(t, -np.inf))[:, None])
        hold = (S["v"] == 0) & (S["side"] == 0)
        for sel in (MOST_AT_ZERO, LEAST_AT_ZERO):
            dwell, a, b, v = got[sel][:4]
            for k in np.flatnonzero(dwell):
                band = ROUNDING * (1.0 + abs(v[k]))
                g = 0.0 if a[k] == 0 else float(ev.approach_cost(a[k])[0])  # snapped dwells hover
                path = g + ev.A.cumulative(a[k]) - ev.A.cumulative(b[k]) + ev.exit_cost(x[k], t[k], b[k])
                assert abs(path - v[k]) <= band
                tied = cost[k] <= v[k] + band
                assert np.any(tied & ((stay[k] == b[k]) | (hold & (hold_end[k] == b[k]))))
        (most_dwell, a_most, b_most), (least_dwell, a_least, b_least) = (
            got[sel][:3] for sel in (MOST_AT_ZERO, LEAST_AT_ZERO))
        assert np.all(most_dwell[least_dwell])  # LeastAtZero dwells only where no straight path ties
        assert np.array_equal(b_most[least_dwell], b_least[least_dwell])
        assert np.all(a_most[least_dwell] <= a_least[least_dwell])


# ---- the walk, one side of the junction at a time ----------------------------------


class TestSideWalk:
    @pytest.mark.parametrize("zero_column", [True, False], ids=["zero-column", "no-zero-column"])
    @pytest.mark.parametrize("case", ["symmetric", "asymq", "tabulated", "symmetric-convex-kinks"])
    def test_mesh_is_its_sides_side_by_side(self, case, zero_column):
        """On columns that straddle x = 0, value_grid and both trajectory
        fields are bitwise those of the left, zero and right column sub-meshes."""
        model, u0 = EDGE_CASES[case]()
        xs = np.linspace(-1.5, 1.5, 13) if zero_column else np.linspace(-1.45, 1.55, 13)
        assert (0.0 in xs) == zero_column
        mesh = Mesh(xs, np.linspace(0.0, T_HORIZON, 25))
        parts = [Mesh(xs[on], mesh.ts) for on in (xs < 0, xs == 0, xs > 0) if on.any()]
        rng = np.random.default_rng(73)
        for cells in (1, 3, 5):
            A = random_control(rng, model.A0, cells=cells)
            got = {"u": value_grid(model, u0, A, mesh).u}
            sides = {"u": np.concatenate([value_grid(model, u0, A, m).u for m in parts])}
            for sel in (MOST_AT_ZERO, LEAST_AT_ZERO):
                got.update({(sel, k): v for k, v in trajectory_field(model, u0, A, mesh, sel).items()})
                fields = [trajectory_field(model, u0, A, m, sel) for m in parts]
                sides.update({(sel, k): np.concatenate([f[k] for f in fields]) for k in fields[0]})
            assert got.keys() == sides.keys()
            for key, v in got.items():
                assert v.tobytes() == sides[key].tobytes(), (cells, key)

    @pytest.mark.parametrize("case", ["symmetric", "asymq", "tabulated", "symmetric-convex-kinks"])
    def test_dwell_value_reduces_over_leading_segments(self, case):
        model, u0 = EDGE_CASES[case]()
        rng = np.random.default_rng(74)
        ev = Evaluator(model, u0, random_control(rng, model.A0, cells=4))
        lanes = len(ev._seg["lo"])
        x = np.where(rng.random(40) < 0.15, 0.0, rng.uniform(-1.5, 1.5, 40))
        t = rng.uniform(0.05, T_HORIZON, 40)
        for xb, tb in [(x, t), (x[None, :], t[:30, None])]:
            b, cost = ev._stay_ends(xb, tb)
            assert b.shape == cost.shape == (lanes, *np.broadcast_shapes(xb.shape, tb.shape))
            assert ev.dwell_batch(xb, tb).tobytes() == np.minimum.reduce(cost, axis=0).tobytes()


# ---- the kink-fan level ------------------------------------------------------------


def bisected_fan_ends(ev, x, t):
    """The fan stay ends as the bisection on the flux level found them, at both
    ends of its last bracket: (b at the late end, b at the early end).

    The level halves until its bracket is one ulp of its starting magnitude
    wide; where an exit speed nears 0, that ulp spans more than 1e-12 in b.
    """
    L, R, fan = ev.model.left, ev.model.right, ev._seg["side"] != 0
    e, side = np.abs(ev._seg["e"][fan]), ev._seg["side"][fan]
    good = np.maximum(np.where(side < 0, L.h_min, R.h_min), np.where(x < 0, L.h_min, R.h_min))
    shape = np.broadcast_shapes(np.shape(x), np.shape(t), e.shape)
    good, bad = np.broadcast_to(good, shape).copy(), np.zeros(shape)
    res = np.spacing(np.abs(good))
    with np.errstate(divide="ignore", invalid="ignore"):
        exit_time = lambda h: np.where(x == 0, 0.0, np.abs(x) / ev.model.speed(x, h, False))
        while np.any(live := np.abs(bad - good) > res):
            mid = 0.5 * (good + bad)
            hit = e / ev.model.speed(side, mid, True) + exit_time(mid) >= t
            good, bad = np.where(live & hit, mid, good), np.where(live & ~hit, mid, bad)
        return tuple(np.clip(t - exit_time(h), 0.0, t) for h in (good, bad))


def four_piece_symmetric_case():
    model, _ = canonical_case()
    return model, tab_case()[1]


FAN_CASES = {"symmetric": four_piece_symmetric_case, "asymq": asym_case, "tabulated": tab_case}


class TestFanLevel:
    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(sorted(FAN_CASES)), cells=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_stay_end_solves_the_fan_level(self, case, cells, seed):
        model, u0 = FAN_CASES[case]()
        rng = np.random.default_rng(seed)
        ev = Evaluator(model, u0, random_control(rng, model.A0, cells=cells))
        assert ev._fans
        x = np.concatenate([[0.0], rng.uniform(-2.0, 2.0, 40)])[None, :, None]  # both sides and 0
        t = rng.uniform(0.05, T_HORIZON, 30)[:, None, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            b = np.moveaxis(ev._fan_ends(x[..., 0], t[..., 0]), 0, -1)
        late_end, early_end = bisected_fan_ends(ev, x, t)
        tol = 1e-12 * (1.0 + np.abs(b))
        assert np.all((late_end - tol <= b) & (b <= early_end + tol))
        if case == "symmetric":  # both legs on one parabola: b = t E / (E + X)
            E, X = np.abs(ev._seg["e"][ev._seg["side"] != 0]), np.abs(x)
            speed = model.left.dh0  # at h = 0
            early = (x != 0) & (E / speed + X / speed < t)
            closed = np.broadcast_to(np.minimum(t * E / (E + X), t), b.shape)
            assert early.any() and np.array_equal(b[early], closed[early])


# ---- the lattice DP oracle -------------------------------------------------------


def dense_side_step(H, nodes, V, dt):
    """The per-cell minimum over every cell of the side: the reference for
    _dp_side_step, exact where V's slopes lie in [-R, 0]."""
    lo, hi = nodes[:-1], nodes[1:]
    alpha = H.slope_for_cost_slope(np.diff(V) / np.diff(nodes))
    y = np.clip(nodes[:, None] - dt * alpha, lo, hi)
    w = (y - lo) / (hi - lo)
    return np.min((1.0 - w) * V[:-1] + w * V[1:] + H.leg_cost(nodes[:, None] - y, dt), axis=1)


def lattice(n, lo=-8.3, hi=8.3):
    """A uniform lattice with the node x = 0 inserted, as brute_force_field builds it."""
    return np.unique(np.concatenate([np.linspace(lo, hi, n), [0.0]]))


class TestDPOracle:
    @pytest.mark.parametrize("case", [canonical_case, asym_case, tab_case],
                             ids=["canonical", "asymq", "tabulated"])
    def test_restricted_step_equals_dense_on_dp_iterates(self, case):
        model, u0 = case()
        A = random_control(np.random.default_rng(808), model.A0)
        n = 120
        nodes, ts = lattice(n), np.linspace(0.0, T_HORIZON, n + 1)
        iz, dt = int(np.searchsorted(nodes, 0.0)), ts[1]
        sides = ((model.left, slice(None, iz + 1)), (model.right, slice(iz, None)))
        steps = [_dp_side_step(H, nodes[s], dt) for H, s in sides]
        V = np.asarray(u0.eval(nodes), dtype=float)
        for k in range(n):
            (vl, vr) = (step(V[s]) for step, (_, s) in zip(steps, sides))
            for v, (H, s) in zip((vl, vr), sides):
                assert np.array_equal(v, dense_side_step(H, nodes[s], V[s], dt))
            park = -(A.cumulative(ts[k + 1]) - A.cumulative(ts[k]))
            V = np.concatenate([vl[:-1], [min(vl[-1], vr[0], V[iz] + park)], vr[1:]])

    @pytest.mark.parametrize("H", [Hamiltonian(R=1.0), Hamiltonian(R=2.0, kappa=0.5), tab_case()[0].left],
                             ids=["quadratic", "asymq-right", "tabulated"])
    def test_restricted_step_is_exact_on_any_slopes(self, H):
        # slopes outside [-R, 0]: the dense step's per-cell minimizer, read from
        # the clipped slope, misses the cell's minimum
        rng = np.random.default_rng(31)
        nodes = np.sort(np.concatenate([[0.0], rng.uniform(0.0, 3.0, 60)]))
        dt = 0.05
        step = _dp_side_step(H, nodes, dt)
        ys = np.unique(np.concatenate([np.linspace(0.0, nodes[-1], 20001), nodes]))
        gain = 0.0
        for _ in range(8):
            slopes = rng.uniform(-2.5 * H.R, 1.5, len(nodes) - 1)
            V = np.concatenate([[0.0], np.cumsum(slopes * np.diff(nodes))])
            v = step(V)
            dense = dense_side_step(H, nodes, V, dt)
            scan = np.min(np.interp(ys, nodes, V) + H.leg_cost(nodes[:, None] - ys, dt), axis=1)
            assert np.all(v <= dense + 1e-12)
            assert np.all(v <= scan + 1e-12)
            assert np.all(v >= scan - 4.0 * H.R * np.max(np.diff(ys)))  # |d/dy| <= 3.5 R
            gain = max(gain, float(np.max(dense - v)))
        assert gain > 1e-3

    @pytest.mark.parametrize("H", [Hamiltonian(R=1.0), Hamiltonian(R=2.0, kappa=0.5), tab_case()[0].left],
                             ids=["quadratic", "asymq-right", "tabulated"])
    def test_exit_legs_equal_the_direct_minimum(self, H):
        rng = np.random.default_rng(17)
        for n in (8, 37, 128, 201):
            xs = lattice(n)
            xs = xs[xs != 0.0]  # both sides, with the irregular cells beside x = 0
            ts = np.linspace(0.0, T_HORIZON, n + 1)
            # nondecreasing traces, some with flat stretches
            steps = rng.uniform(0.0, H.f_max * ts[1], n + 1) * (rng.random(n + 1) < 0.7)
            a = np.cumsum(steps) - steps[0]
            E = _exit_legs(H, xs, ts, a)
            direct = np.full_like(E, np.inf)
            for k in range(1, n + 1):
                direct[:, k] = np.min(a[:k] + H.leg_cost(xs[:, None], ts[k] - ts[:k]), axis=1)
            assert np.array_equal(E, direct)

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(["symmetric", "asymq", "tabulated"]), four_pieces=st.booleans(),
           cells=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_dp_is_within_its_bound_of_the_evaluator(self, case, four_pieces, cells, seed):
        model = {"symmetric": canonical_case, "asymq": asym_case, "tabulated": tab_case}[case]()[0]
        caps = (model.left.R, model.right.R)
        u0 = (InitialData((-1.0, -0.3, 0.6), (-0.3, -0.7, -0.8, -0.9 * caps[1]), capacities=caps)
              if four_pieces else InitialData((), (P_SLOPE,), capacities=caps))
        rng = np.random.default_rng(seed)
        A = random_control(rng, model.A0, cells=cells)
        t = rng.uniform(1.0, T_HORIZON)
        lo, hi = _dp_domain(model, t)
        for n in (60, 120):
            # the sampled nodes lie within 2 of x = 0, so the domain is widened by 2:
            # every path to them stays on the lattice
            nodes, ts, V = brute_force_field(model, u0, A, t, (n, n), domain=(lo - 2.0, hi + 2.0))
            bound = 2.0 * ((nodes[-1] - nodes[0]) / (len(nodes) - 1) + t / n)
            ii = np.unique(rng.choice(np.flatnonzero(np.abs(nodes) <= 2.0), 20))
            kk = np.unique(rng.integers(len(ts) // 8, len(ts), 8))
            exact = value_grid(model, u0, A, Mesh(nodes[ii], ts[kk])).u
            assert np.abs(exact - V[np.ix_(ii, kk)]).max() <= bound

    @pytest.mark.parametrize("domain", [(0.5, 5.0), (-5.0, -0.5), (0.0, 5.0), (-5.0, 0.0)])
    def test_domain_must_hold_zero_inside(self, domain):
        model, u0 = canonical_case()
        A = Control((0.0, T_HORIZON), (model.A0,))
        with pytest.raises(SolverError, match="DP domain"):
            brute_force_field(model, u0, A, 1.0, (40, 40), domain=domain)

    @pytest.mark.parametrize("t", [np.nan, 0.0, T_HORIZON + 1e-9])
    def test_time_must_lie_in_the_horizon(self, t):
        model, u0 = canonical_case()
        A = Control((0.0, T_HORIZON), (model.A0,))
        with pytest.raises(SolverError, match="outside"):
            brute_force_field(model, u0, A, t, (40, 40), domain=(-5.0, 5.0))

    def test_default_domain_is_the_point_rule_at_zero(self):
        # the field takes no default domain; brute_force_value at x = 0 spans _dp_domain's
        model, u0 = asym_case()
        A = random_control(np.random.default_rng(9), model.A0)
        with pytest.raises(TypeError, match="domain"):
            brute_force_field(model, u0, A, 2.0, (60, 60))
        nodes, _, V = brute_force_field(model, u0, A, 2.0, (60, 60), domain=_dp_domain(model, 2.0))
        reach_l = max(model.left.dh0, model.right.dh0)
        reach_r = max(-model.left.dhr, -model.right.dhr)
        assert (nodes[0], nodes[-1]) == (-1.05 * reach_l * 2.0, 1.05 * reach_r * 2.0)
        assert brute_force_value(model, u0, A, 0.0, 2.0, (60, 60)) == float(np.interp(0.0, nodes, V[:, -1]))
