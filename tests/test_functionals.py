import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from junctionflow import (Control, Hamiltonian, InitialData, JunctionModel, LEAST_AT_ZERO, MOST_AT_ZERO,
                          Mesh, trajectory_field, value_grid)
from junctionflow.cli import verify_box_conditions
from junctionflow.flux_models import ModelError
from junctionflow.functionals import (
    BoxWeight,
    CostSpec,
    FunctionalError,
    Rule,
    SampledWeight,
    cost,
    cost_report,
    field_term,
    make_box_weight,
)
from junctionflow.hj_junction import SolverError
from junctionflow.optimality import _dwell_measures, check_optimality, default_s_samples
from junctionflow.optimizer import optimize_bangbang, optimize_relaxed

from conftest import P_SLOPE, TAB, T_HORIZON, asym_case, dwell_measure_reference, random_control, trapezoid

_QUAD = Hamiltonian(R=1.0)
_ASYM, _ASYM_U0 = asym_case()
# symmetric, asymmetric (4-piece datum and one slope) and tabulated models
SUPPORT_CASES = [
    (JunctionModel(_QUAD, _QUAD, equal_minima=True), InitialData((), (-0.8,), capacities=(1.0, 1.0))),
    (_ASYM, _ASYM_U0),
    (_ASYM, InitialData((), (-0.8,), capacities=(1.0, 2.0))),
    (JunctionModel(TAB, TAB, equal_minima=True), InitialData((), (-0.8,), capacities=(1.0, 1.0))),
]
SUPPORT_MESH = Mesh.regular(0.02, 0.5, 25, 5.7, 41, tmin=0.3)
SELECTIONS = (MOST_AT_ZERO, LEAST_AT_ZERO)


class TestBoxWeight:
    def test_support_and_signs(self, box):
        assert box.phi(0.05, 1.2) == 0.0
        assert box.phi(0.25, 1.2) == 0.0
        assert box.phi(0.14, 1.25) > 0.0
        assert box.phi(0.14, 4.75) < 0.0
        assert box.phi(0.14, 3.0) == 0.0  # plateau: psi2' = 0

    def test_sign_sets_match_windows(self, box):
        xs = np.linspace(0.0, 0.3, 301)
        ts = np.linspace(0.0, 6.0, 601)
        P = box.psi1(xs)[:, None] * box.dpsi2(ts)[None, :]
        X, T = np.meshgrid(xs, ts, indexing="ij")
        pos = P > 0
        assert np.all((X[pos] > 0.1) & (X[pos] < 0.18))
        assert np.all((T[pos] > 1.0) & (T[pos] < 1.5))
        neg = P < 0
        assert np.all((T[neg] > 4.5) & (T[neg] < 5.0))

    def test_geometry_flag_arithmetic(self, model):
        def geometry(box):  # condition 4 of the box conditions
            name, *_, ok = verify_box_conditions(model, P_SLOPE, box)[3]
            assert name == "x1/t2 > x2/t3"
            return ok

        box = make_box_weight(0.1, 0.18, 1.0, 1.5, 4.5, 5.0, 0.015)
        assert 0.1 / 1.5 == pytest.approx(0.0667, abs=1e-4)
        assert geometry(box)  # 0.0667 > 0.04
        tall = make_box_weight(0.1, 0.18, 1.0, 1.5, 1.7, 2.2, 0.015)
        assert not geometry(tall)  # 0.0667 < 0.18/1.7

    def test_validation(self):
        with pytest.raises(FunctionalError):
            make_box_weight(-0.1, 0.18, 1.0, 1.5, 4.5, 5.0, 0.01)
        with pytest.raises(FunctionalError):
            make_box_weight(0.1, 0.18, 1.5, 1.0, 4.5, 5.0, 0.01)
        with pytest.raises(FunctionalError):
            make_box_weight(0.1, 0.18, 1.0, 1.5, 4.5, 5.0, 0.05)  # delta too large

    def test_psi1_max_one(self, box):
        xs = np.linspace(0.1, 0.18, 2001)
        vals = box.psi1(xs)
        assert vals.max() == pytest.approx(1.0)
        assert vals.min() >= 0.0


class TestCost:
    def test_field_term_is_the_product_first_sum_bitwise(self, model, u0, box_spec, functional_mesh):
        # J is flat to the last bit on the optimal plateau: phi u is formed
        # first, then weighted, as in the one-einsum sum kept here
        rng = np.random.default_rng(3)
        phi = box_spec.weight.phi_grid(functional_mesh)
        wx, wt = trapezoid(functional_mesh.xs), trapezoid(functional_mesh.ts)
        for _ in range(20):
            field = value_grid(model, u0, random_control(rng, model.A0), functional_mesh)
            assert field_term(box_spec, field) == float(np.einsum("i,j,ij->", wx, wt, phi * field.u))

    def test_sampled_weight_refuses_a_nearby_mesh(self):
        mesh = Mesh.regular(0.0, 0.3, 5, 6.0, 4)
        phi = SampledWeight(mesh.xs, mesh.ts, np.ones((5, 4)))
        assert phi.phi_grid(Mesh(mesh.xs.copy(), mesh.ts.copy())) is phi.values
        for near in (Mesh(mesh.xs * (1 + 1e-6), mesh.ts), Mesh(mesh.xs, mesh.ts * (1 + 1e-6)),
                     Mesh(mesh.xs[:-1], mesh.ts)):
            with pytest.raises(FunctionalError, match="different mesh"):
                phi.phi_grid(near)

    def test_zero_weight_gives_linear_term(self, model, u0):
        mesh = Mesh.regular(0.0, 0.3, 11, 6.0, 13)
        phi = SampledWeight(mesh.xs, mesh.ts, np.zeros((11, 13)))
        spec = CostSpec(phi, linear_coeff=2.0)
        A = Control((0.0, 1.5, 6.0), (0.0, -0.25))
        # exact integral of c*A
        assert cost(model, u0, spec, A, mesh) == pytest.approx(2.0 * (-0.25 * 4.5), abs=1e-12)

    def test_closed_form_golden(self):
        # box with equal wide ramps and a gentle slope so the trapezoid
        # corner corrections stay below the 1e-6 target at 400x400
        H = Hamiltonian(R=1.0)
        model = JunctionModel(H, H, equal_minima=True)
        p = -0.97
        u0 = InitialData((), (p,), capacities=(1.0, 1.0))
        box = make_box_weight(0.2, 0.6, 1.0, 3.0, 3.2, 5.2, 0.05)
        spec = CostSpec(box)
        mesh = Mesh.regular(0.15, 0.65, 400, 5.4, 400, tmin=0.8)
        A = Control((0.0, 6.0), (model.A0,))
        hp = float(H.value(p))
        closed = box.closed_form_linear_cost(p, hp)
        assert cost(model, u0, spec, A, mesh) == pytest.approx(closed, abs=1e-6)

    def test_canonical_quadrature_converges(self, model, u0, box_spec, free_flow, box):
        # Richardson sanity: doubling the mesh shrinks the defect
        closed = box.closed_form_linear_cost(-0.8, -0.16)
        errs = []
        for n in (100, 200, 400):
            mesh = Mesh.regular(0.05, 0.23, n, 5.5, n, tmin=0.5)
            errs.append(abs(cost(model, u0, box_spec, free_flow, mesh) - closed))
        assert errs[2] < errs[0]
        assert errs[2] <= 4.0 * abs(errs[2] - errs[1]) + 1e-9 or errs[2] < 1e-7

    def test_prop_configuration_strict_inequalities(self, model, u0, box_spec,
                                                    functional_mesh, free_flow, blocked,
                                                    switching):
        j_free = cost(model, u0, box_spec, free_flow, functional_mesh)
        j_blocked = cost(model, u0, box_spec, blocked, functional_mesh)
        j_switch = cost(model, u0, box_spec, switching, functional_mesh)
        assert j_switch < j_free - 1e-4 * abs(j_switch)
        assert j_switch < j_blocked - 1e-4 * abs(j_switch)
        # regression values frozen from the first run of this configuration
        assert j_switch == pytest.approx(-0.042089678530786, rel=1e-9)
        assert j_free == pytest.approx(-0.03637480507284, rel=1e-9)
        assert j_blocked == pytest.approx(0.0, abs=1e-15)

    def test_support_leakage_raises(self, model, u0, box_spec):
        mesh = Mesh.regular(0.12, 0.3, 21, 6.0, 31)  # cuts through the box
        with pytest.raises(FunctionalError):
            cost(model, u0, box_spec, Control((0.0, 6.0), (0.0,)), mesh)

    def test_monotone_under_field_ordering(self, model, u0, box, functional_mesh,
                                            free_flow, blocked):
        # positive-part weight: u^A <= u^A' pointwise forces cost ordering
        pos = SampledWeight(
            functional_mesh.xs,
            functional_mesh.ts,
            np.maximum(box.phi_grid(functional_mesh), 0.0),
        )
        spec = CostSpec(pos)
        f_lo = value_grid(model, u0, blocked, functional_mesh)
        f_hi = value_grid(model, u0, free_flow, functional_mesh)
        assert np.all(f_lo.u <= f_hi.u + 1e-12)
        assert field_term(spec, f_lo) <= field_term(spec, f_hi) + 1e-12

    def test_nonnegative_weight_minimized_by_blocked(self, model, u0, box,
                                                     functional_mesh, free_flow, blocked):
        rng = np.random.default_rng(8)
        pos = SampledWeight(
            functional_mesh.xs,
            functional_mesh.ts,
            np.maximum(box.phi_grid(functional_mesh), 0.0),
        )
        spec = CostSpec(pos)
        j_blocked = cost(model, u0, spec, blocked, functional_mesh)
        others = [cost(model, u0, spec, free_flow, functional_mesh)]
        times = (0.0, 1.0, 2.5, 4.0, T_HORIZON)
        for _ in range(10):
            vals = rng.uniform(model.A0, 0.0, 4)
            others.append(cost(model, u0, spec, Control(times, tuple(vals)), functional_mesh))
        assert j_blocked <= min(others) + 1e-12


class TestSupportSubMesh:
    """cost evaluates u only where phi is nonzero; J stays the full-mesh sum bitwise,
    and so do the dwell measures D(s) summed by the same rule."""

    @staticmethod
    def full_mesh_term(model, u0, spec, A, mesh):
        return field_term(spec, value_grid(model, u0, A, mesh))

    @staticmethod
    def assert_dwell_measures_bitwise(model, u0, spec, A, select):
        tf = trajectory_field(model, u0, A, SUPPORT_MESH, select)
        phi = spec.weight.phi_grid(SUPPORT_MESH)
        s = default_s_samples(A.horizon, A, n=16)
        ref = [dwell_measure_reference(phi, SUPPORT_MESH, tf, v) for v in s]
        assert np.array_equal(_dwell_measures(Rule(phi, SUPPORT_MESH), tf, s), ref)

    @given(case=st.integers(0, len(SUPPORT_CASES) - 1), seed=st.integers(0, 2**32 - 1),
           cells=st.integers(1, 5), rows=st.tuples(st.integers(1, 23), st.integers(0, 4)),
           inset=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
           times=st.lists(st.floats(0.45, 5.55), min_size=4, max_size=4, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_box_weight_bitwise(self, case, seed, cells, rows, inset, times):
        model, u0 = SUPPORT_CASES[case]
        xs, dx = SUPPORT_MESH.xs, SUPPORT_MESH.xs[1] - SUPPORT_MESH.xs[0]
        lo, width = rows
        hi = min(lo + width, len(xs) - 2)  # width 0: the box spans a single mesh row
        t1, t2, t3, t4 = sorted(times)
        gap = min(t2 - t1, t3 - t2, t4 - t3)
        assume(gap > 0.05)
        x1, x2 = xs[lo] - inset[0] * dx, xs[hi] + inset[1] * dx
        spec = CostSpec(make_box_weight(x1, x2, t1, t2, t3, t4, min(x2 - x1, gap) / 8.0))
        rows = np.flatnonzero(spec.weight.phi_grid(SUPPORT_MESH).any(axis=1)).tolist()
        assert rows in ([], list(range(lo, hi + 1)))  # empty: no mesh time inside a ramp
        A = random_control(np.random.default_rng(seed), model.A0, cells=cells)
        jf = cost_report(model, u0, spec, A, SUPPORT_MESH)["J_field_term"]
        assert jf == self.full_mesh_term(model, u0, spec, A, SUPPORT_MESH)
        self.assert_dwell_measures_bitwise(model, u0, spec, A, SELECTIONS[seed % 2])

    @given(case=st.integers(0, len(SUPPORT_CASES) - 1), seed=st.integers(0, 2**32 - 1),
           cells=st.integers(1, 5), density=st.floats(0.0, 0.3))
    @settings(max_examples=30, deadline=None)
    def test_scattered_sampled_weight_bitwise(self, case, seed, cells, density):
        # a support that is no tensor product: u is drawn on its rows x columns
        model, u0 = SUPPORT_CASES[case]
        rng = np.random.default_rng(seed)
        shape = (len(SUPPORT_MESH.xs), len(SUPPORT_MESH.ts))
        phi = np.zeros(shape)
        inner = rng.random((shape[0] - 2, shape[1] - 2)) < density
        phi[1:-1, 1:-1] = np.where(inner, rng.normal(size=inner.shape), 0.0)
        spec = CostSpec(SampledWeight(SUPPORT_MESH.xs, SUPPORT_MESH.ts, phi))
        A = random_control(rng, model.A0, cells=cells)
        jf = cost_report(model, u0, spec, A, SUPPORT_MESH)["J_field_term"]
        assert jf == self.full_mesh_term(model, u0, spec, A, SUPPORT_MESH)
        self.assert_dwell_measures_bitwise(model, u0, spec, A, SELECTIONS[seed % 2])

    def test_mesh_past_the_horizon_raises_with_the_box_before_it(self, model, u0, box_spec):
        mesh = Mesh.regular(0.08, 0.2, 13, 6.5, 41, tmin=0.9)
        A = Control((0.0, T_HORIZON), (0.0,))
        assert box_spec.weight.phi_grid(mesh)[:, mesh.ts > 5.0].max() == 0.0
        with pytest.raises(SolverError, match="beyond the control horizon"):
            cost(model, u0, box_spec, A, mesh)

    def test_negative_mesh_times_raise(self, model, u0, box_spec):
        mesh = Mesh.regular(0.08, 0.2, 13, 5.1, 41, tmin=-0.5)
        with pytest.raises(SolverError, match="nonnegative"):
            cost(model, u0, box_spec, Control((0.0, T_HORIZON), (0.0,)), mesh)

    def test_out_of_range_control_raises_under_a_zero_weight(self, model, u0):
        mesh = Mesh.regular(0.0, 0.3, 11, 6.0, 13)
        spec = CostSpec(SampledWeight(mesh.xs, mesh.ts, np.zeros((11, 13))))
        with pytest.raises(SolverError, match="control values"):
            cost(model, u0, spec, Control((0.0, T_HORIZON), (model.A0 - 0.1,)), mesh)

    @pytest.mark.parametrize("zero_weight", [False, True], ids=["box", "zero"])
    def test_capacity_mismatch_raises(self, model, box_spec, functional_mesh, zero_weight):
        u0 = InitialData((), (-0.8,), capacities=(1.0, 2.0))
        spec = CostSpec(SampledWeight(functional_mesh.xs, functional_mesh.ts,
                                      np.zeros((41, 161)))) if zero_weight else box_spec
        with pytest.raises(ModelError, match="capacities"):
            cost(model, u0, spec, Control((0.0, T_HORIZON), (0.0,)), functional_mesh)


class TestRuleBuiltOnce:
    """A run builds the weight's rule once: one phi_grid per optimizer run and per audit."""

    MESH = Mesh.regular(0.08, 0.2, 13, 5.1, 41, tmin=0.9)

    @pytest.mark.parametrize("run", ["bangbang", "relaxed", "audit"])
    def test_one_phi_grid_per_run(self, model, u0, box_spec, switching, monkeypatch, run):
        calls = []
        phi_grid = BoxWeight.phi_grid
        monkeypatch.setattr(BoxWeight, "phi_grid", lambda self, mesh: calls.append(1) or phi_grid(self, mesh))
        if run == "audit":
            check_optimality(model, u0, switching, box_spec, self.MESH)
        else:
            optimize = optimize_bangbang if run == "bangbang" else optimize_relaxed
            res = optimize(model, u0, box_spec, T_HORIZON, 1, 50, self.MESH)
            assert res.evals > 1
        assert len(calls) == 1
