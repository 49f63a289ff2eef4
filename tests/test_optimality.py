import numpy as np
import pytest

from junctionflow import (Control, InitialData, JunctionModel, LEAST_AT_ZERO, MOST_AT_ZERO, Mesh,
                          junction_values, optimality, trajectory_field)
from junctionflow.functionals import CostSpec, Rule, SampledWeight, cost
from junctionflow.optimality import check_optimality, component_report, default_s_samples
from junctionflow.optimizer import optimize_bangbang

from conftest import TAB, T_HORIZON, asym_case, dwell_measure_reference, random_control


def clipped_spec(box, mesh, sign):
    phi = box.phi_grid(mesh)
    vals = np.maximum(phi, 0.0) if sign > 0 else np.minimum(phi, 0.0)
    return CostSpec(SampledWeight(mesh.xs, mesh.ts, vals))


class TestDwellMeasure:
    @pytest.mark.parametrize("select", [MOST_AT_ZERO, LEAST_AT_ZERO])
    @pytest.mark.parametrize("case", ["canonical", "asymq"])
    def test_one_pass_equals_per_sample_sums_bitwise(self, case, select, model, u0, box_spec,
                                                     functional_mesh):
        if case == "asymq":
            model, u0 = asym_case()
        A = Control((0.0, 1.5, T_HORIZON), (0.0, model.A0))
        tf = trajectory_field(model, u0, A, functional_mesh, select)
        phi = box_spec.weight.phi_grid(functional_mesh)
        s = default_s_samples(T_HORIZON, A)
        ref = [dwell_measure_reference(phi, functional_mesh, tf, v) for v in s]
        assert np.count_nonzero(ref) > 20
        rule = Rule(phi, functional_mesh)
        assert np.array_equal(optimality._dwell_measures(rule, tf, s), ref)

    def test_zero_weight(self, model, u0, switching, functional_mesh):
        spec = CostSpec(SampledWeight(functional_mesh.xs, functional_mesh.ts,
                                      np.zeros((len(functional_mesh.xs), len(functional_mesh.ts)))))
        rule = Rule(spec.weight.phi_grid(functional_mesh), functional_mesh)
        tf = trajectory_field(model, u0, switching, functional_mesh, MOST_AT_ZERO)
        assert optimality._dwell_measures(rule, tf, [1.0]) == 0.0
        ss = default_s_samples(T_HORIZON, switching, n=8)  # the empty support: zeros, no raise
        assert optimality._dwell_measures(rule, tf, ss).tolist() == [0.0] * 8

    def test_beyond_support_is_zero(self, model, u0, switching, box_spec, functional_mesh):
        rule = Rule(box_spec.weight.phi_grid(functional_mesh), functional_mesh)
        tf = trajectory_field(model, u0, switching, functional_mesh, MOST_AT_ZERO)
        assert optimality._dwell_measures(rule, tf, [5.05]) == 0.0

    def test_nonincreasing_nonnegative_before_switch(self, model, u0, switching,
                                                     box_spec, functional_mesh):
        # on (s_bar_minus, tau) = (0, t2) for the canonical switching control
        tf = trajectory_field(model, u0, switching, functional_mesh, MOST_AT_ZERO)
        ss = np.linspace(0.15, 1.35, 9)
        rule = Rule(box_spec.weight.phi_grid(functional_mesh), functional_mesh)
        vals = optimality._dwell_measures(rule, tf, ss)
        tol = 2e-3
        assert min(vals) >= -tol
        assert all(vals[i + 1] <= vals[i] + tol for i in range(len(vals) - 1))

    def test_most_dominates_least_for_nonnegative_weight(self, model, u0, switching,
                                                         box, functional_mesh):
        rule = Rule(clipped_spec(box, functional_mesh, +1).weight.phi_grid(functional_mesh),
                    functional_mesh)
        tfp = trajectory_field(model, u0, switching, functional_mesh, MOST_AT_ZERO)
        tfm = trajectory_field(model, u0, switching, functional_mesh, LEAST_AT_ZERO)
        ss = (0.3, 0.9, 1.2, 1.45)
        hp = optimality._dwell_measures(rule, tfp, ss)
        hm = optimality._dwell_measures(rule, tfm, ss)
        assert np.all(hp >= hm - 1e-12)


def danskin_case(case, model, u0):
    """(model, datum, control): the canonical model under 12 equal cells, or a
    seeded 6-cell control on another model or datum."""
    if case == "canonical":
        rng = np.random.default_rng(5)
        rng.uniform(model.A0, 0.0, 12)  # the cell values are the second draw
        return model, u0, Control(tuple(np.linspace(0.0, T_HORIZON, 13)),
                                  tuple(rng.uniform(model.A0, 0.0, 12)))
    tab = JunctionModel(TAB, TAB, equal_minima=True)
    four = InitialData((-1.0, -0.3, 0.6), (-0.3, -0.7, -0.8, -0.9), capacities=(1.0, 1.0))
    convex = InitialData((-1.0, -0.3, 0.6), (-0.9, -0.5, -0.2, -0.6), capacities=(1.0, 1.0))
    m, d = {"asymq": asym_case(), "tabulated": (tab, four), "canonical-convex-kinks": (model, convex),
            "tabulated-convex-kinks": (tab, convex)}[case]
    return m, d, random_control(np.random.default_rng(7), m.A0, cells=6)


class TestCellDerivatives:
    @pytest.mark.parametrize("case", ["canonical", "asymq", "tabulated", "canonical-convex-kinks",
                                      "tabulated-convex-kinks"])
    def test_dwell_overlaps_give_the_one_sided_derivatives_of_J(self, model, u0, box_spec,
                                                                 functional_mesh, case):
        """u is a minimum over paths of costs affine in A, parking paying -integral(A).
        By Danskin's theorem raising A on cell c moves J at f'|c| minus the phi-sum
        of the MostAtZero paths' overlaps |[a, b] & c|, and lowering it at the same
        with the LeastAtZero paths. Both equal one-sided difference quotients of J."""
        model, u0, A = danskin_case(case, model, u0)
        mesh, h = functional_mesh, 1e-7
        rule = Rule(box_spec.weight.phi_grid(mesh), mesh)
        c0, c1 = np.asarray(A.times[:-1]), np.asarray(A.times[1:])
        J = cost(model, u0, box_spec, A, mesh)
        for select, sign in ((MOST_AT_ZERO, 1.0), (LEAST_AT_ZERO, -1.0)):
            tf = trajectory_field(model, u0, A, mesh, select)
            a, b = (np.where(tf["is_dwell"], tf[k], 0.0)[..., None] for k in ("a", "b"))
            overlap = np.maximum(np.minimum(b, c1) - np.maximum(a, c0), 0.0)  # a trailing cell axis
            d = box_spec.linear_coeff * (c1 - c0) - rule.sum(overlap[np.ix_(rule.rows, rule.cols)])
            q = np.array([(cost(model, u0, box_spec, Control(A.times, tuple(A.values + e)), mesh) - J)
                          / (sign * h) for e in sign * h * np.eye(len(c0))])
            if sign > 0:
                scale = np.abs(q).max()
                assert scale > 0.01
            assert np.all(np.abs(d - q) <= 1e-6 * scale), (select, d, q)


def verdicts_reference(audit, model, spec):
    """The per-sample verdict loop, run on the audit's own D+- values."""
    tol_opt, tol_a = audit.tolerances["tol_opt"], audit.tolerances["tol_a"]
    a_bar = audit.components.last_component[0] if audit.components.last_component else None
    out = []
    for smp in audit.samples:
        s, a_s, hp, hm = smp["s"], smp["A"], smp["H_plus"], smp["H_minus"]
        fp = spec.fprime(a_s)
        checks = []
        if a_s < -tol_a:
            checks.append(("raiseable", hp - fp <= tol_opt))
        if a_s > model.A0 + tol_a:
            checks.append(("lowerable", hm - fp >= -tol_opt))
        if a_bar is not None and s > a_bar:
            if model.A0 + tol_a < a_s < -tol_a:
                checks.append(("last_component_equality", abs(hp - fp) <= tol_opt))
            elif a_s >= -tol_a:
                checks.append(("last_component_at_zero", hp - fp >= -tol_opt))
            else:
                checks.append(("last_component_at_floor", hp - fp <= tol_opt))
        bad = [name for name, ok in checks if not ok]
        out.append("violated:" + ",".join(bad) if bad else "ok")
    return out


class TestCheckOptimality:
    def test_even_mesh_with_the_box_on_its_edge(self, model, u0, switching, box_spec):
        # phi lives on the mesh's last row but one, next to the edge the rule checks
        mesh = Mesh.regular(0.08, 0.18, 40, 5.1, 160, tmin=0.9)
        assert box_spec.weight.phi_grid(mesh)[-2].any()
        assert check_optimality(model, u0, switching, box_spec, mesh).ok

    def test_verdicts_equal_the_per_sample_loop(self, model, u0, box, switching, free_flow, blocked):
        mesh = Mesh.regular(0.08, 0.2, 21, 5.1, 81, tmin=0.9)
        rng = np.random.default_rng(4)
        controls = [switching, free_flow, blocked] + [random_control(rng, model.A0, cells=3) for _ in range(2)]
        seen = set()
        for coeff in (0.0, 0.05, -0.05):
            spec = CostSpec(box, linear_coeff=coeff)
            for A in controls:
                audit = check_optimality(model, u0, A, spec, mesh,
                                         s_samples=default_s_samples(T_HORIZON, A, 32))
                verdicts = [smp["verdict"] for smp in audit.samples]
                assert verdicts == verdicts_reference(audit, model, spec)
                assert audit.violations == sum(v != "ok" for v in verdicts)
                seen.update(verdicts)
        named = {n for v in seen - {"ok"} for n in v.split(":")[1].split(",")}
        assert named == {"raiseable", "lowerable", "last_component_equality",
                         "last_component_at_zero", "last_component_at_floor"}

    def test_nonpositive_weight_free_flow_clean(self, model, u0, box, free_flow):
        mesh = Mesh.regular(0.08, 0.2, 25, 5.1, 81, tmin=0.9)
        spec = clipped_spec(box, mesh, -1)
        audit = check_optimality(model, u0, free_flow, spec, mesh,
                                 s_samples=default_s_samples(T_HORIZON, free_flow, 32))
        assert audit.violations == 0

    def test_nonnegative_weight_blocked_clean(self, model, u0, box, blocked):
        mesh = Mesh.regular(0.08, 0.2, 25, 5.1, 81, tmin=0.9)
        spec = clipped_spec(box, mesh, +1)
        audit = check_optimality(model, u0, blocked, spec, mesh,
                                 s_samples=default_s_samples(T_HORIZON, blocked, 32))
        assert audit.violations == 0

    def test_switching_control_clean(self, model, u0, box_spec, functional_mesh, switching):
        audit = check_optimality(model, u0, switching, box_spec, functional_mesh)
        assert audit.violations == 0
        assert audit.tolerances["tol_opt"] > 0
        assert all(set(s) >= {"s", "H_plus", "H_minus", "A", "verdict"} for s in audit.samples)

    def test_draws_two_fields_on_the_mesh(self, model, u0, box_spec, functional_mesh, switching,
                                          monkeypatch):
        calls = []

        def recording(*args):  # positional only
            calls.append(args)
            return trajectory_field(*args)

        monkeypatch.setattr(optimality, "trajectory_field", recording)
        check_optimality(model, u0, switching, box_spec, functional_mesh, s_samples=[1.0, 2.0])
        assert [args[4] for args in calls] == [MOST_AT_ZERO, LEAST_AT_ZERO]
        assert all(args[3] is functional_mesh for args in calls)

    @pytest.mark.parametrize("case", ["switching", "random", "asymq"])
    def test_components_match_a_standalone_report(self, model, u0, box_spec, functional_mesh,
                                                  switching, case):
        if case == "asymq":
            model, u0 = asym_case()
            A = Control((0.0, 1.5, T_HORIZON), (0.0, model.A0))
        else:
            A = switching if case == "switching" else random_control(np.random.default_rng(0), model.A0)
        audit = check_optimality(model, u0, A, box_spec, functional_mesh, s_samples=[1.0, 2.0])
        alone = component_report(model, u0, A, functional_mesh, spec=box_spec)
        assert audit.components.as_dict() == alone.as_dict()

    def test_audit_always_returns(self, model, u0, box_spec, functional_mesh):
        # a clearly suboptimal control yields violations, not an exception
        bad = Control((0.0, 3.0, T_HORIZON), (model.A0, 0.0))
        audit = check_optimality(model, u0, bad, box_spec, functional_mesh,
                                 s_samples=np.linspace(0.2, 5.8, 24))
        assert audit.violations > 0


class TestSharpAudit:
    """D+- are the exact one-sided derivatives of the discrete J, so the audit
    holds them to the rounding of the rule's sum. A switch from 0 to A0 past
    the optimal plateau fails it; on the plateau H+ is exactly 0 wherever A can
    be raised. Switches at tau <= 1.3 and free flow still pass: the conditions
    on D do not see that side until the audit checks the derivative of J in
    the switch time (ROADMAP item 9)."""

    @pytest.mark.parametrize("tau,violated", [(1.3765765522217768, False), (1.5, False),
                                              (1.75, False), (1.76, True), (1.8, True)])
    def test_switches_past_the_plateau_fail(self, model, u0, box_spec, functional_mesh, tau, violated):
        A = Control((0.0, tau, T_HORIZON), (0.0, model.A0))
        audit = check_optimality(model, u0, A, box_spec, functional_mesh)
        assert audit.tolerances["tol_opt"] < 1e-11
        assert (audit.violations > 0) == violated

    def test_the_optimized_switch_passes(self, model, u0, box_spec):
        mesh = Mesh.regular(0.08, 0.2, 21, 5.1, 81, tmin=0.9)  # the benchmark's prop511 setup
        res = optimize_bangbang(model, u0, box_spec, T_HORIZON, 1, 260, mesh)
        assert check_optimality(model, u0, res.control, box_spec, mesh).violations == 0


def components_reference(ts, gap, theta):
    """The while-loop scan of the runs of gap > theta."""
    below = gap > theta
    out, i = [], 0
    while i < len(ts):
        if below[i]:
            j = i
            while j + 1 < len(ts) and below[j + 1]:
                j += 1
            out.append((optimality._cross(ts, gap, theta, i, -1), optimality._cross(ts, gap, theta, j, +1)))
            i = j + 1
        else:
            i += 1
    return tuple(out)


class TestComponentReport:
    def test_runs_equal_the_while_loop_scan(self, model, u0, functional_mesh):
        rng = np.random.default_rng(6)
        counts = set()
        for _ in range(8):
            A = random_control(rng, model.A0, cells=6)
            rep = component_report(model, u0, A, functional_mesh)
            inner = [s for s in A.times if 0.0 < s < A.horizon]
            ts = np.unique(np.concatenate([np.linspace(0.0, A.horizon, 513)[1:], inner]))
            free = Control((0.0, A.horizon), (model.A0,))
            gap = junction_values(model, u0, free, ts) - junction_values(model, u0, A, ts)
            assert rep.components == components_reference(ts, gap, rep.theta)
            counts.add(len(rep.components))
        assert counts >= {1, 2}

    def test_free_flow_no_components(self, model, u0, free_flow, functional_mesh):
        rep = component_report(model, u0, free_flow, functional_mesh)
        assert rep.components == ()

    def test_downward_switch_closely_followed_by_an_upward_one(self, model, u0, functional_mesh):
        # A(1.5 - 1e-12) == A(1.5 + 1e-12) == 0: the switch shows only in the control's values
        A = Control((0.0, 1.5, 1.5 + 5e-13, T_HORIZON), (0.0, model.A0, 0.0))
        rep = component_report(model, u0, A, functional_mesh)
        assert len(rep.components) == 1
        assert rep.tau_hat == (1.5,)

    def test_switching_single_component(self, model, u0, switching, box_spec,
                                        functional_mesh):
        rep = component_report(model, u0, switching, functional_mesh, spec=box_spec)
        assert len(rep.components) == 1
        a, b = rep.components[0]
        assert a <= 0.05
        assert b == pytest.approx(0.25 * 1.5 / 0.09, abs=0.02)  # 4.1667
        assert rep.tau_hat[0] == pytest.approx(1.5, abs=1e-9)
        assert rep.tau == pytest.approx(1.5, abs=0.05)
        assert rep.s_bar_minus == pytest.approx(0.0, abs=1e-9)

    def test_theta_nesting(self, model, u0, switching):
        # the runs at a larger threshold nest in the runs at a smaller one
        rng = np.random.default_rng(6)
        ts = np.linspace(0.0, T_HORIZON, 513)[1:]
        free = Control((0.0, T_HORIZON), (model.A0,))
        counts = set()
        for A in [switching] + [random_control(rng, model.A0, cells=6) for _ in range(8)]:
            gap = junction_values(model, u0, free, ts) - junction_values(model, u0, A, ts)
            runs1 = optimality._components(ts, gap, 1e-4)
            runs2 = optimality._components(ts, gap, 2e-4)
            assert len(runs2) <= len(runs1)
            for (a2, b2) in runs2:
                assert any(a1 <= a2 and b2 <= b1 + 1e-9 for (a1, b1) in runs1)
            counts.add(len(runs1))
        assert counts >= {1, 2}

    def test_on_gap_complement_control_is_free(self, model, u0, switching,
                                               functional_mesh, box_spec):
        # outside the component the audited control sits at A0
        rep = component_report(model, u0, switching, functional_mesh, spec=box_spec)
        a, b = rep.components[-1]
        for s in np.linspace(b + 0.05, T_HORIZON - 0.01, 7):
            assert switching(s) == pytest.approx(model.A0, abs=1e-9)
