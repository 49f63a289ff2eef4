import numpy as np
import pytest

from junctionflow import Control, Mesh
from junctionflow.functionals import CostSpec, SampledWeight, cost
from junctionflow.optimizer import (
    BangBangPattern,
    OptimizeResult,
    OptimizerError,
    PatternRejection,
    _CostCache,
    optimize_bangbang,
    optimize_relaxed,
    pattern_extract,
)

from conftest import T_HORIZON


@pytest.fixture(scope="module")
def small_mesh():
    return Mesh.regular(0.08, 0.2, 21, 5.1, 81, tmin=0.9)


@pytest.fixture(scope="module")
def box_run(model, u0, box_spec, small_mesh):
    return optimize_bangbang(model, u0, box_spec, T_HORIZON, 2, 260, small_mesh)


def signed_spec(box, mesh, sign):
    phi = box.phi_grid(mesh)
    vals = np.maximum(phi, 0.0) if sign > 0 else np.minimum(phi, 0.0)
    return CostSpec(SampledWeight(mesh.xs, mesh.ts, vals))


class TestBangBang:
    def test_nonpositive_weight_gives_free_flow(self, model, u0, box, small_mesh):
        spec = signed_spec(box, small_mesh, -1)
        res = optimize_bangbang(model, u0, spec, T_HORIZON, 1, 60, small_mesh)
        assert res.control.values == (model.A0,)

    def test_nonnegative_weight_gives_blocked(self, model, u0, box, small_mesh):
        spec = signed_spec(box, small_mesh, +1)
        res = optimize_bangbang(model, u0, spec, T_HORIZON, 1, 60, small_mesh)
        assert res.control.values == (0.0,)

    def test_beats_constants_on_canonical(self, model, u0, box_spec, small_mesh,
                                          free_flow, blocked):
        res = optimize_bangbang(model, u0, box_spec, T_HORIZON, 1, 120, small_mesh)
        j_free = cost(model, u0, box_spec, free_flow, small_mesh)
        j_blocked = cost(model, u0, box_spec, blocked, small_mesh)
        assert res.cost < j_free - 1e-4 * abs(res.cost)
        assert res.cost < j_blocked - 1e-4 * abs(res.cost)
        assert set(res.control.values) <= {0.0, model.A0}

    def test_history_monotone_and_cost_rechecks(self, model, u0, box_spec, small_mesh):
        res = optimize_bangbang(model, u0, box_spec, T_HORIZON, 1, 80, small_mesh)
        best = [v for _, v in res.history]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
        again = cost(model, u0, box_spec, res.control, small_mesh)
        assert again == pytest.approx(res.cost, abs=1e-12)

    def test_determinism(self, model, u0, box_spec, small_mesh):
        r1 = optimize_bangbang(model, u0, box_spec, T_HORIZON, 1, 70, small_mesh)
        r2 = optimize_bangbang(model, u0, box_spec, T_HORIZON, 1, 70, small_mesh)
        assert r1.cost == r2.cost
        assert r1.control.times == r2.control.times
        assert r1.history == r2.history

    def test_budget_flag(self, model, u0, box_spec, small_mesh):
        res = optimize_bangbang(model, u0, box_spec, T_HORIZON, 2, 55, small_mesh)
        assert res.budget_exhausted
        assert res.evals <= 55
        assert np.isfinite(res.cost)

    def test_weight_type_does_not_steer_the_search(self, model, u0, box, small_mesh, box_run):
        sampled = CostSpec(SampledWeight(small_mesh.xs, small_mesh.ts, box.phi_grid(small_mesh)))
        res = optimize_bangbang(model, u0, sampled, T_HORIZON, 2, 260, small_mesh)
        assert res.cost == box_run.cost
        assert res.control == box_run.control
        assert res.evals == box_run.evals
        assert res.history == box_run.history

    def test_canonical_box_run_stops_within_its_budget(self, box_run):
        assert not box_run.budget_exhausted
        assert box_run.evals < 260

    def test_canonical_search_trace(self, model, u0, box_spec, functional_mesh, monkeypatch):
        """The reproduce-prop511 search: the 41x161 box mesh, k_max 2, budget 260.
        Pins its evaluations, its calls into the cost cache and its switch; a
        line search on the exact derivative (ROADMAP item 3) moves these
        numbers on purpose."""
        calls = []
        cached = _CostCache.__call__
        monkeypatch.setattr(_CostCache, "__call__", lambda self, A: calls.append(A) or cached(self, A))
        res = optimize_bangbang(model, u0, box_spec, T_HORIZON, 2, 260, functional_mesh)
        assert res.evals == 174
        assert len(calls) == 294
        assert res.control.times[1:-1] == (1.3765765522217768,)
        assert not res.budget_exhausted

    def test_validation(self, model, u0, box_spec, small_mesh):
        with pytest.raises(OptimizerError):
            optimize_bangbang(model, u0, box_spec, T_HORIZON, 0, 60, small_mesh)
        with pytest.raises(OptimizerError):
            optimize_bangbang(model, u0, box_spec, T_HORIZON, 1, 10, small_mesh)


class TestRelaxed:
    def test_nonpositive_weight_floors_every_cell(self, model, u0, box, small_mesh):
        spec = signed_spec(box, small_mesh, -1)
        res = optimize_relaxed(model, u0, spec, T_HORIZON, 4, 400, small_mesh)
        assert np.abs(np.asarray(res.control(np.linspace(0.1, 5.9, 24))) - model.A0).max() <= 1e-6

    def test_single_cell_scalar_minimization(self, model, u0, box, small_mesh):
        spec = signed_spec(box, small_mesh, -1)
        res = optimize_relaxed(model, u0, spec, T_HORIZON, 1, 60, small_mesh)
        assert len(res.control.values) == 1
        assert res.control.values[0] == pytest.approx(model.A0, abs=1e-6)

    def test_integrals_reported(self, model, u0, box, small_mesh):
        spec = signed_spec(box, small_mesh, -1)
        res = optimize_relaxed(model, u0, spec, T_HORIZON, 2, 120, small_mesh)
        int_a, int_sa = res.integrals()
        assert int_a == pytest.approx(model.A0 * T_HORIZON, abs=1e-5)
        assert int_sa == pytest.approx(model.A0 * T_HORIZON**2 / 2, abs=1e-4)


    def test_criterion_10_run_switches_once_and_beats_both_constants(
            self, model, u0, box_spec, functional_mesh, free_flow, blocked, relaxed_result):
        # a coordinate step that compares the levels with an interior golden
        # minimum, not with its end probes, leaves this run at free flow
        margin = 1e-4 * abs(relaxed_result.cost)
        for const in (free_flow, blocked):
            assert relaxed_result.cost < cost(model, u0, box_spec, const, functional_mesh) - margin
        pat = pattern_extract(relaxed_result, model.A0)
        assert isinstance(pat, BangBangPattern) and pat.k == 1


class TestPatternExtract:
    def test_identity_on_bangbang(self, model):
        ctrl = Control((0.0, 1.5, T_HORIZON), (0.0, model.A0))
        res = OptimizeResult(ctrl, -1.0, 1, ((1, -1.0),), "bangbang")
        pat = pattern_extract(res, model.A0)
        assert isinstance(pat, BangBangPattern)
        assert pat.k == 1
        assert pat.start_value == 0.0
        assert pat.switch_times == (1.5,)

    def test_rejects_interior_values(self, model):
        vals = tuple([model.A0 / 2.0] * 8)
        ctrl = Control(tuple(np.linspace(0, T_HORIZON, 9)), vals)
        res = OptimizeResult(ctrl, 0.0, 1, ((1, 0.0),), "relaxed")
        pat = pattern_extract(res, model.A0)
        assert isinstance(pat, PatternRejection)
        assert len(pat.distances) == len(ctrl.values)

    def test_snaps_near_levels(self, model):
        eps = 1e-4 * abs(model.A0)
        ctrl = Control((0.0, 2.0, T_HORIZON), (0.0 - eps, model.A0 + eps))
        res = OptimizeResult(ctrl, 0.0, 1, ((1, 0.0),), "relaxed")
        pat = pattern_extract(res, model.A0)
        assert isinstance(pat, BangBangPattern)
        assert pat.switch_times == (2.0,)
