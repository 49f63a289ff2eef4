"""Fast tests of the benchmark's independent references and of its checks.

They run no workload: each reference is compared with a closed form, and
each check is shown to fail on an output broken on purpose.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from junctionflow.functionals import make_box_weight  # noqa: E402

P = -0.8
SYM = ref.Quad(1.0, 1.0)
SLOPE = ref.Datum((), (P,))


def grid(xmin, xmax, nx, tmin, tmax, nt):
    xs, ts = np.linspace(xmin, xmax, nx), np.linspace(tmin, tmax, nt)
    X, T = np.meshgrid(xs, ts, indexing="ij")
    return xs, ts, X, T


def test_leg_cost_is_the_perspective_of_the_lagrangian():
    H = ref.Quad(0.5, 2.0)
    p = np.linspace(-2.0, 0.0, 20001)
    for alpha in (-1.5, -1.0, -0.3, 0.0, 0.7, 1.0, 2.0):
        conjugate = np.max(alpha * p - H.H(p))  # L(alpha) = sup_p (alpha p - H(p))
        assert H.leg(3.0 * alpha, 3.0) == pytest.approx(3.0 * conjugate, abs=1e-7)
    assert H.leg(0.0, 0.0) == 0.0 and H.leg(0.1, 0.0) == np.inf


def test_side_min_is_the_minimum_of_a_dense_scan():
    H, u0 = ref.Quad(0.5, 2.0), ref.Datum((-1.0, -0.3, 0.6), (-0.3, -0.7, -0.8, -1.4))
    for side, x, s in ((1, 0.4, 2.0), (1, 1.3, 0.7), (-1, -0.2, 3.0), (-1, -1.5, 1.0), (1, 0.0, 2.5)):
        y = np.linspace(0.0, 20.0, 400001) if side > 0 else np.linspace(-20.0, 0.0, 400001)
        scan = np.min(u0(y) + H.leg(x - y, s))
        exact = float(ref.side_min(H, u0, side, x, s))
        assert exact <= scan + 1e-12
        assert scan - exact <= 1e-6


def test_datum_is_normalised_and_piecewise_linear():
    u0 = ref.Datum((-1.0, -0.3, 0.6), (-0.3, -0.7, -0.8, -1.4))
    assert u0(0.0) == 0.0
    assert u0(1.6) == pytest.approx(-0.8 * 0.6 - 1.4 * 1.0)
    assert u0(-2.0) == pytest.approx(0.8 * 0.3 + 0.7 * 0.7 + 0.3 * 1.0)


def test_free_flow_bound_reproduces_p_x_minus_H_t():
    xs, ts, X, T = grid(-2.0, 2.0, 41, 0.15, 6.0, 40)
    exact = ref.free_field(float(SYM.H(P)), P, xs, ts)
    ub = ref.path_upper_bound(SYM, SYM, SLOPE, (0.0, 6.0), (-0.25,), X.ravel(), T.ravel())
    ub = ub.reshape(X.shape)
    assert np.all(ub >= exact - 1e-12)  # no path beats the infimum
    assert np.max(ub - exact) <= 1e-6  # and the scan finds paths that reach it


def test_blocked_reference_is_the_closed_form():
    xs, ts, X, T = grid(-2.0, 2.0, 200, 0.03, 6.0, 200)
    closed = np.minimum(np.where(X <= 0, -X, 0.0), P * X - SYM.H(P) * T)
    assert np.max(np.abs(ref.blocked_field(SYM, SYM, SLOPE, xs, ts) - closed)) <= 1e-12


def test_free_flow_cost_matches_closed_form_linear_cost():
    box = workloads.BOX
    exact = make_box_weight(**box).closed_form_linear_cost(P, float(SYM.H(P)))
    errors = []
    for n in (1, 4):
        xs, ts, _, _ = grid(0.08, 0.2, 40 * n + 1, 0.9, 5.1, 160 * n + 1)
        j, _ = ref.box_quadrature(box, xs, ts, ref.free_field(float(SYM.H(P)), P, xs, ts))
        errors.append(abs(j - exact))
    assert errors[0] <= 1e-3 * abs(exact)
    assert errors[1] < errors[0] / 8  # second-order quadrature error, not a mismatch


def test_canonical_box_conditions_hold():
    conds = ref.box_conditions(workloads.BOX, SYM, P, float(SYM.H(-0.5)))
    assert [ok for *_, ok in conds] == [True] * 4
    assert conds[2][0] == pytest.approx(0.375 / 0.09)


def test_bound_check_fails_on_a_node_raised_by_1e_minus_6():
    xs, ts, X, T = grid(-1.0, 0.5, 31, 0.3, 5.0, 48)
    field = ref.blocked_field(SYM, SYM, SLOPE, xs, ts)  # the true value for A = 0
    ub = ref.path_upper_bound(SYM, SYM, SLOPE, (0.0, 6.0), (0.0,), X.ravel(), T.ravel())
    ub = ub.reshape(X.shape)
    assert workloads.bound_failures(field, ub, X, T) == []
    # a dwell path wins at x = -0.85, parking at the junction at x = 0, a
    # straight leg at x = 0.5, t = 0.3
    for node in ((3, 40), (20, 10), (30, 0)):
        raised = field.copy()
        raised[node] += 1e-6
        fails = workloads.bound_failures(raised, ub, X, T)
        assert len(fails) == 1 and "at 1 of" in fails[0]


def _selectors():
    u = np.array([[0.1, 0.2], [0.3, 0.4]])
    most = dict(is_dwell=np.array([[True, True], [False, False]]),
                a=np.array([[0.1, 0.2], [np.nan] * 2]),
                b=np.array([[1.0, 2.0], [np.nan] * 2]), value=u.copy())
    least = dict(is_dwell=np.array([[True, False], [False, False]]),
                 a=np.array([[0.3, np.nan], [np.nan] * 2]),
                 b=np.array([[1.0, np.nan], [np.nan] * 2]), value=u.copy())
    return u, most, least


def test_selector_checks_pass_on_consistent_fields():
    u, most, least = _selectors()
    assert workloads.selector_failures(most, least, u, lambda d, a, b: u[d]) == []


def test_selector_subset_check_fails_when_only_least_dwells():
    u, most, least = _selectors()
    least["is_dwell"][1, 0] = True
    least["a"][1, 0], least["b"][1, 0] = 0.5, 1.5
    fails = workloads.selector_failures(most, least, u, lambda d, a, b: u[d])
    assert any("LeastAtZero dwells where MostAtZero does not" in f for f in fails)


def test_selector_tie_band_check_fails_on_a_costlier_path():
    u, most, least = _selectors()
    fails = workloads.selector_failures(most, least, u, lambda d, a, b: u[d] + 1e-6)
    assert any("tie band" in f for f in fails)


def test_self_time_subtracts_child_spans():
    names = ["functionals.cost", "hj_junction.value_grid"]
    spans = [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [1, 5.0, 6.0, 0]]
    out = tracer.layer_metrics(names, spans, {}, rounds=2)
    assert out["functionals.cost_s"][0] == pytest.approx(3.0)
    assert out["hj_junction.value_grid_s"][0] == pytest.approx(2.0)
    assert out["functionals.cost_ms"][0] == pytest.approx(1e4)


def test_only_the_known_check_of_a_fault_operation_is_booked_to_the_fault():
    r = run.Run(seed=0, out_dir=None)
    r.record("oracles.dp.criterion4", [], fault="F1", known=["halving ratio 0.630 > 0.6"])
    assert (r.attempted, r.failed, r.unexpected) == (1, 1, [])
    r.record("oracles.dp.criterion4", ["|u - DP| 0.1 > 0.05 at 200^2"], fault="F1",
             known=["halving ratio 0.630 > 0.6"])
    assert (r.attempted, r.failed) == (2, 2)
    assert len(r.unexpected) == 1 and "|u - DP|" in r.unexpected[0]
    assert len(r.faults["F1"]) == 2


def test_count_only_entry_points_are_counted_without_a_span():
    t = tracer.Tracer()
    leg_cost = t._wrap("flux_models.Hamiltonian.leg_cost", lambda: np.zeros(7), tracer._leg_cost_elems)
    leg_cost()
    t.enabled = False
    leg_cost()
    assert t.spans == []
    assert t.counts["flux_models.leg_cost_elems"] == 7
    assert t.counts["flux_models.Hamiltonian.leg_cost.calls"] == 1


def test_overhead_is_calls_times_the_cost_of_a_wrapper():
    one = tracer.overhead_s({"cli.main.calls": 1})
    assert 0.0 < one < 1e-4
    assert tracer.overhead_s({}) == 0.0


def test_every_integer_is_a_seed():
    for setup, _ in workloads.WORKLOADS.values():
        setup(-3)
        setup(2**70)
    a = workloads.oracles_inputs(-1, 0)["dp"][2]
    b = workloads.oracles_inputs(2**64 - 1, 0)["dp"][2]
    assert a.times == b.times and a.values == b.values
