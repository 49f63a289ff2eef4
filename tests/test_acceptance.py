"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy shared artifacts (the canonical reproduction runs and the two
optimizer runs) are session fixtures so every criterion sees the same data.
"""

import json
import time

import numpy as np
import pytest

from junctionflow import (
    Control,
    InitialData,
    Mesh,
    gradient_audit,
    value,
    value_grid,
    weak_star_square_wave,
)
from junctionflow.cl_oracle import GermElement, cross_check, make_grid, solve_cl
from junctionflow.cli import EXIT_OK, main
from junctionflow.functionals import Rule, cost
from junctionflow.hj_junction import brute_force_field
from junctionflow.optimality import _dwell_measures, check_optimality, component_report
from junctionflow.optimizer import BangBangPattern, optimize_bangbang, pattern_extract

from conftest import H_OF_P, P_SLOPE, T_HORIZON, random_control

ACCEPTANCE_MESH = Mesh.regular(-2.0, 2.0, 200, T_HORIZON, 200)
PAIR_MESH = Mesh.regular(-2.0, 2.0, 81, T_HORIZON, 81)


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="session")
def repro_runs(tmp_path_factory):
    """The canonical reproduction, run twice with different worker counts."""
    outs = []
    elapsed = []
    for workers in (1, 2):
        out = tmp_path_factory.mktemp(f"repro_w{workers}")
        t0 = time.time()
        rc = main(["reproduce-prop511", "--out", str(out), "--workers", str(workers)])
        elapsed.append(time.time() - t0)
        assert rc == EXIT_OK
        outs.append(out)
    return outs, elapsed


@pytest.fixture(scope="session")
def bb_result(model, u0, box_spec, functional_mesh):
    return optimize_bangbang(model, u0, box_spec, T_HORIZON, k_max=4, budget=420,
                             mesh=functional_mesh)


@pytest.fixture(scope="session")
def field_free(model, u0, free_flow):
    return value_grid(model, u0, free_flow, ACCEPTANCE_MESH)


@pytest.fixture(scope="session")
def field_blocked(model, u0, blocked):
    return value_grid(model, u0, blocked, ACCEPTANCE_MESH)


def test_criterion_01_free_flow_golden(model, u0, field_free):
    t0 = time.time()
    f = value_grid(model, u0, Control((0.0, T_HORIZON), (model.A0,)), ACCEPTANCE_MESH)
    elapsed = time.time() - t0
    X, T = np.meshgrid(f.xs, f.ts, indexing="ij")
    err = float(np.abs(f.u - (P_SLOPE * X - H_OF_P * T)).max())
    report(1, err <= 1e-9 and elapsed <= 60.0,
           f"max err {err:.2e} <= 1e-9, runtime {elapsed:.1f}s <= 60s")


def test_criterion_02_blocked_golden(field_blocked):
    X, T = np.meshgrid(field_blocked.xs, field_blocked.ts, indexing="ij")
    exact = np.minimum(np.where(X <= 0, -1.0 * X, 0.0), P_SLOPE * X - H_OF_P * T)
    err = float(np.abs(field_blocked.u - exact).max())
    report(2, err <= 1e-6, f"max err {err:.2e} <= 1e-6")


def test_criterion_03_prop_reproduction(repro_runs):
    outs, elapsed = repro_runs
    rep = json.loads((outs[0] / "report.json").read_text())
    conds_ok = all(c["ok"] for c in rep["conditions"])
    v = rep["verdicts"]
    ok = (
        conds_ok
        and v["switch_beats_free_flow"]
        and v["switch_beats_blocked"]
        and v["relative_margin_free"] > 1e-4
        and v["relative_margin_blocked"] > 1e-4
        and elapsed[0] <= 600.0
    )
    report(3, ok,
           f"conditions ok={conds_ok}, rel margins {v['relative_margin_free']:.3f}/"
           f"{v['relative_margin_blocked']:.3f} > 1e-4, runtime {elapsed[0]:.0f}s <= 600s")


def test_criterion_04_oracle_equivalence(model, u0):
    rng = np.random.default_rng(2024)
    controls = [random_control(rng, model.A0, cells=c) for c in (4, 5, 6)]
    diffs = {200: [], 400: []}
    bounds = {}
    for A in controls:
        pts = None
        for n in (200, 400):
            nodes, ts, V = brute_force_field(model, u0, A, T_HORIZON, (n, n),
                                             domain=(-8.3, 8.3))
            dx = (nodes[-1] - nodes[0]) / (len(nodes) - 1)
            dt = T_HORIZON / n
            bounds[n] = 2.0 * (dx + dt)
            if pts is None:
                cand_i = np.where(np.abs(nodes) <= 2.0)[0]
                pts = [(float(nodes[rng.choice(cand_i)]),
                        float(ts[rng.integers(len(ts) // 8, len(ts))]))
                       for _ in range(50)]
            for (x, t) in pts:
                i = int(np.argmin(np.abs(nodes - x)))
                k = int(round(t / (T_HORIZON / n)))
                vex, _ = value(model, u0, A, float(nodes[i]), float(ts[k]))
                diffs[n].append(abs(vex - V[i, k]))
    d200, d400 = max(diffs[200]), max(diffs[400])
    halves = d400 <= 0.6 * d200 + 1e-6
    ok = d200 <= bounds[200] and d400 <= bounds[400] and halves
    report(4, ok,
           f"max|diff| {d200:.4f} <= {bounds[200]:.4f} at 200^2, "
           f"{d400:.4f} <= {bounds[400]:.4f} at 400^2, halving ratio {d400 / max(d200, 1e-300):.2f}")


def test_criterion_05_entropy_cross_check(model, u0, switching):
    times = np.linspace(0.0, T_HORIZON, 13)
    errs = {}
    for cells in (400, 800):
        faces = make_grid(-8.0, 8.0, cells)
        errs[cells] = cross_check(model, u0, switching, faces, times)["l1_density_error"]
    ok = errs[400] <= 0.05 and errs[800] < errs[400]
    report(5, ok, f"L1 err {errs[400]:.4f} <= 0.05 at 400 cells, {errs[800]:.4f} at 800")


def test_criterion_06_monotonicity_suite(model, u0, field_free, field_blocked,
                                         free_flow, blocked):
    rng = np.random.default_rng(77)
    times = (0.0, 0.9, 2.1, 3.3, 4.5, T_HORIZON)
    worst = 0.0
    for _ in range(20):
        lo = rng.uniform(model.A0, 0.0, 5)
        hi = lo + rng.uniform(0.0, 1.0, 5) * (0.0 - lo)
        fa = value_grid(model, u0, Control(times, tuple(lo)), PAIR_MESH)
        fb = value_grid(model, u0, Control(times, tuple(hi)), PAIR_MESH)
        worst = max(worst, float(np.max(fb.u - fa.u)))
    # sandwich u^0 <= u^A <= u^A0 on the acceptance mesh
    mid = value_grid(model, u0, Control((0.0, 2.0, T_HORIZON), (-0.1, -0.2)),
                     ACCEPTANCE_MESH)
    worst = max(worst, float(np.max(field_blocked.u - mid.u)))
    worst = max(worst, float(np.max(mid.u - field_free.u)))
    report(6, worst <= 1e-9, f"max monotonicity violation {worst:.2e} <= 1e-9")


def test_criterion_07_weak_star_stability(model, u0):
    half = Control((0.0, T_HORIZON), (model.A0 / 2.0,))
    ref = value_grid(model, u0, half, ACCEPTANCE_MESH)
    dists = []
    for n in (4, 16, 64):
        f = value_grid(model, u0, weak_star_square_wave(n, T_HORIZON, model.A0),
                       ACCEPTANCE_MESH)
        dists.append(float(np.abs(f.u - ref.u).max()))
    ok = dists[0] > dists[1] > dists[2] and dists[2] < 0.02
    report(7, ok, f"distances {dists[0]:.4f} > {dists[1]:.4f} > {dists[2]:.4f} < 0.02")


def test_criterion_08_gradient_bounds(model, u0, field_free, field_blocked, switching):
    fields = [field_free, field_blocked,
              value_grid(model, u0, switching, ACCEPTANCE_MESH)]
    reps = [gradient_audit(f, model) for f in fields]
    worst = max(max(r["max_violation_x"], r["max_violation_t"]) for r in reps)
    report(8, all(r["ok"] for r in reps), f"worst discrete-gradient violation {worst:.2e}")


def test_criterion_09_optimality_audit(model, u0, box_spec, functional_mesh, bb_result):
    audit = check_optimality(model, u0, bb_result.control, box_spec, functional_mesh)
    rep = component_report(model, u0, bb_result.control, functional_mesh, spec=box_spec)
    sbar = rep.s_bar_minus if rep.s_bar_minus is not None else 0.0
    tau = rep.tau if rep.tau else functional_mesh.ts[0]
    ss = np.linspace(sbar + 0.05 * (tau - sbar), tau - 0.05 * (tau - sbar), 9)
    from junctionflow import trajectory_field, MOST_AT_ZERO

    tf = trajectory_field(model, u0, bb_result.control, functional_mesh, MOST_AT_ZERO)
    hs = _dwell_measures(Rule(box_spec.weight.phi_grid(functional_mesh), functional_mesh), tf, ss)
    noise = audit.tolerances["tol_opt"]
    monotone = all(hs[i + 1] <= hs[i] + noise for i in range(len(hs) - 1))
    nonneg = min(hs) >= -noise
    ok = audit.violations == 0 and monotone and nonneg
    report(9, ok,
           f"violations {audit.violations} at tol_opt {noise:.2e}; H nonneg (min {min(hs):.4f}) "
           f"and nonincreasing on ({sbar:.2f}, {tau:.2f})")


def test_criterion_10_bangbang_dominance(model, bb_result, relaxed_result):
    tol = 1e-3 * abs(bb_result.cost)
    dominance = relaxed_result.cost >= bb_result.cost - tol
    pat = pattern_extract(relaxed_result, model.A0)
    snapped = isinstance(pat, BangBangPattern) and pat.k <= 2
    report(10, dominance and snapped,
           f"relaxed {relaxed_result.cost:.6f} >= bangbang {bb_result.cost:.6f} - {tol:.1e}; "
           f"pattern {pat.as_dict()}")


def test_criterion_11_germ_stationarity(model):
    faces = make_grid(-1.0, 1.0, 100)
    centers = 0.5 * (faces[:-1] + faces[1:])
    rho0 = np.where(centers < 0, 0.9, 0.1)
    A = Control((0.0, 2.0), (-0.09,))
    out = solve_cl(model, rho0, faces, A, np.linspace(0.0, 2.0, 9))
    steps = 2.0 / (0.9 * (faces[1] - faces[0]))  # upper bound on step count
    drift = float(np.abs(out.rho - rho0[:, None]).max()) / max(steps, 1.0)
    member = GermElement(0.9, 0.1, -0.09).is_member(model)
    report(11, drift <= 1e-10 and member,
           f"per-step drift {drift:.2e} <= 1e-10, germ membership {member}")


def test_criterion_12_determinism(repro_runs):
    outs, _ = repro_runs
    b1 = (outs[0] / "report.json").read_bytes()
    b2 = (outs[1] / "report.json").read_bytes()
    report(12, b1 == b2, f"report.json byte-identical across worker counts: {b1 == b2}")


def test_reported_tau_is_the_switch(repro_runs):
    """The dwelling paths exit at the switch exactly, so the component's tau
    is its tau_hat and the optimizer's switch time to the bit."""
    outs, _ = repro_runs
    rep = json.loads((outs[0] / "report.json").read_text())
    comp = rep["components"]
    assert comp["tau"] == comp["tau_hat"][-1] == rep["optimizer"]["switch_times"][0]
