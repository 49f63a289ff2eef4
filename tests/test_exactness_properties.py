"""Oracle-free exactness properties of u^A across the model space.

A path's cost moves with the control A only through its stay at the
junction, -integral(A, a, b). So u^A, the minimum over paths, is
nonincreasing and concave in A, 1-Lipschitz in A (|u^A - u^B| <= the
integral of |A - B| up to t), and for the path (a, b) selected under A,
u^B <= u^A - integral(B - A, a, b), with 0 on straight paths (the
supergradient inequality; the inf-morphism of Lax-Hopf solutions, Claudel
and Bayen, IEEE TAC 2010; Danskin 1966). These need no oracle, so each is
asserted at the rounding of the sums, 1e-14 (1 + |u|), on seeded pairs of
5-cell random controls, on every node of a small mesh, under both selectors.
"""

from functools import lru_cache

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
    trajectory_field,
    value_grid,
)

from conftest import P_SLOPE, TAB, asym_case, random_control

ROUNDING = 1e-14
PAIRS = 3
MESH = Mesh.regular(-2.0, 2.0, 33, 6.0, 37)
QUAD = Hamiltonian(R=1.0, kind="quadratic", kappa=1.0)


def case(H, breakpoints, slopes):
    """A symmetric junction of H with the given datum."""
    return lambda: (JunctionModel(H, H, equal_minima=True),
                    InitialData(breakpoints, slopes, capacities=(1.0, 1.0)))


# the slopes of the two 3-piece data fall (u0 concave at its kinks) and rise (convex)
MODELS = {
    "symmetric": case(QUAD, (), (P_SLOPE,)),
    "asymq": asym_case,
    "tabulated": case(TAB, (), (-0.4,)),
    "falling-slopes": case(QUAD, (-0.5, 0.4), (-0.2, -0.6, -0.9)),
    "rising-slopes": case(QUAD, (-0.5, 0.4), (-0.9, -0.5, -0.1)),
}


def combine(A, B, op):
    """The control op(A, B), cell by cell on the union of their switch times."""
    times = np.unique(np.concatenate([A.times, B.times]))
    mid = 0.5 * (times[:-1] + times[1:])
    return Control(tuple(times), tuple(op(A(mid), B(mid))))


@lru_cache(maxsize=None)
def draws(name):
    """Per seeded pair (A, B): the controls and their fields on MESH."""
    model, u0 = MODELS[name]()
    rng = np.random.default_rng(5)
    out = []
    for _ in range(PAIRS):
        A, B = (random_control(rng, model.A0, cells=5) for _ in range(2))
        ctrl = dict(A=A, B=B, lo=combine(A, B, np.minimum), hi=combine(A, B, np.maximum),
                    mid=combine(A, B, lambda a, b: 0.5 * (a + b)),
                    gap=combine(A, B, lambda a, b: np.abs(a - b)))
        u = {k: value_grid(model, u0, c, MESH).u for k, c in ctrl.items() if k != "gap"}
        paths = {(k, sel): trajectory_field(model, u0, ctrl[k], MESH, sel)
                 for k in ("A", "B") for sel in (MOST_AT_ZERO, LEAST_AT_ZERO)}
        out.append((ctrl, u, paths))
    return out


def tol(*fields):
    return ROUNDING * (1.0 + np.max(np.abs(fields), axis=0))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_nonincreasing_in_the_control(name):
    for _, u, _ in draws(name):
        assert np.all(u["hi"] <= u["lo"] + tol(u["hi"], u["lo"]))
        assert np.all(u["hi"] <= np.minimum(u["A"], u["B"]) + tol(u["hi"], u["A"], u["B"]))
        assert np.all(np.maximum(u["A"], u["B"]) <= u["lo"] + tol(u["lo"], u["A"], u["B"]))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_concave_in_the_control(name):
    for _, u, _ in draws(name):
        assert np.all(u["mid"] >= 0.5 * (u["A"] + u["B"]) - tol(u["mid"], u["A"], u["B"]))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_one_lipschitz_in_the_control(name):
    for ctrl, u, _ in draws(name):
        gap = ctrl["gap"].cumulative(MESH.ts)[None, :]
        assert np.all(np.abs(u["A"] - u["B"]) <= gap + tol(u["A"], u["B"]))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_supergradient_inequality_on_the_selected_paths(name):
    for ctrl, u, paths in draws(name):
        for (k, sel), path in paths.items():
            other = "B" if k == "A" else "A"
            a, b = np.nan_to_num(path["a"]), np.nan_to_num(path["b"])  # 0 on straight paths
            shift = ((ctrl[other].cumulative(b) - ctrl[other].cumulative(a))
                     - (ctrl[k].cumulative(b) - ctrl[k].cumulative(a)))
            assert path["is_dwell"].any(), (k, sel)
            assert np.all(u[other] <= u[k] - shift + tol(u[other], u[k])), (k, sel)
