import numpy as np
import pytest

from junctionflow import Control, Hamiltonian, InitialData, JunctionModel, Mesh
from junctionflow.dp_oracle import _dp_domain
from junctionflow.functionals import CostSpec, make_box_weight
from junctionflow.hj_junction import brute_force_field
from junctionflow.optimizer import optimize_relaxed

T_HORIZON = 6.0
P_SLOPE = -0.8
H_OF_P = -0.16  # H(p) = p (p + 1) at p = -0.8
# a convex tabulated H on [-1, 0], not quadratic between its samples
TAB = Hamiltonian(R=1.0, kind="tabulated", samples=tuple(
    (p, -0.3 * p**3 + 0.7 * p**2 + p if -1.0 < p < 0.0 else 0.0)
    for p in np.round(np.linspace(-1.0, 0.0, 11), 12)))


@pytest.fixture(scope="session")
def quad():
    return Hamiltonian(R=1.0, kind="quadratic", kappa=1.0)


@pytest.fixture(scope="session")
def model(quad):
    return JunctionModel(quad, quad, equal_minima=True)


@pytest.fixture(scope="session")
def u0(model):
    return InitialData((), (P_SLOPE,), capacities=(1.0, 1.0))


@pytest.fixture(scope="session")
def free_flow(model):
    return Control((0.0, T_HORIZON), (model.A0,))


@pytest.fixture(scope="session")
def blocked():
    return Control((0.0, T_HORIZON), (0.0,))


@pytest.fixture(scope="session")
def switching(model):
    """The two-phase control of the canonical box experiment."""
    return Control((0.0, 1.5, T_HORIZON), (0.0, model.A0))


@pytest.fixture(scope="session")
def box():
    return make_box_weight(0.1, 0.18, 1.0, 1.5, 4.5, 5.0, 0.015)


@pytest.fixture(scope="session")
def box_spec(box):
    return CostSpec(box)


@pytest.fixture(scope="session")
def functional_mesh():
    return Mesh.regular(0.08, 0.2, 41, 5.1, 161, tmin=0.9)


@pytest.fixture(scope="session")
def relaxed_result(model, u0, box_spec, functional_mesh):
    """The relaxed baseline of acceptance criterion 10, run once per session."""
    return optimize_relaxed(model, u0, box_spec, T_HORIZON, m_cells=8, budget=320,
                            mesh=functional_mesh)


def random_control(rng, a0, T=T_HORIZON, cells=5, times=None):
    if times is None:
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.05 * T, 0.95 * T, cells - 1)), [T]])
    values = rng.uniform(a0, 0.0, len(times) - 1)
    return Control(tuple(times), tuple(values))


def trapezoid(axis):
    """Trapezoid weights on a 1-d grid: half of each neighbouring gap."""
    w = np.zeros(len(axis))
    d = np.diff(axis)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def dwell_measure_reference(phi_vals, mesh, tfield, s):
    """D(s) for one s: phi times the 0/1 dwell indicator, one einsum."""
    ind = (
        tfield["is_dwell"]
        & (np.nan_to_num(tfield["a"], nan=np.inf) <= s)
        & (s <= np.nan_to_num(tfield["b"], nan=-np.inf))
        & (mesh.ts[None, :] > s)
    )
    return float(np.einsum("i,j,ij->", trapezoid(mesh.xs), trapezoid(mesh.ts), phi_vals * ind))


def asym_case():
    """An asymmetric quadratic junction with a 4-piece datum."""
    model = JunctionModel(Hamiltonian(R=1.0, kappa=1.0), Hamiltonian(R=2.0, kappa=0.5))
    u0 = InitialData((-1.0, -0.3, 0.6), (-0.3, -0.7, -0.8, -1.4), capacities=(1.0, 2.0))
    return model, u0


def brute_force_value(model, u0, A, x, t, lattice=(200, 200)) -> float:
    """The DP oracle at one point: brute_force_field on a domain holding 0 and
    x, interpolated at x in its last time column."""
    nodes, _, V = brute_force_field(model, u0, A, t, lattice, domain=_dp_domain(model, t, x))
    return float(np.interp(float(x), nodes, V[:, -1]))


def recompute_cost(d, model, u0, A) -> float:
    """Re-assemble the cost of the path a TrajectoryDescriptor describes from its parts."""
    if d.kind == "straight":
        H = model.side(d.y if d.x == 0 else d.x)
        return float(H.leg_cost(d.x - d.y, d.t) + u0.eval(d.y))
    first = 0.0 if d.a == 0 else float(model.side(d.y).leg_cost(-d.y, d.a) + u0.eval(d.y))
    stay = -(A.cumulative(d.b) - A.cumulative(d.a))
    last = 0.0 if d.b == d.t else float(model.side(d.x).leg_cost(d.x, d.t - d.b))
    return first + stay + last
