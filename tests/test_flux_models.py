import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import (
    Hamiltonian,
    InitialData,
    JunctionModel,
    ModelError,
    flux_branches,
)


def numeric_conjugate(H, alpha, n=100_000):
    """Brute sup over a dense p-grid; the independent oracle for L."""
    p = np.linspace(-H.R, 0.0, n)
    return float(np.max(alpha * p - H.value(p)))


class TestHamiltonianEval:
    def test_quadratic_interior(self, quad):
        assert quad.value(-0.5) == pytest.approx(-0.25, abs=1e-15)

    def test_boundary_zeros(self, quad):
        assert quad.value(0.0) == 0.0
        assert quad.value(-1.0) == pytest.approx(0.0, abs=1e-12)

    def test_cached_shape(self, quad):
        assert quad.p_hat == -0.5
        assert quad.h_min == -0.25
        assert quad.dh0 == 1.0 and quad.dhr == -1.0


class TestFlux:
    def test_values(self, quad):
        assert quad.flux(0.5) == pytest.approx(0.25)
        assert quad.flux(0.0) == 0.0
        assert quad.flux(0.9) == pytest.approx(0.09)

    def test_branches(self, quad):
        assert flux_branches(quad, 0.9) == pytest.approx((0.25, 0.09))
        assert flux_branches(quad, 0.5) == pytest.approx((0.25, 0.25))
        assert flux_branches(quad, 0.1) == pytest.approx((0.09, 0.25))

    def test_branches_domain(self, quad):
        with pytest.raises(ModelError):
            flux_branches(quad, 1.1)
        with pytest.raises(ModelError):
            flux_branches(quad, -0.1)
        # within tolerance is clipped, not rejected
        assert flux_branches(quad, 1.0 + 1e-10) == (0.25, 0.0)

    def test_flux_is_reflected_hamiltonian(self, quad):
        rho = np.linspace(0.0, 1.0, 257)
        assert np.abs(quad.flux(rho) + quad.value(-rho)).max() <= 1e-12

    def test_branch_monotonicity(self, quad):
        rho = np.linspace(0.0, 1.0, 129)
        fp, fm = flux_branches(quad, rho)
        assert np.all(np.diff(fp) >= -1e-12)
        assert np.all(np.diff(fm) <= 1e-12)


class TestLagrangian:
    def test_examples_against_numeric_sup(self, quad):
        assert quad.lagrangian(0.0) == pytest.approx(0.25, abs=1e-12)
        for alpha, expect in [(1.0, 0.0), (-2.0, 2.0)]:
            assert quad.lagrangian(alpha) == pytest.approx(expect, abs=1e-9)
            assert quad.lagrangian(alpha) == pytest.approx(
                numeric_conjugate(quad, alpha), abs=1e-9
            )

    def test_piecewise_structure(self, quad):
        assert quad.lagrangian(2.0) == 0.0
        assert quad.lagrangian(1.0) == 0.0
        assert quad.lagrangian(-3.0) == pytest.approx(3.0)

    @given(st.floats(-4.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_numeric_sup(self, alpha):
        H = Hamiltonian(R=1.0)
        assert H.lagrangian(alpha) == pytest.approx(numeric_conjugate(H, alpha), abs=1e-9)

    @given(st.floats(-1.0, 0.0), st.floats(-3.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_fenchel_inequality(self, p, alpha):
        H = Hamiltonian(R=1.0)
        assert alpha * p <= H.lagrangian(alpha) + H.value(p) + 1e-10

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_convexity_midpoint(self, a, b):
        H = Hamiltonian(R=1.0)
        mid = H.lagrangian(0.5 * (a + b))
        assert mid <= 0.5 * (H.lagrangian(a) + H.lagrangian(b)) + 1e-12


class TestTabulated:
    @pytest.fixture(scope="class")
    def tab(self):
        p = np.linspace(-1.0, 0.0, 21)
        return Hamiltonian(
            R=1.0, kind="tabulated", samples=tuple(zip(p, p * (p + 1.0)))
        )

    def test_reproduces_quadratic(self, tab, quad):
        p = np.linspace(-1.0, 0.0, 301)
        assert np.abs(tab.value(p) - quad.value(p)).max() <= 2e-3

    def test_shape_cache(self, tab):
        assert -1.0 < tab.p_hat < 0.0
        assert tab.h_min < 0.0
        assert tab.dhr < 0.0 < tab.dh0

    def test_conjugate_matches_numeric(self, tab):
        for alpha in (-2.0, -0.7, 0.0, 0.4, 1.5):
            assert tab.lagrangian(alpha) == pytest.approx(
                numeric_conjugate(tab, alpha), abs=1e-6
            )

    def test_rejects_nonconvex(self):
        p = np.linspace(-1.0, 0.0, 9)
        h = -np.sin(np.pi * p)  # concave bump on [-1, 0]
        with pytest.raises(ModelError):
            Hamiltonian(R=1.0, kind="tabulated", samples=tuple(zip(p, h)))

    def test_rejects_nonzero_endpoints(self):
        p = np.linspace(-1.0, 0.0, 9)
        h = p * (p + 1.0) + 0.01
        with pytest.raises(ModelError):
            Hamiltonian(R=1.0, kind="tabulated", samples=tuple(zip(p, h)))


TAB_P = np.round(np.linspace(-1.0, 0.0, 11), 12)
TAB = Hamiltonian(R=1.0, kind="tabulated", samples=tuple(
    (p, -0.3 * p**3 + 0.7 * p**2 + p if -1.0 < p < 0.0 else 0.0) for p in TAB_P))


class TestLevelSpeed:
    @pytest.mark.parametrize("H", [Hamiltonian(R=1.0), Hamiltonian(R=2.0, kappa=0.5), TAB],
                             ids=["quadratic", "asymmetric", "tabulated"])
    def test_speed_on_each_branch(self, H):
        h = np.linspace(H.h_min, 0.0, 201)
        for branch, (a, b) in ((1, (H.p_hat, 0.0)), (-1, (-H.R, H.p_hat))):
            # the p with H(p) = h on the branch, from a dense scan (H rises along it)
            p = np.linspace(a, b, 200_001)[::branch]
            p_h = np.interp(h, H.value(p), p)
            speed = H.level_speed(h, branch)
            assert np.abs(speed - np.abs(H.deriv(p_h))).max() <= 1e-8
        # levels outside [h_min, 0] clip to the vertex and the ends
        for branch in (1, -1):
            assert H.level_speed(H.h_min - 1.0, branch) == H.level_speed(H.h_min, branch)
            assert H.level_speed(H.h_min, branch) <= 1e-7
        assert H.level_speed(1.0, 1) == H.level_speed(0.0, 1) == pytest.approx(H.dh0, abs=1e-12)
        assert H.level_speed(1.0, -1) == H.level_speed(0.0, -1) == pytest.approx(-H.dhr, abs=1e-12)


class TestLegCost:
    @pytest.mark.parametrize("kappa,R", [(1.0, 1.0), (0.5, 2.0), (0.3, 1.7), (2.5, 0.6)])
    def test_quadratic_mid_branch_is_the_closed_form_bitwise(self, kappa, R):
        H = Hamiltonian(R=R, kappa=kappa)
        rng = np.random.default_rng(7)
        dt = rng.uniform(0.01, 5.0, 2000)
        dx = rng.uniform(-kappa * R, kappa * R, 2000) * dt
        mid = (dx > H.dhr * dt) & (dx < H.dh0 * dt)
        dx, dt = dx[mid], dt[mid]
        expect = (dx - kappa * R * dt) ** 2 / (4.0 * kappa * dt)
        assert np.array_equal(H.leg_cost(dx, dt), expect)

    def test_tabulated_is_the_perspective_of_the_numeric_conjugate(self):
        lo, hi = TAB._table[:2]
        # every piece: slopes at its knots and at its middle
        alpha = TAB.deriv(np.concatenate([lo, 0.5 * (lo + hi)]))
        dt = np.random.default_rng(3).uniform(0.2, 3.0, len(alpha))
        cost = TAB.leg_cost(alpha * dt, dt)
        for c, a, s in zip(cost, alpha, dt):
            assert c == pytest.approx(s * numeric_conjugate(TAB, a), abs=1e-9)


class TestEquality:
    @pytest.mark.parametrize("make", [
        lambda: Hamiltonian(R=2.0, kappa=0.5),
        lambda: Hamiltonian(R=1.0, kind="tabulated", samples=TAB.samples),
    ], ids=["quadratic", "tabulated"])
    def test_equal_and_hashable_by_defining_entries(self, make):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert JunctionModel(a, a) == JunctionModel(b, b)
        assert hash(JunctionModel(a, a)) == hash(JunctionModel(b, b))
        other = Hamiltonian(R=1.0, kappa=0.25)
        assert a != other and JunctionModel(a, other) != JunctionModel(b, b)


class TestJunctionModel:
    def test_a0_is_max_of_minima(self, quad):
        other = Hamiltonian(R=1.0, kappa=0.5)
        m = JunctionModel(quad, other)
        assert m.A0 == pytest.approx(-0.125)

    def test_equal_minima_flag(self, quad):
        JunctionModel(quad, quad, equal_minima=True)
        other = Hamiltonian(R=1.0, kappa=0.5)
        with pytest.raises(ModelError):
            JunctionModel(quad, other, equal_minima=True)


class TestInitialData:
    def test_linear(self):
        u = InitialData((), (-0.8,), capacities=(1.0, 1.0))
        assert u.eval(0.5) == pytest.approx(-0.4)
        assert u.eval(0.0) == 0.0

    def test_piecewise_accumulation(self):
        u = InitialData((-1.0,), (-0.8, -0.2), capacities=(1.0, 1.0))
        # direct sum oracle: u0(-1) = 0.2, then slope -0.8 leftwards
        assert u.eval(-1.0) == pytest.approx(0.2)
        assert u.eval(-2.0) == pytest.approx(1.0)
        assert u.eval(0.0) == 0.0

    def test_slope_bounds_enforced(self):
        with pytest.raises(ModelError):
            InitialData((), (0.0,), capacities=(1.0, 1.0))
        with pytest.raises(ModelError):
            InitialData((), (-1.0,), capacities=(1.0, 1.0))
        with pytest.raises(ModelError):
            InitialData((), (-1.0 + 1e-12,), capacities=(1.0, 1.0))
        # explicit opt-in admits boundary slopes
        InitialData((), (0.0,), capacities=(1.0, 1.0), allow_boundary_slopes=True)

    def test_per_side_bounds(self):
        # slope fine on the right (R=2) but too steep for the left line (R=1)
        InitialData((0.0,), (-0.5, -1.5), capacities=(1.0, 2.0))
        with pytest.raises(ModelError):
            InitialData((0.0,), (-1.5, -0.5), capacities=(1.0, 2.0))

    def test_from_samples_roundtrip(self):
        xs = np.linspace(-2.0, 2.0, 41)
        us = -0.8 * xs + 0.3
        data, offset = InitialData.from_samples(xs, us, (1.0, 1.0))
        assert offset == pytest.approx(0.3)
        probe = np.linspace(-1.9, 1.9, 17)
        assert np.abs(data.eval(probe) + offset - (-0.8 * probe + 0.3)).max() <= 1e-12
