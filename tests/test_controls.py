import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import Control, ControlError, clamp_project, integrate, weak_star_square_wave

A0 = -0.25


class TestControl:
    def test_construction_and_canonicalization(self):
        A = Control((0.0, 1.0, 2.0, 3.0), (-0.1, -0.1, -0.2))
        assert A.times == (0.0, 2.0, 3.0)
        assert A.values == (-0.1, -0.2)

    def test_rejects_bad_times(self):
        with pytest.raises(ControlError):
            Control((0.5, 1.0), (-0.1,))
        with pytest.raises(ControlError):
            Control((0.0, 1.0, 1.0), (-0.1, -0.2))
        with pytest.raises(ControlError):
            Control((0.0, 1.0), ())

    def test_plain_floats(self):
        A = Control(np.array([0.0, 1.5, 6.0]), np.array([0.0, -0.25]))
        assert all(type(v) is float for v in A.times + A.values)
        assert A.ident() == "A(times=(0.0, 1.5, 6.0),values=(0.0, -0.25))"

    def test_call_right_continuous(self):
        A = Control((0.0, 1.0, 2.0), (-0.2, -0.1))
        assert A(0.5) == -0.2
        assert A(1.0) == -0.1
        assert A(2.0) == -0.1

    def test_is_bangbang(self):
        assert Control((0.0, 1.0, 2.0), (0.0, A0)).is_bangbang(A0)
        assert not Control((0.0, 2.0), (-0.1,)).is_bangbang(A0)

    def test_shifted(self):
        A = Control((0.0, 1.0, 3.0), (-0.2, -0.1))
        B = A.shifted(0.5)
        assert B.horizon == pytest.approx(2.5)
        assert B(0.25) == -0.2
        assert B(1.0) == -0.1


class TestIntegrate:
    def test_examples(self):
        A = Control((0.0, 1.5, 6.0), (0.0, -0.25))
        assert integrate(A, 1.0, 2.0) == pytest.approx(-0.125)
        assert integrate(A, 2.2, 2.2) == 0.0
        const = Control((0.0, 6.0), (-0.25,))
        assert integrate(const, 0.0, 6.0) == pytest.approx(-1.5)

    def test_range_errors(self):
        A = Control((0.0, 6.0), (-0.25,))
        with pytest.raises(ControlError):
            integrate(A, -0.5, 1.0)
        with pytest.raises(ControlError):
            integrate(A, 0.0, 6.5)

    @given(st.floats(0.0, 6.0), st.floats(0.0, 6.0), st.floats(0.0, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, a, b, c):
        a, b, c = sorted((a, b, c))
        A = Control((0.0, 1.0, 2.5, 6.0), (-0.2, 0.0, -0.25))
        whole = integrate(A, a, c)
        assert whole == pytest.approx(integrate(A, a, b) + integrate(A, b, c), abs=1e-12)

    def test_monotone_in_control(self):
        rng = np.random.default_rng(11)
        times = (0.0, 1.0, 2.0, 4.0, 6.0)
        lo = rng.uniform(A0, 0.0, 4)
        hi = lo + rng.uniform(0.0, 1.0, 4) * (0.0 - lo)
        A = Control(times, tuple(lo))
        B = Control(times, tuple(hi))
        for _ in range(50):
            a, b = np.sort(rng.uniform(0, 6, 2))
            assert integrate(A, a, b) <= integrate(B, a, b) + 1e-12

    def test_merge_invariance(self):
        rng = np.random.default_rng(5)
        A = Control((0.0, 1.0, 2.0, 3.0, 6.0), (-0.2, -0.2, -0.1, -0.1))
        merged = Control((0.0, 2.0, 6.0), (-0.2, -0.1))
        assert A.times == merged.times
        for _ in range(100):
            a, b = np.sort(rng.uniform(0, 6, 2))
            assert integrate(A, a, b) == pytest.approx(integrate(merged, a, b), abs=1e-15)


class TestSquareWave:
    def test_n1(self):
        A = weak_star_square_wave(1, 2.0, A0)
        assert A.times == (0.0, 1.0, 2.0)
        assert A.values == (0.0, A0)

    def test_n2_cells(self):
        A = weak_star_square_wave(2, 2.0, A0)
        assert len(A.values) == 4
        assert np.allclose(np.diff(A.times), 0.5)

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_mean_is_half(self, n):
        A = weak_star_square_wave(n, 6.0, A0)
        assert integrate(A, 0.0, 6.0) == pytest.approx(6.0 * A0 / 2.0, abs=1e-12)


class TestClampProject:
    def test_clamping(self):
        A = clamp_project([-0.9, 0.1, -0.1], A0, T=3.0)
        assert A.values == (A0, 0.0, -0.1)

    def test_rejects_bad_input(self):
        with pytest.raises(ControlError):
            clamp_project([], A0)
        with pytest.raises(ControlError):
            clamp_project([np.nan], A0)
