import math

import numpy as np
import pytest

from unimod import (
    DiscretePhaseSet,
    InvalidArgumentError,
    PhaseVector,
    Rng,
    nearest_lattice,
    norm_lp,
    sample_complex_gaussian,
    wrap_phase,
)

TWO_PI = 2 * math.pi


class TestWrapPhase:
    @pytest.mark.parametrize("theta,expected", [
        (0.0, 0.0),
        (-math.pi / 2, 3 * math.pi / 2),
        (7 * math.pi, math.pi),
    ])
    def test_examples(self, theta, expected):
        assert wrap_phase(theta) == pytest.approx(expected, rel=1e-12)

    def test_idempotent_exact(self):
        thetas = np.linspace(-20.0, 20.0, 2001)
        once = wrap_phase(thetas)
        assert np.array_equal(wrap_phase(once), once)

    def test_range_and_congruence(self):
        rng = np.random.default_rng(1)
        thetas = rng.uniform(-100, 100, size=5000)
        wrapped = wrap_phase(thetas)
        assert np.all(wrapped >= 0) and np.all(wrapped < TWO_PI)
        k = np.round((thetas - wrapped) / TWO_PI)
        assert np.allclose(wrapped + k * TWO_PI, thetas, rtol=1e-12, atol=1e-9)

    def test_tiny_negative_wraps_into_range(self):
        assert 0.0 <= wrap_phase(-1e-20) < TWO_PI

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            wrap_phase(math.nan)
        with pytest.raises(InvalidArgumentError):
            wrap_phase(math.inf)


class TestNearestLattice:
    def test_examples(self):
        assert nearest_lattice(0.4 * math.pi, DiscretePhaseSet(1)) == 0
        # exact tie at delta/2 resolves to the smaller wrapped index
        assert nearest_lattice(math.pi / 2, DiscretePhaseSet(1)) == 0
        assert nearest_lattice(1.9 * (math.pi / 2), DiscretePhaseSet(2)) == 2

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 6])
    def test_lattice_points_are_fixed(self, bits):
        dps = DiscretePhaseSet(bits)
        for k in range(dps.levels):
            assert nearest_lattice(k * dps.step, dps) == k

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_distance_within_half_step(self, bits):
        dps = DiscretePhaseSet(bits)
        thetas = np.random.default_rng(2).uniform(-10, 10, size=2000)
        ks = nearest_lattice(thetas, dps)
        diff = wrap_phase(thetas - ks * dps.step)
        circ = np.minimum(diff, TWO_PI - diff)
        assert np.all(circ <= dps.step / 2 + 1e-12)

    def test_tie_near_top_of_circle_wraps_down(self):
        dps = DiscretePhaseSet(2)
        # halfway between the last lattice point and 2*pi == 0
        theta = (dps.levels - 1) * dps.step + dps.step / 2
        assert nearest_lattice(theta, dps) == 0


class TestDiscretePhaseSet:
    def test_step_times_levels_is_two_pi(self):
        for bits in range(1, 12):
            dps = DiscretePhaseSet(bits)
            assert abs(dps.step * dps.levels - TWO_PI) < 1e-12
            assert dps.levels == 2 ** bits

    def test_values_in_range(self):
        dps = DiscretePhaseSet(5)
        assert np.all(dps.values >= 0) and np.all(dps.values < TWO_PI)

    def test_bad_bits(self):
        with pytest.raises(InvalidArgumentError):
            DiscretePhaseSet(0)
        with pytest.raises(InvalidArgumentError):
            DiscretePhaseSet(-3)


class TestPhaseVector:
    def test_from_indices_exact(self):
        dps = DiscretePhaseSet(3)
        idx = np.array([0, 3, 7, 5])
        pv = PhaseVector.from_indices(idx, dps)
        assert np.array_equal(pv.values, idx * dps.step)

    def test_rejects_unwrapped(self):
        with pytest.raises(InvalidArgumentError):
            PhaseVector(np.array([0.0, TWO_PI]))

    def test_from_values_wraps(self):
        pv = PhaseVector.from_values([-math.pi / 2, 3 * math.pi])
        assert pv.values == pytest.approx([3 * math.pi / 2, math.pi])

    def test_index_range_checked(self):
        with pytest.raises(InvalidArgumentError):
            PhaseVector.from_indices([4], DiscretePhaseSet(2))


class TestSampling:
    def test_deterministic_under_seed(self):
        a = sample_complex_gaussian(Rng(123, 5), 2, 2, 1.0)
        b = sample_complex_gaussian(Rng(123, 5), 2, 2, 1.0)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample_complex_gaussian(Rng(123, 0), 2, 2, 1.0)
        b = sample_complex_gaussian(Rng(123, 1), 2, 2, 1.0)
        assert not np.allclose(a, b)

    def test_unit_variance_monte_carlo(self):
        x = sample_complex_gaussian(Rng(99), 100, 1000, 1.0)
        assert 0.98 <= np.mean(np.abs(x) ** 2) <= 1.02

    def test_scaled_variance_monte_carlo(self):
        x = sample_complex_gaussian(Rng(100), 100, 1000, 4.0)
        assert 3.92 <= np.mean(np.abs(x) ** 2) <= 4.08

    def test_circular_symmetry(self):
        x = sample_complex_gaussian(Rng(101), 100, 1000, 1.0).ravel()
        assert abs(np.mean(x.real)) < 0.01
        assert abs(np.mean(x.imag)) < 0.01
        assert abs(np.var(x.real) - 0.5) < 0.01
        assert abs(np.var(x.imag) - 0.5) < 0.01

    def test_bad_variance(self):
        with pytest.raises(InvalidArgumentError):
            sample_complex_gaussian(Rng(1), 2, 2, 0.0)
        with pytest.raises(InvalidArgumentError):
            sample_complex_gaussian(Rng(1), 2, 2, -1.0)


class TestNorms:
    def test_examples(self):
        v = np.array([3.0, 4.0j])
        assert norm_lp(v, 2) == pytest.approx(5.0)
        assert norm_lp(v, 1) == pytest.approx(7.0)
        assert norm_lp(v, math.inf) == pytest.approx(4.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            norm_lp(np.array([]), 2)

    def test_bad_selector(self):
        with pytest.raises(InvalidArgumentError):
            norm_lp(np.array([1.0]), 3)

    @pytest.mark.parametrize("p,q", [(1, math.inf), (2, 2), (math.inf, 1)])
    def test_dual_norm_inequality(self, p, q):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            z = z / norm_lp(z, q)
            assert abs(np.vdot(z, x)) <= norm_lp(x, p) + 1e-9
