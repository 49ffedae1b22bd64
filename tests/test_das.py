import math

import numpy as np
import pytest

from unimod import (
    DegenerateInputError,
    DiscretePhaseSet,
    Rng,
    das_maximize,
    sample_complex_gaussian,
)
from unimod.oracle import exhaustive_inner


def hermitian_objective(v, values):
    return abs(np.vdot(v, np.exp(1j * np.asarray(values))))


class TestDasMaximize:
    def test_aligned_pair(self):
        pv, obj = das_maximize([1.0, 1.0], DiscretePhaseSet(1))
        assert list(pv.values) == [0.0, 0.0]
        assert obj == pytest.approx(2.0)

    def test_compensating_phase(self):
        pv, obj = das_maximize([1.0, -1.0], DiscretePhaseSet(1))
        assert pv.values == pytest.approx([0.0, math.pi])
        assert obj == pytest.approx(2.0)

    def test_three_element_brute_force(self):
        v = np.array([1, 2, 1]) * np.exp(1j * np.array([0, 2 * math.pi / 5, 4 * math.pi / 5]))
        dps = DiscretePhaseSet(1)
        pv, obj = das_maximize(v, dps)
        best = max(hermitian_objective(v, dps.step * np.array([(k >> i) & 1 for i in range(3)]))
                   for k in range(8))
        assert obj == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_exact_against_exhaustive(self, bits):
        dps = DiscretePhaseSet(bits)
        nmax = min(10, 24 // bits)  # keep the oracle inside its size guard
        for t in range(60):
            rng = Rng(500 + bits, t)
            n = int(rng.generator.integers(1, nmax + 1))
            v = sample_complex_gaussian(rng, 1, n, 1.0).ravel()
            _, obj = das_maximize(v, dps)
            ref = exhaustive_inner(v, dps)
            assert obj == pytest.approx(ref.objective, abs=1e-9)

    def test_returned_configuration_achieves_objective(self):
        rng = Rng(77)
        v = sample_complex_gaussian(rng, 1, 25, 1.0).ravel()
        pv, obj = das_maximize(v, DiscretePhaseSet(3))
        assert hermitian_objective(v, pv.values) == pytest.approx(obj, abs=1e-12)
        assert pv.indices is not None

    def test_scale_invariance(self):
        rng = Rng(78)
        v = sample_complex_gaussian(rng, 1, 15, 1.0).ravel()
        dps = DiscretePhaseSet(2)
        pv1, obj1 = das_maximize(v, dps)
        pv2, obj2 = das_maximize(3.5 * v, dps)
        assert np.array_equal(pv1.indices, pv2.indices)
        assert obj2 == pytest.approx(3.5 * obj1, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-13, 1e-6, 1.0, 1e6])
    def test_exact_at_every_scale(self, scale):
        # ties are judged relative to the best objective, so tiny and huge
        # inputs stay exact; odd k are tie-heavy (small integer magnitudes at
        # multiples of pi/4)
        for k in range(40):
            g = np.random.default_rng([81, k])
            n, bits = int(g.integers(1, 9)), int(g.integers(1, 3))
            if k % 2:
                v = g.integers(1, 3, n) * np.exp(0.25j * math.pi * g.integers(0, 8, n))
            else:
                v = sample_complex_gaussian(Rng(81, k), 1, n, 1.0).ravel()
            dps = DiscretePhaseSet(bits)
            pv, obj = das_maximize(scale * v, dps)
            ref = exhaustive_inner(scale * v, dps)
            # abs=0: approx's default absolute slack would swallow 1e-13 inputs
            assert obj == pytest.approx(ref.objective, rel=1e-9, abs=0)
            assert hermitian_objective(scale * v, pv.values) == pytest.approx(obj, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1000, 10000])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_locally_optimal_at_large_n(self, n, bits):
        # the running sum over n * 2^B edges must not drift: no single-element
        # change of the answer may raise the objective beyond rounding
        v = sample_complex_gaussian(Rng(82, n + bits), 1, n, 1.0).ravel()
        dps = DiscretePhaseSet(bits)
        pv, obj = das_maximize(v, dps)
        x = pv.phasors()
        s = np.vdot(v, x)
        # every element i moved to every lattice phase k, all at once
        moved = s + np.conj(v)[:, None] * (np.exp(1j * dps.values)[None, :] - x[:, None])
        assert np.max(np.abs(moved)) <= obj * (1 + 1e-12)

    def test_global_rotation_leaves_objective(self):
        rng = Rng(79)
        v = sample_complex_gaussian(rng, 1, 15, 1.0).ravel()
        dps = DiscretePhaseSet(2)
        _, obj1 = das_maximize(v, dps)
        _, obj2 = das_maximize(np.exp(1j * 1.234) * v, dps)
        assert obj2 == pytest.approx(obj1, rel=1e-9)

    def test_zero_entries_get_phase_zero(self):
        v = np.array([0.0, 2.0, 0.0, -1j])
        pv, obj = das_maximize(v, DiscretePhaseSet(2))
        assert pv.values[0] == 0.0 and pv.values[2] == 0.0
        assert obj == pytest.approx(3.0)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            das_maximize(np.zeros(4, dtype=complex), DiscretePhaseSet(1))

    def test_exact_tie_instances_pick_earliest(self):
        # symmetric instance with many optimal configurations; the result is
        # deterministic and still optimal
        v = np.ones(4)
        pv1, obj1 = das_maximize(v, DiscretePhaseSet(1))
        pv2, obj2 = das_maximize(v, DiscretePhaseSet(1))
        assert np.array_equal(pv1.indices, pv2.indices)
        assert obj1 == pytest.approx(4.0)
