import math

import numpy as np
import pytest

from unimod import (
    DegenerateInputError,
    DiscretePhaseSet,
    Rng,
    build_candidates,
    das_maximize,
    encode_regions,
    per_element_best,
    polar_decompose,
    sample_complex_gaussian,
    wrap_phase,
)
from unimod.oracle import exhaustive_inner

TWO_PI = 2 * math.pi


def hermitian_objective(v, values):
    return abs(np.vdot(v, np.exp(1j * np.asarray(values))))


class TestPolarDecompose:
    def test_first_quadrant(self):
        pd = polar_decompose([1 + 1j])
        assert pd.magnitudes[0] == pytest.approx(math.sqrt(2))
        assert pd.angles[0] == pytest.approx(math.pi / 4)
        assert pd.zero_mask.size == 0

    def test_zero_and_negative_real(self):
        pd = polar_decompose([0.0, -2.0])
        assert pd.magnitudes == pytest.approx([0.0, 2.0])
        assert pd.angles == pytest.approx([0.0, math.pi])
        assert list(pd.zero_mask) == [0]

    def test_imaginary_unit(self):
        pd = polar_decompose([1j])
        assert pd.magnitudes[0] == pytest.approx(1.0)
        assert pd.angles[0] == pytest.approx(math.pi / 2)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=40) + 1j * rng.normal(size=40)
        pd = polar_decompose(v)
        back = pd.magnitudes * np.exp(1j * pd.angles)
        assert np.allclose(back, v, rtol=1e-12)


class TestPerElementBest:
    def test_aligned(self):
        assert per_element_best(0.0, 0.0, DiscretePhaseSet(1)) == pytest.approx(0.0)

    def test_antipodal(self):
        assert per_element_best(math.pi, 0.0, DiscretePhaseSet(1)) == pytest.approx(math.pi)

    def test_matches_enumeration(self):
        # evaluate all 2^B lattice values directly and compare
        dps = DiscretePhaseSet(2)
        psi, tau = 0.3, 0.1
        omega = per_element_best(psi, tau, dps)
        scores = [math.cos(psi - (tau + k * dps.step)) for k in range(dps.levels)]
        assert omega == pytest.approx(int(np.argmax(scores)) * dps.step)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_random_against_enumeration(self, bits):
        dps = DiscretePhaseSet(bits)
        rng = np.random.default_rng(11)
        for _ in range(300):
            psi = rng.uniform(0, TWO_PI)
            tau = rng.uniform(0, TWO_PI)
            omega = per_element_best(psi, tau, dps)
            best = max(math.cos(psi - (tau + k * dps.step)) for k in range(dps.levels))
            assert math.cos(psi - (tau + omega)) == pytest.approx(best, abs=1e-12)

    def test_piecewise_constant_within_region(self):
        # sample a region interior densely; the answer must not move
        dps = DiscretePhaseSet(2)
        tau = 0.7
        n = 2
        center = tau + n * dps.step
        psis = np.linspace(center - dps.step / 2 + 1e-9, center + dps.step / 2 - 1e-9, 200)
        answers = {per_element_best(float(p), tau, dps) for p in psis}
        assert answers == {wrap_phase(n * dps.step)}

    def test_lower_edge_belongs_to_region_above(self):
        dps = DiscretePhaseSet(2)
        tau = 0.25
        edge = tau + dps.step - dps.step / 2
        assert per_element_best(edge, tau, dps) == pytest.approx(dps.step)


class TestBuildCandidates:
    def test_single_element_enumerates_lattice(self):
        dps = DiscretePhaseSet(2)
        cs = build_candidates(polar_decompose([math.e * 1j]), dps)
        assert len(cs) == 4
        phases = sorted(pv.values[0] for pv in cs.candidates)
        assert phases == pytest.approx([0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_cardinality_100x4(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=100) + 1j * rng.normal(size=100)
        cs = build_candidates(polar_decompose(v), DiscretePhaseSet(2))
        assert len(cs) == 400

    def test_zero_entries_do_not_generate_regions(self):
        v = np.array([1 + 1j, 0.0, -2.0])
        cs = build_candidates(polar_decompose(v), DiscretePhaseSet(2))
        assert len(cs) == 2 * 4
        assert all(pv.values[1] == 0.0 for pv in cs.candidates)

    def test_matches_psi_scan(self):
        # dense psi scan with the per-element rule must produce exactly the
        # distinct patterns the sweep enumerates
        dps = DiscretePhaseSet(1)
        pd = polar_decompose([1.0, np.exp(1j * math.pi / 3)])
        cs = build_candidates(pd, dps)
        assert len(cs) == 4
        enumerated = {tuple(pv.indices) for pv in cs.candidates}
        scanned = set()
        for psi in np.linspace(0, TWO_PI, 4001, endpoint=False):
            pattern = tuple(int(round(per_element_best(float(psi), float(t), dps) / dps.step))
                            for t in pd.angles)
            scanned.add(pattern)
        assert scanned == enumerated

    def test_incremental_objectives_match_direct(self):
        rng = np.random.default_rng(12)
        v = rng.normal(size=17) + 1j * rng.normal(size=17)
        pd = polar_decompose(v)
        cs = build_candidates(pd, DiscretePhaseSet(3))
        for pv, obj in zip(cs.candidates, cs.objectives):
            direct = abs(np.sum(pd.magnitudes * np.exp(1j * (pd.angles + pv.values))))
            assert obj == pytest.approx(direct, abs=1e-9)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            build_candidates(polar_decompose([0.0, 0.0]), DiscretePhaseSet(1))


class TestRegionEncoding:
    def test_partition_tiles_the_circle(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=7) + 1j * rng.normal(size=7)
        dps = DiscretePhaseSet(2)
        enc = encode_regions(polar_decompose(v), dps)
        assert enc.boundaries.size == 7 * 4
        assert np.all(np.diff(enc.boundaries) >= 0)
        assert np.all(enc.boundaries >= 0) and np.all(enc.boundaries < TWO_PI)
        widths = np.diff(np.concatenate([enc.boundaries, [enc.boundaries[0] + TWO_PI]]))
        assert np.sum(widths) == pytest.approx(TWO_PI)

    def test_order_sorts_reduced_angles(self):
        rng = np.random.default_rng(10)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        dps = DiscretePhaseSet(2)
        pd = polar_decompose(v)
        enc = encode_regions(pd, dps)
        reduced = np.mod(pd.angles[enc.order], dps.step)
        assert np.all(np.diff(reduced) >= 0)

    def test_offsets_step_one_element_per_region(self):
        v = np.array([1 + 0.5j, -0.3 + 1j, 2.0])
        dps = DiscretePhaseSet(2)
        enc = encode_regions(polar_decompose(v), dps)
        levels = dps.levels
        count = enc.offsets.shape[0]
        for r in range(count):
            cur, nxt = enc.offsets[r], enc.offsets[(r + 1) % count]
            changed = (cur != nxt).sum()
            assert changed == 1
            delta = (nxt - cur) % levels
            assert delta.sum() == 1


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
