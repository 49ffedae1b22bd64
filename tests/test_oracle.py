import math

import numpy as np
import pytest

from unimod import (
    DiscretePhaseSet,
    Rng,
    SizeLimitError,
    das_maximize,
    default_pipeline,
    sample_complex_gaussian,
    solve_linf,
)
from unimod.oracle import exhaustive_inner, exhaustive_norm, random_search


class TestExhaustiveInner:
    def test_single_element(self):
        res = exhaustive_inner(np.array([1.0]), DiscretePhaseSet(1))
        assert res.objective == pytest.approx(1.0)
        assert list(res.phases.values) == [0.0]
        assert res.evaluated == 2

    def test_compensating_pair(self):
        res = exhaustive_inner(np.array([1.0, -1.0]), DiscretePhaseSet(1))
        assert res.objective == pytest.approx(2.0)
        assert res.phases.values == pytest.approx([0.0, math.pi])
        assert res.evaluated == 4

    def test_counts_all_configurations(self):
        res = exhaustive_inner(np.array([1.0, 1j, -1.0]), DiscretePhaseSet(2))
        assert res.evaluated == 4 ** 3

    def test_cross_check_with_das(self):
        for t in range(40):
            rng = Rng(600, t)
            n = int(rng.generator.integers(1, 11))
            bits = int(rng.generator.integers(1, 3))
            v = sample_complex_gaussian(rng, 1, n, 1.0).ravel()
            dps = DiscretePhaseSet(bits)
            _, obj = das_maximize(v, dps)
            assert exhaustive_inner(v, dps).objective == pytest.approx(obj, abs=1e-9)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            exhaustive_inner(np.ones(13), DiscretePhaseSet(2))


class TestExhaustiveNorm:
    def test_single_row_reduces_to_inner(self):
        a = sample_complex_gaussian(Rng(601), 1, 6, 1.0)
        dps = DiscretePhaseSet(2)
        by_norm = exhaustive_norm(a, dps, 2)
        by_inner = exhaustive_inner(np.conj(a[0]), dps)
        assert by_norm.objective == pytest.approx(by_inner.objective, rel=1e-12)
        assert np.array_equal(by_norm.phases.indices, by_inner.phases.indices)

    def test_matches_solve_linf(self):
        a = sample_complex_gaussian(Rng(602), 4, 6, 1.0)
        dps = DiscretePhaseSet(1)
        _, _, obj = solve_linf(a, dps)
        assert exhaustive_norm(a, dps, math.inf).objective == pytest.approx(obj, abs=1e-9)

    def test_upper_bounds_pipeline(self):
        a = sample_complex_gaussian(Rng(603), 3, 5, 1.0)
        dps = DiscretePhaseSet(1)
        ref = exhaustive_norm(a, dps, 2)
        res = default_pipeline(a, dps, 2)
        assert res.final_cost <= ref.objective + 1e-9

    def test_permutation_stability(self):
        a = sample_complex_gaussian(Rng(604), 3, 6, 1.0)
        dps = DiscretePhaseSet(1)
        ref = exhaustive_norm(a, dps, 2)
        perm = np.array([3, 0, 5, 1, 4, 2])
        shuffled = exhaustive_norm(a[:, perm], dps, 2)
        assert shuffled.objective == pytest.approx(ref.objective, rel=1e-12)
        # unshuffling the argmax achieves the same objective
        unshuffled = np.empty(6, dtype=np.int64)
        unshuffled[perm] = shuffled.phases.indices
        x = np.exp(1j * dps.step * unshuffled)
        assert np.linalg.norm(a @ x) == pytest.approx(ref.objective, rel=1e-12)

    def test_chunking_consistent(self):
        # instance large enough to span several chunks
        a = sample_complex_gaussian(Rng(605), 2, 9, 1.0)
        dps = DiscretePhaseSet(2)  # 4^9 = 262144 configurations
        ref = exhaustive_norm(a, dps, 2)
        x = ref.phases.phasors()
        assert np.linalg.norm(a @ x) == pytest.approx(ref.objective, rel=1e-12)


def evaluate(a, digits, dps, p):
    """||A exp(j * step * digits)||_p for each row of lattice digits."""
    y = np.exp(1j * dps.step * digits) @ a.T
    return np.linalg.norm(y, ord={1: 1, 2: 2, math.inf: np.inf}[p], axis=1)


class TestPhaseTableEquivalence:
    """The oracles' phase table against exp(j * step * digits) per entry."""

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    @pytest.mark.parametrize("bits", [1, 2])
    def test_exhaustive_norm(self, p, bits):
        a = sample_complex_gaussian(Rng(614, bits), 3, 6, 1.0)
        dps = DiscretePhaseSet(bits)
        digits = np.indices((dps.levels,) * 6).reshape(6, -1).T  # lexicographic
        vals = evaluate(a, digits, dps, p)
        ref = exhaustive_norm(a, dps, p)
        assert np.array_equal(ref.phases.indices, digits[np.argmax(vals)])
        assert ref.objective == pytest.approx(vals.max(), rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    @pytest.mark.parametrize("bits", [1, 3])
    def test_random_search(self, p, bits):
        a = sample_complex_gaussian(Rng(615, bits), 4, 30, 1.0)
        dps = DiscretePhaseSet(bits)
        digits = Rng(616).generator.integers(0, dps.levels, size=(3000, 30))
        vals = evaluate(a, digits, dps, p)
        res = random_search(a, dps, p, 3000, Rng(616))
        assert np.array_equal(res.phases.indices, digits[np.argmax(vals)])
        assert res.objective == pytest.approx(vals.max(), rel=1e-12)


class TestRandomSearch:
    def test_deterministic_single_draw(self):
        a = sample_complex_gaussian(Rng(606), 3, 8, 1.0)
        dps = DiscretePhaseSet(2)
        r1 = random_search(a, dps, 2, 1, Rng(607))
        r2 = random_search(a, dps, 2, 1, Rng(607))
        assert r1.objective == r2.objective
        assert np.array_equal(r1.phases.indices, r2.phases.indices)
        assert r1.evaluated == 1

    def test_never_beats_exhaustive(self):
        a = sample_complex_gaussian(Rng(608), 3, 6, 1.0)
        dps = DiscretePhaseSet(2)
        ref = exhaustive_norm(a, dps, 2)
        rnd = random_search(a, dps, 2, 5000, Rng(609))
        assert rnd.objective <= ref.objective + 1e-12

    def test_saturates_small_instances(self):
        # 2^8 = 256 patterns versus 1e5 draws: the best draw is the optimum
        a = sample_complex_gaussian(Rng(610), 3, 8, 1.0)
        dps = DiscretePhaseSet(1)
        ref = exhaustive_norm(a, dps, 2)
        rnd = random_search(a, dps, 2, 100_000, Rng(611))
        assert rnd.objective == pytest.approx(ref.objective, abs=1e-9)

    def test_pipeline_dominates_at_scale(self):
        a = sample_complex_gaussian(Rng(612), 8, 120, 1.0)
        dps = DiscretePhaseSet(2)
        res = default_pipeline(a, dps, 2)
        rnd = random_search(a, dps, 2, 2000, Rng(613))
        assert res.final_cost > rnd.objective
