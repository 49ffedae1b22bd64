import math

import numpy as np
import pytest

from unimod import (
    DegenerateInputError,
    DiscretePhaseSet,
    InvalidArgumentError,
    PhaseVector,
    Rng,
    SolveConfig,
    UnsupportedNormError,
    continuous_phase_step,
    das_maximize,
    default_pipeline,
    deterministic_init,
    dual_witness,
    hard_round,
    norm_lp,
    sample_complex_gaussian,
    solve_continuous,
    solve_discrete,
    solve_linf,
    wrap_phase,
)
from unimod.oracle import exhaustive_norm


def zero_start(n, dps):
    return PhaseVector.from_indices(np.zeros(n, dtype=int), dps)


class TestDualWitness:
    def test_q2_real(self):
        w = np.array([3.0, 4.0])
        z = dual_witness(w, 2)
        assert z == pytest.approx([0.6, 0.8])
        assert np.vdot(z, w) == pytest.approx(5.0)

    def test_qinf_holder_equality(self):
        w = np.array([1 + 1j, -2.0])
        z = dual_witness(w, math.inf)
        assert z == pytest.approx([np.exp(1j * math.pi / 4), np.exp(1j * math.pi)])
        assert abs(np.vdot(z, w)) == pytest.approx(math.sqrt(2) + 2)

    def test_q2_imaginary(self):
        w = np.array([0.0, 5.0j])
        z = dual_witness(w, 2)
        assert z == pytest.approx([0.0, 1.0j])
        assert abs(np.vdot(z, w)) == pytest.approx(5.0)

    def test_qinf_zero_entry_convention(self):
        z = dual_witness(np.array([0.0, -3.0]), math.inf)
        assert z[0] == 1.0

    def test_unit_dual_norm(self):
        rng = Rng(1)
        w = sample_complex_gaussian(rng, 1, 30, 1.0).ravel()
        assert norm_lp(dual_witness(w, 2), 2) == pytest.approx(1.0)
        assert norm_lp(dual_witness(w, math.inf), math.inf) == pytest.approx(1.0)

    def test_witness_achieves_norm(self):
        rng = Rng(2)
        for t in range(50):
            w = sample_complex_gaussian(rng, 1, 12, 1.0).ravel()
            for p, q in ((2, 2), (1, math.inf)):
                z = dual_witness(w, q)
                assert abs(np.vdot(z, w)) == pytest.approx(norm_lp(w, p), rel=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            dual_witness(np.zeros(3, dtype=complex), 2)


class TestContinuousPhaseStep:
    def test_examples(self):
        pv = continuous_phase_step(np.array([1.0, 1.0j]))
        assert pv.values == pytest.approx([0.0, math.pi / 2])
        pv = continuous_phase_step(np.array([-1.0]))
        assert pv.values == pytest.approx([math.pi])

    def test_achieves_l1(self):
        u = sample_complex_gaussian(Rng(3), 1, 50, 1.0).ravel()
        pv = continuous_phase_step(u)
        assert abs(np.vdot(u, pv.phasors())) == pytest.approx(norm_lp(u, 1), abs=1e-9)

    def test_zero_entry_phase_zero(self):
        pv = continuous_phase_step(np.array([0.0, 1.0j]))
        assert pv.values[0] == 0.0


class TestSolveDiscrete:
    def test_single_row_collapses_to_das(self):
        a = sample_complex_gaussian(Rng(4), 1, 12, 1.0)
        dps = DiscretePhaseSet(2)
        trace = solve_discrete(a, SolveConfig(p=2, dps=dps), zero_start(12, dps))
        _, best = das_maximize(np.conj(a[0]), dps)
        assert trace.iterations <= 2
        assert trace.final_cost == pytest.approx(best, rel=1e-9)
        assert trace.termination == "converged"

    @pytest.mark.parametrize("p", [1, 2])
    def test_small_instance_bounded_by_oracle(self, p):
        hits = 0
        for t in range(20):
            a = sample_complex_gaussian(Rng(5, t), 3, 5, 1.0)
            dps = DiscretePhaseSet(1)
            trace = solve_discrete(a, SolveConfig(p=p, dps=dps), zero_start(5, dps))
            ref = exhaustive_norm(a, dps, p)
            assert trace.final_cost <= ref.objective + 1e-9
            hits += abs(trace.final_cost - ref.objective) <= 1e-9
        # the alternation is a heuristic for p in {1, 2} but lands the true
        # optimum on a healthy fraction of tiny instances
        assert hits >= 5

    @pytest.mark.parametrize("p", [1, 2])
    def test_monotone_and_fast_on_10x100(self, p):
        a = sample_complex_gaussian(Rng(6), 10, 100, 1.0)
        dps = DiscretePhaseSet(2)
        trace = solve_discrete(a, SolveConfig(p=p, dps=dps), zero_start(100, dps))
        assert np.all(np.diff(trace.costs) >= -1e-9)
        assert trace.termination == "converged"
        assert trace.iterations <= 50

    def test_iterates_stay_on_lattice(self):
        a = sample_complex_gaussian(Rng(7), 4, 9, 1.0)
        dps = DiscretePhaseSet(2)
        trace = solve_discrete(a, SolveConfig(p=2, dps=dps), zero_start(9, dps))
        idx = trace.phases.indices
        assert idx is not None
        assert np.all((idx >= 0) & (idx < dps.levels))
        assert np.array_equal(trace.phases.values, idx * dps.step)

    def test_fixed_point_terminates_converged(self):
        a = sample_complex_gaussian(Rng(8), 2, 6, 1.0)
        dps = DiscretePhaseSet(1)
        first = solve_discrete(a, SolveConfig(p=2, dps=dps), zero_start(6, dps))
        again = solve_discrete(a, SolveConfig(p=2, dps=dps), first.phases)
        assert again.termination == "converged"
        assert again.iterations <= 2

    def test_p_inf_unsupported(self):
        a = np.eye(2, dtype=complex)
        dps = DiscretePhaseSet(1)
        with pytest.raises(UnsupportedNormError):
            solve_discrete(a, SolveConfig(p=math.inf, dps=dps), zero_start(2, dps))

    def test_off_lattice_start_rejected(self):
        a = np.eye(2, dtype=complex)
        dps = DiscretePhaseSet(1)
        with pytest.raises(InvalidArgumentError):
            solve_discrete(a, SolveConfig(p=2, dps=dps), PhaseVector(np.array([0.1, 0.0])))

    def test_start_from_another_lattice_rejected(self):
        # indices of a B = 3 start read on B = 2 would name other phases
        a = sample_complex_gaussian(Rng(24), 3, 5, 1.0)
        cfg = SolveConfig(p=2, dps=DiscretePhaseSet(2))
        for idx in ([1, 0, 3, 2, 1], [0, 0, 0, 0, 5]):
            start = PhaseVector.from_indices(idx, DiscretePhaseSet(3))
            with pytest.raises(InvalidArgumentError):
                solve_discrete(a, cfg, start)
        # the shared point 0 is the same phase on every lattice
        zero = PhaseVector.from_indices(np.zeros(5, dtype=int), DiscretePhaseSet(3))
        assert solve_discrete(a, cfg, zero).costs[0] == pytest.approx(
            norm_lp(a.sum(axis=1), 2), rel=1e-12)

    def test_zero_matrix_degenerate(self):
        dps = DiscretePhaseSet(1)
        with pytest.raises(DegenerateInputError):
            solve_discrete(np.zeros((2, 3), dtype=complex),
                           SolveConfig(p=2, dps=dps), zero_start(3, dps))

    def test_witness_certifies_final_cost(self):
        a = sample_complex_gaussian(Rng(9), 5, 20, 1.0)
        dps = DiscretePhaseSet(2)
        trace = solve_discrete(a, SolveConfig(p=2, dps=dps), zero_start(20, dps))
        pairing = abs(np.vdot(trace.witness, a @ trace.phases.phasors()))
        assert pairing == pytest.approx(trace.final_cost, rel=1e-9)


class TestSolveContinuous:
    def test_single_row_reaches_l1_alignment(self):
        a = sample_complex_gaussian(Rng(10), 1, 15, 1.0)
        trace = solve_continuous(a, SolveConfig(p=2), deterministic_init(a, 2))
        assert trace.final_cost == pytest.approx(norm_lp(a[0], 1), rel=1e-9)
        assert trace.iterations <= 2

    def test_stacked_identity_monotone(self):
        a = np.vstack([np.eye(4), np.eye(4)]).astype(complex)
        trace = solve_continuous(a, SolveConfig(p=2), PhaseVector.from_values(np.zeros(4)))
        assert np.all(np.diff(trace.costs) >= -1e-9)

    @pytest.mark.parametrize("p", [1, 2])
    def test_10x100_converges(self, p):
        a = sample_complex_gaussian(Rng(11), 10, 100, 1.0)
        trace = solve_continuous(a, SolveConfig(p=p), deterministic_init(a, p))
        assert np.all(np.diff(trace.costs) >= -1e-9)
        assert trace.termination == "converged"


class TestKernelEquivalence:
    """The solvers' inner loop against the public steps composed by hand."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_continuous_matches_public_steps(self, p):
        a = sample_complex_gaussian(Rng(25), 8, 40, 1.0)
        start = deterministic_init(a, p)
        # a tolerance no step meets: the run takes all six steps
        trace = solve_continuous(a, SolveConfig(p=p, max_iterations=6, tolerance=1e-300), start)
        q = math.inf if p == 1 else 2
        pv, costs = start, [norm_lp(a @ start.phasors(), p)]
        for _ in range(trace.iterations):
            z = dual_witness(a @ pv.phasors(), q)
            pv = continuous_phase_step(a.conj().T @ z)
            costs.append(norm_lp(a @ pv.phasors(), p))
        assert trace.iterations == 6
        assert trace.costs == pytest.approx(costs, rel=1e-12)
        assert trace.phases.phasors() == pytest.approx(pv.phasors(), abs=1e-12)
        assert trace.witness == pytest.approx(dual_witness(a @ pv.phasors(), q), abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("bits", [1, 3])
    def test_discrete_matches_public_steps(self, p, bits):
        a = sample_complex_gaussian(Rng(26, bits), 8, 40, 1.0)
        dps = DiscretePhaseSet(bits)
        start = zero_start(40, dps)
        trace = solve_discrete(a, SolveConfig(p=p, dps=dps), start)
        q = math.inf if p == 1 else 2
        pv, costs = start, [norm_lp(a @ start.phasors(), p)]
        for _ in range(trace.iterations):
            z = dual_witness(a @ pv.phasors(), q)
            pv, _ = das_maximize(a.conj().T @ z, dps)
            costs.append(norm_lp(a @ pv.phasors(), p))
        assert trace.iterations >= 2
        assert trace.costs == pytest.approx(costs, rel=1e-12)
        assert np.array_equal(trace.phases.indices, pv.indices)


class TestHardRound:
    def test_circular_nearest(self):
        pv = hard_round(PhaseVector(np.array([0.4 * math.pi, 1.6 * math.pi])),
                        DiscretePhaseSet(1))
        assert list(pv.values) == [0.0, 0.0]

    def test_lattice_fixed_point(self):
        dps = DiscretePhaseSet(3)
        pv = PhaseVector.from_indices([0, 5, 7], dps)
        assert np.array_equal(hard_round(pv, dps).indices, pv.indices)

    def test_grid_within_half_step(self):
        dps = DiscretePhaseSet(3)
        grid = np.linspace(0, 2 * math.pi, 1000, endpoint=False)
        rounded = hard_round(PhaseVector(grid), dps)
        diff = wrap_phase(grid - rounded.values)
        circ = np.minimum(diff, 2 * math.pi - diff)
        assert np.all(circ <= dps.step / 2 + 1e-12)


class TestLift:
    """The lift: the discrete alternation started from a hard-rounded point."""

    def test_fixed_point_zero_gain(self):
        a = sample_complex_gaussian(Rng(12), 3, 8, 1.0)
        dps = DiscretePhaseSet(1)
        cfg = SolveConfig(p=2, dps=dps)
        settled = solve_discrete(a, cfg, zero_start(8, dps))
        relifted = solve_discrete(a, cfg, settled.phases)
        assert relifted.iterations <= 2
        assert relifted.final_cost == pytest.approx(settled.final_cost, rel=1e-12)

    def test_dominates_rounded_cost(self):
        strict = 0
        for t in range(25):
            a = sample_complex_gaussian(Rng(13, t), 10, 100, 1.0)
            dps = DiscretePhaseSet(1)
            cfg = SolveConfig(p=2, dps=dps)
            cont = solve_continuous(a, SolveConfig(p=2), deterministic_init(a, 2))
            rounded = hard_round(cont.phases, dps)
            rounded_cost = norm_lp(a @ rounded.phasors(), 2)
            lifted = solve_discrete(a, cfg, rounded)
            assert lifted.final_cost >= rounded_cost - 1e-9
            strict += lifted.final_cost > rounded_cost + 1e-9
        assert strict > 0

    def test_bounded_by_exhaustive_optimum(self):
        a = sample_complex_gaussian(Rng(14), 3, 5, 1.0)
        dps = DiscretePhaseSet(1)
        cont = solve_continuous(a, SolveConfig(p=2), deterministic_init(a, 2))
        lifted = solve_discrete(a, SolveConfig(p=2, dps=dps), hard_round(cont.phases, dps))
        assert lifted.final_cost <= exhaustive_norm(a, dps, 2).objective + 1e-9


class TestSolveLinf:
    def test_single_row_is_das(self):
        a = sample_complex_gaussian(Rng(15), 1, 10, 1.0)
        dps = DiscretePhaseSet(2)
        pv, row, obj = solve_linf(a, dps)
        _, best = das_maximize(np.conj(a[0]), dps)
        assert row == 0
        assert obj == pytest.approx(best, rel=1e-12)

    def test_dominant_row_wins(self):
        rng = Rng(16)
        small = 1e-3 * sample_complex_gaussian(rng, 3, 6, 1.0)
        big = sample_complex_gaussian(rng, 1, 6, 1.0) * 10
        a = np.vstack([small[:1], big, small[1:]])
        dps = DiscretePhaseSet(2)
        pv, row, obj = solve_linf(a, dps)
        assert row == 1
        _, best = das_maximize(np.conj(big[0]), dps)
        assert obj == pytest.approx(best, rel=1e-12)

    def test_matches_exhaustive_4x6(self):
        for t in range(15):
            a = sample_complex_gaussian(Rng(17, t), 4, 6, 1.0)
            dps = DiscretePhaseSet(1)
            _, _, obj = solve_linf(a, dps)
            ref = exhaustive_norm(a, dps, math.inf)
            assert obj == pytest.approx(ref.objective, abs=1e-9)

    def test_zero_rows_skipped(self):
        a = np.vstack([np.zeros(4), np.array([1.0, -1.0, 1j, 2.0])]).astype(complex)
        pv, row, obj = solve_linf(a, DiscretePhaseSet(1))
        assert row == 1

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateInputError):
            solve_linf(np.zeros((2, 3), dtype=complex), DiscretePhaseSet(1))


class TestDefaultPipeline:
    def test_single_row_hits_das_optimum(self):
        a = sample_complex_gaussian(Rng(18), 1, 14, 1.0)
        dps = DiscretePhaseSet(2)
        result = default_pipeline(a, dps, 2)
        _, best = das_maximize(np.conj(a[0]), dps)
        assert result.final_cost == pytest.approx(best, rel=1e-9)

    def test_bounded_by_oracle_with_gap_stats(self):
        gaps = []
        for t in range(20):
            a = sample_complex_gaussian(Rng(19, t), 3, 8, 1.0)
            dps = DiscretePhaseSet(1)
            result = default_pipeline(a, dps, 2)
            ref = exhaustive_norm(a, dps, 2)
            assert result.final_cost <= ref.objective + 1e-9
            gaps.append(ref.objective - result.final_cost)
        assert np.median(gaps) < 0.5  # near-optimal on average

    def test_lifting_dominance_10x100(self):
        a = sample_complex_gaussian(Rng(20), 10, 100, 1.0)
        result = default_pipeline(a, DiscretePhaseSet(2), 2)
        assert result.final_cost >= result.rounded_cost - 1e-9

    def test_p_inf_routed_away(self):
        with pytest.raises(UnsupportedNormError):
            default_pipeline(np.eye(2, dtype=complex), DiscretePhaseSet(1), math.inf)


class TestMonotonicityProperty:
    def test_mixed_instances(self):
        violations = 0
        for t in range(60):
            rng = Rng(23, t)
            g = rng.generator
            m = int(g.integers(1, 11))
            n = int(g.integers(2, 101))
            p = (1, 2)[int(g.integers(0, 2))]
            bits = int(g.integers(1, 3))
            a = sample_complex_gaussian(rng, m, n, 1.0)
            dps = DiscretePhaseSet(bits)
            disc = solve_discrete(a, SolveConfig(p=p, dps=dps), zero_start(n, dps))
            cont = solve_continuous(a, SolveConfig(p=p), deterministic_init(a, p))
            violations += int(np.any(np.diff(disc.costs) < -1e-9))
            violations += int(np.any(np.diff(cont.costs) < -1e-9))
        assert violations == 0


class TestSolveConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            SolveConfig(p=2, tolerance=0.0)
        with pytest.raises(InvalidArgumentError):
            SolveConfig(p=2, max_iterations=0)
        with pytest.raises(InvalidArgumentError):
            SolveConfig(p=3)
