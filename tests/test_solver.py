import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from unimod import (
    DegenerateInputError,
    DiscretePhaseSet,
    InvalidArgumentError,
    PhaseVector,
    PipelineResult,
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
from unimod import das, solver
from unimod.core import TWO_PI
from unimod.oracle import exhaustive_norm
from unimod.solver import _unit, _witness


#: (m, n) below and above the size where the continuous solver runs
#: single-precision cycles first
SIZES = ((16, 200), (32, 1000))


def zero_start(n, dps):
    return PhaseVector.from_indices(np.zeros(n, dtype=int), dps)


def steering_rows(n, s):
    """Row k is the far-field response of a uniform linear RIS with
    half-wavelength spacing at s_k = sin(target) + sin(incidence): phase
    pi * i * s_k at element i."""
    return np.exp(1j * math.pi * np.outer(s, np.arange(n)))


def numpy_gaussian(key, m, n):
    """m x n CN(0, 1) entries from numpy's default generator keyed by `key`."""
    g = np.random.default_rng(key)
    return (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) / math.sqrt(2)


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

    def test_q1_is_unsupported(self):
        # the dual of q = 1 is p = inf, whose witness is not unique
        with pytest.raises(UnsupportedNormError, match="q in {2, inf}"):
            dual_witness(np.array([3.0, 4.0]), 1)


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
    def test_a_config_without_a_lattice_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="needs a DiscretePhaseSet"):
            solve_discrete(np.eye(2, dtype=complex), SolveConfig(p=2), [0.0, 0.0])

    def test_a_start_of_another_length_is_rejected(self):
        a = sample_complex_gaussian(Rng(4), 2, 5, 1.0)
        dps = DiscretePhaseSet(2)
        with pytest.raises(InvalidArgumentError, match="starting point length"):
            solve_discrete(a, SolveConfig(p=2, dps=dps), zero_start(4, dps))

    def test_single_row_collapses_to_das(self):
        a = sample_complex_gaussian(Rng(4), 1, 12, 1.0)
        dps = DiscretePhaseSet(2)
        trace = solve_discrete(a, SolveConfig(p=2, dps=dps), zero_start(12, dps))
        _, best = das_maximize(np.conj(a[0]), dps)
        assert trace.iterations <= 2
        assert trace.final_cost == pytest.approx(best, rel=1e-9)
        assert trace.termination == "fixed-point"

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
        assert trace.termination == "fixed-point"
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
        assert again.termination == "fixed-point"
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

    @pytest.mark.parametrize("first", [1e-13, 2 * math.pi - 1e-13])
    def test_lattice_start_within_1e12_of_a_point(self, first):
        # 2*pi - 1e-13 is the lattice point 0 approached from the other side
        a = np.ones((2, 3), dtype=complex)
        dps = DiscretePhaseSet(2)
        trace = solve_discrete(a, SolveConfig(p=2, dps=dps), [first, math.pi / 2, 0.0])
        assert trace.costs[0] == pytest.approx(norm_lp(a @ np.exp(1j * np.array(
            [0.0, math.pi / 2, 0.0])), 2), rel=1e-12)
        with pytest.raises(InvalidArgumentError):
            solve_discrete(a, SolveConfig(p=2, dps=dps), [first - 1e-9, math.pi / 2, 0.0])

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
    def test_a_start_of_another_length_is_rejected(self):
        a = sample_complex_gaussian(Rng(10), 2, 5, 1.0)
        with pytest.raises(InvalidArgumentError, match="starting point length"):
            solve_continuous(a, SolveConfig(p=2), PhaseVector.from_values(np.zeros(6)))

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
        assert trace.termination == "tolerance"

    def test_32x1000_converges_before_the_cap(self):
        # 500 plain steps stopped short of the tolerance here
        a = sample_complex_gaussian(Rng(970_000, 4), 32, 1000, 1.0)
        trace = solve_continuous(a, SolveConfig(p=2), deterministic_init(a, 2))
        assert trace.termination == "tolerance"
        assert trace.iterations < SolveConfig.max_iterations
        assert np.all(np.diff(trace.costs) >= -1e-9)

    def test_squarem_crawl_stops_on_the_tolerance(self):
        # the extrapolation fails in most cycles here, and each fallback
        # cycle gains about 2.4e-11 of the cost: an absolute stop of 1e-10
        # on a cost near 1050 ran these to the 500-cycle cap
        a = numpy_gaussian([7109, 199], 32, 1000)
        trace = solve_continuous(a, SolveConfig(p=2), deterministic_init(a, 2))
        assert trace.termination == "tolerance"
        assert trace.iterations < 100

    @pytest.mark.parametrize("p", [1, 2])
    def test_a_single_row_of_2_14_entries_starts_at_its_optimum(self, p):
        # the single-precision cycles end on phasors a float32 rounding away
        # from the optimum, which score below the start in float64: the
        # float64 cycles start from the start instead
        for t in range(4):
            a = sample_complex_gaussian(Rng(40, t), 1, 1 << 14, 1.0)
            start = deterministic_init(a, p)
            trace = solve_continuous(a, SolveConfig(p=p), start)
            assert 1 <= trace.single_iterations <= 2
            assert trace.costs[0] >= norm_lp(a @ start.phasors(), p)
            assert np.all(trace.costs[1:] >= trace.costs[:-1] * (1 - 1e-12))
            assert trace.final_cost == pytest.approx(norm_lp(a[0], 1), rel=1e-15)

    @pytest.mark.parametrize("p", [1, 2])
    def test_the_tolerance_reaches_the_single_precision_cycles(self, p):
        # they stop at max(1e-7, tolerance): a tolerance below 1e-7 moves
        # only the float64 cycles, a looser one stops them sooner
        a = numpy_gaussian([11, 3], 32, 1000)
        x0 = deterministic_init(a, p).phasors()
        single = {tol: solver._single_cycles(a, SolveConfig(p=p, tolerance=tol), x0)[1]
                  for tol in (1e-10, 1e-7, 1e-3)}
        assert single[1e-10] == single[1e-7] > single[1e-3] >= 1
        trace = solve_continuous(a, SolveConfig(p=p, tolerance=1e-3), deterministic_init(a, p))
        assert trace.single_iterations == single[1e-3]

    def test_tiny_scale_witness_does_not_underflow(self):
        # ||w||_2 of |w| near 1e-170 underflows to 0 in the sum of squares
        a = sample_complex_gaussian(Rng(3), 8, 40, 1.0)
        start = deterministic_init(a, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = solve_continuous(1e-170 * a, SolveConfig(p=2), start)
            z = dual_witness(1e-170 * (a @ start.phasors()), 2)
            default_pipeline(1e-170 * a, DiscretePhaseSet(2), 2)
        assert np.all(np.isfinite(trace.costs))
        assert trace.costs[0] == pytest.approx(1e-170 * norm_lp(a @ start.phasors(), 2),
                                               rel=1e-12)
        assert z == pytest.approx(dual_witness(a @ start.phasors(), 2), rel=1e-12)


def squarem_by_hand(a, p, start, cycles):
    """The continuous solver's iterations composed from the public steps:
    SQUAREM cycles on the `dual_witness` outputs, with `continuous_phase_step`
    map steps from each witness. Returns the costs, the end point, the
    branch each cycle took (True where it kept the extrapolated witness) and
    each cycle's plain two-step cost."""
    q = math.inf if p == 1 else 2

    def witness(pv):
        return dual_witness(a @ pv.phasors(), q)

    def step(z):
        pv = continuous_phase_step(a.conj().T @ z)
        return pv, witness(pv), norm_lp(a @ pv.phasors(), p)

    pv, z0, costs = start, witness(start), [norm_lp(a @ start.phasors(), p)]
    accepted, plain = [], []
    for _ in range(cycles):
        _, z1, _ = step(z0)
        _, z2, c2 = step(z1)
        plain.append(c2)
        r = z1 - z0
        v = z2 - z1 - r
        nr, nv = np.linalg.norm(r), np.linalg.norm(v)
        alpha = -nr / nv if nr > nv > 0 else -1.0
        pv, z0, cost = step(z0 - 2 * alpha * r + alpha ** 2 * v)
        accepted.append(cost >= c2)
        if not accepted[-1]:
            pv, z0, cost = step(z2)
        costs.append(cost)
    return costs, pv, accepted, plain


class TestKernelEquivalence:
    """The solvers' inner loop against the public steps composed by hand."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_continuous_matches_public_steps(self, p):
        a = sample_complex_gaussian(Rng(25), 8, 40, 1.0)
        start = deterministic_init(a, p)
        # a tolerance no cycle meets: the run takes all six cycles
        trace = solve_continuous(a, SolveConfig(p=p, max_iterations=6, tolerance=1e-300), start)
        costs, pv, _, _ = squarem_by_hand(a, p, start, trace.iterations)
        q = math.inf if p == 1 else 2
        assert trace.iterations == 6
        assert trace.costs == pytest.approx(costs, rel=1e-12)
        assert trace.phases.phasors() == pytest.approx(pv.phasors(), abs=1e-12)
        assert trace.witness == pytest.approx(dual_witness(a @ pv.phasors(), q), abs=1e-12)

    def test_continuous_cycles_take_both_branches(self):
        # the extrapolated witness is kept in most cycles and dropped for a
        # step from the second witness in some (4 of 101 cycles in these
        # runs); both paths match the hand composition
        branches = set()
        for t in range(6):
            a = sample_complex_gaussian(Rng(27, t), 4, 30, 1.0)
            for p in (1, 2):
                start = deterministic_init(a, p)
                trace = solve_continuous(a, SolveConfig(p=p), start)
                costs, _, accepted, _ = squarem_by_hand(a, p, start, trace.iterations)
                assert trace.costs == pytest.approx(costs, rel=1e-12)
                branches.update(accepted)
        assert branches == {True, False}

    @staticmethod
    def check_cycles(a, p, start, scale=1.0):
        """Runs the continuous solver on scale * a, warnings raised as
        errors, and checks it against the hand composition on a: the same
        costs, times scale, and each cycle at or above its plain two-step
        cost. Returns the trace and the hand composition's end point."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = solve_continuous(scale * a, SolveConfig(p=p), start)
        costs, pv, _, plain = squarem_by_hand(a, p, start, trace.iterations)
        assert trace.termination != "iteration-cap"
        assert trace.costs / scale == pytest.approx(costs, rel=1e-12)
        assert np.all(trace.costs[1:] / scale >= np.array(plain) * (1 - 1e-12))
        return trace, pv.phasors()

    @pytest.mark.parametrize("p", [1, 2])
    def test_rank_one(self, p):
        # every A x is a multiple of u, so every witness is u's up to a
        # global phase, and the first step aligns x with v: the optimum
        # ||u||_p * ||v||_1
        g = np.random.default_rng([30, p])
        u = g.standard_normal(8) + 1j * g.standard_normal(8)
        v = g.standard_normal(40) + 1j * g.standard_normal(40)
        a = np.outer(u, v.conj())
        for start in (deterministic_init(a, p), PhaseVector.from_values(np.zeros(40))):
            trace, x = self.check_cycles(a, p, start)
            assert trace.phases.phasors() == pytest.approx(x, abs=1e-12)
            assert trace.final_cost == pytest.approx(norm_lp(u, p) * norm_lp(v, 1), rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_zero_column(self, p):
        # A^H z is 0 in that entry at every step, and its phase stays 0
        a = sample_complex_gaussian(Rng(41), 8, 40, 1.0)
        a[:, 5] = 0.0
        trace, x = self.check_cycles(a, p, deterministic_init(a, p))
        assert trace.phases.phasors() == pytest.approx(x, abs=1e-12)
        assert trace.phases.values[5] == 0.0
        assert trace.final_cost == pytest.approx(
            solve_continuous(np.delete(a, 5, axis=1), SolveConfig(p=p),
                             PhaseVector(np.delete(deterministic_init(a, p).values, 5))).final_cost,
            rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_single_row_starts_at_its_fixed_point(self, p):
        # the start aligns x with the row, so one cycle ends on the optimum
        # again: its cost repeats exactly (fixed-point) or rises in the last
        # bits only (tolerance). Every turn of the start is optimal too, and
        # the extrapolation of witnesses that differ in their last bits may
        # land on one (0.056 rad at t = 0, p = 1)
        ends = set()
        for t in range(6):
            a = sample_complex_gaussian(Rng(40, t), 1, 50, 1.0)
            start = deterministic_init(a, p)
            trace, x = self.check_cycles(a, p, start)
            ends.add(trace.termination)
            assert trace.iterations == 1
            assert trace.final_cost == pytest.approx(norm_lp(a[0], 1), rel=1e-15)
            for end in (trace.phases.phasors(), x):
                turn = end / start.phasors()
                assert turn == pytest.approx(np.full(50, turn[0]), abs=1e-14)
        assert "fixed-point" in ends

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_extreme_scale(self, p, scale):
        # the witnesses, and so the extrapolation, do not depend on the scale
        a = sample_complex_gaussian(Rng(42), 8, 40, 1.0)
        trace, x = self.check_cycles(a, p, deterministic_init(a, p), scale)
        assert trace.phases.phasors() == pytest.approx(x, abs=1e-12)
        assert trace.iterations >= 5

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


def bits_of(x):
    """Bit patterns of a float or complex array, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(x).view(np.uint64)


class TestMapStepFastPaths:
    """The map steps' arithmetic against the numpy calls it replaced, bit for bit."""

    #: real and imaginary parts: signed zeros, subnormals, 1e+-170 and plain values
    PARTS = (0.0, -0.0, 5e-324, -5e-324, 1e-308, -1e-308, 1e-170, -1e-170,
             1.0, -2.5, 3.7e-5, 1e170, -1e170)

    @classmethod
    def special_entries(cls):
        v = np.array([complex(re, im) for re in cls.PARTS for im in cls.PARTS])
        # drop v == 0, and the moduli below 2^-1024 (5.6e-309): numpy's
        # division forms 1/|v|, which is inf there, and returns inf or nan
        return v[np.abs(v) >= 1e-308]

    @staticmethod
    def masked_divide(v):
        mod = np.abs(v)
        return np.divide(v, mod, out=np.ones_like(v), where=mod > 0)

    @pytest.mark.parametrize("n", [1, 32, 1000, 1001])
    @pytest.mark.parametrize("with_zero", [False, True])
    def test_unit_is_the_masked_divide(self, n, with_zero):
        special = self.special_entries()
        g = np.random.default_rng([31, n])
        for scale in (1e-170, 1.0, 1e170):
            gauss = scale * (g.standard_normal(n) + 1j * g.standard_normal(n))
            # the special entries in turn, each among Gaussian ones
            for start in range(0, special.size, n):
                v = gauss.copy()
                chunk = special[start:start + n]
                v[g.permutation(n)[:chunk.size]] = chunk
                if with_zero:
                    v[g.integers(n)] = 0.0
                assert np.array_equal(bits_of(_unit(v, np.abs(v))), bits_of(self.masked_divide(v)))

    @pytest.mark.parametrize("n", [1, 32, 1000, 1001])
    @pytest.mark.parametrize("k", [-100, -60, -20, 0, 20, 60, 100])
    def test_single_precision_unit_is_the_division(self, n, k):
        # complex64 multiplies by 1/|v|: where no part of the quotient is zero
        # it has the division's bits, elsewhere its value, so its modulus and
        # angle, up to the sign of a zero part
        g = np.random.default_rng([33, n, 128 + k])
        v = math.ldexp(1.0, k) * (g.standard_normal(n) + 1j * g.standard_normal(n))
        v[g.integers(n, size=max(1, n // 8))] = g.standard_normal()          # zero imaginary part
        v[g.integers(n, size=max(1, n // 8))] = 1j * g.standard_normal()     # zero real part
        v[g.integers(n)] = complex(-g.exponential(), -0.0)
        v = v.astype(np.complex64)
        x, ref = _unit(v, np.abs(v)), self.masked_divide(v)
        whole = (ref.real != 0) & (ref.imag != 0)
        assert whole.sum() >= n // 2
        assert np.array_equal(bits_of(x[whole]), bits_of(ref[whole]))
        assert np.array_equal(x, ref)

    @pytest.mark.parametrize("scale", [2.0 ** -1000, 1e-300, 1e-170, 1e-150, 1.0, 1e150, 1e170,
                                       1e300, 2.0 ** 1000])
    def test_l2_witness_cost_is_the_norm(self, scale):
        g = np.random.default_rng(32)
        for m in (1, 32, 100):
            w = scale * (g.standard_normal(2 * m) + 1j * g.standard_normal(2 * m))
            for x in (w[:m], w[::2]):             # contiguous and strided
                with np.errstate(over="ignore"):
                    z, cost = _witness(x, 2.0)
                    ref = float(np.linalg.norm(x))
                    # norm_lp and the witness score through one rule
                    for p in (1.0, 2.0):
                        assert bits_of(norm_lp(x, p)) == bits_of(_witness(x, p)[1])
                if 2.0 ** -511 <= ref < math.inf:
                    z_ref = x / ref
                else:
                    # the sum of squares is 0, subnormal or inf: the rescue runs
                    # on x * 2^-e, max|x * 2^-e| in [1/2, 1), and scales back
                    e = math.frexp(np.max(np.abs(x)))[1]
                    u = x * math.ldexp(1.0, -e)
                    ref = math.ldexp(float(np.linalg.norm(u)), e)
                    z_ref = u / np.linalg.norm(u)
                    assert scale not in (1e-150, 1.0, 1e150)
                assert np.float64(cost).view(np.uint64) == np.float64(ref).view(np.uint64)
                assert np.array_equal(bits_of(z), bits_of(z_ref))


class TestSubnormalModuli:
    """Moduli at or below 2^-1024, where 1/|u| and numpy's complex division
    by |u| overflow."""

    def test_unit_gives_unit_phasors(self):
        tiny = np.array([5e-324, -5e-324j, 3e-310 - 4e-310j, 1e-309 + 5e-324j,
                         complex(math.ldexp(1.0, -1024), 0.0)])
        v = np.concatenate([tiny, [0.0, 2.0 - 1j, 1e-308j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _unit(v, np.abs(v))
        assert np.abs(np.abs(x[:5]) - 1.0).max() <= 4e-16
        assert np.allclose(np.angle(x[:5]), np.angle(tiny), rtol=0, atol=1e-15)
        # the other entries keep the division's bits, and 1 at zero
        assert np.array_equal(bits_of(x[5:]), bits_of(TestMapStepFastPaths.masked_divide(v[5:])))

    @pytest.mark.parametrize("p", [1, 2])
    def test_witness_of_a_subnormal_w(self, p):
        w = (np.arange(1, 33) + 1j * np.arange(32)) * 1e-312
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, cost = _witness(w, float(p))
        assert cost == pytest.approx(norm_lp(w * 1e300, p) * 1e-300, rel=1e-12)
        # Holder equality: unit dual norm and <z, w> = ||w||_p
        assert np.linalg.norm(z, {1: np.inf, 2: 2}[p]) == pytest.approx(1.0, rel=1e-15)
        assert np.vdot(z, w * 1e300).real == pytest.approx(cost * 1e300, rel=1e-12)

    def test_pipeline_with_a_subnormal_column(self):
        # A^H z has a modulus near 1e-310 in entry 3: the warm start used to
        # score NaN from its first cycle and run to the iteration cap
        a = sample_complex_gaussian(Rng(5), 8, 40, 1.0)
        a[:, 3] *= 1e-310
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = default_pipeline(a, DiscretePhaseSet(2), 2)
        for trace, end in ((res.continuous_trace, "tolerance"), (res.trace, "fixed-point")):
            assert np.isfinite(trace.costs).all()
            assert trace.termination == end
        zeroed = a.copy()
        zeroed[:, 3] = 0.0
        assert res.final_cost == pytest.approx(default_pipeline(zeroed, DiscretePhaseSet(2), 2).final_cost,
                                               rel=1e-9)

    @pytest.mark.parametrize("p", [1, 2])
    def test_cycles_that_reach_the_range_error_in_complex64_are_discarded(self, p):
        # entries near 1e-44 are subnormal in float32, and the complex64
        # cycles meet moduli whose reciprocal overflows: they raise the range
        # error, and the warm start hands off its own start after 0 cycles
        a = sample_complex_gaussian(Rng(39), 32, 300, 1.0)
        cfg = SolveConfig(p=p)
        assert solve_continuous(a, cfg, deterministic_init(a, p)).single_iterations > 0
        a[:, :5] *= 1e-44
        x0 = deterministic_init(a, p).phasors()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            handed, single = solver._single_cycles(a, cfg, x0)
            trace = solve_continuous(a, cfg, deterministic_init(a, p))
        assert handed is x0 and single == 0
        assert trace.single_iterations == 0
        assert trace.costs[0] == norm_lp(a @ x0, p)
        assert trace.termination == "tolerance"

    def test_a_pivot_whose_reciprocal_overflows_runs_float64_alone(self):
        # the single-precision copy is A * (1 / a_k), and 1 / a_k overflows
        # below a pivot modulus of about 2^-1024
        a = numpy_gaussian([11, 3], 32, 1000)
        for k, single in ((-1000, True), (-1040, False)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = default_pipeline(a * 2.0**k, DiscretePhaseSet(2), 2)
            assert (res.continuous_trace.single_iterations > 0) == single
            assert res.continuous_trace.termination == "tolerance"
            assert np.isfinite(res.continuous_trace.costs).all()


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

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 8, 16])
    def test_an_ulp_off_a_midpoint_goes_to_the_nearer_point(self, bits):
        # 2^B steps of delta make up the circle of length TWO_PI exactly, so
        # the distances below are exact rationals
        dps = DiscretePhaseSet(bits)
        if dps.levels <= 300:
            ks = np.arange(dps.levels)
        else:
            g = np.random.default_rng([22, bits])
            ks = np.unique(np.concatenate([[0, dps.levels - 1], g.integers(0, dps.levels, 298)]))
        mids = (ks + 0.5) * dps.step
        thetas = np.concatenate([np.nextafter(mids, -math.inf), np.nextafter(mids, math.inf)])
        got = hard_round(PhaseVector(thetas), dps).indices
        circle, step = Fraction(TWO_PI), Fraction(dps.step)

        def dist(theta, k):
            d = (theta - k * step) % circle
            return min(d, circle - d)

        for theta, k in zip(map(Fraction, thetas.tolist()), got.tolist()):
            below = int(theta // step)
            assert dist(theta, k) == min(dist(theta, below), dist(theta, (below + 1) % dps.levels))


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
        best_pv, best = das_maximize(np.conj(a[0]), dps)
        assert row == 0
        assert np.array_equal(pv.indices, best_pv.indices)
        # the same phases, scored as the l-infinity and the l2 norm of a
        # one-entry A x: |.| and sqrt(re.re + im.im) may differ in the last bit
        assert obj == norm_lp(a @ pv.phasors(), math.inf)
        assert best == norm_lp(a @ pv.phasors(), 2)
        assert obj == pytest.approx(best, rel=1e-15)

    def test_dominant_row_wins(self):
        rng = Rng(16)
        small = 1e-3 * sample_complex_gaussian(rng, 3, 6, 1.0)
        big = sample_complex_gaussian(rng, 1, 6, 1.0) * 10
        a = np.vstack([small[:1], big, small[1:]])
        dps = DiscretePhaseSet(2)
        pv, row, obj = solve_linf(a, dps)
        assert row == 1
        best_pv, best = das_maximize(np.conj(big[0]), dps)
        assert np.array_equal(pv.indices, best_pv.indices)
        assert obj == norm_lp(a @ pv.phasors(), math.inf)
        assert obj == pytest.approx(best, rel=1e-15)

    def test_objective_is_the_linf_norm_of_a_x(self):
        # the winning row's inner product chooses, norm_lp(A x, inf) scores:
        # the row's own dot product and its entry of A x may differ in the
        # last bits
        a = sample_complex_gaussian(Rng(18), 5, 300, 1.0)
        for bits in (1, 2, 3, 4):
            dps = DiscretePhaseSet(bits)
            pv, row, obj = solve_linf(a, dps)
            x = np.exp(1j * (pv.indices * dps.step))
            assert obj == norm_lp(a @ x, math.inf)
            assert np.abs(a[row] @ x) == pytest.approx(obj, rel=1e-14)

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

    @staticmethod
    def row_by_row(a, dps):
        """solve_linf spelled out: DaS on each nonzero row, rows compared by
        |a_i x|, first best wins, and the objective is norm_lp(A x, inf)."""
        best = None
        for i, row in enumerate(a):
            if np.any(row):
                idx = das_maximize(np.conj(row), dps)[0].indices
                obj = np.abs(row @ dps.phasors[idx])
                if best is None or obj > best[2]:
                    best = (idx, i, obj)
        idx, i, _ = best
        return idx, i, norm_lp(a @ dps.phasors[idx], math.inf)

    @staticmethod
    def inputs(family):
        """(A, dps) cases of one family, for the comparison with row_by_row."""
        g = np.random.default_rng([19, *family.encode()])
        for t in range(12):
            bits = 1 + t % 6
            m = int(g.integers(1, 9))
            n = int(g.choice([1, 2, 3, 8, 50, 600]))
            a = g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))
            if family == "long-rows":
                n = (1000, 10000)[t % 2]
                a = g.standard_normal((8, n)) + 1j * g.standard_normal((8, n))
                bits = 2 + t % 3
            elif family == "scaled":
                a = a * (1e-13, 1e170, 1e-170, 2.0 ** -1000)[t % 4]
            elif family == "pi/4":
                a = g.integers(1, 3, (m, n)) * np.exp(0.25j * math.pi * g.integers(0, 8, (m, n)))
            elif family == "zero-rows":
                a[g.random((m, n)) < 0.3] = 0.0
                a[g.random(m) < 0.3] = 0.0
                a[-1, 0] = 1.0
            elif family == "steering":
                dps = DiscretePhaseSet(bits)
                s = np.where(np.arange(m) % 2 == 0, g.integers(-2 * dps.levels, 2 * dps.levels + 1, m)
                             / dps.levels, g.uniform(-2.0, 2.0, m))
                a = steering_rows(n, s)
            elif family == "rotated":
                a = a[:1] * np.exp(1j * g.uniform(0.0, 2 * math.pi, (m, 1)))
            elif family == "quarter-turns":
                a = a[:1] * 1j ** g.integers(0, 4, (m, 1))
            elif family == "dominant-last":
                a[-1] *= 3.0
            elif family == "spiky":
                # row 0 has the largest l2 norm from one entry, not the largest l1
                a[-1] *= 1.05
                a[0] *= 0.5
                a[0, 0] = 2.0 * math.sqrt(n)
            yield a, DiscretePhaseSet(bits)

    @pytest.mark.parametrize("family", ["gaussian", "long-rows", "scaled", "pi/4", "zero-rows",
                                        "steering", "rotated", "quarter-turns", "dominant-last",
                                        "spiky"])
    def test_same_answer_as_every_row_swept(self, family):
        # rows that cannot win are skipped, and that must change no bit
        for a, dps in self.inputs(family):
            pv, row, obj = solve_linf(a, dps)
            idx, ref_row, ref_obj = self.row_by_row(a, dps)
            assert (row, obj) == (ref_row, ref_obj)
            assert np.array_equal(pv.indices, idx)

    def test_ties_go_to_the_lowest_row(self):
        # all three rows tie at 2.0, and so do their l1 norms
        a = np.array([[1.0, 1.0], [2.0, 0.0], [1.0, -1.0]], dtype=complex)
        assert solve_linf(a, DiscretePhaseSet(1))[1:] == (0, 2.0)
        # rows are visited by l1 norm, row 1 (l1 2) before row 0 (l1 sqrt 2),
        # and both score |1 + 1j| = sqrt 2 at B = 1
        a = np.array([[math.sqrt(2.0), 0.0], [1.0, 1j]])
        assert solve_linf(a, DiscretePhaseSet(1))[1:] == (0, math.sqrt(2.0))
        # quarter turns of one row tie exactly; the lowest index wins
        row = numpy_gaussian(20, 1, 300)
        a = np.vstack([0.5 * row, 1j * row, -row, -1j * row])
        for bits in (1, 2, 3):
            pv, i, obj = solve_linf(a, DiscretePhaseSet(bits))
            assert (i, obj) == self.row_by_row(a, DiscretePhaseSet(bits))[1:]
            assert i == 1

    def test_a_dominant_row_is_the_only_row_swept(self, monkeypatch):
        # guards the pruning: if either test stopped skipping rows, this
        # fails. The dominant row's optimum is above every other row's l1
        # norm, so no other row even gets its edges built.
        edges = []
        das_edges = das._das_edges
        monkeypatch.setattr(das, "_das_edges", lambda c, dps: edges.append(1) or das_edges(c, dps))
        a = numpy_gaussian(21, 8, 2000)
        a[5] *= 1.5
        for bits in (2, 3, 4):
            edges.clear()
            idx, row, obj, swept = das._linf(a, DiscretePhaseSet(bits))
            assert (row, swept, len(edges)) == (5, 1, 1)

    def test_rows_reach_the_edge_stage_as_views_of_a(self, monkeypatch):
        # a row without zeros goes to the edge stage as it is, a view of A;
        # a row with zeros as a copy of its nonzero entries. A keeps its bits.
        rows = []
        das_edges = das._das_edges
        monkeypatch.setattr(das, "_das_edges", lambda c, dps: rows.append(c) or das_edges(c, dps))
        a = numpy_gaussian(22, 6, 300)
        a[2, ::7] = 0.0
        a[4] = 0.0
        before = a.view(np.int64).copy()
        for bits in (1, 2, 3):
            das._linf(a, DiscretePhaseSet(bits))
            assert np.array_equal(a.view(np.int64), before)
        assert {c.size for c in rows} == {300, 300 - 43}
        assert all(np.shares_memory(c, a) == (c.size == 300) for c in rows)

    def test_the_bound_skips_rows_the_l1_test_keeps(self):
        # at B = 2 the optima lie near 0.9 of the l1 norms, so a row 5 %
        # above the rest passes the l1 test and only the bound skips the others
        a = numpy_gaussian(25, 8, 2000)
        a[2] *= 1.05
        idx, row, obj, swept = das._linf(a, DiscretePhaseSet(2))
        assert (row, swept) == (2, 1)
        assert all(np.abs(a[i]).sum() > obj for i in range(8) if i != 2)

    def test_rows_below_the_underflow_floor_are_all_swept(self):
        # below an l1 norm of n 2^-1000 products of the entries can underflow,
        # the rounding allowance is inf and neither test skips a row; at scale
        # 1 the same matrix has rows skipped
        a = numpy_gaussian(29, 8, 64)
        for bits in (2, 3):
            dps = DiscretePhaseSet(bits)
            assert das._linf(a, dps)[3] < 8
            for scale in (2.0 ** -1010, 2.0 ** -1040):
                idx, row, obj, swept = das._linf(a * scale, dps)
                assert swept == 8
                ref_idx, ref_row, ref_obj = self.row_by_row(a * scale, dps)
                assert (row, obj) == (ref_row, ref_obj)
                assert np.array_equal(idx, ref_idx)

    def test_a_spiky_row_is_not_swept(self):
        # one large entry gives row 1 the largest l2 norm, but its l1 norm
        # lies below row 6's optimum, so row 6 is visited first and alone swept
        a = numpy_gaussian(27, 8, 2000)
        a[6] *= 1.05
        a[1] *= 0.5
        a[1, 7] = 50.0
        assert np.linalg.norm(a, axis=1).argmax() == 1
        for bits in (2, 3, 4):
            idx, row, obj, swept = das._linf(a, DiscretePhaseSet(bits))
            assert (row, swept) == (6, 1)
            assert np.abs(a[1]).sum() < obj

    def test_rotated_copies_are_all_swept(self):
        # rows whose optima tie cannot be told apart by a bound
        a = numpy_gaussian(22, 1, 500) * np.exp(1j * np.linspace(0.0, 3.0, 6))[:, None]
        assert das._linf(a, DiscretePhaseSet(2))[3] == 6

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_steering_rows_match_exhaustive(self, bits):
        g = np.random.default_rng([23, bits])
        dps = DiscretePhaseSet(bits)
        for t in range(12):
            n = int(g.integers(1, min(8, 21 // bits) + 1))
            s = g.integers(-2 * dps.levels, 2 * dps.levels + 1, 3) / dps.levels
            a = steering_rows(n, np.append(s, g.uniform(-2.0, 2.0)))
            _, _, obj = solve_linf(a, dps)
            ref = exhaustive_norm(a, dps, math.inf)
            assert obj == pytest.approx(ref.objective, rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", ["signed-zero-row", "zero-row-last", "partly-zero-row-wins"])
    def test_zero_rows(self, case):
        g = np.random.default_rng(19)
        a = g.standard_normal((4, 12)) + 1j * g.standard_normal((4, 12))
        if case == "signed-zero-row":
            a[1] = complex(-0.0, -0.0)
        elif case == "zero-row-last":
            a[3] = 0.0
        else:
            a[2] *= 10.0
            a[2, ::3] = complex(-0.0, 0.0)
        dps = DiscretePhaseSet(2)
        pv, row, obj = solve_linf(a, dps)
        idx, ref_row, ref_obj = self.row_by_row(a, dps)
        assert (row, obj) == (ref_row, ref_obj)
        assert np.array_equal(pv.indices, idx)
        if case == "partly-zero-row-wins":
            assert row == 2 and np.all(pv.indices[::3] == 0)


class TestObjectiveRange:
    """An objective must be a finite double: an optimum at or beyond 2^1024
    is InvalidArgumentError wherever it is made, not inf or an OverflowError."""

    #: |1.2e308 + 0.9e308| and ||(1.5e308, 1.5e308)||_2 lie beyond the double range
    ONE_ROW = np.array([[1.2e308, 0.9e308]])
    TWO_ROWS = np.array([[1.5e308, 0.0], [1.5e308, 0.0]])

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("which", ["ONE_ROW", "TWO_ROWS"])
    def test_pipeline(self, which, p):
        with pytest.raises(InvalidArgumentError, match="double range"):
            default_pipeline(getattr(self, which), DiscretePhaseSet(1), p)

    def test_continuous_solve_and_witness(self):
        with pytest.raises(InvalidArgumentError, match="double range"):
            solve_continuous(self.TWO_ROWS, SolveConfig(p=2), np.zeros(2))
        with pytest.raises(InvalidArgumentError, match="double range"):
            dual_witness(self.TWO_ROWS[:, 0], 2)

    def test_linf_das_and_oracle(self):
        dps = DiscretePhaseSet(2)
        for call in (lambda: solve_linf(self.ONE_ROW, dps),
                     lambda: das_maximize(self.ONE_ROW[0], dps),
                     lambda: exhaustive_norm(self.ONE_ROW, dps, 2),
                     lambda: exhaustive_norm(self.TWO_ROWS, dps, 2)):
            with pytest.raises(InvalidArgumentError, match="double range"):
                call()

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_a_complex_entry_whose_modulus_is_past_the_range(self, bits):
        # both parts are finite, |1.5e308 + 1.5e308j| is not: the sweep's
        # rescue leaves it to the objective rule instead of running again
        row = np.array([1.5e308 + 1.5e308j, 1.0])
        dps = DiscretePhaseSet(bits)
        for call in (lambda: das_maximize(row, dps), lambda: solve_linf(row[None, :], dps)):
            with pytest.raises(InvalidArgumentError, match="double range"):
                call()

    def test_an_optimum_just_inside_the_range_is_kept(self):
        a = np.array([[0.6e308, 0.6e308]])
        dps = DiscretePhaseSet(1)
        assert default_pipeline(a, dps, 2).final_cost == 1.2e308
        assert default_pipeline(a, dps, 1).final_cost == 1.2e308
        assert solve_linf(a, dps)[2] == 1.2e308
        assert das_maximize(a[0], dps)[1] == 1.2e308
        assert exhaustive_norm(a, dps, 2).objective == 1.2e308


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

    @pytest.mark.parametrize("n", [1000, 10_000])
    def test_rank_one_reaches_the_optimum_at_bench_sizes(self, n):
        # ||u v^T x||_p = ||u||_p |v^T x| for every x, so the optimum is
        # ||u||_p times DaS's objective on conj(v); the hard rounding alone
        # misses it in most of these cases, so the lift must reach it
        for t in range(3):
            rng = Rng(n, t)
            u = sample_complex_gaussian(rng, 4, 1, 1.0)[:, 0]
            v = sample_complex_gaussian(rng, 1, n, 1.0)[0]
            a = np.outer(u, v)
            for bits in (1, 2, 3, 4):
                dps = DiscretePhaseSet(bits)
                best = das_maximize(np.conj(v), dps)[1]
                for p in (1, 2):
                    assert default_pipeline(a, dps, p).final_cost == pytest.approx(
                        norm_lp(u, p) * best, rel=1e-12), (t, bits, p)
                assert solve_linf(a, dps)[2] == pytest.approx(norm_lp(u, "inf") * best,
                                                              rel=1e-12), (t, bits)

    def test_lifting_dominance_10x100(self):
        a = sample_complex_gaussian(Rng(20), 10, 100, 1.0)
        result = default_pipeline(a, DiscretePhaseSet(2), 2)
        assert result.final_cost >= result.rounded_cost - 1e-9

    def test_rounded_cost_is_the_lifts_first_cost_at_tiny_scale(self):
        # norm_lp's sum of squares underflows to 0 for |A x| near 1e-170
        a = 1e-170 * sample_complex_gaussian(Rng(3), 8, 40, 1.0)
        result = default_pipeline(a, DiscretePhaseSet(2), 2)
        assert result.rounded_cost == result.trace.costs[0] > 0.0

    def test_huge_scale_matches_scale_one(self):
        # the sums of squares overflow near 1e170: the l2 witness and the
        # start's row norms rescale by the largest modulus instead of
        # reading inf
        a = sample_complex_gaussian(Rng(970_000), 32, 1000, 1.0)
        with np.errstate(over="ignore"):
            trace = solve_continuous(1e170 * a, SolveConfig(p=2), deterministic_init(1e170 * a, 2))
            assert np.all(np.isfinite(trace.costs))
            assert trace.termination == "tolerance"
            for p in (1, 2):
                assert deterministic_init(1e170 * a, p).phasors() == pytest.approx(
                    deterministic_init(a, p).phasors(), abs=1e-12)
                for bits in (1, 2):
                    huge = default_pipeline(1e170 * a, DiscretePhaseSet(bits), p)
                    unit = default_pipeline(a, DiscretePhaseSet(bits), p)
                    assert huge.continuous_trace.termination == "tolerance"
                    assert np.array_equal(huge.trace.phases.indices, unit.trace.phases.indices)

    def test_lift_at_scale_1e6_converges_like_scale_one(self):
        # a lift that stopped only on an absolute |delta cost| could cycle at
        # large scale between two configurations one ulp apart, up to the
        # iteration cap; both lifts end on a fixed point after 15 iterations
        a = sample_complex_gaussian(Rng(970_000), 32, 1000, 1.0)
        unit = default_pipeline(a, DiscretePhaseSet(1), 2)
        large = default_pipeline(1e6 * a, DiscretePhaseSet(1), 2)
        for result in (unit, large):
            assert result.trace.termination == "fixed-point"
            assert result.trace.iterations == 15
        assert np.array_equal(large.trace.phases.indices, unit.trace.phases.indices)

    def test_huge_scale_does_not_warn(self):
        # the overflowing sums of squares are rescued, so numpy's overflow
        # warnings (381 of them on this call) only reported handled cases
        a = sample_complex_gaussian(Rng(970_000), 32, 1000, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = default_pipeline(1e170 * a, DiscretePhaseSet(1), 2)
        assert np.isfinite(result.final_cost)

    def test_records_stage_wall_times(self):
        a = sample_complex_gaussian(Rng(28), 8, 60, 1.0)
        result = default_pipeline(a, DiscretePhaseSet(2), 2)
        assert result.continuous_seconds >= 0.0 and result.lift_seconds >= 0.0
        # a result built from the stages by hand has no times
        assert PipelineResult(result.trace, result.continuous_trace, result.rounded_phases,
                              result.rounded_cost).continuous_seconds is None

    def test_p_inf_routed_away(self):
        with pytest.raises(UnsupportedNormError):
            default_pipeline(np.eye(2, dtype=complex), DiscretePhaseSet(1), math.inf)

    def test_validates_a_once(self, monkeypatch):
        calls = []
        validate = solver.as_complex_matrix

        def counted(a):
            calls.append(a)
            return validate(a)

        monkeypatch.setattr(solver, "as_complex_matrix", counted)
        default_pipeline(sample_complex_gaussian(Rng(28), 8, 60, 1.0), DiscretePhaseSet(2), 2)
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [1, 2])
    def test_working_memory(self, p):
        # each alternating run holds its own conjugate copy of A, and the
        # call peaks near 1.3 A.nbytes, in the lift; one float64 A^H kept
        # for the whole call, beside the single-precision cycles' complex64
        # copy of A and its conjugate, peaked at 2.16 A.nbytes
        a = sample_complex_gaussian(Rng(34), 32, 2048, 1.0)
        assert a.size >= solver._SINGLE_MIN_SIZE
        tracemalloc.start()
        try:
            default_pipeline(a, DiscretePhaseSet(2), p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * a.nbytes

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("bits", [1, 3])
    def test_matches_the_public_composition(self, p, bits):
        a = sample_complex_gaussian(Rng(29, bits), 8, 60, 1.0)
        dps = DiscretePhaseSet(bits)
        result = default_pipeline(a, dps, p)
        cont = solve_continuous(a, SolveConfig(p=p), deterministic_init(a, p))
        lifted = solve_discrete(a, SolveConfig(p=p, dps=dps), hard_round(cont.phases, dps))
        assert np.array_equal(result.trace.phases.indices, lifted.phases.indices)
        assert np.array_equal(result.continuous_trace.costs, cont.costs)
        assert np.array_equal(result.trace.costs, lifted.costs)


class TestInvariance:
    """A -> s*A and A -> exp(j*theta)*A leave the objective unchanged, and the
    relative stop test keeps the solver's path unchanged too."""

    @pytest.mark.parametrize("k", [-20, 20])
    def test_power_of_two_scale_is_exact(self, k):
        # 2^k * A runs the same arithmetic on the same dual witnesses, every
        # cost scaled exactly; an absolute stop took 42 / 51 / 52 warm-start
        # cycles at p = 1 and 23 / 32 / 35 at p = 2 for k = -20 / 0 / 20.
        # The warm start runs single-precision cycles first, then float64 ones
        a = numpy_gaussian([11, 3], 32, 1000)
        for p, single, cycles in ((1, 17, 20), (2, 22, 27)):
            unit = default_pipeline(a, DiscretePhaseSet(2), p)
            scaled = default_pipeline(2.0**k * a, DiscretePhaseSet(2), p)
            assert unit.continuous_trace.single_iterations == single
            assert unit.continuous_trace.iterations == cycles
            assert scaled.continuous_trace.single_iterations == single
            for ours, theirs in ((scaled.continuous_trace, unit.continuous_trace),
                                 (scaled.trace, unit.trace)):
                assert ours.termination == theirs.termination
                assert np.array_equal(ours.costs, 2.0**k * theirs.costs)
            assert np.array_equal(scaled.trace.phases.indices, unit.trace.phases.indices)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("bits", [1, 3])
    def test_scale_beyond_the_range_of_squares_is_exact(self, p, bits):
        # at 2^k with |k| > 500 the l2 sums of squares under- or overflow, and
        # the rescues run on core._pow2_scale's copy, which is A's own: a
        # witness that divided by max|w| lifted other indices at every p = 2
        # case here, and took other warm-start iterations. 32 x 1000 runs
        # single-precision cycles first, on a copy that is A's own too
        dps = DiscretePhaseSet(bits)
        for t, (m, n) in itertools.product(range(4), SIZES):
            a = sample_complex_gaussian(Rng(78, t), m, n, 1.0)
            unit = default_pipeline(a, dps, p)
            for k in (-600, -530, 505, 540, 600):
                scaled = default_pipeline(a * math.ldexp(1.0, k), dps, p)
                assert np.array_equal(scaled.trace.phases.indices, unit.trace.phases.indices)
                for ours, theirs in ((scaled.continuous_trace, unit.continuous_trace),
                                     (scaled.trace, unit.trace)):
                    assert np.array_equal(ours.costs, np.ldexp(theirs.costs, k))
                assert scaled.rounded_cost == math.ldexp(unit.rounded_cost, k)

    def test_dominant_row_where_its_squares_underflow(self):
        # at 2^-560 every l2 row norm of A read 0, and the start aligned row 0
        a = sample_complex_gaussian(Rng(78, 0), 16, 200, 1.0)
        unit = deterministic_init(a, 2)
        assert np.array_equal(deterministic_init(a * 2.0**-560, 2).values, unit.values)
        assert not np.array_equal(unit.values, deterministic_init(a[:1], 2).values)

    @pytest.mark.parametrize("bits, p", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 2)])
    def test_scale_keeps_lifted_indices(self, bits, p):
        # with an absolute stop, t = 10 at p = 2, B = 2, s = 1e-6 stopped the
        # warm start after 12 cycles against 19 at s = 1 and lifted to other
        # indices, 0.076 % below. At 32 x 1000 (op i of scripts/ab.py's
        # pipeline-n1000 family at seed 77, B and p from i % 8), a
        # single-precision copy scaled by a power of two near the pivot's
        # modulus ran other cycles for s*A and lifted other indices at these s
        dps = DiscretePhaseSet(bits)
        cases = [(sample_complex_gaussian(Rng(4242, t), 16, 200, 1.0), (1e-6, 1e6))
                 for t in range(12)]
        cases += [(numpy_gaussian([77, i], 32, 1000), scales)
                  for i, scales in ((15, (0.3, 7.7)), (28, (3.0,)), (29, (1e170, 3.0, 0.3)))
                  if (1 + i % 8 // 2, 1 + i % 2) == (bits, p)]
        for a, scales in cases:
            unit = default_pipeline(a, dps, p)
            for s in scales:
                scaled = default_pipeline(s * a, dps, p)
                assert np.array_equal(scaled.trace.phases.indices, unit.trace.phases.indices)
                assert scaled.final_cost == pytest.approx(s * unit.final_cost, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("bits", [1, 2])
    def test_global_rotation_keeps_the_objective(self, p, bits):
        # exp(j*theta)*A turns the warm start by -theta, so its rounding
        # moves unless theta is a multiple of the lattice step; then the
        # lifted indices move by that many steps. At 32 x 1000 a plain
        # complex64 cast of A moved the continuous cost by 2.8e-11
        dps = DiscretePhaseSet(bits)
        for t, (m, n) in itertools.product(range(4), SIZES):
            a = sample_complex_gaussian(Rng(4242, t), m, n, 1.0)
            unit = default_pipeline(a, dps, p)
            for theta in (0.3, -1.1, 2.0):
                turned = default_pipeline(np.exp(1j * theta) * a, dps, p)
                assert turned.unrounded_cost == pytest.approx(unit.unrounded_cost, rel=1e-12)
            for steps in range(1, dps.levels):
                turned = default_pipeline(np.exp(1j * steps * dps.step) * a, dps, p)
                assert turned.final_cost == pytest.approx(unit.final_cost, rel=1e-12)
                assert np.array_equal((turned.trace.phases.indices + steps) % dps.levels,
                                      unit.trace.phases.indices)


    @pytest.mark.parametrize("p", [1, 2])
    def test_global_rotation_of_steering_rows_keeps_the_continuous_cost(self, p):
        # every entry has modulus 1 up to its last bits, which move when A
        # turns: single-precision cycles on A turned by the entry of largest
        # modulus to the last bit moved the continuous cost by 0.2 % at p = 1
        for t in range(2):
            a = steering_rows(1000, np.random.default_rng([43, t]).uniform(-2.0, 2.0, 32))
            unit = default_pipeline(a, DiscretePhaseSet(2), p)
            for theta in (0.3, -1.1, 2.0):
                turned = default_pipeline(np.exp(1j * theta) * a, DiscretePhaseSet(2), p)
                assert turned.unrounded_cost == pytest.approx(unit.unrounded_cost, rel=1e-12)


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
        with pytest.raises(InvalidArgumentError, match="tolerance must be finite and positive, got 0.0"):
            SolveConfig(p=2, tolerance=0.0)
        with pytest.raises(InvalidArgumentError, match="max_iterations must be >= 1, got 0"):
            SolveConfig(p=2, max_iterations=0)
        # Python prints no int of more than 4300 digits, and float() of one
        # past the double range overflows
        with pytest.raises(InvalidArgumentError,
                           match="max_iterations must be >= 1, got a negative int of 16610 bits"):
            SolveConfig(p=2, max_iterations=-10**5000)
        with pytest.raises(InvalidArgumentError,
                           match="tolerance must be finite and positive, got an int of 1329 bits"):
            SolveConfig(p=2, tolerance=10**400)
        with pytest.raises(InvalidArgumentError):
            SolveConfig(p=3)

    @pytest.mark.parametrize("cap", [2.5, True, 3.0], ids=["fraction", "bool", "whole float"])
    def test_the_iteration_cap_must_be_an_integer(self, cap):
        # 2.5 raised TypeError from inside range(), and True capped at 1
        with pytest.raises(InvalidArgumentError, match="max_iterations"):
            SolveConfig(p=2, max_iterations=cap)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_the_tolerance_must_be_finite(self, tol):
        # an infinite tolerance stopped every run after one iteration
        with pytest.raises(InvalidArgumentError, match="tolerance"):
            SolveConfig(p=2, tolerance=tol)

    @pytest.mark.parametrize("tol", [True, "1e-3"], ids=["bool", "str"])
    def test_the_tolerance_must_be_a_real_number(self, tol):
        # True was stored as a tolerance of 1
        with pytest.raises(InvalidArgumentError, match="tolerance"):
            SolveConfig(p=2, tolerance=tol)

    def test_the_tolerance_is_stored_as_a_float(self):
        for tol in (1, np.float32(0.5)):
            cfg = SolveConfig(p=2, tolerance=tol)
            assert type(cfg.tolerance) is float and cfg.tolerance == float(tol)

    @pytest.mark.parametrize("p", [math.inf, "inf"], ids=["float", "str"])
    def test_p_inf_has_no_alternation(self, p):
        # the one place that keeps p = inf out of the alternating solvers
        with pytest.raises(UnsupportedNormError, match="solve_linf"):
            SolveConfig(p=p)
