import math
import tracemalloc

import numpy as np
import pytest

from unimod import (
    DegenerateInputError,
    DiscretePhaseSet,
    Rng,
    das_maximize,
    sample_complex_gaussian,
    wrap_phase,
)
from unimod.das import (TIE_TOL, _das_bound, _das_edges, _das_indices, _lattice_split, _linf,
                        _sweep_order, _wrap_angle)
from unimod.oracle import exhaustive_inner


def hermitian_objective(v, values):
    return abs(np.vdot(v, np.exp(1j * np.asarray(values))))


def steering_row(n, s):
    """Far-field response of a uniform linear RIS with half-wavelength
    spacing: element i has phase pi * i * s, s = sin(target) + sin(incidence)."""
    return np.exp(1j * math.pi * s * np.arange(n))


def steering_steps(g, bits, count):
    """`count` values of s in [-2, 2], half of them q / 2^B, whose phase
    steps pi * s are multiples of half a lattice step: the rows are then
    tie-heavy for DaS."""
    q = g.integers(-2 ** (bits + 1), 2 ** (bits + 1) + 1, count) / 2 ** bits
    return np.where(np.arange(count) % 2 == 0, q, g.uniform(-2.0, 2.0, count))


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
        # the running sum over the n edges must not drift: no single-element
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

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_exact_on_steering_rows(self, bits):
        dps = DiscretePhaseSet(bits)
        g = np.random.default_rng([87, bits])
        nmax = min(8, 21 // bits)  # the oracle stays below 2^21 configurations
        for t, s in enumerate(steering_steps(g, bits, 40)):
            v = steering_row(1 + t % nmax, s)
            _, obj = das_maximize(v, dps)
            ref = exhaustive_inner(v, dps)
            assert obj == pytest.approx(ref.objective, rel=1e-12, abs=0)

    def test_exact_tie_instances_pick_earliest(self):
        # every global rotation of the optimum ties with it; the sweep meets
        # the one at psi = 0 first
        for v, bits, expected in (
            (np.ones(4), 1, [0, 0, 0, 0]),
            (np.array([1, 1j, -1, -1j]), 2, [0, 1, 2, 3]),
            (np.array([-1, 1, -1]), 1, [1, 0, 1]),
        ):
            pv, obj = das_maximize(v, DiscretePhaseSet(bits))
            assert pv.indices.tolist() == expected
            assert obj == pytest.approx(float(np.sum(np.abs(v))))


class TestTopOfTheDoubleRange:
    """Inputs whose objective lies in [2^1023, 2^1024): the running sums of
    the sweep exceed the objective by up to |t1 - 1| ||c||_1, overflowed
    while every candidate was finite, and the argmax picked another one."""

    @staticmethod
    def to_the_top(x, obj):
        """x times the power of two that puts its objective `obj` in
        [2^1023, 2^1024), in two exact steps."""
        e = 1024 - math.frexp(obj)[1]
        return x * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)

    @staticmethod
    def draw(k, rows):
        g = np.random.default_rng([89, rows, k])
        n, bits = int(g.integers(2, 50)), int(g.integers(1, 4))
        return g.standard_normal((rows, n)) + 1j * g.standard_normal((rows, n)), DiscretePhaseSet(bits)

    def test_vectors_keep_their_indices(self):
        for k in range(40):
            (v,), dps = self.draw(k, 1)
            pv, obj = das_maximize(v, dps)
            top, top_obj = das_maximize(self.to_the_top(v, obj), dps)
            assert np.array_equal(top.indices, pv.indices)
            assert math.frexp(top_obj)[1] == 1024

    def test_linf_keeps_its_row_and_indices(self):
        for k in range(30):
            a, dps = self.draw(k, 4)
            idx, row, obj, _ = _linf(a, dps)
            top_idx, top_row, top_obj, _ = _linf(self.to_the_top(a, obj), dps)
            assert np.array_equal(top_idx, idx) and top_row == row
            assert math.frexp(top_obj)[1] == 1024


def _per_edge_exp_sweep(v, dps, polar=False, laps=None):
    """DaS with a per-edge exp: the increments and s0 each take exp of their
    phase products. c is conj(v), or with `polar` rebuilt from polar form as
    it was before the phasor table. The sweep runs `laps` laps of the n
    edges, all 2^B by default. Returns the candidates' objectives, one row
    per lap, and a function from a candidate's number to its indices."""
    mag = np.abs(v)
    nz = np.flatnonzero(mag > 0.0)
    c = np.conj(v[nz])
    if polar:
        c = mag[nz] * np.exp(1j * wrap_phase(np.angle(c)))
    delta, levels = dps.step, dps.levels
    laps = levels if laps is None else laps
    tau = wrap_phase(np.angle(c))
    tred = np.mod(tau, delta)
    shift = np.rint((tau - tred) / delta).astype(np.int64)
    m0 = np.where(tred <= 0.5 * delta, 0, -1)
    k0 = (m0 - shift) % levels
    order = np.argsort(tred + (m0 + 0.5) * delta, kind="stable")
    phase_before = (k0[order][None, :] + np.arange(laps)[:, None]) * delta
    d = c[order][None, :] * np.exp(1j * phase_before) * (np.exp(1j * delta) - 1.0)
    s0 = complex(np.sum(c * np.exp(1j * (k0 * delta))))
    objs = np.abs(np.concatenate(([s0], (s0 + np.cumsum(d.ravel()))[:-1])))

    def indices(j):
        laps_done, extra = divmod(j, nz.size)
        counts = np.full(nz.size, laps_done, dtype=np.int64)
        counts[order[:extra]] += 1
        full = np.zeros(v.size, dtype=np.int64)
        full[nz] = (k0 + counts) % levels
        return full

    return objs.reshape(laps, nz.size), indices


def _per_edge_exp_indices(v, dps, polar=False, laps=None):
    """Indices of the first candidate of the per-edge exp sweep whose
    objective ties with its best."""
    objs, indices = _per_edge_exp_sweep(v, dps, polar, laps)
    return indices(int(np.argmax(objs.ravel() >= objs.max() * (1.0 - TIE_TOL))))


class TestPhasorTableKernel:
    """The kernel takes its edge increments from a phasor table; its answers
    must be those of the per-edge exp, bit for bit, ties included."""

    @staticmethod
    def vectors(family, bits):
        for k in range(25):
            g = np.random.default_rng([83, bits, k])
            n = int(g.integers(1, 600))
            gauss = g.standard_normal(n) + 1j * g.standard_normal(n)
            if family == "gaussian":
                yield gauss
            elif family == "lattice":
                # small integer magnitudes at multiples of pi/8: ties everywhere
                yield g.integers(1, 4, n) * np.exp(0.125j * math.pi * g.integers(0, 16, n))
            elif family == "partly-zero":
                gauss[g.random(n) < 0.3] = 0.0
                gauss[0] = 1.0 - 1.0j
                yield gauss
            else:
                yield float(family) * gauss

    @pytest.mark.parametrize("family", ["gaussian", "lattice", "partly-zero", "1e-13", "1e12"])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_same_indices_as_per_edge_exp(self, family, bits):
        # the formula before the table, polar c included: away from the tie
        # threshold conj(v) and the polar rebuild choose alike
        dps = DiscretePhaseSet(bits)
        for v in self.vectors(family, bits):
            expected = _per_edge_exp_indices(v, dps, polar=True)
            assert np.array_equal(_das_indices(v, dps), expected)

    @pytest.mark.parametrize("n", [1000, 10000])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_same_indices_at_large_n(self, n, bits):
        # the sizes solve_linf and the lift sweep; 1e-13 is the scale of the
        # tiny copies in the l-infinity benchmark workload
        dps = DiscretePhaseSet(bits)
        g = np.random.default_rng([89, n, bits])
        gauss = g.standard_normal(n) + 1j * g.standard_normal(n)
        lattice = g.integers(1, 4, n) * np.exp(0.5j * dps.step * g.integers(0, 2 * dps.levels, n))
        partly_zero = np.where(g.random(n) < 0.3, 0.0, gauss)
        for v in (gauss, lattice, partly_zero, 1e-13 * gauss, 1e-13 * lattice):
            assert np.array_equal(_das_indices(v, dps), _per_edge_exp_indices(v, dps, laps=1))

    @staticmethod
    def turned(v, eta):
        out = v.copy()
        out[-1] *= np.exp(1j * eta)
        return out

    def tie_boundary(self, v, dps):
        """Adjacent floats eta in [0, 1e-10] on either side of which the
        reference answers differently for v with its last entry turned by
        eta, or None. Between them a candidate's objective crosses the tie
        threshold, so the answer there rests on the running sum's last bits."""
        ref = lambda eta: _per_edge_exp_indices(self.turned(v, eta), dps, laps=1)
        low = ref(0.0)
        lo, hi = np.array([0.0, 1e-10]).view(np.int64)
        if np.array_equal(ref(1e-10), low):
            return None
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if np.array_equal(ref(np.int64(mid).view(np.float64)), low):
                lo = mid
            else:
                hi = mid
        return np.array([lo, hi]).view(np.float64)

    def test_same_indices_at_the_tie_threshold(self):
        # the per-edge exp on the kernel's own c, over the kernel's one lap:
        # here an increment one ulp off changes the answer, so this pins the
        # table's bits. Which lap holds the best objective moves the tie
        # threshold by an ulp, so the all-laps sweep would flip elsewhere.
        boundaries = 0
        for k in range(40):
            g = np.random.default_rng([84, k])
            dps = DiscretePhaseSet(int(g.integers(1, 5)))
            n = int(g.integers(2, 9))
            v = g.integers(1, 3, n) * np.exp(0.5j * dps.step * g.integers(0, 2 * dps.levels, n))
            etas = self.tie_boundary(v, dps)
            if etas is None:
                continue
            boundaries += 1
            for eta in (np.nextafter(etas[0], 0), *etas, np.nextafter(etas[1], 1)):
                w = self.turned(v, eta)
                assert np.array_equal(_das_indices(w, dps),
                                      _per_edge_exp_indices(w, dps, laps=1))
        assert boundaries >= 10


class TestOneLapSweep:
    """The kernel sweeps lap 0 only: crossing a whole lap turns the coherent
    sum by delta, so every later lap repeats lap 0's objectives."""

    @pytest.mark.parametrize("family", ["gaussian", "lattice", "partly-zero", "1e-13", "1e12"])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_every_lap_scores_as_lap_zero(self, family, bits):
        dps = DiscretePhaseSet(bits)
        for v in TestPhasorTableKernel.vectors(family, bits):
            objs, _ = _per_edge_exp_sweep(v, dps)
            assert np.all(np.abs(objs - objs[0]) <= TIE_TOL * objs.max())

    @pytest.mark.parametrize("family", ["gaussian", "lattice", "partly-zero", "1e-150", "1e150"])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_objective_ties_with_the_all_laps_best(self, family, bits):
        dps = DiscretePhaseSet(bits)
        for v in TestPhasorTableKernel.vectors(family, bits):
            objs, _ = _per_edge_exp_sweep(v, dps)
            obj = abs(np.vdot(v, np.exp(1j * (_das_indices(v, dps) * dps.step))))
            assert obj >= objs.max() * (1.0 - TIE_TOL)

    def test_equal_first_edges_take_the_stable_order(self):
        # lattice-aligned phases give many elements the same first edge. With
        # magnitudes 1 and 1e-14 in one group, crossing only some of the
        # group already ties with the best, so which elements the sweep
        # crosses first decides the answer: lower index first
        for k in range(60):
            g = np.random.default_rng([85, k])
            dps = DiscretePhaseSet(int(g.integers(1, 5)))
            n = int(g.integers(8, 200))
            mags = np.where(g.random(n) < 0.5, 1.0, 1e-14)
            v = mags * np.exp(0.5j * dps.step * g.integers(0, 2 * dps.levels, n))
            assert np.array_equal(_das_indices(v, dps), _per_edge_exp_indices(v, dps))

    def test_memory_does_not_grow_with_bits(self):
        # a sweep of all n * 2^B edges peaks near 900 * 16n bytes at B = 8;
        # one lap needs about 10 * 16n. Counting bytes, not time, keeps the
        # guard deterministic.
        n = 4096
        v = sample_complex_gaussian(Rng(86), 1, n, 1.0).ravel()
        dps = DiscretePhaseSet(8)
        tracemalloc.start()
        try:
            _das_indices(v, dps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 16 * n


class TestLatticeReduction:
    """The kernel wraps angles into [0, 2*pi) and reduces them modulo delta
    without a float modulo; tau, tred and shift must be np.mod's, bit for
    bit, or the first edges and so the sweep order would move."""

    @staticmethod
    def angles(bits):
        g = np.random.default_rng([90, bits])
        dense = g.uniform(-math.pi, math.pi, 100_000)
        # every multiple of pi/2^k in [-pi, pi] and both its float neighbours:
        # there a quotient rounds up to the next integer
        k = min(bits, 12)
        grid = np.arange(-2**k, 2**k + 1) * (math.pi / 2**k)
        near = np.concatenate([grid, np.nextafter(grid, -math.inf), np.nextafter(grid, math.inf)])
        special = [-0.0, -1e-300, -5e-324, math.pi, -math.pi]
        return np.concatenate([dense, near[np.abs(near) <= math.pi], special])

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 8, 16])
    def test_same_bits_as_np_mod(self, bits):
        dps = DiscretePhaseSet(bits)
        th = self.angles(bits)
        tau_ref = wrap_phase(th)
        tred_ref = np.mod(tau_ref, dps.step)
        shift_ref = np.rint((tau_ref - tred_ref) / dps.step).astype(np.int64)
        tau = _wrap_angle(th)
        tred, shift = _lattice_split(tau, dps)
        # compared as bit patterns, so that -0.0 and +0.0 differ
        assert np.array_equal(tau.view(np.int64), tau_ref.view(np.int64))
        assert np.array_equal(tred.view(np.int64), tred_ref.view(np.int64))
        assert np.array_equal(shift, shift_ref)


class TestSweepOrder:
    """_sweep_order must be np.argsort(first, kind="stable") on every input:
    through the packed-key sort where the first edges are distinct in their
    top bits, through the stable argsort where two are not."""

    @staticmethod
    def order(first, monkeypatch):
        """(_sweep_order(first), whether it fell back to np.argsort)."""
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(k) or argsort(*a, **k))
        return _sweep_order(first), bool(calls)

    @staticmethod
    def first_edges(n, seed):
        g = np.random.default_rng([91, n, seed])
        return _das_edges(g.standard_normal(n) + 1j * g.standard_normal(n), DiscretePhaseSet(2))[1]

    @pytest.mark.parametrize("n", [1, 2, 1024, 1025])
    def test_distinct_first_edges_take_the_key_sort(self, n, monkeypatch):
        for seed in range(4):
            first = self.first_edges(n, seed)
            want = np.argsort(first, kind="stable")
            got, fell_back = self.order(first, monkeypatch)
            assert np.array_equal(got, want) and not fell_back

    @pytest.mark.parametrize("n", [2, 1024, 1025])
    def test_equal_first_edges_fall_back(self, n, monkeypatch):
        g = np.random.default_rng([92, n])
        first = g.choice([0.25, 0.5, 0.75], n)
        first[-2:] = 0.5
        want = np.argsort(first, kind="stable")
        got, fell_back = self.order(first, monkeypatch)
        assert np.array_equal(got, want) and fell_back

    @pytest.mark.parametrize("n", [2, 1024, 1025])
    def test_first_edges_apart_only_in_the_index_bits_fall_back(self, n, monkeypatch):
        # the earlier element is the larger by a few ulps, so the index bits
        # alone would put it first
        kb = max(1, (n - 1).bit_length())
        first = self.first_edges(n, 0)
        bits = first.view(np.int64)
        i, j = n // 3, n - 1
        bits[j] = bits[i] & -(1 << kb)
        bits[i] = bits[j] | ((1 << kb) - 1)
        assert first[i] > first[j]
        want = np.argsort(first, kind="stable")
        got, fell_back = self.order(first, monkeypatch)
        assert np.array_equal(got, want) and fell_back


def _bound(v, dps):
    c = np.conj(v[v != 0])
    _, first, ct = _das_edges(c, dps)
    return _das_bound(dps, np.abs(c), first, ct)


class TestDasBound:
    """_das_bound must lie above every objective the sweep could return, at
    every scale and on tie-heavy and steering vectors too."""

    @staticmethod
    def vectors(family, bits, count, nmax):
        g = np.random.default_rng([88, bits, nmax])
        for k in range(count):
            n = int(g.integers(1, nmax + 1))
            if family == "steering":
                yield steering_row(n, steering_steps(g, bits, 2)[k % 2])
                continue
            v = g.standard_normal(n) + 1j * g.standard_normal(n)
            if family == "lattice":
                v = g.integers(1, 4, n) * np.exp(0.25j * math.pi * g.integers(0, 8, n))
            elif family == "partly-zero":
                v[g.random(n) < 0.3] = 0.0
                v[0] = 1.0 - 1.0j
            yield v

    @pytest.mark.parametrize("family", ["gaussian", "lattice", "partly-zero", "steering"])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 6])
    def test_above_the_das_objective(self, family, bits):
        dps = DiscretePhaseSet(bits)
        for v in self.vectors(family, bits, 30, 3000):
            _, obj = das_maximize(v, dps)
            assert _bound(v, dps) >= obj

    @pytest.mark.parametrize("family", ["gaussian", "lattice", "partly-zero", "steering"])
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_above_the_exhaustive_optimum(self, family, bits):
        dps = DiscretePhaseSet(bits)
        for v in self.vectors(family, bits, 30, min(8, 21 // bits)):
            assert _bound(v, dps) >= exhaustive_inner(v, dps).objective

    @pytest.mark.parametrize("family", ["gaussian", "lattice", "partly-zero", "steering"])
    @pytest.mark.parametrize("k", [-20, 20])
    def test_power_of_two_scale_is_exact(self, family, k):
        for bits in (1, 2, 4):
            dps = DiscretePhaseSet(bits)
            for v in self.vectors(family, bits, 10, 500):
                assert _bound(math.ldexp(1.0, k) * v, dps) == math.ldexp(_bound(v, dps), k)

    @pytest.mark.parametrize("bits", [1, 2, 4])
    def test_is_the_bucket_formula(self, bits):
        # max over buckets b of |S_b| + |t1 - 1| W_b, spelled out with a loop
        dps = DiscretePhaseSet(bits)
        t1m1 = dps.phasors[1] - 1.0
        for v in self.vectors("gaussian", bits, 10, 300):
            c = np.conj(v)
            _, first, ct = _das_edges(c, dps)
            k = max(1, v.size // 8)
            b = np.floor(first * (k / dps.step))
            heads = [abs(ct.sum() + t1m1 * ct[b < j].sum()) + abs(t1m1) * np.abs(c[b == j]).sum()
                     for j in range(k + 1)]
            assert _bound(v, dps) == pytest.approx(max(heads), rel=1e-9)

    def test_close_to_the_objective_on_a_long_row(self):
        # the slack is about |t1 - 1| / K of the l1 norm, K = n // 8 buckets:
        # 0.5 % at B = 1 and n = 10^4, less for finer lattices
        v = sample_complex_gaussian(Rng(89), 1, 10000, 1.0).ravel()
        for bits in (1, 2, 3, 4):
            dps = DiscretePhaseSet(bits)
            _, obj = das_maximize(v, dps)
            assert _bound(v, dps) <= obj * 1.01
