import math

import numpy as np
import pytest

from unimod import (
    DiscretePhaseSet,
    InvalidArgumentError,
    PhaseVector,
    Rng,
    SolveConfig,
    nearest_lattice,
    norm_lp,
    normalize_p,
    sample_complex_gaussian,
    wrap_phase,
)
from unimod.core import MAX_LATTICE_BITS, as_complex_matrix, as_complex_vector

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

    def test_2d_input_matches_flat(self):
        dps = DiscretePhaseSet(8)
        d = dps.step
        # one ulp below 17*delta the float quotient floors to 17, one high,
        # and the split recomputes that element with q - 1
        below = float(np.nextafter(17 * d, 0.0))
        assert math.floor(below / d) == 17
        # beside it in the same row, a phase past the 3.5*delta midpoint
        thetas = np.array([[below, 3.75 * d], [0.25 * d, 5.6 * d]])
        ks = nearest_lattice(thetas, dps)
        assert ks.shape == thetas.shape
        assert np.array_equal(ks, nearest_lattice(thetas.ravel(), dps).reshape(2, 2))
        assert np.array_equal(ks, [[17, 4], [0, 6]])


class TestDiscretePhaseSet:
    def test_step_times_levels_is_two_pi(self):
        for bits in range(1, 12):
            dps = DiscretePhaseSet(bits)
            assert abs(dps.step * dps.levels - TWO_PI) < 1e-12
            assert dps.levels == 2 ** bits

    def test_values_in_range(self):
        dps = DiscretePhaseSet(5)
        assert np.all(dps.values >= 0) and np.all(dps.values < TWO_PI)

    def test_phasors_are_exp_of_values(self):
        for bits in range(1, 17):
            dps = DiscretePhaseSet(bits)
            ref = np.exp(1j * dps.values)
            assert np.array_equal(dps.phasors.view(np.uint64), ref.view(np.uint64))
            # one table per B, shared by every lattice of that width
            assert DiscretePhaseSet(bits).phasors is dps.phasors

    def test_phasors_are_read_only(self):
        table = DiscretePhaseSet(3).phasors
        with pytest.raises(ValueError):
            table[0] = 0.0
        assert table[0] == 1.0

    def test_bad_bits(self):
        # the widest lattice's phasor table takes 1 MB; B = 40 would ask for
        # an 8 TiB arange, and 2^64 overflows a C long
        for bits in (0, -3, MAX_LATTICE_BITS + 1, 40, 64):
            bound = ">= 1" if bits < 1 else f"<= {MAX_LATTICE_BITS}"
            with pytest.raises(InvalidArgumentError, match=f"bits must be {bound}, got {bits}"):
                DiscretePhaseSet(bits)
        assert DiscretePhaseSet(MAX_LATTICE_BITS).levels == 2 ** 16

    def test_a_bool_is_not_a_width(self):
        # a bool is an int, so True passed as a 1-bit lattice
        with pytest.raises(InvalidArgumentError, match="bits"):
            DiscretePhaseSet(True)


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

    @pytest.mark.parametrize("indices", [[1.7, 0.0], [1.0, 0.0], [True, False]],
                             ids=["fraction", "whole float", "bool"])
    def test_indices_must_be_integers(self, indices):
        # an int64 cast read all three as [1, 0]
        dps = DiscretePhaseSet(2)
        with pytest.raises(InvalidArgumentError, match="integers"):
            PhaseVector.from_indices(indices, dps)
        with pytest.raises(InvalidArgumentError, match="integers"):
            PhaseVector(np.array([dps.step, 0.0]), np.array(indices))

    def test_indices_that_are_not_numbers_are_rejected(self):
        # the range test ran first and raised numpy's UFuncTypeError
        with pytest.raises(InvalidArgumentError, match="integers"):
            PhaseVector.from_indices(["a"], DiscretePhaseSet(2))

    @pytest.mark.parametrize("values", [np.zeros((2, 2)), np.zeros(0)], ids=["2-d", "empty"])
    def test_values_must_be_nonempty_and_1_d(self, values):
        with pytest.raises(InvalidArgumentError, match="nonempty and 1-d"):
            PhaseVector(values)

    def test_indices_must_match_the_values_in_length(self):
        dps = DiscretePhaseSet(2)
        with pytest.raises(InvalidArgumentError, match="disagree in length"):
            PhaseVector(np.array([dps.step, 0.0]), np.array([1, 0, 0]))

    def test_integer_indices_of_any_width_are_kept_as_int64(self):
        dps = DiscretePhaseSet(3)
        for dtype in (np.uint8, np.int32, np.int64):
            pv = PhaseVector.from_indices(np.array([7, 0, 3], dtype=dtype), dps)
            assert pv.indices.dtype == np.int64 and pv.indices.tolist() == [7, 0, 3]


class TestRng:
    @pytest.mark.parametrize("seed,stream", [(1.5, 0), (True, 0), (0, 2.5), (0, False)],
                             ids=["float seed", "bool seed", "float stream", "bool stream"])
    def test_seed_and_stream_must_be_integers(self, seed, stream):
        # int() truncated them: Rng(1.5) and Rng(True) both drew seed 1
        with pytest.raises(InvalidArgumentError, match="integer"):
            Rng(seed, stream)

    def test_seed_and_stream_must_be_nonnegative(self):
        for seed, stream, message in ((-1, 0, "seed must be >= 0, got -1"),
                                      (0, -1, "stream must be >= 0, got -1")):
            with pytest.raises(InvalidArgumentError, match=message):
                Rng(seed, stream)

    def test_a_numpy_integer_is_its_int(self):
        rng = Rng(np.int64(7), np.uint32(3))
        assert (type(rng.seed), type(rng.stream)) == (int, int)
        assert rng.generator.random() == Rng(7, 3).generator.random()


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
        for variance in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidArgumentError,
                               match=f"variance must be finite and positive, got {variance!r}"):
                sample_complex_gaussian(Rng(1), 2, 2, variance)

    def test_a_bad_dimension_is_named(self):
        with pytest.raises(InvalidArgumentError, match="m must be >= 1, got 0"):
            sample_complex_gaussian(Rng(1), 0, 3, 1.0)
        with pytest.raises(InvalidArgumentError, match="n must be >= 1, got -1"):
            sample_complex_gaussian(Rng(1), 2, -1, 1.0)

    @pytest.mark.parametrize("variance", [True, np.True_, "1.0"], ids=["bool", "numpy bool", "str"])
    def test_the_variance_must_be_a_real_number(self, variance):
        # True drew at variance 1, and a string raised TypeError
        with pytest.raises(InvalidArgumentError, match="variance"):
            sample_complex_gaussian(Rng(1), 2, 2, variance)

    def test_a_real_variance_of_any_type_draws_as_its_float(self):
        want = sample_complex_gaussian(Rng(3), 2, 3, 2.0)
        for variance in (2, np.int32(2), np.float32(2.0)):
            assert np.array_equal(sample_complex_gaussian(Rng(3), 2, 3, variance), want)

    @pytest.mark.parametrize("m,n", [(2.5, 3), (2, 3.0), (True, 3)])
    def test_dimensions_must_be_integers(self, m, n):
        # 2.5 raised TypeError from inside numpy, and True drew one row
        with pytest.raises(InvalidArgumentError, match="integer"):
            sample_complex_gaussian(Rng(1), m, n, 1.0)


class TestFiniteInput:
    """One finiteness rule for every array input, in any memory layout, with
    no copy of a complex128 array."""

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_every_layout_is_tested(self, bad):
        a = np.ones((5, 4), dtype=complex)
        for i, j, entry in [(0, 0, complex(bad, 1.0)), (3, 2, complex(1.0, bad)), (4, 3, complex(1.0, bad))]:
            b = a.copy()
            b[i, j] = entry
            for view in (b, b.T, b[::-1], b[:, ::-1].T):
                with pytest.raises(InvalidArgumentError, match="non-finite entry in complex matrix"):
                    as_complex_matrix(view)
            with pytest.raises(InvalidArgumentError, match="non-finite entry in complex vector"):
                as_complex_vector(b[i])
            with pytest.raises(InvalidArgumentError, match="non-finite entry in complex vector"):
                as_complex_vector(b[:, j])
        with pytest.raises(InvalidArgumentError, match="non-finite value in input"):
            PhaseVector(np.array([0.5, bad]))

    @pytest.mark.parametrize("a", [np.ones(3), np.ones((0, 3)), np.ones((3, 0)), np.ones((1, 1, 1))],
                             ids=["1-d", "no rows", "no columns", "3-d"])
    def test_a_matrix_must_be_nonempty_and_2_d(self, a):
        with pytest.raises(InvalidArgumentError, match="nonempty 2-d complex matrix"):
            as_complex_matrix(a)

    def test_returns_the_array_it_was_given(self):
        a = np.ones((5, 4), dtype=complex)
        a[1, 1] = math.nan
        for view in (a[:, ::2], a[::2].T):
            assert as_complex_matrix(view) is view
        for view in (a[0], a[1, ::2], a[:, 0]):
            assert as_complex_vector(view) is view


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

    @pytest.mark.parametrize("p,shown", [(True, "True"), (None, "None"), ([2], "[2]"),
                                         ("abc", "'abc'"), ("-inf", "-inf"), (-math.inf, "-inf"),
                                         (10 ** 400, "an int of 1329 bits")])
    def test_a_selector_that_is_not_1_2_or_inf_is_named(self, p, shown):
        # as the scalar rules: a bool is not 1, and no TypeError or
        # ValueError escapes
        message = f"norm selector must be 1, 2 or inf, got {shown}"
        for call in (lambda: normalize_p(p), lambda: norm_lp(np.array([1.0]), p),
                     lambda: SolveConfig(p=p)):
            with pytest.raises(InvalidArgumentError) as err:
                call()
            assert str(err.value) == message

    @pytest.mark.parametrize("p,value", [("2", 2.0), (" inf", math.inf), ("Infinity", math.inf),
                                         (np.int64(1), 1.0), (np.float32(2.0), 2.0),
                                         (np.float64(math.inf), math.inf)])
    def test_strings_and_numpy_scalars_are_selectors(self, p, value):
        assert normalize_p(p) == value and type(normalize_p(p)) is float

    @pytest.mark.parametrize("scale", [1e-170, 2.0**-560, 2.0**540, 1e170],
                             ids=["1e-170", "2^-560", "2^540", "1e170"])
    def test_l2_norm_where_the_squares_leave_the_range(self, scale):
        # the sum of squares underflows to 0 near 1e-170 and overflows near
        # 1e170; the norm is that of the exactly scaled copy, scaled back
        g = np.random.default_rng(25)
        for n in (1, 7, 200):
            v = g.standard_normal(n) + 1j * g.standard_normal(n)
            with np.errstate(over="ignore"):
                got = norm_lp(v * scale, 2)
            if math.frexp(scale)[0] == 0.5:   # a power of two: the same arithmetic
                assert got == scale * norm_lp(v, 2)
            else:
                assert got == pytest.approx(scale * norm_lp(v, 2), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_a_norm_beyond_the_double_range_is_rejected(self, p):
        # the l2 rescue overflowed in math.ldexp; l1 and l-infinity gave inf
        with pytest.raises(InvalidArgumentError, match="double range"):
            norm_lp(np.array([1.5e308 + 1.5e308j, 1.5e308]), p)
        assert norm_lp(np.array([0.6e308, 0.6e308]), 1) == 1.2e308

    @pytest.mark.parametrize("p,q", [(1, math.inf), (2, 2), (math.inf, 1)])
    def test_dual_norm_inequality(self, p, q):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            z = z / norm_lp(z, q)
            assert abs(np.vdot(z, x)) <= norm_lp(x, p) + 1e-9
