import math
import tracemalloc
import warnings

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
from unimod import oracle
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


def oracle_input(kind, m, n, key):
    """Tie-heavy (small integers at multiples of pi/4) or Gaussian with one
    column 1e-9 of the rest, below single precision's resolution."""
    g = np.random.default_rng(key)
    if kind == "tied":
        return g.integers(-2, 3, size=(m, n)) * np.exp(0.25j * np.pi * g.integers(0, 8, size=(m, n)))
    a = g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))
    a[:, n // 2] *= 1e-9
    return a


def drawn_digits(rng, trials, n, bits):
    """The digits random_search draws, rebuilt from its documented rule: each
    configuration takes ceil(n w / 8) generator words, whose bytes, least
    significant first, are read as little-endian w-byte integers (w = 1 for
    B <= 8, else 2, 4 or 8); digit i is the top B bits of integer i."""
    width = next(w for w in (1, 2, 4, 8) if bits <= 8 * w)
    words = math.ceil(n * width / 8)
    raw = rng.generator.bit_generator.random_raw(trials * words)
    octets = (raw[:, None] >> (8 * np.arange(8, dtype=np.uint64))) & np.uint64(0xFF)
    octets = octets.reshape(trials, 8 * words)[:, :n * width].reshape(trials, n, width)
    ints = (octets << (8 * np.arange(width, dtype=np.uint64))).sum(axis=2, dtype=np.uint64)
    return (ints >> np.uint64(8 * width - bits)).astype(np.int64)


#: the lattice size per bit count: a few thousand configurations each
EXHAUSTIVE_N = {1: 10, 2: 6, 3: 4, 4: 3}


class TestPhaseTableEquivalence:
    """The oracles' phase table and single precision screen against scoring
    every configuration in double precision with exp(j * step * digits)."""

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
        digits = drawn_digits(Rng(616), 3000, 30, bits)
        vals = evaluate(a, digits, dps, p)
        res = random_search(a, dps, p, 3000, Rng(616))
        assert np.array_equal(res.phases.indices, digits[np.argmax(vals)])
        assert res.objective == pytest.approx(vals.max(), rel=1e-12)

    # Tie-heavy inputs have many configurations within a few ulp of each
    # other, so the winner is the reference's first hit only if the screen
    # drops no configuration that could have won.

    @pytest.mark.parametrize("kind", ["tied", "small-column"])
    @pytest.mark.parametrize("p", [1, 2, math.inf])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_exhaustive_norm_screen(self, kind, p, bits):
        n = EXHAUSTIVE_N[bits]
        a = oracle_input(kind, 3, n, [614, bits])
        dps = DiscretePhaseSet(bits)
        # lexicographic, in C order like the oracle's own batches, so that
        # both products round alike
        digits = np.indices((dps.levels,) * n).reshape(n, -1).T.copy()
        vals = evaluate(a, digits, dps, p)
        ref = exhaustive_norm(a, dps, p)
        assert np.array_equal(ref.phases.indices, digits[np.argmax(vals)])
        assert abs(ref.objective - vals.max()) <= 4 * np.spacing(vals.max())

    @pytest.mark.parametrize("kind", ["tied", "small-column"])
    @pytest.mark.parametrize("p", [1, 2, math.inf])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_random_search_screen(self, kind, p, bits):
        a = oracle_input(kind, 4, 30, [615, bits])
        dps = DiscretePhaseSet(bits)
        digits = drawn_digits(Rng(616), 3000, 30, bits)
        vals = evaluate(a, digits, dps, p)
        res = random_search(a, dps, p, 3000, Rng(616))
        assert np.array_equal(res.phases.indices, digits[np.argmax(vals)])
        assert abs(res.objective - vals.max()) <= 4 * np.spacing(vals.max())


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

    @pytest.mark.parametrize("p,n,bits", [
        *(pytest.param(p, 40, 2, id=str(p)) for p in (1, 2, math.inf)),
        # 37 digits leave bytes over at the end of every row of the draw
        *(pytest.param(2, 37, bits, id=f"n37-B{bits}") for bits in (1, 3, 9))])
    def test_batch_size_does_not_change_the_result(self, p, n, bits, monkeypatch):
        a = sample_complex_gaussian(Rng(617), 8, n, 1.0)
        dps = DiscretePhaseSet(bits)
        results = []
        for chunk in (7, 1024, 16384):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            results.append(random_search(a, dps, p, 5000, Rng(618)))
        for res in results[1:]:
            assert np.array_equal(res.phases.indices, results[0].phases.indices)
            assert res.objective == results[0].objective

    @pytest.mark.parametrize("bits,first", [
        (1, [1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0]),
        (2, [2, 3, 3, 2, 3, 3, 2, 2, 1, 2, 1, 0]),
        (3, [5, 7, 6, 4, 7, 7, 4, 5, 2, 5, 3, 0]),
        (9, [483, 291, 505, 367, 350, 48, 502, 270, 117, 223, 98, 57])])
    def test_draw_is_pinned(self, bits, first):
        # the first words of Rng(625) are 0xb793fcf991c0f1bf and
        # 0x8733fb4b1867af51, so its bytes run bf f1 c0 91 f9 fc 93 b7 51 ...;
        # at B = 9 the digits are the top 9 bits of 0xf1bf, 0x91c0, ...
        a = sample_complex_gaussian(Rng(624), 2, 12, 1.0)
        res = random_search(a, DiscretePhaseSet(bits), 2, 1, Rng(625))
        assert res.phases.indices.tolist() == first

    @pytest.mark.parametrize("bits,bound", [(1, 15.14), (2, 21.11), (3, 29.88), (4, 44.26)])
    def test_draw_is_uniform(self, bits, bound):
        # chi-square of 10^5 digits of one draw; the bounds are the 1 - 1e-4
        # quantiles at 2^B - 1 degrees of freedom
        n = 100_000
        res = random_search(np.ones((1, n)), DiscretePhaseSet(bits), 2, 1, Rng(626, bits))
        counts = np.bincount(res.phases.indices, minlength=1 << bits)
        expected = n / (1 << bits)
        assert np.sum((counts - expected) ** 2 / expected) < bound

    @pytest.mark.parametrize("n,bits,words", [(37, 1, 5), (37, 3, 5), (37, 9, 10), (200, 2, 25)])
    def test_generator_moves_by_whole_words(self, n, bits, words):
        a = sample_complex_gaussian(Rng(627), 2, n, 1.0)
        rng = Rng(628)
        random_search(a, DiscretePhaseSet(bits), 2, 2500, rng)
        after = Rng(628).generator.bit_generator.random_raw(2500 * words + 1)[-1]
        assert rng.generator.bit_generator.random_raw() == after

    def test_peak_memory(self):
        # scoring 10^4 configurations at 32 x 200 in 16384-row batches in
        # double precision peaks near 51 MB; 1024-row batches screened in
        # single precision need about 3.5 MB
        a = sample_complex_gaussian(Rng(619), 32, 200, 1.0)
        tracemalloc.start()
        try:
            random_search(a, DiscretePhaseSet(2), 2, 10_000, Rng(620))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


SCALES = (1e-170, 1e-160, 1.0, 1e160, 1e170)


class TestExtremeScales:
    """The objective scales with A and the winner does not move. Double
    precision sums of squares flush to 0 near 1e-170 and overflow near
    1e160, so the oracles score A / 2^e with max|A| in [2^(e-1), 2^e)."""

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_random_search(self, p):
        a = sample_complex_gaussian(Rng(621), 32, 200, 1.0)
        dps = DiscretePhaseSet(2)
        unit = random_search(a, dps, p, 2000, Rng(622))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in SCALES:
                res = random_search(s * a, dps, p, 2000, Rng(622))
                assert np.array_equal(res.phases.indices, unit.phases.indices)
                assert res.objective / s == pytest.approx(unit.objective, rel=1e-14)

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_exhaustive_norm(self, p):
        a = sample_complex_gaussian(Rng(623), 4, 8, 1.0)
        dps = DiscretePhaseSet(2)
        unit = exhaustive_norm(a, dps, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in SCALES:
                res = exhaustive_norm(s * a, dps, p)
                # turning every phase by one lattice step keeps the objective,
                # so rounding picks among those turns; compare the turn with
                # first digit 0
                turned = (res.phases.indices - res.phases.indices[0]) % dps.levels
                assert np.array_equal(
                    turned, (unit.phases.indices - unit.phases.indices[0]) % dps.levels)
                assert res.objective / s == pytest.approx(unit.objective, rel=1e-14)
