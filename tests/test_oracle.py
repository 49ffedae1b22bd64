import math
import tracemalloc
import warnings

import numpy as np
import pytest

from unimod import (
    DiscretePhaseSet,
    InvalidArgumentError,
    Rng,
    SizeLimitError,
    das_maximize,
    default_pipeline,
    norm_lp,
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
        assert res.evaluated == 1

    def test_compensating_pair(self):
        res = exhaustive_inner(np.array([1.0, -1.0]), DiscretePhaseSet(1))
        assert res.objective == pytest.approx(2.0)
        assert res.phases.values == pytest.approx([0.0, math.pi])
        assert res.evaluated == 2

    def test_counts_all_configurations(self):
        # one configuration per rotation class: digit 0 is 0, the other two
        # take all 4 levels
        res = exhaustive_inner(np.array([1.0, 1j, -1.0]), DiscretePhaseSet(2))
        assert res.evaluated == 4 ** 2

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

    @pytest.mark.parametrize("p", [1, 2])
    def test_reports_the_pipeline_cost_of_the_same_phases(self, p):
        # one rule for both: where the pipeline finds the oracle's optimum,
        # its cost and the oracle's objective agree bit for bit
        dps = DiscretePhaseSet(2)
        shared = 0
        for t in range(60):
            a = sample_complex_gaussian(Rng(77, t), 3, 8, 1.0)
            res, ref = default_pipeline(a, dps, p), exhaustive_norm(a, dps, p)
            if np.array_equal(res.trace.phases.indices, ref.phases.indices):
                assert res.final_cost == ref.objective
                shared += 1
        assert shared >= 10

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

    @pytest.mark.parametrize("p,n,bits,kind", [
        # the last byte code of a configuration holds 1 and 7 padding digits
        pytest.param(2, 5, 3, "gaussian", id="n5-B3"),
        pytest.param(2, 9, 1, "gaussian", id="n9-B1"),
        *(pytest.param(p, 10, 1, "equal-columns", id=f"equal-columns-{p}")
          for p in (1, 2, math.inf))])
    def test_batch_size_does_not_change_the_result(self, p, n, bits, kind, monkeypatch):
        dps = DiscretePhaseSet(bits)
        if kind == "gaussian":
            a = sample_complex_gaussian(Rng(631), 8, n, 1.0)
        else:
            # |#0 - #1| times a fixed norm, exactly: every digit 0 wins
            a = np.repeat(np.random.default_rng(632).integers(1, 5, (8, 1)) * 1.0, n, axis=1)
        digits = np.indices((dps.levels,) * n).reshape(n, -1).T.copy()
        scanned = dps.levels ** (n - 1)  # the rows with digit 0 at 0
        first = digits[np.argmax(evaluate(a, digits[:scanned], dps, p))]
        results = []
        # no byte budget: every batch has exactly _CHUNK rows
        monkeypatch.setattr(oracle, "_BUDGET", 0)
        for chunk in (7, oracle._CHUNK, 1024, 16384):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            results.append(exhaustive_norm(a, dps, p))
        for res in results:
            assert np.array_equal(res.phases.indices, first)
            assert res.objective == results[0].objective
        if kind == "equal-columns":
            assert not first.any()

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
    """The digits random_search draws, rebuilt from its documented rule. The
    bytes of the generator words are read least significant first. For
    B <= 8 a configuration takes W = ceil(ceil(n / d) / 8) words and digit i
    is (byte[i // d] >> (8 - B (i % d + 1))) & (2^B - 1), d = floor(8 / B);
    else it takes ceil(n w / 8) words, read as little-endian w-byte integers
    (w = 2), and digit i is the top B bits of integer i."""
    if bits <= 8:
        per_byte = 8 // bits
        used = math.ceil(n / per_byte)
        words = math.ceil(used / 8)
    else:
        width = 2
        words = math.ceil(n * width / 8)
    raw = rng.generator.bit_generator.random_raw(trials * words)
    octets = (raw[:, None] >> (8 * np.arange(8, dtype=np.uint64))) & np.uint64(0xFF)
    octets = octets.reshape(trials, 8 * words)
    if bits <= 8:
        i = np.arange(n)
        shifts = (8 - bits * (i % per_byte + 1)).astype(np.uint64)
        digits = (octets[:, i // per_byte] >> shifts) & np.uint64((1 << bits) - 1)
        return digits.astype(np.int64)
    octets = octets[:, :n * width].reshape(trials, n, width)
    ints = (octets << (8 * np.arange(width, dtype=np.uint64))).sum(axis=2, dtype=np.uint64)
    return (ints >> np.uint64(8 * width - bits)).astype(np.int64)


#: the lattice size per bit count, 2^10 to 2^18 configurations; at B = 5 a
#: byte code holds one digit, at B = 9 a code is one digit
EXHAUSTIVE_N = {1: 10, 2: 6, 3: 4, 4: 3, 5: 3, 9: 2}


class TestPhaseTableEquivalence:
    """The oracles' phase table and single precision screen against scoring
    every configuration in double precision with exp(j * step * digits).
    The exhaustive search scans the configurations with digit 0 at 0, one
    per rotation class, which are the first 2^((n-1)B) lexicographic rows:
    its indices are their first argmax, and its objective is the maximum
    over the whole space."""

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    @pytest.mark.parametrize("bits", [1, 2])
    def test_exhaustive_norm(self, p, bits):
        a = sample_complex_gaussian(Rng(614, bits), 3, 6, 1.0)
        dps = DiscretePhaseSet(bits)
        digits = np.indices((dps.levels,) * 6).reshape(6, -1).T  # lexicographic
        vals = evaluate(a, digits, dps, p)
        scanned = dps.levels ** 5  # the rows with digit 0 at 0
        ref = exhaustive_norm(a, dps, p)
        assert np.array_equal(ref.phases.indices, digits[np.argmax(vals[:scanned])])
        assert ref.objective == pytest.approx(vals.max(), rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 9, 16])
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
    @pytest.mark.parametrize("bits", list(EXHAUSTIVE_N))
    def test_exhaustive_norm_screen(self, kind, p, bits):
        n = EXHAUSTIVE_N[bits]
        a = oracle_input(kind, 3, n, [614, bits])
        dps = DiscretePhaseSet(bits)
        # lexicographic, in C order like the oracle's own batches, so that
        # both products round alike
        digits = np.indices((dps.levels,) * n).reshape(n, -1).T.copy()
        vals = evaluate(a, digits, dps, p)
        scanned = dps.levels ** (n - 1)  # the rows with digit 0 at 0
        ref = exhaustive_norm(a, dps, p)
        assert np.array_equal(ref.phases.indices, digits[np.argmax(vals[:scanned])])
        assert abs(ref.objective - vals.max()) <= 4 * np.spacing(vals.max())

    @pytest.mark.parametrize("kind", ["tied", "small-column"])
    @pytest.mark.parametrize("p", [1, 2, math.inf])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 9, 16])
    def test_random_search_screen(self, kind, p, bits):
        a = oracle_input(kind, 4, 30, [615, bits])
        dps = DiscretePhaseSet(bits)
        digits = drawn_digits(Rng(616), 3000, 30, bits)
        vals = evaluate(a, digits, dps, p)
        res = random_search(a, dps, p, 3000, Rng(616))
        assert np.array_equal(res.phases.indices, digits[np.argmax(vals)])
        assert abs(res.objective - vals.max()) <= 4 * np.spacing(vals.max())


class TestRandomSearch:
    @pytest.mark.parametrize("trials", [2.5, True, 0], ids=["fraction", "bool", "zero"])
    def test_the_draw_count_must_be_a_positive_integer(self, trials):
        # 2.5 raised TypeError from inside the scan, and True drew once
        a = sample_complex_gaussian(Rng(606), 3, 8, 1.0)
        with pytest.raises(InvalidArgumentError, match="trials"):
            random_search(a, DiscretePhaseSet(2), 2, trials, Rng(607))

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

    @pytest.mark.parametrize("p,n,bits,kind", [
        *(pytest.param(p, 40, 2, "gaussian", id=str(p)) for p in (1, 2, math.inf)),
        # 37 digits leave bytes over at the end of every row of the draw
        *(pytest.param(2, 37, bits, "gaussian", id=f"n37-B{bits}") for bits in (1, 3, 9)),
        # the width of the snr-cdf problems, whose last default batch is short
        pytest.param(2, 200, 2, "gaussian", id="n200-default-chunk"),
        *(pytest.param(p, 10, 1, "equal-columns", id=f"equal-columns-{p}")
          for p in (1, 2, math.inf))])
    def test_batch_size_does_not_change_the_result(self, p, n, bits, kind, monkeypatch):
        dps = DiscretePhaseSet(bits)
        if kind == "gaussian":
            a = sample_complex_gaussian(Rng(617), 8, n, 1.0)
        else:
            # equal real columns of small integers: a configuration scores
            # |#0 - #1| times a fixed norm, exactly, so all digits 0 and all
            # digits 1 tie for the best
            a = np.repeat(np.random.default_rng(632).integers(1, 5, (8, 1)) * 1.0, n, axis=1)
        default = oracle._CHUNK
        # no byte budget: every batch has exactly _CHUNK rows
        monkeypatch.setattr(oracle, "_BUDGET", 0)
        results = []
        for chunk in (7, default, 1024, 16384):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            results.append(random_search(a, dps, p, 5000, Rng(618)))
        for res in results[1:]:
            assert np.array_equal(res.phases.indices, results[0].phases.indices)
            assert res.objective == results[0].objective
        if kind == "equal-columns":
            digits = drawn_digits(Rng(618), 5000, n, bits)
            score = np.abs(n - 2 * digits.sum(axis=1))
            hits = np.flatnonzero(score == score.max())
            for chunk in (7, default):
                # the tied draws fall in different batches
                assert np.unique(hits // chunk).size > 1
            assert np.array_equal(results[0].phases.indices, digits[hits[0]])

    @pytest.mark.parametrize("bits,first", [
        (1, [1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
        (2, [2, 3, 3, 3, 3, 3, 0, 1, 3, 0, 0, 0]),
        (3, [5, 7, 7, 4, 6, 0, 4, 4, 7, 6, 7, 7]),
        (9, [483, 291, 505, 367, 350, 48, 502, 270, 117, 223, 98, 57]),
        # one digit per byte, as the top B bits
        (5, [23, 30, 24, 18, 31, 31, 18, 22, 10, 21, 12, 3])])
    def test_draw_is_pinned(self, bits, first):
        # the first words of Rng(625) are 0xb793fcf991c0f1bf and
        # 0x8733fb4b1867af51, so its bytes run bf f1 c0 91 f9 fc 93 b7 51 ...;
        # for B <= 8 each byte packs floor(8 / B) digits, top bits first
        # (0xbf = 10 11 11 11 gives 2, 3, 3, 3 at B = 2); at B = 9 the digits
        # are the top 9 bits of 0xf1bf, 0x91c0, ...
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

    def test_digits_of_a_byte_are_jointly_uniform(self):
        # chi-square of the 256 values of the four B = 2 digits that share
        # a byte, over 10^5 bytes of one draw; 347.65 is the 1 - 1e-4
        # quantile at 255 degrees of freedom
        n = 100_000
        res = random_search(np.ones((1, 4 * n)), DiscretePhaseSet(2), 2, 1, Rng(629))
        cells = res.phases.indices.reshape(n, 4) @ np.array([64, 16, 4, 1])
        counts = np.bincount(cells, minlength=256)
        expected = n / 256
        assert np.sum((counts - expected) ** 2 / expected) < 347.65

    @pytest.mark.parametrize("n,bits,words", [(37, 1, 1), (37, 3, 3), (37, 9, 10), (200, 2, 7)])
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

    def test_peak_memory_of_the_workspace(self):
        # one reused workspace of 512-row batches, with a generator byte of
        # four digits per code, peaks near 1.3 MB; with an intp digit per
        # code it peaked near 1.95 MB, and a fresh set of arrays per
        # 1024-row batch near 3.5 MB
        a = sample_complex_gaussian(Rng(619), 32, 200, 1.0)
        tracemalloc.start()
        try:
            random_search(a, DiscretePhaseSet(2), 2, 10_000, Rng(620))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 2 ** 20

    def test_peak_memory_at_the_widest_lattice(self):
        # 100 draws at B = 16 peak near 0.62 MB once a call has built the
        # lattice's cached tables (2.7 MB in the call that builds them); the
        # bound rules out rebuilding the 1 MB phasor table on every call
        a = sample_complex_gaussian(Rng(641, 200), 32, 200, 1.0)
        random_search(a, DiscretePhaseSet(16), 2, 100, Rng(642))
        tracemalloc.start()
        try:
            random_search(a, DiscretePhaseSet(16), 2, 100, Rng(642))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def test_exhaustive_inner_peak_memory():
    # the scan's workspace of 3276-row batches of byte codes, 2^18 bytes,
    # peaks near 0.51 MB at n = 8, B = 3 (0.52 MB when the call builds the
    # B = 3 code tables; 512-row batches peaked near 0.095 MB); the bound
    # rules out any array sized by the 2^21 configurations scanned (one
    # complex128 value each is 32 MB)
    v = sample_complex_gaussian(Rng(630), 1, 8, 1.0).ravel()
    tracemalloc.start()
    try:
        exhaustive_inner(v, DiscretePhaseSet(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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
        # every phase turned by one lattice step keeps the objective, so the
        # optimum comes in 2^B exact ties; the search scans only the turn
        # with digit 0 at 0, so rounding noise cannot pick among them
        dps = DiscretePhaseSet(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(623, 633):
                a = sample_complex_gaussian(Rng(seed), 4, 8, 1.0)
                unit = exhaustive_norm(a, dps, p)
                assert unit.phases.indices[0] == 0
                for s in SCALES:
                    res = exhaustive_norm(s * a, dps, p)
                    assert np.array_equal(res.phases.indices, unit.phases.indices)
                    assert res.objective / s == pytest.approx(unit.objective, rel=1e-14)


def test_every_search_objective_is_norm_lp_of_its_phases():
    # one rule for every objective: a search reports norm_lp(A x, p) of its
    # winner bit for bit, as the pipeline reports its costs, at every scale
    # and on tie-heavy inputs, and with no numpy warning
    def draw(kind, m, n, seed):
        if kind == "tied":
            return oracle_input("tied", m, n, [seed])
        return sample_complex_gaussian(Rng(seed), m, n, 1.0)

    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("gaussian", "tied"):
            for s in (1.0, 1e170, 1e-170):
                a, b = s * draw(kind, 4, 8, 640), s * draw(kind, 8, 40, 641)
                runs = [(a[:1].conj(), 2, exhaustive_inner(a[0], DiscretePhaseSet(2)))]
                for p in (1, 2, math.inf):
                    runs.append((a, p, exhaustive_norm(a, DiscretePhaseSet(2), p)))
                    for bits in (2, 9):  # byte codes and uint16 codes
                        runs.append((b, p, random_search(b, DiscretePhaseSet(bits), p, 500,
                                                         Rng(642))))
                for matrix, p, res in runs:
                    assert res.objective == norm_lp(matrix @ res.phases.phasors(), p), (kind, s, p)
                    checked += 1
    assert checked == 60


def test_every_solver_objective_is_norm_lp_of_its_phases():
    # the exact solvers choose and norm_lp's kernel scores: das_maximize
    # reports norm_lp(v^H x, 2) and solve_linf norm_lp(A x, inf) of their
    # phases bit for bit, so wherever a solver and its oracle return the
    # same phases they report the same objective
    def draw(kind, m, n, g):
        if kind == "tied":
            return g.integers(1, 3, (m, n)) * np.exp(0.25j * np.pi * g.integers(0, 8, (m, n)))
        if kind == "steering":
            return np.exp(1j * np.pi * np.outer(g.uniform(-2.0, 2.0, m), np.arange(n)))
        return g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))

    agreed = {"inner": 0, "inf": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("gaussian", "tied", "steering"):
            for s in (1.0, 1e170, 1e-170):
                for t in range(8):
                    g = np.random.default_rng([643, t, *kind.encode()])
                    dps = DiscretePhaseSet(1 + t % 3)
                    a, b = s * draw(kind, 4, 6, g), s * draw(kind, 8, 300, g)
                    for m in (a, b):
                        inner, linf = das_maximize(m[0], dps), solve_linf(m, dps)
                        assert inner[1] == norm_lp(np.conj(m[0])[None] @ inner[0].phasors(), 2)
                        assert linf[2] == norm_lp(m @ linf[0].phasors(), math.inf)
                        if m is b:  # too large for the oracles
                            continue
                        for key, res, ref in (("inner", inner, exhaustive_inner(m[0], dps)),
                                              ("inf", linf, exhaustive_norm(m, dps, math.inf))):
                            if np.array_equal(res[0].indices, ref.phases.indices):
                                assert res[-1] == ref.objective, (kind, s, t)
                                agreed[key] += 1
    assert min(agreed.values()) >= 30
