"""Ground-truth references: exhaustive and random search over the lattice.

The exhaustive searches enumerate every one of the 2^(nB) configurations
(guarded to keep runs desk-scale) and exist so the clever solvers have
something unarguable to be checked against; random search is the best of K
uniform lattice draws, the baseline of the SNR studies. Ties resolve to the
first hit: in lexicographic index order, most significant digit first, for
the exhaustive searches and in draw order for random search, so expected
values in tests are unique. Configurations are evaluated by indexing a
table of the 2^B lattice phasors, never by calling exp per entry.

Random search draws each configuration from whole 64-bit words of the Rng's
Philox generator (`bit_generator.random_raw`): ceil(n w / 8) words per
configuration, read as little-endian unsigned integers of w bytes, with
w = 1 for B <= 8 and 2, 4 or 8 for wider lattices. Digit i is the top B bits
of integer i, and the bytes left over at the end of a configuration are
dropped. Every bit of Philox output is uniform, so the digits are uniform
on the lattice; one byte per digit takes a quarter of the words a bounded
integer draw does, and the draw of a configuration does not depend on the
batch it falls in. The rule replaced a `Generator.integers(0, 2^B)` draw:
random-baseline numbers from trees with that draw agree in distribution,
not draw for draw.

Both searches share one scan. It divides A by a power of two near max|A|,
which is exact, so the arithmetic is the same at every scale of A and no
sum of squares overflows or flushes to zero near 1e170 or 1e-170. Each
batch of configurations is then screened in single precision, and only the
configurations whose screen score is within a worst-case rounding bound of
the batch's best are scored again in double precision. The bound (standard
summation error analysis, derived in `_scan`) makes every dropped
configuration score strictly below a kept one in double precision, so the
winner, its objective and the first-hit rule are those of scoring every
configuration in double precision; the screen only changes the cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DiscretePhaseSet, PhaseVector, Rng, as_complex_matrix, as_complex_vector,
                   normalize_p, row_norms)
from .errors import InvalidArgumentError, SizeLimitError

#: refuse exhaustive enumerations beyond 2^24 configurations
MAX_EXHAUSTIVE_BITS = 24

#: configurations per batch: the batch's phasors and products stay in cache
_CHUNK = 1 << 10

#: unit roundoff of float32
_U32 = 2.0 ** -24


@dataclass(frozen=True)
class OracleResult:
    phases: PhaseVector
    objective: float
    evaluated: int


def _guard(n: int, dps: DiscretePhaseSet) -> int:
    total_bits = n * dps.bits
    if total_bits > MAX_EXHAUSTIVE_BITS:
        raise SizeLimitError(
            f"exhaustive search over 2^{total_bits} configurations exceeds the "
            f"2^{MAX_EXHAUSTIVE_BITS} guard")
    return 1 << total_bits


def _decode(flat: np.ndarray, n: int, bits: int) -> np.ndarray:
    """Lattice digits of flat indices, most significant digit first."""
    return (flat[:, None] >> (bits * np.arange(n - 1, -1, -1))) & ((1 << bits) - 1)


def exhaustive_inner(v, dps: DiscretePhaseSet) -> OracleResult:
    """Maximum of |<v, exp(j*Omega)>| by enumerating all of Delta^n."""
    v = as_complex_vector(v)
    total = _guard(v.size, dps)
    phase_table = np.exp(1j * dps.values)

    # grow the sum one element at a time; axis order keeps element 0 the
    # most significant digit of the flat index
    sums = np.zeros(1, dtype=np.complex128)
    for coeff in np.conj(v):
        sums = (sums[:, None] + coeff * phase_table[None, :]).ravel()
    best_flat = int(np.argmax(np.abs(sums)))
    objective = float(np.abs(sums[best_flat]))

    idx = _decode(np.array([best_flat]), v.size, dps.bits)[0]
    return OracleResult(PhaseVector.from_indices(idx, dps), objective, total)


def _scan(a: np.ndarray, dps: DiscretePhaseSet, p: float, batches) -> tuple[np.ndarray, float]:
    """Best configuration and objective ||A exp(j*Omega)||_p over `batches`
    of lattice index rows; the first hit wins ties.

    Each batch is screened in single precision and only the configurations
    that can still win are scored in double precision. The result is that of
    scoring every configuration in double precision.

    Scale. A is divided by s = 2^e with max|a| in [s/2, s), so |a/s| < 1
    (< 2 if max|a| >= 2^1023). Multiplying by 2^-e is exact, float32 neither
    overflows nor flushes the large entries to zero, and the objective is s
    times that of a/s, with the same roundings.

    Bound. Fix a configuration with exact unit phasors x. Let y = (a/s) x,
    V = ||y||_p, F its double precision score, y' the single precision
    product of the rounded phasors and the rounded a/s, and w = fl(||y'||_p)
    its single precision score. With u = 2^-24, rounding the inputs costs
    2u |a_mi| / s per term, a complex product sqrt(2) gamma_2 and a complex
    sum of n terms sqrt(2) gamma_(n-1) times the sum of the moduli, in any
    order and with or without fused multiply-adds (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sections 3.1 and 3.6;
    gamma_k = k u / (1 - k u)). For n below 2^20 that gives
        |y'_m - y_m| <= 2 (n + 4) u sum_i |a_mi| / s.
    The same analysis in double precision, the norm included, bounds
    |F - V| by a 2^-28 share of that. Entries, products, partial sums and
    squares below the float32 range may be flushed to zero; 2^-61 per row
    covers that for n below 2^60. With
        c_m = 4 (n + 4) u sum_i |a_mi| / s + 2^-60,   E = ||c||_p,
    each of |(||y'||_p) - V| and |F - V| is at most E / 2, since lp norms
    are monotone, so |(||y'||_p) - F| <= E. The float32 norm itself is off
    by at most rho0 = 2 (m + 2) u relative: up to m + 2 roundings of
    nonnegative terms for p in {1, 2}, one for p = inf.

    Why it is exact. Let w* be the batch's largest screen score, F* the
    double precision score of its configuration and rho = 2 rho0. A
    configuration is dropped only if w < (1 - rho) w* - 2E. Then
        (1 - rho0)(F - E) <= w < (1 - rho)(1 + rho0)(F* + E) - 2E
                               <= (1 - rho0)(F* + E) - 2E,
    so F < F* + 2E - 2E / (1 - rho0) <= F*: every dropped configuration
    scores strictly below a kept one, and the kept ones, scored in double
    precision in their batch order, give the same first hit.

    The kept configurations of a batch are scored by one matrix product,
    the same per row as when every configuration is, so a score does not
    depend on the batch around it. numpy hands a one-row product to a
    matrix-vector kernel that rounds differently, so a lone survivor is
    scored as two equal rows.
    """
    m, n = a.shape
    # clamped so that 2^e and 2^-e are both doubles
    e = min(max(int(np.frexp(np.max(np.abs(a)))[1]), -1023), 1023)
    at = (a * math.ldexp(1.0, -e)).T.copy()
    at32 = at.astype(np.complex64)
    phase_table = np.exp(1j * dps.values)
    table32 = phase_table.astype(np.complex64)
    c = 4 * (n + 4) * _U32 * np.abs(at).sum(axis=0) + 2.0 ** -60
    big_e = float(np.linalg.norm(c, p))
    rho = 4 * (m + 2) * _U32
    best_val = -1.0
    best_idx: np.ndarray | None = None
    for digits in batches:
        w = row_norms(table32[digits] @ at32, p)
        # compared in float64: a float32 threshold could round up past the bound
        kept = digits[w >= np.float64((1.0 - rho) * float(w.max()) - 2.0 * big_e)]
        x = phase_table[kept if kept.shape[0] > 1 else np.repeat(kept, 2, axis=0)]
        vals = row_norms(x @ at, p)
        local = int(np.argmax(vals))
        if vals[local] > best_val:
            best_val = float(vals[local])
            best_idx = kept[local].copy()
    assert best_idx is not None
    return best_idx, best_val * math.ldexp(1.0, e)


def exhaustive_norm(a, dps: DiscretePhaseSet, p) -> OracleResult:
    """Maximum of ||A exp(j*Omega)||_p by enumerating all of Delta^n."""
    a = as_complex_matrix(a)
    p = normalize_p(p)
    n = a.shape[1]
    total = _guard(n, dps)
    batches = (_decode(np.arange(start, min(start + _CHUNK, total), dtype=np.int64),
                       n, dps.bits)
               for start in range(0, total, _CHUNK))
    idx, best = _scan(a, dps, p, batches)
    return OracleResult(PhaseVector.from_indices(idx, dps), best, total)


def _random_digits(random_raw, rows: int, n: int, bits: int) -> np.ndarray:
    """`rows` configurations of n lattice digits, ceil(n w / 8) generator
    words each: digit i is the top B bits of the row's i-th little-endian
    w-byte integer, and the bytes left over at the end of a row are dropped.

    The digits are allocated before the words, which are freed on return.
    Drawing the words first read about 0.2 MB (0.4 %) higher peak RSS on the
    snr-cdf benchmark (2-CPU x86-64 VM); in this order it reads as a direct
    integer draw does."""
    width = 1 << max(0, (bits - 1).bit_length() - 3)  # 1 for B <= 8, else 2, 4 or 8
    digits = np.empty((rows, n), dtype=np.intp)
    u = random_raw(rows * -(-n * width // 8)).astype("<u8", copy=False).view(f"<u{width}")
    u >>= 8 * width - bits
    digits[...] = u.reshape(rows, -1)[:, :n]
    return digits


def random_search(a, dps: DiscretePhaseSet, p, trials: int, rng: Rng) -> OracleResult:
    """Best objective among `trials` uniform random lattice configurations.

    Configuration k takes its digits from generator words k*W .. (k+1)*W - 1,
    W = ceil(n w / 8): the top B bits of successive little-endian w-byte
    integers, w = 1 for B <= 8 and else 2, 4 or 8 (see the module docstring).
    The generator advances by exactly trials * W words. Trees that drew the
    digits with `Generator.integers` give other draws from the same
    distribution.
    """
    a = as_complex_matrix(a)
    p = normalize_p(p)
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    raw = rng.generator.bit_generator.random_raw
    batches = (_random_digits(raw, min(trials - done, _CHUNK), a.shape[1], dps.bits)
               for done in range(0, trials, _CHUNK))
    idx, best = _scan(a, dps, p, batches)
    return OracleResult(PhaseVector.from_indices(idx, dps), best, trials)
