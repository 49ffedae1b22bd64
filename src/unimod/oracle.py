"""Ground-truth references: exhaustive and random search over the lattice.

The exhaustive search exists so the clever solvers have something
unarguable to be checked against; random search is the best of K uniform
lattice draws, the baseline of the SNR studies. Turning every phase by one
lattice step keeps every objective here (||A e^{j k delta} x||_p = ||A x||_p),
so the configurations fall into rotation classes of 2^B equally good ones,
each with exactly one member whose digit 0 is 0. The exhaustive search
scans that member of every class: the 2^((n-1)B) configurations with digit
0 at 0, guarded at n B <= 24 to keep runs desk-scale. The inner product
|<v, x>| is the one-row case A = v^H of the same scan. Ties resolve to the
first hit: in lexicographic index order, most significant digit first,
among the configurations with digit 0 at 0 for the exhaustive search, and
in draw order for random search, so expected values in tests are unique.
The lexicographically first optimum of the whole space has digit 0 at 0,
so in exact arithmetic the exhaustive search returns what a scan of all
2^(nB) would; unlike such a scan, it never lets rounding pick among the
2^B exactly tied rotations of its optimum, so those ties cannot move the
answer with the scale of A.

Both searches hand a configuration to the scan as nc = ceil(n / d) codes.
For B <= 8 a code is a byte that packs d = floor(8 / B) digits, top bits
first: digit i is (code[i // d] >> (8 - B (i % d + 1))) & (2^B - 1). For
wider lattices d = 1 and a code is one digit. Only the first n digits
count. The exhaustive search codes the digits of its flat index, with the
digits past n at 0. Random search reads each configuration from whole
64-bit words of the Rng's Philox generator (`bit_generator.random_raw`) as
little-endian integers of w bytes, w = 1 for B <= 8 and 2 for wider
lattices: a configuration takes W = ceil(nc w / 8) words, its code i is
integer i, or the top B bits of it when B > 8, and the integers left over
at its end are dropped. Every bit of Philox output is uniform and
independent of the others, so the digits are uniform and independent on
the lattice, and the draw of a configuration does not depend on the batch
it falls in.

Both searches share one scan. It divides A by a power of two near max|A|,
which is exact, so the arithmetic is the same at every scale of A and no
sum of squares overflows or flushes to zero near 1e170 or 1e-170 (the
scale rule of `core._pow2_scale`). It works in one workspace per call,
sized by bytes (at most 2^18, unless 512 rows need more) and reused for
every batch of configurations: their codes, phasors and products are
written in place, not allocated per batch. A code's phasors and digits come from one row of
the tables of all codes (`_code_tables`), built once per B, never from exp
per entry or a cast of the 2^B phasor table per call. Each batch is
screened in single precision, and only the configurations whose screen
score is within a worst-case rounding bound of the best screen score so
far are scored again in double precision; a batch with none is not scored
again. The bound (standard summation error analysis, derived in `_scan`)
makes every dropped configuration score strictly below a kept one in
double precision, so the winner and the first-hit rule are those of
scoring every configuration in double precision; the screen only changes
the cost.

The scan only chooses the winner. The objective a search reports is
`norm_lp`'s kernel (`core._norm`) on A x for the winner's phasors x, the
rule of every pipeline cost, so a search and a solver that return the same
phases report the same objective bit for bit. An optimum past 2^1024 is
InvalidArgumentError, as it is for `norm_lp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .core import (DiscretePhaseSet, PhaseVector, Rng, _as_int, _norm, _pow2_scale,
                   as_complex_matrix, as_complex_vector, normalize_p, row_norms)
from .errors import SizeLimitError

#: refuse exhaustive enumerations beyond 2^24 configurations
MAX_EXHAUSTIVE_BITS = 24

#: configurations per batch at the least (see `_scan`)
_CHUNK = 1 << 9

#: bytes of the scan's workspace, which takes more than _CHUNK rows where they fit
_BUDGET = 1 << 18

#: unit roundoff of float32
_U32 = 2.0 ** -24


@dataclass(frozen=True)
class OracleResult:
    """The best configuration a search found and its objective.
    `evaluated` counts the configurations the search scored: 2^((n-1)B),
    one rotation class each, for the exhaustive search and `trials` for
    random search."""

    phases: PhaseVector
    objective: float
    evaluated: int


def _guard(n: int, dps: DiscretePhaseSet) -> int:
    """The 2^((n-1)B) configurations with digit 0 at 0, one per rotation
    class; raises if the whole space of 2^(nB) exceeds the guard."""
    total_bits = n * dps.bits
    if total_bits > MAX_EXHAUSTIVE_BITS:
        raise SizeLimitError(
            f"exhaustive search over 2^{total_bits} configurations exceeds the "
            f"2^{MAX_EXHAUSTIVE_BITS} guard")
    return 1 << (total_bits - dps.bits)


def _flat_codes(start: int, out: np.ndarray, bits: int, n: int) -> None:
    """Codes of the flat indices start, start + 1, ... written into the rows
    of `out`, most significant digit first: digit i of flat index f is
    (f >> (B (n - 1 - i))) & (2^B - 1), so every flat index below
    2^((n-1)B) has digit 0 at 0 and counts through its other digits in
    lexicographic order. The digits past n that pad the last code are 0."""
    rows, nc = out.shape
    d = 8 // bits if bits <= 8 else 1
    span = bits * d
    lead = max(8 - span, 0)
    # shifted past the padding digits and a byte's spare low bits, f holds
    # code j in the B d bits that start B d (nc - 1 - j) bits above lead
    up = bits * (nc * d - n) + lead
    flat = np.arange(start << up, (start + rows) << up, 1 << up, dtype=np.intp)
    np.bitwise_and(flat[:, None] >> np.arange(span * (nc - 1), -1, -span),
                   ((1 << span) - 1) << lead, out=out, casting="unsafe")


def exhaustive_inner(v, dps: DiscretePhaseSet) -> OracleResult:
    """Maximum of |<v, exp(j*Omega)>| over Delta^n: `exhaustive_norm` of
    the one-row A = v^H at p = 2, with its rotation class scan, tie rule and
    `evaluated` count."""
    return exhaustive_norm(np.conj(as_complex_vector(v))[None, :], dps, 2)


@cache
def _code_tables(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(digits, phasors) of every code of a B-bit lattice, built once per B
    and read-only. A code has w = max(8, B) bits and packs d = floor(w / B)
    digits, top bits first: row c of the intp `digits` holds those of code c
    and row c of `phasors` their complex64 phasors (0.5 MB at B = 16)."""
    w = max(8, bits)
    shifts = w - bits * np.arange(1, w // bits + 1)
    digits = (np.arange(1 << w)[:, None] >> shifts) & ((1 << bits) - 1)
    phasors = DiscretePhaseSet(bits).phasors.astype(np.complex64)[digits]
    digits.flags.writeable = phasors.flags.writeable = False
    return digits, phasors


def _scan(a: np.ndarray, dps: DiscretePhaseSet, p: float, total: int,
          fill) -> np.ndarray:
    """Lattice indices of the configuration that maximizes
    ||A exp(j*Omega)||_p over `total` configurations; the first hit wins
    ties. `fill(start, out)` writes the codes of configurations start,
    start + 1, ... into the rows of `out`, nc = ceil(n / d) columns of the
    smallest unsigned integer type that holds every code (uint8 for B <= 8,
    uint16 above), of which the first n digits count (see the module
    docstring).

    Each batch is screened in single precision and only the configurations
    that can still win are scored in double precision. The winner is that
    of scoring every configuration in double precision. Those scores only
    choose it: the scan returns no objective, and the searches score the
    winner by the one rule of every objective, `core._norm` on A x
    (`_scored`).

    Workspace. One call allocates the batch's codes, phasors and screen
    products (complex64) once and reuses them for every batch: the codes
    are filled in place, the phasors gathered a row of d per code from the
    cached table of every code's phasors (`_code_tables`) with np.take(...,
    axis=0, out=, mode="clip") (the codes are in range by construction, and
    the default mode="raise" makes numpy buffer the call) and the products
    written by np.matmul(..., out=). The phasor rows are n' = nc d <= n + 7
    wide; the digits past n pad the last code and meet zero rows of A^T, so
    they add exact zeros to the screen products; the digits of the
    configurations kept for the double precision score come from the table
    of every code's digits, and only the first n count. A row takes
    nc codes, n' complex64 phasors, m complex64 products and a float32
    score, and a batch holds as many rows as fit in `_BUDGET` = 2^18 bytes,
    but at least `_CHUNK` = 512, so that a narrow A does not pay numpy's
    per-call overhead on small batches: 3276 rows at 1 x 8 and B = 3, and
    512 at 32 x 200 and B = 2, where the workspace is 0.95 MB, inside the
    2 MB per-core L2 cache of the x86-64 host it was sized on.

    Scale. A is divided by s = 2^e with max|a| in [s/2, s), so |a/s| < 1
    (< 2 if max|a| >= 2^1023), by `core._pow2_scale`. Multiplying by 2^-e is
    exact, float32 neither overflows nor flushes the large entries to zero,
    and every score is s times that of a/s, with the same roundings, so
    the winner does not depend on the scale of A.

    Bound. Fix a configuration with exact unit phasors x. Let y = (a/s) x,
    V = ||y||_p, F its double precision score, y' the single precision
    product of the n' rounded phasors and the rounded a/s with its zero
    rows, and w = fl(||y'||_p) its single precision score. With u = 2^-24,
    rounding the inputs costs 2u |a_mi| / s per term, a complex product
    sqrt(2) gamma_2 and a complex sum of n' terms sqrt(2) gamma_(n'-1) times
    the sum of the moduli, in any order and with or without fused
    multiply-adds (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sections 3.1 and 3.6; gamma_k = k u / (1 - k u)). For n' below
    2^20 that gives
        |y'_m - y_m| <= 2 (n' + 4) u sum_i |a_mi| / s,
    where the padded terms have a_mi = 0. Counting them only widens the
    bound; that exact zeros add no rounding is not relied on. The same
    analysis in double precision, over the n unpadded terms and the norm
    included, bounds |F - V| by a 2^-28 share of that. Entries, products,
    partial sums and squares below the float32 range may be flushed to zero;
    2^-61 per row covers that for n' below 2^60. With
        c_m = 4 (n' + 4) u sum_i |a_mi| / s + 2^-60,   E = ||c||_p,
    each of |(||y'||_p) - V| and |F - V| is at most E / 2, since lp norms
    are monotone, so |(||y'||_p) - F| <= E. The float32 norm itself is off
    by at most rho0 = 2 (m + 2) u relative: up to m + 2 roundings of
    nonnegative terms for p = 1, one for p = inf, and for p = 2, whose
    screen sums the squares of the 2m real and imaginary parts with einsum,
    2m + 1 (a square, 2m - 1 additions in any order and the root).

    Why it is exact. Let w* be the largest screen score of all batches so
    far, the current one included, F* the double precision score of its
    configuration and rho = 2 rho0. A configuration is dropped only if
    w < (1 - rho) w* - 2E. Then
        (1 - rho0)(F - E) <= w < (1 - rho)(1 + rho0)(F* + E) - 2E
                               <= (1 - rho0)(F* + E) - 2E,
    so F < F* + 2E - 2E / (1 - rho0) <= F*. The configuration of w* was
    kept and scored in double precision in its own batch, where w* was
    already the running best, so every dropped configuration scores
    strictly below a confirmed value and can neither win nor tie. The kept
    ones, scored in double precision in their batch order, give the same
    first hit; a batch with nothing kept is not scored at all.

    The kept configurations of a batch are scored by one matrix product,
    the same per row as when every configuration is, so a score does not
    depend on the batch around it. numpy hands a one-row product to a
    matrix-vector kernel that rounds differently, so a lone survivor is
    scored as two equal rows.
    """
    m, n = a.shape
    at = _pow2_scale(a)[0].T.copy()
    code_digits, code_phasors = _code_tables(dps.bits)
    d = code_digits.shape[1]
    nc = -(-n // d)
    at32 = np.zeros((nc * d, m), dtype=np.complex64)
    at32[:n] = at
    c = 4 * (nc * d + 4) * _U32 * np.abs(at).sum(axis=0) + 2.0 ** -60
    big_e = float(np.linalg.norm(c, p))
    rho = 4 * (m + 2) * _U32
    code_type = np.min_scalar_type(len(code_digits) - 1)
    row_bytes = nc * (code_type.itemsize + 8 * d) + 8 * m + 4
    rows = min(total, max(_CHUNK, _BUDGET // row_bytes))
    codes_ws = np.empty((rows, nc), dtype=code_type)
    x_ws = np.empty((rows, nc * d), dtype=np.complex64)
    y_ws = np.empty((rows, m), dtype=np.complex64)
    w_ws = np.empty(rows, dtype=np.float32)
    w_star = -1.0
    best_val = -1.0
    best_idx: np.ndarray | None = None
    for start in range(0, total, rows):
        k = min(rows, total - start)
        codes, x32, y32, w = codes_ws[:k], x_ws[:k], y_ws[:k], w_ws[:k]
        fill(start, codes)
        np.take(code_phasors, codes, axis=0, out=x32.reshape(k, nc, d), mode="clip")
        np.matmul(x32, at32, out=y32)
        if p == 2.0:
            parts = y32.view(np.float32)
            np.sqrt(np.einsum("ij,ij->i", parts, parts, out=w), out=w)
        else:
            w = row_norms(y32, p)
        top = float(w.max())
        w_star = max(w_star, top)
        bar = (1.0 - rho) * w_star - 2.0 * big_e
        if top < bar:
            continue
        # compared in float64: a float32 threshold could round up past the bound
        kept = code_digits[codes[w >= np.float64(bar)]].reshape(-1, nc * d)[:, :n]
        x = dps.phasors[kept if kept.shape[0] > 1 else np.repeat(kept, 2, axis=0)]
        vals = row_norms(x @ at, p)
        local = int(np.argmax(vals))
        if vals[local] > best_val:
            best_val = float(vals[local])
            best_idx = kept[local].copy()
    assert best_idx is not None
    return best_idx


@np.errstate(over="ignore", invalid="ignore")
def _scored(a: np.ndarray, dps: DiscretePhaseSet, p: float, idx, evaluated: int) -> OracleResult:
    """The winner `idx` of a scan and its objective `_norm(A x, p)`, the
    product taken without a numpy warning where it overflows."""
    return OracleResult(PhaseVector.from_indices(idx, dps), _norm(a @ dps.phasors[idx], p), evaluated)


def exhaustive_norm(a, dps: DiscretePhaseSet, p) -> OracleResult:
    """Maximum of ||A exp(j*Omega)||_p over Delta^n, by scoring the
    2^((n-1)B) configurations with digit 0 at 0, one per rotation class.

    Every optimum has such a rotation, so the objective is the maximum over
    the whole space. The result is the first hit in lexicographic order
    among them, so it has digit 0 at 0, and the rotations of an optimum,
    which tie exactly, are never told apart by rounding."""
    a = as_complex_matrix(a)
    p = normalize_p(p)
    total = _guard(a.shape[1], dps)
    idx = _scan(a, dps, p, total, partial(_flat_codes, bits=dps.bits, n=a.shape[1]))
    return _scored(a, dps, p, idx, total)


def _random_codes(random_raw, out: np.ndarray, bits: int) -> None:
    """Fill `out` with the codes of the next configurations drawn, one per
    row, by the rule of the module docstring: only the generator words are
    allocated per batch, and they are freed on return."""
    rows, nc = out.shape
    width = 1 if bits <= 8 else 2
    u = random_raw(rows * -(-nc * width // 8)).astype("<u8", copy=False).view(f"<u{width}")
    if bits > 8:
        u >>= 8 * width - bits
    out[...] = u.reshape(rows, -1)[:, :nc]


def random_search(a, dps: DiscretePhaseSet, p, trials: int, rng: Rng) -> OracleResult:
    """Best objective among `trials` uniform random lattice configurations.

    Configuration k takes its codes from generator words k*W .. (k+1)*W - 1,
    W = ceil(ceil(n / d) w / 8), by the draw rule of the module docstring.
    The generator advances by exactly trials * W words.
    """
    a = as_complex_matrix(a)
    p = normalize_p(p)
    trials = _as_int(trials, "trials")
    raw = rng.generator.bit_generator.random_raw
    idx = _scan(a, dps, p, trials, lambda start, out: _random_codes(raw, out, dps.bits))
    return _scored(a, dps, p, idx, trials)
