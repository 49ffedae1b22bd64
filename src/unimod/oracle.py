"""Ground-truth references: exhaustive and random search over the lattice.

These are deliberately naive. The exhaustive searches enumerate every one of
the 2^(nB) configurations (guarded to keep runs desk-scale) and exist so the
clever solvers have something unarguable to be checked against. Ties resolve
to the first hit in lexicographic index order, most significant digit first,
so expected values in tests are unique. Configurations are evaluated by
indexing a table of the 2^B lattice phasors, never by calling exp per entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DiscretePhaseSet, PhaseVector, Rng, as_complex_matrix, as_complex_vector,
                   normalize_p, row_norms)
from .errors import InvalidArgumentError, SizeLimitError

#: refuse exhaustive enumerations beyond 2^24 configurations
MAX_EXHAUSTIVE_BITS = 24

_CHUNK = 1 << 14


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


def _decode(flat: np.ndarray, n: int, levels: int) -> np.ndarray:
    """Mixed-radix digits of flat indices, most significant digit first."""
    digits = np.empty((flat.size, n), dtype=np.int64)
    rem = flat.copy()
    for pos in range(n - 1, -1, -1):
        digits[:, pos] = rem % levels
        rem //= levels
    return digits


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

    idx = _decode(np.array([best_flat]), v.size, dps.levels)[0]
    return OracleResult(PhaseVector.from_indices(idx, dps), objective, total)


def _scan(a: np.ndarray, dps: DiscretePhaseSet, p: float, batches) -> tuple[np.ndarray, float]:
    """Best configuration and objective ||A exp(j*Omega)||_p over `batches`
    of lattice index rows; the first hit wins ties."""
    at = a.T.copy()
    phase_table = np.exp(1j * dps.values)
    best_val = -1.0
    best_idx: np.ndarray | None = None
    for digits in batches:
        vals = row_norms(phase_table[digits] @ at, p)
        local = int(np.argmax(vals))
        if vals[local] > best_val:
            best_val = float(vals[local])
            best_idx = digits[local].copy()
    assert best_idx is not None
    return best_idx, best_val


def exhaustive_norm(a, dps: DiscretePhaseSet, p) -> OracleResult:
    """Maximum of ||A exp(j*Omega)||_p by enumerating all of Delta^n."""
    a = as_complex_matrix(a)
    p = normalize_p(p)
    n = a.shape[1]
    total = _guard(n, dps)
    batches = (_decode(np.arange(start, min(start + _CHUNK, total), dtype=np.int64),
                       n, dps.levels)
               for start in range(0, total, _CHUNK))
    idx, best = _scan(a, dps, p, batches)
    return OracleResult(PhaseVector.from_indices(idx, dps), best, total)


def random_search(a, dps: DiscretePhaseSet, p, trials: int, rng: Rng) -> OracleResult:
    """Best objective among `trials` uniform random lattice configurations."""
    a = as_complex_matrix(a)
    p = normalize_p(p)
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    g = rng.generator
    batches = (g.integers(0, dps.levels, size=(min(trials - done, _CHUNK), a.shape[1]))
               for done in range(0, trials, _CHUNK))
    idx, best = _scan(a, dps, p, batches)
    return OracleResult(PhaseVector.from_indices(idx, dps), best, trials)
