"""Domain types and phase arithmetic shared by every solver module.

Conventions used throughout the package:

* phases are radians stored wrapped into [0, 2*pi),
* the inner product is conjugate-linear in its first argument,
  <a, b> = sum_i conj(a_i) * b_i,
* results are computed in double precision; the oracles screen candidates
  in single precision first and score the survivors in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import InvalidArgumentError

TWO_PI = 2.0 * math.pi

#: widest lattice: at B = 26 the 2^B phasor table that every solver and
#: oracle reads takes 1 GB
MAX_LATTICE_BITS = 26


def _as_float_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("non-finite value in input")
    return arr


def as_complex_vector(x) -> np.ndarray:
    """Validate and convert `x` to a 1-d complex128 array."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise InvalidArgumentError("expected a nonempty 1-d complex vector")
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError("non-finite entry in complex vector")
    return v


def as_complex_matrix(a) -> np.ndarray:
    """Validate and convert `a` to a 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidArgumentError("expected a nonempty 2-d complex matrix")
    if not np.all(np.isfinite(m)):
        raise InvalidArgumentError("non-finite entry in complex matrix")
    return m


@dataclass(frozen=True)
class DiscretePhaseSet:
    """The B-bit phase lattice {0, delta, ..., (2^B - 1) * delta}.

    Parameters
    ----------
    bits : int
        Number of quantization bits, 1 <= B <= MAX_LATTICE_BITS.

    Attributes
    ----------
    step : float
        Lattice spacing delta = 2*pi / 2^B. Stored once; never recomputed
        ad hoc so every module agrees bit-for-bit on the lattice.
    levels : int
        Number of lattice points, 2^B.
    """

    bits: int
    step: float = field(init=False)
    levels: int = field(init=False)

    def __post_init__(self):
        if not isinstance(self.bits, (int, np.integer)) or not 1 <= self.bits <= MAX_LATTICE_BITS:
            raise InvalidArgumentError(
                f"bits must be an integer in 1 .. {MAX_LATTICE_BITS}, got {self.bits!r}")
        object.__setattr__(self, "levels", 1 << int(self.bits))
        object.__setattr__(self, "step", TWO_PI / self.levels)

    @property
    def values(self) -> np.ndarray:
        """All lattice phases in [0, 2*pi), ascending."""
        return np.arange(self.levels) * self.step

    @property
    def phasors(self) -> np.ndarray:
        """exp(j * values), bit for bit: one read-only table per B, built on
        first use and shared by every solver and oracle. Each B's table is
        kept for the life of the process; all of B = 1 .. 16 take 2 MB."""
        return _phasor_table(int(self.bits))


@cache
def _phasor_table(bits: int) -> np.ndarray:
    table = np.exp(1j * DiscretePhaseSet(bits).values)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class PhaseVector:
    """A phase configuration, optionally pinned to a lattice.

    `values` are radians in [0, 2*pi). When `indices` is present the
    configuration lies exactly on a lattice and values[i] == indices[i] * step
    holds bit-for-bit, which lets solvers detect fixed points exactly.
    """

    values: np.ndarray
    indices: np.ndarray | None = None

    def __post_init__(self):
        vals = _as_float_array(self.values)
        if vals.ndim != 1 or vals.size == 0:
            raise InvalidArgumentError("phase vector must be nonempty and 1-d")
        if np.any(vals < 0.0) or np.any(vals >= TWO_PI):
            raise InvalidArgumentError("phases must be wrapped into [0, 2*pi)")
        object.__setattr__(self, "values", vals)
        if self.indices is not None:
            idx = np.asarray(self.indices, dtype=np.int64)
            if idx.shape != vals.shape:
                raise InvalidArgumentError("indices and values disagree in length")
            object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def from_values(cls, values) -> "PhaseVector":
        """Wrap arbitrary finite radians into [0, 2*pi) and build the vector."""
        return cls(wrap_phase(np.atleast_1d(values)))

    @classmethod
    def from_indices(cls, indices, dps: DiscretePhaseSet) -> "PhaseVector":
        idx = np.asarray(indices, dtype=np.int64)
        if np.any(idx < 0) or np.any(idx >= dps.levels):
            raise InvalidArgumentError("lattice index out of range")
        return cls(idx * dps.step, idx)

    def phasors(self) -> np.ndarray:
        """exp(j * values)."""
        return np.exp(1j * self.values)


class Rng:
    """Deterministic random source: counter-based Philox keyed by (seed, stream).

    Identical (seed, stream) pairs reproduce identical draws across runs and
    platforms at double precision. Parallel workers each take their own
    stream; streams never overlap because they key the generator rather than
    advancing a shared state.
    """

    def __init__(self, seed: int, stream: int = 0):
        if seed < 0 or stream < 0:
            raise InvalidArgumentError("seed and stream must be nonnegative")
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, stream={self.stream})"


def _mod_two_pi(th: np.ndarray) -> np.ndarray:
    """`wrap_phase` of a finite float array, without the check."""
    out = np.mod(th, TWO_PI)
    # np.mod can round a tiny negative input up to exactly 2*pi
    return np.where(out >= TWO_PI, 0.0, out)


def wrap_phase(theta):
    """Reduce radians into [0, 2*pi).

    Accepts scalars or arrays; raises on non-finite input. Idempotent:
    values already in range pass through unchanged.
    """
    out = _mod_two_pi(_as_float_array(theta))
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return float(out)
    return out


def nearest_lattice(theta, dps: DiscretePhaseSet):
    """Index of the lattice phase circularly nearest to `theta`.

    An exact tie (distance delta/2 to both neighbours) resolves to the
    smaller index after wrapping. Scalar in, python int out; arrays map
    elementwise to an int64 array.
    """
    th = np.atleast_1d(wrap_phase(theta))
    r = th / dps.step
    k0 = np.floor(r)
    frac = r - k0
    k = np.where(frac > 0.5, k0 + 1.0, k0)
    tie = frac == 0.5
    if np.any(tie):
        # wrapped candidates are k0 and (k0+1) % levels; keep the smaller
        upper_wraps = k0 == dps.levels - 1
        k = np.where(tie & upper_wraps, 0.0, np.where(tie, k0, k))
    out = k.astype(np.int64) % dps.levels
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return int(out[0])
    return out


def sample_complex_gaussian(rng: Rng, m: int, n: int, variance: float) -> np.ndarray:
    """i.i.d. circularly symmetric complex Gaussian matrix, CN(0, variance).

    Drawn by the polar transform: |x|^2 is exponential with mean `variance`
    and the argument is uniform, so the real and imaginary parts each carry
    variance/2. Deterministic given the Rng state.
    """
    if not (m >= 1 and n >= 1):
        raise InvalidArgumentError("matrix dimensions must be positive")
    if not (variance > 0 and math.isfinite(variance)):
        raise InvalidArgumentError(f"variance must be positive, got {variance!r}")
    g = rng.generator
    u1 = g.random((m, n))
    u2 = g.random((m, n))
    radius = np.sqrt(-variance * np.log1p(-u1))
    return radius * np.exp(2j * math.pi * u2)


def normalize_p(p) -> float:
    """Canonical float for a norm selector: 1.0, 2.0 or inf."""
    if isinstance(p, str):
        if p.strip().lower() in ("inf", "infinity"):
            return math.inf
        p = float(p)
    p = float(p)
    if p in (1.0, 2.0) or math.isinf(p):
        return p
    raise InvalidArgumentError(f"norm selector must be 1, 2 or inf, got {p!r}")


def row_norms(y: np.ndarray, p: float) -> np.ndarray:
    """l1 / l2 / l-infinity norm of each row of a 2-d complex array, for a
    p already through `normalize_p`."""
    if p == 1.0:
        return np.abs(y).sum(axis=1)
    if p == 2.0:
        return np.linalg.norm(y, axis=1)
    return np.abs(y).max(axis=1)


def norm_lp(x, p) -> float:
    """l1 / l2 / l-infinity norm of a complex vector."""
    v = as_complex_vector(x)
    p = normalize_p(p)
    if p == 1.0:
        return float(np.sum(np.abs(v)))
    if p == 2.0:
        return float(np.linalg.norm(v))
    return float(np.max(np.abs(v)))
