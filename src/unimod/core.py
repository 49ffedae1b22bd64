"""Domain types and phase arithmetic shared by every solver module.

Conventions used throughout the package:

* phases are radians stored wrapped into [0, 2*pi),
* the inner product is conjugate-linear in its first argument,
  <a, b> = sum_i conj(a_i) * b_i,
* results are computed in double precision; the oracles screen candidates
  in single precision first and score the survivors in double precision,
* `_lattice_split` is the one exact (Cody-Waite) reduction of a phase onto
  a lattice; hard rounding (`nearest_lattice`) and divide-and-sort read it,
* `_pow2_scale` is the one scale rule: the exact copy x * 2^-e with
  max|x * 2^-e| in [1/2, 1). The oracles' scan always works on it; the l2
  witness, the dominant-row start and `norm_lp` run again on it where a
  sum of squares leaves the normal double range (`_normal`), and scale
  the result back by 2^e. So A and 2^k A run the same arithmetic,
* `_finite` is the one finiteness test of array inputs, and
  `_finite_objective` the one rule of every objective and norm: a finite
  double, InvalidArgumentError past 2^1024,
* `_as_int` is the one rule of every integer parameter (an int or a numpy
  integer in low .. high, 1 .. inf by default) and `_as_real` of every real
  one (a finite, positive int or float); each rejection names the
  parameter and the value it got.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import InvalidArgumentError

TWO_PI = 2.0 * math.pi

#: widest lattice: at B = 16 the 2^B phasor table that every solver and
#: oracle reads takes 1 MB
MAX_LATTICE_BITS = 16

#: the smallest positive normal double, 2^-1022
_MIN_NORMAL = math.ldexp(1.0, -1022)


def _as_int(value, what: str, low: int = 1, high: float = math.inf) -> int:
    """int(value) of an int or a numpy integer in low .. high, not of a bool
    or a float: the rule of every integer parameter."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if not low <= value <= high:
        bound = f">= {low}" if value < low else f"<= {high}"
        raise InvalidArgumentError(f"{what} must be {bound}, got {_shown(value)}")
    return value


def _shown(value: int) -> str:
    """An int as the scalar rules' messages give it: its digits, or past 64
    bits its sign and bit length (Python refuses to print an int of more
    than 4300 digits)."""
    bits = value.bit_length()
    return str(value) if bits <= 64 else f"{'a negative' if value < 0 else 'an'} int of {bits} bits"


def _as_real(value, what: str) -> float:
    """float(value) of an int, a float or a numpy integer or float, not of a
    bool, once it is finite and positive: the rule of every real-valued
    parameter."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidArgumentError(f"{what} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the double range
        raise InvalidArgumentError(f"{what} must be finite and positive, got {_shown(value)}") from None
    if not 0.0 < value < math.inf:
        raise InvalidArgumentError(f"{what} must be finite and positive, got {value!r}")
    return value


def _lattice_indices(indices) -> np.ndarray:
    """`indices` as an int64 array, of any integer dtype but no other."""
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise InvalidArgumentError(f"lattice indices must be integers, got {idx.dtype}")
    return idx.astype(np.int64, copy=False)


def _finite(x: np.ndarray, message: str) -> np.ndarray:
    """`x` itself once every entry is finite, the one finiteness rule of the
    input checks; InvalidArgumentError(message) otherwise. A complex array
    is tested on its float parts: one float64 view where its memory is
    contiguous in some order, else its real and imaginary parts (a strided
    complex array has no float64 view). Nothing is copied."""
    if x.dtype.kind != "c":
        parts = (x,)
    elif x.flags.forc:
        parts = (x.ravel("K").view(np.float64),)
    else:
        parts = (x.real, x.imag)
    if not all(np.isfinite(part).all() for part in parts):
        raise InvalidArgumentError(message)
    return x


def _finite_objective(x: float, e: int = 0) -> float:
    """The objective x * 2^e, for e in [-1023, 1023] as `_pow2_scale` gives
    it, the one rule of every objective: it must be a finite double. An
    optimum beyond the double range (|value| >= 2^1024) is
    InvalidArgumentError, not inf or an OverflowError."""
    value = x * math.ldexp(1.0, e)
    if not math.isfinite(value):
        raise InvalidArgumentError("the objective is beyond the double range")
    return value


def _as_float_array(x) -> np.ndarray:
    return _finite(np.asarray(x, dtype=np.float64), "non-finite value in input")


def as_complex_vector(x) -> np.ndarray:
    """Validate and convert `x` to a 1-d complex128 array."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise InvalidArgumentError("expected a nonempty 1-d complex vector")
    return _finite(v, "non-finite entry in complex vector")


def as_complex_matrix(a) -> np.ndarray:
    """Validate and convert `a` to a 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidArgumentError("expected a nonempty 2-d complex matrix")
    return _finite(m, "non-finite entry in complex matrix")


@dataclass(frozen=True)
class DiscretePhaseSet:
    """The B-bit phase lattice {0, delta, ..., (2^B - 1) * delta}.

    Parameters
    ----------
    bits : int
        Number of quantization bits, 1 <= B <= MAX_LATTICE_BITS: an int or a
        numpy integer, stored as an int.

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
        object.__setattr__(self, "bits", _as_int(self.bits, "bits", high=MAX_LATTICE_BITS))
        object.__setattr__(self, "levels", 1 << self.bits)
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
        return _phasor_table(self.bits)


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
            idx = _lattice_indices(self.indices)
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
        idx = _lattice_indices(indices)
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
    advancing a shared state. Seed and stream are nonnegative integers: ints
    or numpy integers, not bools or floats.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = _as_int(seed, "seed", low=0)
        self.stream = _as_int(stream, "stream", low=0)
        self._gen = np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, stream={self.stream})"


def wrap_phase(theta):
    """Reduce radians into [0, 2*pi).

    Accepts scalars or arrays; raises on non-finite input. Idempotent:
    values already in range pass through unchanged.
    """
    out = np.mod(_as_float_array(theta), TWO_PI)
    out = np.where(out >= TWO_PI, 0.0, out)  # np.mod can round a tiny negative up to 2*pi
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return float(out)
    return out


def _wrap_angle(th: np.ndarray) -> np.ndarray:
    """np.mod(th, 2*pi), bit for bit, for th in [-pi, pi] (the range of
    np.angle): one add of 2*pi where th < 0, with no float modulo."""
    tau = (th < 0.0) * TWO_PI
    tau += th                                  # -0.0 becomes +0.0, as in np.mod
    # a tiny negative th rounds up to exactly 2*pi
    over = tau >= TWO_PI
    if over.any():
        tau[over] = 0.0
    return tau


@cache
def _step_split(bits: int) -> tuple[float, float]:
    """(hi, lo) with delta = hi + lo exactly and hi the top 53 - B bits of
    the B-bit lattice step delta."""
    delta = DiscretePhaseSet(bits).step
    mant, exp = math.frexp(delta)
    hi = math.ldexp(math.floor(math.ldexp(mant, 53 - bits)), exp - 53 + bits)
    return hi, delta - hi


def _lattice_split(tau: np.ndarray, dps: DiscretePhaseSet) -> tuple[np.ndarray, np.ndarray]:
    """(tred, shift) with tred = np.mod(tau, delta), bit for bit, and
    tau = shift*delta + tred exactly, for tau in [0, 2*pi).

    q = floor(tau / delta) is the integer part or one above it, never below:
    rounding is monotone and the integer part, below 2^B, is a float.
    Writing delta = hi + lo with hi the top 53 - B bits of delta, q*hi and
    q*lo are exact for q < 2^B <= 2^MAX_LATTICE_BITS (`DiscretePhaseSet`
    takes no wider lattice), and so is tau - q*hi: for q >= 1 both terms
    are multiples of ulp(delta) and differ by less than 2^53 of it. So
    (tau - q*hi) - q*lo is the exact remainder, rounded once. Where q was
    one high that remainder is negative, and those elements are recomputed
    with q - 1.
    """
    delta = dps.step
    hi, lo = _step_split(dps.bits)
    q = tau / delta
    np.floor(q, out=q)
    tred = q * hi
    np.subtract(tau, tred, out=tred)
    tred -= q * lo
    high = tred < 0.0
    if high.any():
        high = high.nonzero()[0]
        qh = q[high] - 1.0
        q[high] = qh
        tred[high] = (tau[high] - qh * hi) - qh * lo
    return tred, q.astype(np.int64)


def nearest_lattice(theta, dps: DiscretePhaseSet):
    """Index of the lattice phase circularly nearest to `theta`.

    Decided on the exact remainder of `_lattice_split`; an exact tie (distance
    delta/2 to both neighbours) resolves to the smaller index after wrapping.
    Scalar in, python int out; arrays map elementwise to an int64 array.
    """
    th = np.atleast_1d(wrap_phase(theta))
    tred, k = _lattice_split(th.ravel(), dps)  # the split takes a 1-D vector
    half = 0.5 * dps.step
    k += (tred > half) | ((tred == half) & (k == dps.levels - 1))
    k &= dps.levels - 1
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return int(k[0])
    return k.reshape(th.shape)


def sample_complex_gaussian(rng: Rng, m: int, n: int, variance: float) -> np.ndarray:
    """i.i.d. circularly symmetric complex Gaussian matrix, CN(0, variance).

    Drawn by the polar transform: |x|^2 is exponential with mean `variance`
    and the argument is uniform, so the real and imaginary parts each carry
    variance/2. Deterministic given the Rng state.
    """
    m, n, variance = _as_int(m, "m"), _as_int(n, "n"), _as_real(variance, "variance")
    g = rng.generator
    u1 = g.random((m, n))
    u2 = g.random((m, n))
    radius = np.sqrt(-variance * np.log1p(-u1))
    return radius * np.exp(2j * math.pi * u2)


def _pow2_scale(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x * 2^-e, e) with max|x * 2^-e| in [1/2, 1), the one scale rule.

    Multiplying by a power of two is exact (but for entries 2^1021 below
    max|x|, which go subnormal), so x and 2^k x give the same copy. e is
    clamped to [-1023, 1023], where 2^e and 2^-e are doubles; it is 0 for
    x = 0 and for an x that is not finite."""
    e = min(max(int(np.frexp(np.max(np.abs(x)))[1]), -1023), 1023)
    return x * math.ldexp(1.0, -e), e


def _normal(sq: float) -> bool:
    """Whether a sum of squares is a positive normal double, not 0,
    subnormal, inf or nan: where it is not, its computation is rescued on
    the `_pow2_scale` copy."""
    return _MIN_NORMAL <= sq < math.inf


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


@np.errstate(over="ignore", invalid="ignore")
def norm_lp(x, p) -> float:
    """l1 / l2 / l-infinity norm of a complex vector. The l2 norm is
    np.linalg.norm's, sqrt(re.re + im.im); where that sum of squares under-
    or overflows it is the norm of `_pow2_scale`'s copy, scaled back. A
    norm beyond the double range is InvalidArgumentError."""
    v = as_complex_vector(x)
    p = normalize_p(p)
    if p == 1.0:
        return _finite_objective(float(np.sum(np.abs(v))))
    if p == 2.0:
        re, im = v.real, v.imag
        sq = re.dot(re) + im.dot(im)
        if not _normal(sq):
            u, e = _pow2_scale(v)
            return _finite_objective(float(np.linalg.norm(u)), e)
        return math.sqrt(sq)
    return _finite_objective(float(np.max(np.abs(v))))
