"""Exact divide-and-sort (DaS) maximizer for discrete uni-modular inner products.

Solves max over Omega in Delta^n of |<v, exp(j*Omega)>| for the B-bit lattice
Delta without touching the 2^(nB) search space. Writing the coherent sum with
an auxiliary alignment angle psi, the per-element optimum is piecewise
constant in psi: element i prefers the lattice phase whose shifted angle is
circularly nearest to psi. Sorting the region edges of all elements splits
the circle into at most n * 2^B arcs, each contributing one candidate
configuration, and the global optimum is the best candidate.

The edges need no sort of their own. Edge k of element i sits at
first_i + k*delta with first_i in (0, delta], so the first edges in the
order of first_i make up the lap (0, delta], and each later lap repeats it
one step on. One lap is enough: crossing a whole lap moves every element one
lattice step, which turns the coherent sum by delta and leaves its modulus
alone, so lap k's candidates are lap 0's turned by k*delta. The sweep over
lap 0 updates the running sum with one subtract-add per edge (a cumulative
sum) and scores n candidates, so the search costs O(n log n + n) in time and
O(n) in memory for every B. An edge's increment needs the element's phasor
just before the crossing, exp(j*(m*delta)) for a lattice index m < 2^B, so
one 2^B-entry phasor table serves every edge. No transcendental function
runs per edge, and since each entry is the same exp of the same m*delta, the
increments and the running sum keep the bits of a per-edge exp. The
products c_i*table[k0_i] serve twice: their sum is the candidate at psi = 0,
and in sweep order, times table[1] - 1, they are the increments. Candidates
whose objectives lie within a relative TIE_TOL of the best count as tied,
and the one met first in the sweep wins; the choice therefore does not
depend on the scale of v.

`_das_indices` is the kernel: it takes a raw complex vector v and returns
int64 lattice indices, with no validation and no PhaseVector, so its input
must be finite. It conjugates v once, finds its nonzero entries with
`_support` (an all-zero v is DegenerateInputError, raised there alone) and
runs two stages on c, the conjugate of those entries: `_das_edges` finds
each element's first edge and its phasor product at psi = 0, and
`_das_sweep` sorts the edges and sweeps lap 0. `_scatter` puts the indices
back on all n entries, 0 at the zero ones. `das_maximize` validates its
input once and wraps the kernel; the discrete solver calls the kernel
directly on every iteration.

The l-infinity kernel `_linf`, which `solver.solve_linf` wraps, sweeps each
row once, since the max over rows commutes with the max over configurations.
Row a_i of A scores |<conj(a_i), x>|, so its c is a_i itself: the row goes
to the stages as it is (a view into A where it has no zero entry), its zero
test reads the row's moduli, and its objective is |a_i @ table[idx]|.
It takes the rows' moduli and l1 norms once, visits the rows in descending
l1 norm and calls the stages itself, and between them `_das_bound`: an upper
bound on every candidate of the sweep, from the edges put into about n/8
buckets by value, with no sort. A row whose l1 norm, or then whose bound,
lies below the best objective so far is not swept. Both rounding allowances
are relative to the row's l1 norm and derived in `_das_bound`.

Each element's angle is reduced onto the lattice without a float modulo:
`_wrap_angle` adds 2*pi to negative angles, and `_lattice_split` takes the
remainder modulo delta with delta split in two terms (Cody and Waite) so
that it is exact, bit for bit what np.mod gives; both live in `core`, and
hard rounding uses the same split.

The sweep order comes from one in-place integer sort, `_sweep_order`: a
positive double's bits sort as its value, so each key is a first edge's
bits with the low ones replaced by the element's index, and the sorted low
bits are the stable order whenever the truncated edges are distinct. Where
two agree (equal first edges, as on tie-heavy input, or ones a few ulps
apart) it falls back to the stable argsort. This O(n log n) sort is the
largest single pass of the kernel.

Nothing that depends only on B is rebuilt per call: the phasor table is
`DiscretePhaseSet.phasors`, one read-only array per B with the bits of
np.exp(1j * values), and the split of delta is cached per B. The candidate
sums are built in one buffer: the psi = 0 sum, then the cumulative sum of
the increments, then that sum added on, the same roundings as joining the
two and with no copy.

The inner product here, as everywhere in this package, is conjugate-linear in
the first argument. The region construction below follows the classical
alignment form sum_i |v_i| * exp(j * (tau_i + Omega_i)) with tau_i the angle
of conj(v_i); the stages therefore work on c = conj(v).
"""

from __future__ import annotations

import math

import numpy as np

from .core import (DiscretePhaseSet, PhaseVector, _finite_objective, _lattice_split, _pow2_scale,
                   _wrap_angle, as_complex_vector)
from .errors import DegenerateInputError

#: two candidates whose objectives differ by at most this fraction of the
#: best objective count as tied
TIE_TOL = 1e-12

#: unit roundoff of float64
_U = 2.0 ** -53

#: `_das_bound` holds for rows whose l1 norm is at least n times this
_UNDERFLOW_FLOOR = 2.0 ** -1000


def _das_edges(c: np.ndarray, dps: DiscretePhaseSet):
    """First stage of `_das_indices`: (k0, first, ct) for c, the conjugate of
    a vector's nonzero entries: the lattice indices `k0` at psi = 0, the
    first edges `first` in (0, delta] and ct = c * table[k0]. It only reads
    `c`, which may be a view into the caller's array."""
    # Element i prefers Omega with angle(c_i) + Omega near the alignment
    # angle psi, so its center set is {angle(c_i) + k*delta} and its edges
    # sit half a step off the centers.
    delta = dps.step
    half = 0.5 * delta
    tau = _wrap_angle(np.angle(c))
    tred, k0 = _lattice_split(tau, dps)

    # candidate at psi = 0: the nearest center m0 = 0, or m0 = -1 past half a
    # step (lower edge inclusive), so k0 = (m0 - shift) mod 2^B and the first
    # edge above 0 is tred + (m0 + 0.5)*delta = tred +- half, in (0, delta];
    # k0 starts as the shift and `first` takes the buffer of tau
    past = tred > half
    np.negative(k0, out=k0)
    k0 -= past
    k0 &= dps.levels - 1
    first = np.multiply(past, -delta, out=tau)
    first += half
    first += tred
    # table[m] = exp(j*(m*delta)); an element's index before its crossing is
    # k0 < 2^B, and the crossing multiplies its phasor by table[1]
    ct = dps.phasors.take(k0)
    np.multiply(c, ct, out=ct)
    return k0, first, ct


def _sweep_order(first: np.ndarray) -> np.ndarray:
    """np.argsort(first, kind="stable") for first edges in (0, delta]: the
    order in which lap 0 crosses them, ties in index order.

    A positive double's bit pattern, read as an int64, sorts as its value
    does. Each key is that pattern with its low kb bits replaced by the
    element's index, kb = max(1, bit length of n - 1), so one in-place
    integer sort orders values and indices together. Where no two sorted
    keys agree above the low kb bits, the first edges are distinct and in
    the order of their keys, so the low bits are the stable order. Where two
    do (equal first edges, or ones that differ only in those bits), the
    stable argsort decides."""
    n = first.size
    kb = max(1, (n - 1).bit_length())
    keys = first.view(np.int64) & -(1 << kb)
    keys |= np.arange(n)
    keys.sort()
    top = keys >> kb
    if np.count_nonzero(top[1:] == top[:-1]):
        return np.argsort(first, kind="stable")
    keys &= (1 << kb) - 1
    return keys


def _das_sweep(dps: DiscretePhaseSet, k0: np.ndarray, first: np.ndarray, ct: np.ndarray) -> np.ndarray:
    """Second stage of `_das_indices`: the sweep over lap 0 from the edges of
    `_das_edges(c, dps)`, returning the int64 lattice indices of the
    entries of c. Takes `k0` over.

    The running sums exceed the objective by up to |t1 - 1| ||c||_1, so near
    the top of the double range they overflow to inf or nan while every
    candidate is finite. Where the best is not finite, the sweep runs again
    on `_pow2_scale`'s copy of the float parts of ct: c * 2^-e gives exactly
    ct * 2^-e, and the same order and indices. The copy's parts are below 1,
    so its sums are finite and it runs again at most once. Where a part of
    ct is not finite (e = 0) it does not run again, and the caller's
    `_finite_objective` rejects the objective."""
    order = _sweep_order(first)
    d = ct.take(order)
    d *= dps.phasors[1] - 1.0

    # sums[e] is S of candidate e, the state after crossing edges 0..e-1
    sums = np.empty_like(d)
    sums[0] = ct.sum()
    np.cumsum(d[:-1], out=sums[1:])
    sums[1:] += sums[0]
    objs = np.abs(sums)

    best = objs.max()
    if not math.isfinite(best):
        scaled, e = _pow2_scale(ct.view(np.float64))
        if e:
            return _das_sweep(dps, k0, first, scaled.view(np.complex128))
    j = int((objs >= best * (1.0 - TIE_TOL)).argmax())
    k0[order[:j]] += 1
    k0 &= dps.levels - 1
    return k0


def _support(x: np.ndarray):
    """The indices of the nonzero entries of `x`, or None where it has no
    zero entry: the one zero test of the DaS callers."""
    return None if x.all() else np.flatnonzero(x)


def _scatter(idx: np.ndarray, nz, n: int) -> np.ndarray:
    """The lattice indices `idx` of the entries `nz` of `_support` put back
    on all n entries, 0 at the zero ones."""
    if nz is None:
        return idx
    full = np.zeros(n, dtype=np.int64)
    full[nz] = idx
    return full


def _das_indices(v: np.ndarray, dps: DiscretePhaseSet) -> np.ndarray:
    """Kernel of `das_maximize`: int64 lattice indices of the maximizer for a
    raw complex vector `v`, 0 at its zero entries. It conjugates `v` once
    and runs the stages on the nonzero entries of the conjugate."""
    c = np.conj(v)
    nz = _support(c)
    if nz is not None and nz.size == 0:
        raise DegenerateInputError("all magnitudes are zero")
    return _scatter(_das_sweep(dps, *_das_edges(c if nz is None else c[nz], dps)), nz, v.size)


def _das_slack(l1: float, n: int) -> float:
    """Rounding allowance of an upper bound on the DaS objective of n
    elements with l1 norm `l1`, as computed: 16 (n + 16) u l1, or inf where
    products of the elements could underflow (see `_das_bound`); it serves
    that bound and the l1 test of `_linf`."""
    if not l1 >= n * _UNDERFLOW_FLOOR:
        return math.inf
    return 16.0 * (n + 16) * _U * l1


def _das_bound(dps: DiscretePhaseSet, mod: np.ndarray, first: np.ndarray, ct: np.ndarray) -> float:
    """Upper bound on every objective the sweep of `_das_sweep` could return,
    as |c @ table[idx]| computes it (`_linf` on a whole row, whose zero
    entries add nothing); `first` and `ct` come from `_das_edges` and `mod`
    is |c| on the same elements.

    Buckets. Element i goes to bucket b_i = floor(first_i * K / delta) for
    K = max(1, n // 8) (b = K for first_i = delta). Rounding is monotone, so
    b never decreases as first grows, and every prefix of the sweep order
    is all of the buckets below some b plus part of bucket b. With
    T_b = sum of ct over the buckets below b and S_b = S_0 + (t1 - 1) T_b,
    t1 = table[1], a candidate whose prefix ends in bucket b has
        |S_e| <= |S_b| + |t1 - 1| W_b,   W_b = sum of |c_i| over bucket b.
    S_b and W_b come from one unbuffered add (np.add.at) each of ct and
    `mod` into the K + 1 buckets and a cumulative sum over them. The bound is
    max_b(|S_b| + |t1 - 1| W_b) plus the allowance below; it is scaled by
    2^k exactly when c is, and its slack is about |t1 - 1| / K of the
    l1 norm, so it only separates rows whose optima differ by more.

    Allowance. Let u = 2^-53, L = ||c||_1 and tau_k = table[k]. The table
    holds exp(1j * k*delta) for k*delta rounded once and delta = fl(2*pi) /
    2^B, so its angles are off by at most 4*pi*u and, with cos and sin
    within an ulp, |tau_k - exp(j*k*delta)| <= 16u (6.2u measured for
    B <= 12). A candidate sets index k0_i + 1 on its prefix P, so with
    a_i = c_i tau_k0_i its exact inner product is
        sum_i a_i + (tau_1 - 1) sum_P a_i + sum_P c_i r_i,
    r_i = tau_(k0_i + 1) - tau_k0_i tau_1, |r_i| < 49u. Next to the
    exact bound on that sum, the computed one loses at most (by the
    summation and complex product bounds of Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sections 3.1 and 3.6, in
    any summation order and with or without fused multiply-adds; |t1 - 1|
    <= 2):
      - 9u L for ct against a, over S_0 and T_b;
      - 1.5 n u L for the sum S_0, and 3 (n + K) u L for the bucket sums,
        their cumulative sum and the product with t1 - 1;
      - 2.1 (n + 1) u L for W_b and the moduli in it;
      - about 30u L for t1 - 1, the products, the adds, |.| and the max.
    The objective's own dot product is off from the exact inner product by
    at most 1.5 (n + 1) u L + 6u L, and 49u L covers the r_i. That is below
    (8.5 n + 101) u L for K <= n/8 + 1, and `_das_slack` allows
    16 (n + 16) u L, nearly twice that, so the rounding of L itself and of the
    last add is covered too. The same allowance on L alone bounds the
    objective of every configuration, the l1 test of `_linf`.
    The analysis treats underflow as a relative error: a product that
    underflows is off by at most 2^-1075 absolute, and there are fewer
    than 16 (n + K + 1) of them, which stays far below u L once
    L >= n 2^-1000. Below that `_das_slack` returns inf and nothing is
    skipped. Overflow gives inf or nan, which skip nothing either.
    """
    n = first.size
    k = max(1, n // 8)
    b = (first * (k / dps.step)).astype(np.intp)
    w = np.zeros(k + 1)
    np.add.at(w, b, mod)
    # np.add.at adds in index order, the real and imaginary parts apart, so
    # each bucket sum has one fixed order of roundings
    sb = np.zeros(k + 1, dtype=np.complex128)
    np.add.at(sb, b, ct)
    t = np.empty_like(sb)
    t[0] = 0.0
    np.cumsum(sb[:-1], out=t[1:])
    t1m1 = dps.phasors[1] - 1.0
    t *= t1m1
    t += ct.sum()
    heads = np.abs(t)
    heads += abs(t1m1) * w
    return float(heads.max()) + _das_slack(float(w.sum()), n)


# a sum past 2^1024 gives inf or nan, which `_finite_objective` rejects
@np.errstate(over="ignore", invalid="ignore")
def _linf(a: np.ndarray, dps: DiscretePhaseSet) -> tuple[np.ndarray, int, float, int]:
    """Kernel of `solver.solve_linf` for a validated `a`: (indices, row,
    objective, rows swept).

    Rows are visited in descending l1 norm, so a large objective is found
    early; the order decides only what is skipped. Zero rows come last, and
    the visit stops at the first. The first row is swept. A later row is
    skipped when its l1 norm, and then when `_das_bound` of its edges, plus
    the rounding allowance of `_das_slack`, lies below the best objective
    so far: both bound the objective its sweep would compute, so it could
    not win or tie. The largest objective wins, and of equal ones the
    lowest row index, as in a sweep of every row in order. A swept row's
    objective must be a finite double (`core._finite_objective`).
    """
    n = a.shape[1]
    mod = np.abs(a)
    l1 = mod.sum(axis=1)
    best: tuple[np.ndarray, int, float] | None = None
    swept = 0
    for i in np.argsort(-l1, kind="stable").tolist():
        if l1[i] == 0.0:
            break
        if best is not None and l1[i] + _das_slack(l1[i], n) < best[2]:
            continue
        nz = _support(mod[i])
        c, m = (a[i], mod[i]) if nz is None else (a[i, nz], mod[i, nz])
        k0, first, ct = _das_edges(c, dps)
        if best is not None and _das_bound(dps, m, first, ct) < best[2]:
            continue
        idx = _scatter(_das_sweep(dps, k0, first, ct), nz, n)
        swept += 1
        obj = _finite_objective(float(np.abs(a[i] @ dps.phasors[idx])))
        if best is None or obj > best[2] or (obj == best[2] and i < best[1]):
            best = (idx, i, obj)
    if best is None:
        raise DegenerateInputError("every row of A is zero")
    return (*best, swept)


@np.errstate(over="ignore", invalid="ignore")
def das_maximize(v, dps: DiscretePhaseSet) -> tuple[PhaseVector, float]:
    """Global maximizer of |<v, exp(j*Omega)>| over the lattice Delta^n.

    Returns the optimal configuration and its objective. Among candidates
    whose objectives tie within a relative 1e-12 of the best, the one
    generated earliest in the sweep wins. Zero entries of `v` get phase 0.
    An objective beyond the double range is InvalidArgumentError.
    """
    v = as_complex_vector(v)
    pv = PhaseVector.from_indices(_das_indices(v, dps), dps)
    return pv, _finite_objective(float(np.abs(np.vdot(v, pv.phasors()))))
