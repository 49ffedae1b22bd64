"""Exact divide-and-sort (DaS) maximizer for discrete uni-modular inner products.

Solves max over Omega in Delta^n of |<v, exp(j*Omega)>| for the B-bit lattice
Delta without touching the 2^(nB) search space. Writing the coherent sum with
an auxiliary alignment angle psi, the per-element optimum is piecewise
constant in psi: element i prefers the lattice phase whose shifted angle is
circularly nearest to psi. Sorting the region edges of all elements splits
the circle into at most n * 2^B arcs, each contributing one candidate
configuration, and the global optimum is the best candidate.

The edges need no sort of their own. Edge k of element i sits at
first_i + k*delta with first_i in (0, delta], so one stable argsort of the n
first edges, repeated for each of the 2^B levels, lists all n * 2^B edges in
ascending order. A sweep over the arcs then updates the running sum with one
subtract-add per edge (a cumulative sum), so the whole search costs
O(n log n + n * 2^B). Candidates whose objectives lie within a relative
TIE_TOL of the best count as tied, and the one met first in the sweep wins;
the choice therefore does not depend on the scale of v.

`_das_indices` is the kernel: it takes a raw complex vector and returns int64
lattice indices, with no validation and no PhaseVector. `das_maximize`
validates its input once and wraps the kernel; the discrete solver calls the
kernel directly on every iteration.

The inner product here, as everywhere in this package, is conjugate-linear in
the first argument. The region construction below follows the classical
alignment form sum_i |v_i| * exp(j * (tau_i + Omega_i)); the kernel therefore
takes the angles of conj(v).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscretePhaseSet, PhaseVector, as_complex_vector, wrap_phase
from .errors import DegenerateInputError

#: two candidates whose objectives differ by at most this fraction of the
#: best objective count as tied
TIE_TOL = 1e-12


@dataclass(frozen=True)
class _Sweep:
    """Internal sweep state for S(Omega) = sum_i c_i exp(j*Omega_i).

    Sweep edge e crosses element order[e % n_eff] for the (e // n_eff)-th
    time, so candidate e (the state after crossing edges 0..e-1) is k0 plus
    one for every crossing made so far.
    """

    k0: np.ndarray        # initial lattice indices (candidate at psi = 0)
    order: np.ndarray     # stable argsort of the first edges
    objs: np.ndarray      # |S| per candidate, sweep order


def _sweep(c: np.ndarray, dps: DiscretePhaseSet) -> _Sweep:
    # c: nonzero complex weights. Element i prefers Omega with
    # angle(c_i) + Omega near the alignment angle psi, so its center set is
    # {angle(c_i) + k*delta} and its edges sit half a step off the centers.
    delta, levels = dps.step, dps.levels
    tau = wrap_phase(np.angle(c))
    tred = np.mod(tau, delta)                  # fmod is exact, stays < delta
    shift = np.rint((tau - tred) / delta).astype(np.int64)

    # candidate at psi = 0: nearest center, lower edge inclusive
    m0 = np.where(tred <= 0.5 * delta, 0, -1)
    k0 = (m0 - shift) % levels
    first = tred + (m0 + 0.5) * delta          # first edge above 0, in (0, delta]

    # edge k of element i lies in (k*delta, (k+1)*delta], so the sweep takes
    # the levels one after another and, within a level, the order of `first`
    order = np.argsort(first, kind="stable")
    ks = np.arange(levels)[:, None]
    # phase of each element just before its k-th crossing, sweep order
    phase_before = (k0[order][None, :] + ks) * delta
    d = c[order][None, :] * np.exp(1j * phase_before) * (np.exp(1j * delta) - 1.0)

    s0 = complex(np.sum(c * np.exp(1j * (k0 * delta))))
    running = s0 + np.cumsum(d.ravel())
    objs = np.abs(np.concatenate(([s0], running[:-1])))
    return _Sweep(k0, order, objs)


def _das_indices(v: np.ndarray, dps: DiscretePhaseSet) -> np.ndarray:
    """Kernel of `das_maximize`: int64 lattice indices of the maximizer for a
    raw complex vector `v`, 0 at its zero entries."""
    mag = np.abs(v)
    nz = np.flatnonzero(mag > 0.0)
    if nz.size == 0:
        raise DegenerateInputError("all magnitudes are zero")
    # rebuilt from polar form, not conj(v) itself: the two differ in the
    # last bit, and the running sum's rounding decides between tied candidates
    c = mag[nz] * np.exp(1j * wrap_phase(np.angle(np.conj(v[nz]))))
    sw = _sweep(c, dps)

    best = sw.objs.max()
    j = int(np.argmax(sw.objs >= best * (1.0 - TIE_TOL)))
    # candidate j has crossed j // n_eff whole levels plus the first
    # j % n_eff edges of the next one
    laps, extra = divmod(j, nz.size)
    counts = np.full(nz.size, laps, dtype=np.int64)
    counts[sw.order[:extra]] += 1

    full = np.zeros(v.size, dtype=np.int64)
    full[nz] = (sw.k0 + counts) % dps.levels
    return full


def das_maximize(v, dps: DiscretePhaseSet) -> tuple[PhaseVector, float]:
    """Global maximizer of |<v, exp(j*Omega)>| over the lattice Delta^n.

    Returns the optimal configuration and its objective. Among candidates
    whose objectives tie within a relative 1e-12 of the best, the one
    generated earliest in the sweep wins. Zero entries of `v` get phase 0.
    """
    v = as_complex_vector(v)
    pv = PhaseVector.from_indices(_das_indices(v, dps), dps)
    objective = float(np.abs(np.vdot(v, pv.phasors())))
    return pv, objective
