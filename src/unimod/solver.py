"""Alternating inner-product maximization for lp-norm objectives.

The central problem is max over Omega of ||A * exp(j*Omega)||_p with each
phase either free (continuous mode) or confined to a B-bit lattice. The dual
representation ||x||_p = sup{|<z, x>| : ||z||_q = 1} splits the problem into
two easy alternating steps: a closed-form dual witness in z, and an inner
product maximization in Omega (divide-and-sort on the lattice, phase
alignment in the continuous case). The objective sequence of the alternation
never decreases, which is also what makes it a lifting procedure: restarting
the discrete alternation from a hard-rounded continuous solution can only
recover rounding loss, never add to it.

Both modes share one loop, `_alternate`, that works on raw complex arrays.
The public solvers validate their input and build PhaseVectors once, outside
it. Inside, A^H is formed once per solve, the witness and the cost come from
w = A x with plain numpy, and the iterate is carried in its cheapest form:
phasors x = u / |u| in continuous mode (1 where u == 0), lattice indices from
the divide-and-sort kernel in discrete mode. Two equal consecutive iterates
are an exact fixed point.

For the l-infinity objective no alternation is needed: the maximum over rows
commutes with the maximum over configurations, so one exact divide-and-sort
pass per row settles the problem globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DiscretePhaseSet,
    PhaseVector,
    as_complex_matrix,
    as_complex_vector,
    nearest_lattice,
    norm_lp,
    normalize_p,
    wrap_phase,
)
from .das import _das_indices, das_maximize
from .errors import DegenerateInputError, InvalidArgumentError, UnsupportedNormError


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for the alternating solvers.

    `dps` present means discrete mode; absent means continuous mode.
    """

    p: float = 2.0
    dps: DiscretePhaseSet | None = None
    tolerance: float = 1e-10
    max_iterations: int = 500

    def __post_init__(self):
        object.__setattr__(self, "p", normalize_p(self.p))
        if not (self.tolerance > 0):
            raise InvalidArgumentError("tolerance must be positive")
        if self.max_iterations < 1:
            raise InvalidArgumentError("max_iterations must be >= 1")


@dataclass(frozen=True)
class SolveTrace:
    """Record of one alternating run.

    costs[k] is ||A exp(j*Omega_k)||_p, so costs[0] belongs to the starting
    point and the sequence is non-decreasing up to floating point noise.
    """

    costs: np.ndarray
    iterations: int
    termination: str            # "converged" or "iteration-cap"
    phases: PhaseVector
    witness: np.ndarray

    @property
    def final_cost(self) -> float:
        return float(self.costs[-1])


@dataclass(frozen=True)
class PipelineResult:
    """Continuous solve, hard rounding and lifting, with cost accounting."""

    trace: SolveTrace                  # the lifted (discrete) run
    continuous_trace: SolveTrace
    rounded_phases: PhaseVector
    rounded_cost: float

    @property
    def unrounded_cost(self) -> float:
        return self.continuous_trace.final_cost

    @property
    def final_cost(self) -> float:
        return self.trace.final_cost


def dual_witness(w, q) -> np.ndarray:
    """Unit-q-norm z achieving |<z, w>| = ||w||_p (Holder equality).

    q = 2 returns w / ||w||_2; q = inf returns the elementwise phase vector
    exp(j * angle(w)), with 1 substituted for zero-modulus entries. The
    arbitrary global phase is fixed to 0, making the pairing real positive.
    """
    w = as_complex_vector(w)
    if not np.any(w):
        raise DegenerateInputError("cannot build a dual witness for the zero vector")
    q = normalize_p(q)
    if q == 2.0:
        return w / np.linalg.norm(w)
    if math.isinf(q):
        return _unit(w, np.abs(w))
    raise UnsupportedNormError("dual witness is implemented for q in {2, inf}")


def continuous_phase_step(u) -> PhaseVector:
    """Phases aligning exp(j*Omega) with u: Omega = angle(u) elementwise.

    Achieves |<u, exp(j*Omega)>| = ||u||_1, the continuous inner-product
    optimum. Zero entries get phase 0.
    """
    u = as_complex_vector(u)
    ang = np.where(np.abs(u) > 0, np.angle(u), 0.0)
    return PhaseVector(wrap_phase(ang))


def _unit(v: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """v / |v| elementwise, with 1 where v == 0; `mod` is |v|."""
    return np.divide(v, mod, out=np.ones_like(v), where=mod > 0)


def _witness(w: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """Dual witness of w = A exp(j*Omega) and the cost ||w||_p, p in {1, 2}."""
    if not np.any(w):
        raise DegenerateInputError("A * exp(j*Omega) is identically zero")
    if p == 2.0:
        cost = np.linalg.norm(w)
        return w / cost, float(cost)
    mod = np.abs(w)
    return _unit(w, mod), float(np.sum(mod))


def _lattice_phase_vector(omega0, dps: DiscretePhaseSet) -> PhaseVector:
    if isinstance(omega0, PhaseVector) and omega0.indices is not None:
        # indices mean nothing apart from their lattice: take them only if
        # they index this one and the values are theirs, bit for bit
        idx = omega0.indices
        if (np.any(idx < 0) or np.any(idx >= dps.levels)
                or not np.array_equal(omega0.values, idx * dps.step)):
            raise InvalidArgumentError("starting point's indices are not on this phase lattice")
        return omega0
    pv = _as_phase_vector(omega0)
    idx = nearest_lattice(pv.values, dps)
    if not np.allclose(pv.values, np.asarray(idx) * dps.step, atol=1e-12):
        raise InvalidArgumentError("starting point is not on the phase lattice")
    return PhaseVector.from_indices(idx, dps)


def _as_phase_vector(omega0) -> PhaseVector:
    if isinstance(omega0, PhaseVector):
        return omega0
    return PhaseVector.from_values(omega0)


def _alternate(a: np.ndarray, cfg: SolveConfig, state: np.ndarray, step, phasors):
    """Shared alternating loop on raw arrays.

    `state` is the iterate in its mode's own form, `phasors(state)` gives
    exp(j*Omega) and `step(u)` maps u = A^H z to the next state; two equal
    consecutive states are an exact fixed point. Returns the cost sequence,
    the termination, the last state and its dual witness.
    """
    ah = a.conj().T
    z, cost = _witness(a @ phasors(state), cfg.p)
    costs = [cost]
    termination = "iteration-cap"
    for _ in range(cfg.max_iterations):
        nxt = step(ah @ z)
        z, cost = _witness(a @ phasors(nxt), cfg.p)
        costs.append(cost)
        fixed = np.array_equal(nxt, state)
        state = nxt
        if fixed or abs(costs[-1] - costs[-2]) <= cfg.tolerance:
            termination = "converged"
            break
    return np.asarray(costs), termination, state, z


def solve_discrete(a, cfg: SolveConfig, omega0) -> SolveTrace:
    """Alternate dual witnesses with exact lattice inner-product steps.

    Requires p in {1, 2} and a lattice starting point. Every iterate stays
    on the lattice and the cost sequence never decreases. The loop carries
    lattice indices; each step is one divide-and-sort kernel call.
    """
    a = as_complex_matrix(a)
    if math.isinf(cfg.p):
        raise UnsupportedNormError("p = inf has an exact non-iterative solver, use solve_linf")
    if cfg.dps is None:
        raise InvalidArgumentError("solve_discrete needs a DiscretePhaseSet in the config")
    dps = cfg.dps
    pv0 = _lattice_phase_vector(omega0, dps)
    if len(pv0) != a.shape[1]:
        raise InvalidArgumentError("starting point length does not match the matrix")

    table = np.exp(1j * dps.values)
    costs, termination, idx, z = _alternate(
        a, cfg, pv0.indices, lambda u: _das_indices(u, dps), lambda k: table[k])
    return SolveTrace(costs, costs.size - 1, termination, PhaseVector.from_indices(idx, dps), z)


def solve_continuous(a, cfg: SolveConfig, omega0) -> SolveTrace:
    """Alternate dual witnesses with closed-form phase alignment steps.

    Requires p in {1, 2}. Converges to a local maximizer of the continuous
    problem; its endpoint is the usual warm start for the discrete solver.
    The loop carries phasors: each step is x = u / |u|, 1 where u == 0.
    """
    a = as_complex_matrix(a)
    if math.isinf(cfg.p):
        raise UnsupportedNormError("p = inf has an exact non-iterative solver, use solve_linf")
    pv0 = _as_phase_vector(omega0)
    if len(pv0) != a.shape[1]:
        raise InvalidArgumentError("starting point length does not match the matrix")

    costs, termination, x, z = _alternate(
        a, cfg, pv0.phasors(), lambda u: _unit(u, np.abs(u)), lambda x: x)
    return SolveTrace(costs, costs.size - 1, termination, PhaseVector(wrap_phase(np.angle(x))), z)


def hard_round(omega, dps: DiscretePhaseSet) -> PhaseVector:
    """Project each phase onto its circularly nearest lattice point."""
    pv = _as_phase_vector(omega)
    idx = nearest_lattice(pv.values, dps)
    return PhaseVector.from_indices(np.atleast_1d(idx), dps)


def solve_linf(a, dps: DiscretePhaseSet) -> tuple[PhaseVector, int, float]:
    """Exact global optimum of ||A exp(j*Omega)||_inf over the lattice.

    The max over rows commutes with the max over configurations, so each
    row's inner product is maximized independently and the best row wins.
    Zero rows are skipped; all-zero matrices are degenerate.
    """
    a = as_complex_matrix(a)
    best: tuple[PhaseVector, int, float] | None = None
    for i in range(a.shape[0]):
        row = a[i, :]
        if not np.any(row):
            continue
        pv, obj = das_maximize(np.conj(row), dps)
        if best is None or obj > best[2]:
            best = (pv, i, obj)
    if best is None:
        raise DegenerateInputError("every row of A is zero")
    return best


def deterministic_init(a, p) -> PhaseVector:
    """Phase start aligning the dominant row: Omega_0 = angle(A^H e_i*).

    i* is the row with the largest l2 norm for p = 2 and largest l1 norm for
    p = 1. The indicator e_i* is a unit vector in every dual norm, and for a
    single-row matrix this start is already the continuous optimum.
    """
    a = as_complex_matrix(a)
    p = normalize_p(p)
    row_norms = (np.abs(a).sum(axis=1) if p == 1.0
                 else np.linalg.norm(a, axis=1))
    i_star = int(np.argmax(row_norms))
    u = np.conj(a[i_star, :])
    ang = np.where(np.abs(u) > 0, np.angle(u), 0.0)
    return PhaseVector(wrap_phase(ang))


def default_pipeline(a, dps: DiscretePhaseSet, p, cfg: SolveConfig | None = None) -> PipelineResult:
    """Continuous warm start, hard rounding, then lifting.

    The lift runs the discrete alternation from the hard-rounded point.
    Monotonicity guarantees its final cost is at least the rounded cost, so it
    can only recover quantization loss.
    """
    a = as_complex_matrix(a)
    p = normalize_p(p)
    if math.isinf(p):
        raise UnsupportedNormError("the pipeline handles p in {1, 2}; use solve_linf")
    if cfg is None:
        cfg = SolveConfig(p=p, dps=dps)
    else:
        cfg = replace(cfg, p=p, dps=dps)
    cont_cfg = replace(cfg, dps=None)

    start = deterministic_init(a, p)
    continuous = solve_continuous(a, cont_cfg, start)
    rounded = hard_round(continuous.phases, dps)
    rounded_cost = norm_lp(a @ rounded.phasors(), p)
    lifted = solve_discrete(a, cfg, rounded)
    return PipelineResult(lifted, continuous, rounded, rounded_cost)
