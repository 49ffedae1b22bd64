"""Alternating inner-product maximization for lp-norm objectives.

The central problem is max over Omega of ||A * exp(j*Omega)||_p with each
phase either free (continuous mode) or confined to a B-bit lattice. The dual
representation ||x||_p = sup{|<z, x>| : ||z||_q = 1} splits the problem into
two easy alternating steps: a closed-form dual witness in z, and an inner
product maximization in Omega (divide-and-sort on the lattice, phase
alignment in the continuous case). The objective sequence of the alternation
never decreases, which is also what makes it a lifting procedure: restarting
the discrete alternation from a hard-rounded continuous solution can only
recover rounding loss, never add to it. Hard rounding decides on the exact
lattice split of `core`, the one the divide-and-sort kernel reads.

Both modes share one loop, `_alternate`, that works on raw complex arrays.
The public solvers validate their input and build PhaseVectors once, outside
it, and then call private kernels on raw arrays. `default_pipeline` validates
A once and forms A^H once for all of its stages: its warm start, rounding
and lift run on those kernels, not through the public solvers, and give the
same bits as composing the public functions. Inside the loop the witness and
the cost come from w = A x with plain numpy, and the iterate is carried in
its cheapest form: phasors x = u / |u| in continuous mode (1 where u == 0),
lattice indices from the divide-and-sort kernel in discrete mode. The loop
stops once an iteration raises the cost by at most the tolerance times the
cost, so A and s*A stop after the same iterations; an exact fixed point
raises it by nothing.

The map steps avoid numpy's slow paths without changing a bit. x = u / |u|
is a plain division unless u has a zero entry: a division masked with
`where=` runs the same arithmetic through a loop about twice as slow, and
is kept for the zero entries, which get 1. Multiplying by 1/|u| would be
cheaper, but it is other arithmetic and flips the sign of some zero parts.
The l2 cost is np.linalg.norm's own formula, sqrt(re.re + im.im), without
its wrapper.

An iteration of the discrete mode is one map evaluation: a witness step and
a divide-and-sort step. An iteration of the continuous mode is one SQUAREM
cycle (Varadhan and Roland, Scand. J. Stat. 2008), run on the dual witness
z in C^m rather than on the n phasors, since the map can be written on
either variable and m is the small side. Two plain steps take z0 to z1 and
z2, the squared extrapolation of the three gives a witness zy, and a third
step from zy ends the cycle unless it scores below the second; then a
fourth step from z2 does. Every z gives unimodular phasors x = u / |u|
with u = A^H z, so the extrapolated point needs no projection, and the
witness does not change when A is scaled by a power of two. Every map
evaluation is monotone and the step from zy is kept only when it scores at
least the second, so the cycle is monotone too, and it takes the warm
start to its fixed point in far fewer evaluations. The lift only needs a
monotone run from the rounded point, so the path the warm start takes is
free to change.

Scale. The objective is homogeneous in A, and the solver's choices do not
depend on its scale either. Where a sum of squares leaves the normal double
range (the l2 witness of w = A x, the dominant-row start's l2 row norms),
the computation runs again on the exactly scaled copy of `core._pow2_scale`,
x * 2^-e with max|x * 2^-e| in [1/2, 1), and its result is scaled back by
2^e. That copy is the same for A and 2^k A, so both run the same
arithmetic: the same indices, the same iterations and exactly 2^k times
every cost. In the normal range nothing is rescued and no bit changes.

For the l-infinity objective no alternation is needed: the maximum over rows
commutes with the maximum over configurations, so one divide-and-sort kernel
call per row settles the problem globally. That row sweep is `das._linf`;
`solve_linf` validates A and wraps it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    TWO_PI,
    DiscretePhaseSet,
    PhaseVector,
    _as_int,
    _as_real,
    _finite_objective,
    _normal,
    _pow2_scale,
    _wrap_angle,
    as_complex_matrix,
    as_complex_vector,
    nearest_lattice,
    normalize_p,
    row_norms,
)
from .das import _das_indices, _linf
from .errors import DegenerateInputError, InvalidArgumentError, UnsupportedNormError


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for the alternating solvers: p in {1, 2}, p = inf is rejected.

    The function called selects the mode: `solve_discrete` needs `dps` and
    lifts onto its lattice, `solve_continuous` never reads it.
    """

    p: float = 2.0
    dps: DiscretePhaseSet | None = None
    #: relative stop: an iteration that raises the cost by at most
    #: tolerance * cost ends the run
    tolerance: float = 1e-10
    #: cap on iterations: map steps in discrete mode, SQUAREM cycles in
    #: continuous mode of three map evaluations, four when the extrapolated
    #: witness is rejected
    max_iterations: int = 500

    def __post_init__(self):
        object.__setattr__(self, "p", normalize_p(self.p))
        if math.isinf(self.p):
            raise UnsupportedNormError(
                "p = inf has an exact non-iterative solver: solve_linf, or unimod solve --p inf")
        object.__setattr__(self, "tolerance", _as_real(self.tolerance, "tolerance"))
        object.__setattr__(self, "max_iterations", _as_int(self.max_iterations, "max_iterations"))


@dataclass(frozen=True)
class SolveTrace:
    """Record of one alternating run.

    costs[k] is ||A exp(j*Omega_k)||_p after k iterations, so costs[0]
    belongs to the starting point and the sequence is non-decreasing up to
    floating point noise. A continuous iteration is one SQUAREM cycle of
    three map evaluations, four when the extrapolated witness is rejected;
    a discrete one is a single map evaluation.
    """

    costs: np.ndarray
    #: "fixed-point" (the last cost repeats exactly), "tolerance" or "iteration-cap"
    termination: str
    phases: PhaseVector
    witness: np.ndarray

    @property
    def iterations(self) -> int:
        return self.costs.size - 1

    @property
    def final_cost(self) -> float:
        return float(self.costs[-1])


@dataclass(frozen=True)
class PipelineResult:
    """Continuous solve, hard rounding and lifting, with cost accounting.

    `default_pipeline` also records each stage's wall time in seconds: the
    warm start's, and the hard rounding's and lift's together. Results
    built from the stages by other callers leave them None.
    """

    trace: SolveTrace                  # the lifted (discrete) run
    continuous_trace: SolveTrace
    rounded_phases: PhaseVector
    rounded_cost: float
    continuous_seconds: float | None = None
    lift_seconds: float | None = None

    @property
    def unrounded_cost(self) -> float:
        return self.continuous_trace.final_cost

    @property
    def final_cost(self) -> float:
        return self.trace.final_cost


@np.errstate(over="ignore", invalid="ignore")
def dual_witness(w, q) -> np.ndarray:
    """Unit-q-norm z achieving |<z, w>| = ||w||_p (Holder equality).

    q = 2 returns w / ||w||_2; q = inf returns the elementwise phase vector
    exp(j * angle(w)), with 1 substituted for zero-modulus entries. The
    arbitrary global phase is fixed to 0, making the pairing real positive.
    """
    w = as_complex_vector(w)
    q = normalize_p(q)
    if q == 1.0:
        raise UnsupportedNormError("dual witness is implemented for q in {2, inf}")
    # q = 2 is its own dual norm, q = inf the dual of p = 1
    return _witness(w, 2.0 if q == 2.0 else 1.0)[0]


def continuous_phase_step(u) -> PhaseVector:
    """Phases aligning exp(j*Omega) with u: Omega = angle(u) elementwise.

    Achieves |<u, exp(j*Omega)>| = ||u||_1, the continuous inner-product
    optimum. Zero entries get phase 0.
    """
    return PhaseVector(_aligned_phases(as_complex_vector(u)))


def _aligned_phases(u: np.ndarray) -> np.ndarray:
    """angle(u) wrapped into [0, 2*pi), 0 where u == 0, for a finite u."""
    return _wrap_angle(np.where(np.abs(u) > 0, np.angle(u), 0.0))


#: at or below it 1 / |u| overflows, and so does numpy's complex division by |u|
_TINY = math.ldexp(1.0, -1024)

#: scales every modulus up to 2^-1024 into the normal range, exactly
_UP = math.ldexp(1.0, 600)


def _unit(v: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """v / |v| elementwise, with 1 where v == 0; `mod` is |v|.

    Both branches run numpy's one complex-by-real division loop, so they
    agree bit for bit; only a v with an entry of modulus at most 2^-1024
    pays for the masked one. That loop forms 1 / |v|, which overflows for
    those entries, so a nonzero one is scaled up by 2^600 first, exactly,
    and divided by its own modulus."""
    if mod[mod.argmin()] > _TINY:
        return v / mod
    x = np.divide(v, mod, out=np.ones_like(v), where=mod > _TINY)
    tiny = (mod > 0.0) & (mod <= _TINY)
    if tiny.any():
        t = v[tiny] * _UP
        x[tiny] = t / np.abs(t)
    return x


def _witness(w: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """Dual witness of w = A exp(j*Omega) and the cost ||w||_p, p in {1, 2};
    a cost beyond the double range is InvalidArgumentError."""
    if p == 2.0:
        # np.linalg.norm(w) by its own formula, without the wrapper
        re, im = w.real, w.imag
        sq = re.dot(re) + im.dot(im)
        if not _normal(sq):
            # the sum of squares under- or overflows (|w| near 1e-170 or
            # 1e170): the witness and cost of the exactly scaled copy, whose
            # e is 0 only for w = 0 or a w that is not finite
            x, e = _pow2_scale(w)
            if e:
                z, cost = _witness(x, p)
                return z, _finite_objective(cost, e)
        cost = math.sqrt(sq)
    else:
        mod = np.abs(w)
        cost = float(mod.sum())
    # inf or nan: an l1 sum past 2^1024, or a w that overflowed (e = 0 above)
    _finite_objective(cost)
    if cost == 0.0:
        raise DegenerateInputError("w = A exp(j*Omega) is zero and has no dual witness")
    return (w / cost if p == 2.0 else _unit(w, mod)), cost


def _lattice_phase_vector(omega0, dps: DiscretePhaseSet) -> PhaseVector:
    if isinstance(omega0, PhaseVector) and omega0.indices is not None:
        # indices mean nothing apart from their lattice: take them only if
        # they index this one and the values are theirs, bit for bit
        if not np.array_equal(omega0.values, PhaseVector.from_indices(omega0.indices, dps).values):
            raise InvalidArgumentError("phase indices are not on this phase lattice")
        return omega0
    pv = _as_phase_vector(omega0)
    idx = nearest_lattice(pv.values, dps)
    # circular distance: 2*pi - 1e-13 is 1e-13 away from the lattice point 0
    gap = np.abs(pv.values - idx * dps.step)
    if np.any(np.minimum(gap, TWO_PI - gap) > 1e-12):
        raise InvalidArgumentError("phases are not on the phase lattice")
    return PhaseVector.from_indices(idx, dps)


def _as_phase_vector(omega0) -> PhaseVector:
    if isinstance(omega0, PhaseVector):
        return omega0
    return PhaseVector.from_values(omega0)


def _alternate(a: np.ndarray, ah: np.ndarray, cfg: SolveConfig, state: np.ndarray, step,
               phasors, advance):
    """Shared alternating loop on raw arrays; `ah` is a.conj().T.

    `state` is the iterate in its mode's own form, `phasors(state)` gives
    exp(j*Omega) and `step(u)` maps u = A^H z to the next state. With them
    the loop builds the map `f(z)`, one step from a dual witness z returning
    the next (state, witness, cost). `advance(f, z)` makes one iteration out
    of it and returns its end (state, witness, cost). Returns the cost
    sequence, the termination, the last state and its dual witness. cfg.p
    is 1 or 2, as every SolveConfig's is.
    """
    if state.size != a.shape[1]:
        raise InvalidArgumentError("starting point length does not match the matrix")
    p = cfg.p

    def score(s):
        return _witness(a @ phasors(s), p)

    def f(z):
        s = step(ah @ z)
        return (s, *score(s))

    termination = "iteration-cap"
    # near |w| = 1e170 the l2 witness's sum of squares overflows and
    # _witness rescales; numpy need not warn on each such witness, nor on a
    # w past 2^1024, which `_finite_objective` rejects
    with np.errstate(over="ignore", invalid="ignore"):
        z, cost = score(state)
        costs = [cost]
        for _ in range(cfg.max_iterations):
            state, z, cost = advance(f, z)
            costs.append(cost)
            gain = costs[-1] - costs[-2]
            if gain <= cfg.tolerance * costs[-1]:
                termination = "fixed-point" if gain == 0.0 else "tolerance"
                break
    return np.asarray(costs), termination, state, z


def _map_step(f, z):
    """The discrete iteration: one map evaluation."""
    return f(z)


def _squarem_cycle(f, z0):
    """The continuous iteration: one SQUAREM cycle on dual witnesses.

    Two map steps give z1 and z2, r = z1 - z0 and v = z2 - z1 - r. The step
    length alpha = -||r|| / ||v||, capped at -1, extrapolates to
    zy = z0 - 2*alpha*r + alpha^2*v (alpha = -1 gives z2 itself). The cycle
    ends one map step after zy, unless that step scores below the second;
    then it ends one step after z2. Either end scores at least the second
    step, so the cycle is monotone.
    """
    _, z1, _ = f(z0)
    _, z2, c2 = f(z1)
    r = z1 - z0
    v = z2 - z1 - r
    rr, vv = np.vdot(r, r).real, np.vdot(v, v).real
    alpha = -math.sqrt(rr / vv) if rr > vv > 0.0 else -1.0
    end = f(z0 - 2.0 * alpha * r + alpha * alpha * v)
    return end if end[2] >= c2 else f(z2)


def solve_discrete(a, cfg: SolveConfig, omega0) -> SolveTrace:
    """Alternate dual witnesses with exact lattice inner-product steps.

    Requires p in {1, 2} and a lattice starting point. Every iterate stays
    on the lattice and the cost sequence never decreases. The loop carries
    lattice indices; each step is one divide-and-sort kernel call.
    """
    a = as_complex_matrix(a)
    if cfg.dps is None:
        raise InvalidArgumentError("solve_discrete needs a DiscretePhaseSet in the config")
    return _lift(a, a.conj().T, cfg, _lattice_phase_vector(omega0, cfg.dps))


def _lift(a: np.ndarray, ah: np.ndarray, cfg: SolveConfig, pv0: PhaseVector) -> SolveTrace:
    """Kernel of `solve_discrete` for a validated `a`, its `ah` = a.conj().T
    and a start `pv0` with indices on cfg.dps."""
    dps = cfg.dps
    table = dps.phasors
    costs, termination, idx, z = _alternate(
        a, ah, cfg, pv0.indices, lambda u: _das_indices(u, dps), lambda k: table[k], _map_step)
    return SolveTrace(costs, termination, PhaseVector.from_indices(idx, dps), z)


def solve_continuous(a, cfg: SolveConfig, omega0) -> SolveTrace:
    """Alternate dual witnesses with closed-form phase alignment steps.

    Requires p in {1, 2}. Converges to a local maximizer of the continuous
    problem; its endpoint is the usual warm start for the discrete solver.
    The loop carries phasors: each step is x = u / |u|, 1 where u == 0, and
    each iteration a SQUAREM cycle on the dual witnesses of three steps,
    four when the extrapolated witness is rejected.
    """
    a = as_complex_matrix(a)
    return _align(a, a.conj().T, cfg, _as_phase_vector(omega0).phasors())


def _align(a: np.ndarray, ah: np.ndarray, cfg: SolveConfig, x0: np.ndarray) -> SolveTrace:
    """Kernel of `solve_continuous` for a validated `a`, its `ah` = a.conj().T
    and starting phasors `x0`."""
    costs, termination, x, z = _alternate(
        a, ah, cfg, x0, lambda u: _unit(u, np.abs(u)), lambda x: x, _squarem_cycle)
    return SolveTrace(costs, termination, PhaseVector(_wrap_angle(np.angle(x))), z)


def hard_round(omega, dps: DiscretePhaseSet) -> PhaseVector:
    """Project each phase onto its circularly nearest lattice point."""
    pv = _as_phase_vector(omega)
    idx = nearest_lattice(pv.values, dps)
    return PhaseVector.from_indices(idx, dps)


def solve_linf(a, dps: DiscretePhaseSet) -> tuple[PhaseVector, int, float]:
    """Exact global optimum of ||A exp(j*Omega)||_inf over the lattice.

    The max over rows commutes with the max over configurations, so each
    row's inner product is maximized independently and the best row wins.
    Zero rows are skipped; all-zero matrices are degenerate. Of rows with
    equal objectives the first wins. Rows are visited in descending l1
    order, and a row is swept only if an upper bound on its objective
    reaches the best objective found so far (see `das._linf`); the others
    score strictly below the winner, so skipping them changes no bit of
    the result.
    """
    idx, i, obj, _ = _linf(as_complex_matrix(a), dps)
    return PhaseVector.from_indices(idx, dps), i, obj


def deterministic_init(a, p) -> PhaseVector:
    """Phase start aligning the dominant row: Omega_0 = angle(A^H e_i*).

    i* is the row with the largest l1 norm for p = 1 and largest l2 norm
    otherwise. The indicator e_i* is a unit vector in every dual norm, and for
    a single-row matrix this start is already the continuous optimum.
    """
    return PhaseVector(_init_phases(as_complex_matrix(a), normalize_p(p)))


def _init_phases(a: np.ndarray, p: float) -> np.ndarray:
    """Kernel of `deterministic_init` for a validated `a` and a p through
    `normalize_p`: the starting phases."""
    q = 1.0 if p == 1.0 else 2.0
    with np.errstate(over="ignore"):
        norms = row_norms(a, q)
    top = float(norms.max())
    if not _normal(top * top):
        # for l2, top * top is the largest sum of squares: it overflows near
        # 1e170 or is subnormal near 1e-170 (top below 2^-511), where the
        # rows' order is lost; then rank the rows of the exactly scaled copy,
        # and so do the l1 sums out of the same range
        norms = row_norms(_pow2_scale(a)[0], q)
    return _aligned_phases(np.conj(a[int(np.argmax(norms)), :]))


def default_pipeline(a, dps: DiscretePhaseSet, p, cfg: SolveConfig | None = None) -> PipelineResult:
    """Continuous warm start, hard rounding, then lifting.

    The lift runs the discrete alternation from the hard-rounded point.
    Monotonicity guarantees its final cost is at least the rounded cost, so it
    can only recover quantization loss. A is validated once, here; the steps
    run on their kernels and share one A^H. SolveConfig rejects p = inf;
    p and dps override cfg's. The result carries both stages' wall times.
    """
    a = as_complex_matrix(a)
    cfg = SolveConfig(p=p, dps=dps) if cfg is None else replace(cfg, p=p, dps=dps)
    ah = a.conj().T
    start = time.perf_counter()
    continuous = _warm_start(a, ah, cfg)
    warm = time.perf_counter()
    result = _round_and_lift(a, ah, cfg, continuous)
    return replace(result, continuous_seconds=warm - start,
                   lift_seconds=time.perf_counter() - warm)


def _warm_start(a: np.ndarray, ah: np.ndarray, cfg: SolveConfig) -> SolveTrace:
    """The pipeline's continuous stage, `solve_continuous` from
    `deterministic_init`, for a validated `a`, its `ah` = a.conj().T and
    cfg.p in {1, 2}."""
    return _align(a, ah, cfg, np.exp(1j * _init_phases(a, cfg.p)))


def _round_and_lift(a: np.ndarray, ah: np.ndarray, cfg: SolveConfig,
                    continuous: SolveTrace) -> PipelineResult:
    """The pipeline after its warm start: hard-round the continuous solution
    onto cfg.dps, then lift. `a` is validated, `ah` is a.conj().T and cfg.p
    in {1, 2}; callers that lift one warm start onto several lattices call
    this once per lattice."""
    rounded = hard_round(continuous.phases, cfg.dps)
    lifted = _lift(a, ah, cfg, rounded)
    # the lift's first cost is the rounded point's, at no extra product
    return PipelineResult(lifted, continuous, rounded, float(lifted.costs[0]))
