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
it, and then call private kernels on raw arrays, which take A alone.
`default_pipeline` validates A once: its warm start, rounding and lift run
on those kernels, not through the public solvers, and give the same bits as
composing the public functions. Inside the loop the witness and the cost
come from w = A x with plain numpy, and the iterate is carried in its
cheapest form: phasors x = u / |u| in continuous mode (1 where u == 0),
lattice indices from the divide-and-sort kernel in discrete mode. The loop
stops once an iteration raises the cost by at most the tolerance times the
cost, so A and s*A stop after the same iterations; an exact fixed point
raises it by nothing.

The map steps avoid numpy's slow paths without changing a bit. x = u / |u|
is a plain division unless u has a zero entry: a division masked with
`where=` runs the same arithmetic through a loop about twice as slow, and
is kept for the zero entries, which get 1. In single precision the plain
division is a multiply by 1/|u|: numpy's complex-by-real division forms
(re + im*0) * (1/|u|), so the two agree bit for bit wherever no part of
the quotient is zero, and elsewhere differ at most in the sign of a zero
part. float64 keeps the division. The l2 cost is `core._l2`, the rule of
`norm_lp`: np.linalg.norm's own formula, sqrt(re.re + im.im), without
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

Two precisions. The continuous kernel `_align`, shared by
`solve_continuous` and the pipeline's warm start, owes the rounding a
float64 fixed point, not float64 arithmetic on every cycle. Where A has
at least 2^13 entries (`_SINGLE_MIN_SIZE`), where the two products of a
map evaluation run at memory speed and complex64 halves their bytes, it
first runs the same SQUAREM cycles in single precision, until a cycle
gains at most the configured tolerance of the cost or 1e-7
(`_SINGLE_TOLERANCE`), whichever is larger, and hands their end point to
the float64 cycles, which stop on the configured tolerance. The
single-precision cycles run on a canonical complex64 copy, A / a_k for
the first entry a_k of largest modulus (up to a share 2^-20, so that
moduli tied to rounding stay tied), from a start turned so that its entry
0 is 1. The one division both turns and scales: A, s*A for any s > 0 and
exp(j*theta) A give the same copy and start up to float64 roundings that
the cast almost always absorbs, and 2^k A gives them bit for bit wherever
1 / a_k is a normal double, so the scale and rotation invariances below
hold as in float64. Where 1 / a_k is not finite, at a pivot modulus below
about 2^-1024, the float64 cycles run alone. The hand-off is turned back
in float64, and it is the start itself unless it scores at least as high
in float64. Below the size, the kernel is the float64 loop alone.

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
    _l2,
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
    #: witness is rejected, in single and in double precision together
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

    costs[k] is the float64 ||A exp(j*Omega_k)||_p after k float64
    iterations, so costs[0] belongs to their starting point and the sequence
    is non-decreasing up to floating point noise. A continuous iteration is
    one SQUAREM cycle of three map evaluations, four when the extrapolated
    witness is rejected; a discrete one is a single map evaluation. A
    continuous run on an A of at least 2^13 entries first runs
    `single_iterations` cycles in single precision, which record no cost:
    costs[0] then belongs to their hand-off, and `iterations` counts the
    cycles of both precisions.
    """

    costs: np.ndarray
    #: "fixed-point" (the last cost repeats exactly), "tolerance" or "iteration-cap"
    termination: str
    phases: PhaseVector
    witness: np.ndarray
    #: the single-precision cycles before costs[0]
    single_iterations: int = 0

    @property
    def iterations(self) -> int:
        return self.costs.size - 1 + self.single_iterations

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
    and divided by its own modulus. A complex64 v without such an entry is
    multiplied by 1 / |v| instead, the loop's own arithmetic but for the
    sign of a zero part (see the module docstring)."""
    if mod[mod.argmin()] > _TINY:
        return v * np.reciprocal(mod) if v.dtype == np.complex64 else v / mod
    x = np.divide(v, mod, out=np.ones_like(v), where=mod > _TINY)
    tiny = (mod > 0.0) & (mod <= _TINY)
    if tiny.any():
        t = v[tiny] * _UP
        x[tiny] = t / np.abs(t)
    return x


def _witness(w: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """Dual witness of w = A exp(j*Omega) and the cost ||w||_p, p in {1, 2}:
    for l2, x / c and c * 2^e of `_l2(w)`, for l1 the unit phasors of w and
    the sum of their moduli. A cost beyond the double range is
    InvalidArgumentError."""
    if p == 2.0:
        x, e, c = _l2(w)
    else:
        mod = np.abs(w)
        e, c = 0, float(mod.sum())
    # inf or nan: an l1 sum past 2^1024, or a w that is not finite
    cost = _finite_objective(c, e)
    if cost == 0.0:
        raise DegenerateInputError("w = A exp(j*Omega) is zero and has no dual witness")
    return (x / c if p == 2.0 else _unit(w, mod)), cost


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


def _alternate(a: np.ndarray, p: float, state: np.ndarray, step, phasors, advance,
               tolerance: float, cap: int):
    """Shared alternating loop on raw arrays; it forms A^H once per call.

    `state` is the iterate in its mode's own form, `phasors(state)` gives
    exp(j*Omega) and `step(u)` maps u = A^H z to the next state. With them
    the loop builds the map `f(z)`, one step from a dual witness z returning
    the next (state, witness, cost). `advance(f, z)` makes one iteration out
    of it and returns its end (state, witness, cost). The loop runs at most
    `cap` iterations and stops once one raises the cost by at most
    `tolerance` times the cost. Returns the cost sequence, the termination,
    the last state and its dual witness. p is 1 or 2, as every
    SolveConfig's is.
    """
    if state.size != a.shape[1]:
        raise InvalidArgumentError("starting point length does not match the matrix")
    # a transposed view: a C-ordered copy of A^H moves the last bits of u
    ah = a.conj().T

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
        for _ in range(cap):
            state, z, cost = advance(f, z)
            costs.append(cost)
            gain = costs[-1] - costs[-2]
            if gain <= tolerance * costs[-1]:
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
    return _lift(a, cfg, _lattice_phase_vector(omega0, cfg.dps))


def _lift(a: np.ndarray, cfg: SolveConfig, pv0: PhaseVector) -> SolveTrace:
    """Kernel of `solve_discrete` for a validated `a` and a start `pv0` with
    indices on cfg.dps."""
    dps = cfg.dps
    table = dps.phasors
    costs, termination, idx, z = _alternate(
        a, cfg.p, pv0.indices, lambda u: _das_indices(u, dps), lambda k: table[k], _map_step,
        cfg.tolerance, cfg.max_iterations)
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
    return _align(a, cfg, _as_phase_vector(omega0).phasors())


#: A with at least this many entries runs single-precision cycles before the
#: float64 ones; below it they cost about what they save (scripts/ab.py on
#: 32 x n: break-even at n = 256, a loss at n = 200)
_SINGLE_MIN_SIZE = 1 << 13

#: the single-precision cycles divide A by the first entry whose modulus is
#: at least this share of the largest
_TIE = 1.0 - 2.0**-20

#: the single-precision cycles stop once one gains at most this share of the
#: cost, just above float32's unit roundoff of 6e-8, or the configured
#: tolerance where that is larger
#: (scripts/ab.py --patch solver._SINGLE_TOLERANCE=X)
_SINGLE_TOLERANCE = 1e-7


def _align(a: np.ndarray, cfg: SolveConfig, x0: np.ndarray) -> SolveTrace:
    """Kernel of `solve_continuous` for a validated `a` and starting phasors
    `x0`: `_single_cycles` where A has at least _SINGLE_MIN_SIZE entries,
    then float64 cycles from their hand-off, all of them within
    cfg.max_iterations."""
    single = 0
    if a.size >= _SINGLE_MIN_SIZE:
        x0, single = _single_cycles(a, cfg, x0)
    costs, termination, x, z = _cycles(a, cfg.p, x0, cfg.tolerance, cfg.max_iterations - single)
    return SolveTrace(costs, termination, PhaseVector(_wrap_angle(np.angle(x))), z, single)


def _cycles(a: np.ndarray, p: float, x0: np.ndarray, tolerance: float, cap: int):
    """`_alternate` in continuous mode, in the precision of `a`: SQUAREM
    cycles carrying phasors, each step x = u / |u|."""
    return _alternate(a, p, x0, lambda u: _unit(u, np.abs(u)), lambda x: x, _squarem_cycle,
                      tolerance, cap)


@np.errstate(over="ignore", invalid="ignore")
def _single_cycles(a: np.ndarray, cfg: SolveConfig, x0: np.ndarray) -> tuple[np.ndarray, int]:
    """SQUAREM cycles in single precision: the float64 start they hand off
    and the number of cycles they ran.

    They run on a canonical complex64 copy of A, A * (1 / a_k) with a_k the
    first entry whose modulus is within a share 2^-20 of the largest, from
    x0 turned so that its entry 0 is 1. A, s*A for any s > 0 and
    exp(j*theta) A have the same copy and turned start up to float64
    roundings, which the cast to complex64 almost always absorbs (the
    pivot's own entry, 1 + j*eps with |eps| near 1e-17, keeps its eps,
    which the float32 sums absorb instead), so they run the same cycles;
    2^k A has them bit for bit wherever 1 / a_k is a normal double. The
    cycles stop at a gain of at most max(_SINGLE_TOLERANCE, cfg.tolerance)
    of the cost, or after cfg.max_iterations. Their end point, turned back
    by x0[0] in float64 and made unimodular, is the hand-off, unless its
    float64 cost is below the start's: then x0 is.

    An all-zero A, one whose largest modulus is not finite, or one whose
    pivot has a modulus below about 2^-1024, so that 1 / a_k is not finite,
    runs no cycle. A zero or non-finite cost, in complex64, where 1 / |u|
    overflows below about 2^-128, or in float64, discards the cycles, and so
    does a start of another length, which the float64 cycles then reject: x0
    is handed off, after 0 cycles.
    """
    turn = _canonical_turn(a)
    if turn is None:
        return x0, 0
    # cast from complex128 in numpy's buffered chunks, with no full-size temporary
    a32 = np.multiply(a, turn, out=np.empty(a.shape, np.complex64), casting="same_kind")
    x32 = np.multiply(x0, np.conj(x0[0]), out=np.empty(x0.shape, np.complex64),
                      casting="same_kind")
    try:
        costs, _, x, _ = _cycles(a32, cfg.p, x32, max(_SINGLE_TOLERANCE, cfg.tolerance),
                                 cfg.max_iterations)
        h = x * x0[0]
        h = _unit(h, np.abs(h))
        better = _witness(a @ h, cfg.p)[1] >= _witness(a @ x0, cfg.p)[1]
    except (DegenerateInputError, InvalidArgumentError):
        return x0, 0
    return (h if better else x0), costs.size - 1


def _canonical_turn(a: np.ndarray) -> complex | None:
    """1 / a_k of `_single_cycles`, which turns and scales A in one product;
    None for an all-zero A, one whose largest modulus is not finite, or a
    pivot a_k whose reciprocal is not finite (a modulus below about
    2^-1024)."""
    mod = np.abs(a)
    top = mod.max()
    if not 0.0 < top < math.inf:
        return None
    # moduli that tie up to rounding, as in rows of steering phasors, stay
    # tied when A turns, while the last bits of each move
    turn = 1.0 / a.flat[np.argmax(mod >= top * _TIE)]
    return turn if np.isfinite(turn) else None


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
    the result. The objective returned is norm_lp(A x, inf) of the
    winner's phasors x, bit for bit, as `exhaustive_norm` scores it.
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
    can only recover quantization loss. A is validated once, here, and the
    steps run on their kernels. SolveConfig rejects p = inf;
    p and dps override cfg's. The result carries both stages' wall times.
    """
    a = as_complex_matrix(a)
    cfg = SolveConfig(p=p, dps=dps) if cfg is None else replace(cfg, p=p, dps=dps)
    start = time.perf_counter()
    continuous = _warm_start(a, cfg)
    warm = time.perf_counter()
    result = _round_and_lift(a, cfg, continuous)
    return replace(result, continuous_seconds=warm - start,
                   lift_seconds=time.perf_counter() - warm)


def _warm_start(a: np.ndarray, cfg: SolveConfig) -> SolveTrace:
    """The pipeline's continuous stage, `solve_continuous` from
    `deterministic_init`, for a validated `a` and cfg.p in {1, 2}."""
    return _align(a, cfg, np.exp(1j * _init_phases(a, cfg.p)))


def _round_and_lift(a: np.ndarray, cfg: SolveConfig, continuous: SolveTrace) -> PipelineResult:
    """The pipeline after its warm start: hard-round the continuous solution
    onto cfg.dps, then lift. `a` is validated and cfg.p in {1, 2}; callers
    that lift one warm start onto several lattices call this once per
    lattice."""
    rounded = hard_round(continuous.phases, cfg.dps)
    lifted = _lift(a, cfg, rounded)
    # the lift's first cost is the rounded point's, at no extra product
    return PipelineResult(lifted, continuous, rounded, float(lifted.costs[0]))
