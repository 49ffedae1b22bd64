"""Experiment harness: convergence, lifting, SNR, quantization and timing studies.

Every experiment is a row of the EXPERIMENTS table, driven by an
ExperimentSpec; `run_experiment` writes its CSV table plus a JSON envelope
into the output directory, both named after the kind with "_" for "-". The
envelope records the spec, the results and the environment: Python and
numpy versions, CPU count, the worker count that ran the trials and the git
commit (null outside a checkout). All randomness flows through (seed,
stream) pairs where the stream is derived from the trial index, so results
are bit-identical across reruns and independent of how many workers
execute the trials. Timing numbers are the one exception: wall-clock
fields vary run to run, everything else in the timing table is
reproducible.

Desk-scale trial counts are the defaults; the full-scale studies behind the
shipped figures need nothing more than a larger --trials.

Worker processes run their BLAS on one thread, since the workers already
fill the cores; OPENBLAS_NUM_THREADS, when set, decides instead.
"""

from __future__ import annotations

import csv
import ctypes
import math
import os
import platform
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import cache, partial
from itertools import repeat
from pathlib import Path
from typing import Callable

import numpy as np

from ._version import __version__
from .core import (DiscretePhaseSet, Rng, _as_int, _as_real, as_complex_matrix, norm_lp,
                   sample_complex_gaussian)
from .das import das_maximize
from .errors import InvalidArgumentError
from .oracle import MAX_EXHAUSTIVE_BITS, exhaustive_inner, exhaustive_norm, random_search
from .ris import RisInstance, _snr_value, build_problem
from .serialize import dump_json, matrix_to_json, vector_to_json
from .solver import (
    PipelineResult,
    SolveConfig,
    _round_and_lift,
    _warm_start,
    default_pipeline,
    deterministic_init,
    hard_round,
    solve_continuous,
    solve_discrete,
    solve_linf,
)

#: relative tolerance of every objective comparison, lifted against rounded, the
#: loss that defines a gain and a solver against its oracle, at any channel scale
REL_TOL = 1e-12

#: spec fields only some experiments read; each Experiment's `reads` names
#: those it does, and a spec leaves the others at their defaults
_OPTIONAL_FIELDS = ("p", "n_values", "bits", "random_configs", "nmax")

#: root of the git checkout this module runs from, if it runs from one
_CHECKOUT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one experiment run."""

    kind: str
    out_dir: Path
    trials: int
    seed: int = 0
    p: float = 2.0
    m: int = 32
    n_values: tuple[int, ...] = (200,)
    bits: tuple[int, ...] = (1,)
    random_configs: int = 10_000
    nmax: int = 8
    variance: float = 1.0

    def __post_init__(self):
        experiment = _experiment(self.kind)
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        # SolveConfig's norm rule: p in {1, 2}, since no experiment runs p = inf
        object.__setattr__(self, "p", SolveConfig(p=self.p).p)
        # Rng's seed rule: a nonnegative integer
        object.__setattr__(self, "seed", Rng(self.seed).seed)
        for name in ("trials", "m", "random_configs", "nmax"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        object.__setattr__(self, "n_values", tuple(_as_int(n, "n_values") for n in self.n_values))
        # the lattice widths DiscretePhaseSet takes, and no other rule
        object.__setattr__(self, "bits", tuple(DiscretePhaseSet(b).bits for b in self.bits))
        for name in ("n_values", "bits"):
            values = getattr(self, name)
            if not values:
                raise InvalidArgumentError(f"{name} must name at least one value")
            if len(set(values)) < len(values):
                raise InvalidArgumentError(f"{name} must not repeat a value, got {values!r}")
        object.__setattr__(self, "variance", _as_real(self.variance, "variance"))
        unread = [f"{f.name} (got {getattr(self, f.name)!r})" for f in fields(self)
                  if f.name in _OPTIONAL_FIELDS and f.name not in experiment.reads
                  and getattr(self, f.name) != f.default]
        if unread:
            raise InvalidArgumentError(f"{self.kind} does not read {', '.join(unread)}")
        for name in ("n_values", "bits"):
            if name not in experiment.sweeps and len(getattr(self, name)) > 1:
                raise InvalidArgumentError(
                    f"{self.kind} runs one value of {name}, got {getattr(self, name)!r}")
        if self.kind == "oracle-check":
            if self.nmax > 8 or self.m > 6:
                raise InvalidArgumentError(
                    f"oracle-check takes nmax <= 8 and m <= 6, got nmax {self.nmax}, m {self.m}")
            if max(self.bits) * self.nmax > MAX_EXHAUSTIVE_BITS:
                raise InvalidArgumentError(
                    f"bits up to {max(self.bits)} at n up to {self.nmax} exceed "
                    f"the exhaustive search's 2^{MAX_EXHAUSTIVE_BITS} guard")


@dataclass(frozen=True)
class Experiment:
    """One row of the EXPERIMENTS table: `rows(spec)` builds the CSV rows and
    returns them with the number of worker processes that ran the trials,
    and `summarize(spec, rows)` builds the envelope's results. `reads` names
    the spec fields among p, n_values, bits, random_configs and nmax that the
    experiment uses; a spec may not set the others. `sweeps` names those
    among n_values and bits that it runs over; it takes one value of the
    others. Only lifting-stat reads p: convergence runs p = 1 and p = 2
    itself, and received SNR is a p = 2 quantity."""

    header: tuple[str, ...]
    rows: Callable[[ExperimentSpec], list]
    summarize: Callable[[ExperimentSpec, list], list]
    notes: tuple[str, ...]
    defaults: dict
    reads: tuple[str, ...]
    sweeps: tuple[str, ...] = ()


def _experiment(kind: str) -> Experiment:
    if kind not in EXPERIMENTS:
        raise InvalidArgumentError(
            f"unknown experiment {kind!r}; valid kinds: {', '.join(KINDS)}")
    return EXPERIMENTS[kind]


def make_spec(kind: str, out_dir, **overrides) -> ExperimentSpec:
    """Spec with desk-scale defaults for `kind`, selectively overridden."""
    params = dict(_experiment(kind).defaults)
    params.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentSpec(kind=kind, out_dir=out_dir, **params)


def _lifting_gain(unrounded: float, rounded: float, lifted: float) -> float | None:
    """(lifted - rounded) / (unrounded - rounded), or None when the rounding
    loss is below REL_TOL times the unrounded cost and the ratio is undefined."""
    loss = unrounded - rounded
    return (lifted - rounded) / loss if loss >= REL_TOL * unrounded else None


def _stage_ends(result: PipelineResult) -> tuple:
    """How the warm start and the lift ended, and their iteration counts:
    the `_STAGE_HEADER` columns."""
    warm, lift = result.continuous_trace, result.trace
    return warm.termination, warm.iterations, lift.termination, lift.iterations


# ---------------------------------------------------------------------------
# plumbing

def _worker_count() -> int:
    """UNIMOD_THREADS if set, capped at the usable CPUs; else the usable
    CPUs: those of this process's affinity mask where the platform has one,
    else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    env = os.environ.get("UNIMOD_THREADS")
    if env:
        try:
            return min(max(1, int(env)), cpus)
        except ValueError as exc:
            raise InvalidArgumentError(f"UNIMOD_THREADS must be an integer, got {env!r}") from exc
    return cpus


#: thread-count setters of the OpenBLAS builds that numpy wheels bundle
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Pool initializer: run this worker's BLAS on one thread, so that the
    workers' BLAS threads do not oversubscribe the cores. It reaches the
    OpenBLAS bundled in numpy's wheel (numpy.libs), the library numpy
    itself loaded, and does nothing when OPENBLAS_NUM_THREADS is set or no
    such library or setter exists."""
    if os.environ.get("OPENBLAS_NUM_THREADS"):
        return
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return


def _map_trials(fn, spec: ExperimentSpec, tasks=None) -> tuple[list, int]:
    """Run the module-level worker `fn(spec, task)` over `tasks` (default: the
    trial indices) and concatenate the row lists it returns, in task order.
    Returns the rows and the number of worker processes that ran the tasks,
    1 when they ran in this process.

    Results are independent of the worker count because every task derives
    its randomness from its own (seed, stream) pair.
    """
    tasks = list(range(spec.trials) if tasks is None else tasks)
    workers = min(_worker_count(), len(tasks))
    if workers <= 1 or len(tasks) < 4:
        workers = 1
        chunks = [fn(spec, task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            chunks = list(pool.map(fn, repeat(spec), tasks,
                                   chunksize=max(1, len(tasks) // (4 * workers))))
    return [row for rows in chunks for row in rows], workers


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


@cache
def _commit() -> str | None:
    """HEAD of the git checkout this module runs from, or None outside one
    or without git. Asked once per process."""
    if not (_CHECKOUT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=_CHECKOUT,
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _envelope(spec: ExperimentSpec, experiment: Experiment, results, workers: int) -> dict:
    """The JSON envelope; its spec lists only the fields the experiment reads."""
    doc = {name: list(value) if isinstance(value, tuple) else value
           for name, value in asdict(spec).items()
           if name not in _OPTIONAL_FIELDS or name in experiment.reads}
    doc["out_dir"] = str(spec.out_dir)
    return {
        "spec": doc,
        "git_like_version": __version__,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "cpu_count": os.cpu_count(), "workers": workers,
                        "commit": _commit()},
        "results": results,
        "notes": list(experiment.notes),
    }


def _ris_instance(spec: ExperimentSpec, block: int,
                  trial: int) -> tuple[RisInstance, np.ndarray, Rng]:
    """The one draw of the RIS studies: trial `trial`'s NLoS channel at unit
    count n_values[block], its validated solver matrix, and the Rng it was
    drawn from, stream (block << 32) | trial, which the random baseline reads on."""
    n = spec.n_values[block]
    rng = Rng(spec.seed, stream=(block << 32) | trial)
    h = sample_complex_gaussian(rng, n, spec.m, spec.variance)
    h_ue = sample_complex_gaussian(rng, 1, n, spec.variance).ravel()
    inst = RisInstance(h, h_ue)
    return inst, as_complex_matrix(build_problem(inst).matrix), rng


# ---------------------------------------------------------------------------
# convergence

def _convergence_trial(spec: ExperimentSpec, trial: int) -> list:
    """Per-iteration cost traces for both iteration flavours and p in {1, 2}."""
    rng = Rng(spec.seed, stream=trial)
    a = sample_complex_gaussian(rng, spec.m, spec.n_values[0], spec.variance)
    dps = DiscretePhaseSet(spec.bits[0])
    rows = []
    for p in (1, 2):
        start = deterministic_init(a, p)
        cont = solve_continuous(a, SolveConfig(p=p), start)
        disc = solve_discrete(a, SolveConfig(p=p, dps=dps), hard_round(start, dps))
        for mode, trace in (("continuous", cont), ("discrete", disc)):
            rows += [(trial, mode, p, it, float(cost))
                     for it, cost in enumerate(trace.costs, trace.single_iterations)]
    return rows


def _convergence_summary(spec: ExperimentSpec, rows) -> list:
    return [{"trials": spec.trials, "max_iterations_observed": max(r[3] for r in rows)}]


# ---------------------------------------------------------------------------
# lifting statistics

def _lifting_trial(spec: ExperimentSpec, trial: int) -> list:
    """The relative lifting gain on one random instance."""
    rng = Rng(spec.seed, stream=trial)
    a = sample_complex_gaussian(rng, spec.m, spec.n_values[0], spec.variance)
    result = default_pipeline(a, DiscretePhaseSet(spec.bits[0]), spec.p)
    costs = (result.unrounded_cost, result.rounded_cost, result.final_cost)
    return [(trial, *costs, _lifting_gain(*costs), *_stage_ends(result))]


def _lifting_summary(spec: ExperimentSpec, rows) -> list:
    gains = [r[4] for r in rows if r[4] is not None]
    return [{
        "trials": spec.trials,
        "p": spec.p,
        "defined_gains": len(gains),
        "median_gain": float(np.median(gains)) if gains else None,
        "strict_improvements": sum(1 for r in rows if r[3] - r[2] > REL_TOL * r[2]),
        "dominance_violations": sum(1 for r in rows if r[2] - r[3] > REL_TOL * r[2]),
        "continuous_cap_hits": sum(1 for r in rows if r[5] == "iteration-cap"),
    }]


# ---------------------------------------------------------------------------
# SNR studies

#: the pipeline, its hard-rounded point, the best random draw, all phases 0
_SNR_METHODS = ("pipeline", "rounded", "random", "zero")


def _snr_trial(spec: ExperimentSpec, task: tuple[int, int]) -> list:
    block, trial = task
    inst, a, rng = _ris_instance(spec, block, trial)
    n = a.shape[1]
    dps = DiscretePhaseSet(spec.bits[0])

    result = default_pipeline(a, dps, 2)
    best_random = random_search(a, dps, 2, spec.random_configs, rng)
    zero_cost = norm_lp(a @ np.ones(n, dtype=complex), 2)

    costs = (result.final_cost, result.rounded_cost, best_random.objective, zero_cost)
    return [(n, trial, method, float(cost), _snr_value(cost, inst).db)
            for method, cost in zip(_SNR_METHODS, costs)]


def _snr_rows(spec: ExperimentSpec) -> tuple[list, int]:
    """Per-trial SNR of the pipeline and its baselines, for every unit count."""
    tasks = [(block, t) for block in range(len(spec.n_values)) for t in range(spec.trials)]
    return _map_trials(_snr_trial, spec, tasks)


def _snr_vs_n_summary(spec: ExperimentSpec, rows) -> list:
    """Mean SNR against the unit count for the pipeline and baselines."""
    results = []
    for n in spec.n_values:
        for method in _SNR_METHODS:
            vals = [r[4] for r in rows if r[0] == n and r[2] == method]
            results.append({"n": n, "method": method,
                            "mean_snr_db": float(np.mean(vals))})
    return results


def _snr_cdf_summary(spec: ExperimentSpec, rows) -> list:
    """SNR percentiles per method, for distribution plots."""
    qs = (5, 25, 50, 75, 95)
    results = []
    for method in _SNR_METHODS:
        # one call for all five: the same values as five single-q calls
        pct = np.percentile([r[4] for r in rows if r[2] == method], qs)
        results.append({
            "method": method,
            "percentiles_db": {str(q): float(v) for q, v in zip(qs, pct)},
        })
    return results


# ---------------------------------------------------------------------------
# quantization gap

def _gap_trial(spec: ExperimentSpec, trial: int) -> list:
    """SNR loss of B-bit pipelines against the continuous solution."""
    inst, a, _ = _ris_instance(spec, 0, trial)
    # one warm start, lifted onto each lattice as default_pipeline would
    continuous = _warm_start(a, SolveConfig(p=2))
    cont_db = _snr_value(continuous.final_cost, inst).db
    rows = []
    for bits in spec.bits:
        result = _round_and_lift(a, SolveConfig(p=2, dps=DiscretePhaseSet(bits)), continuous)
        pipe_db = _snr_value(result.final_cost, inst).db
        rows.append((trial, bits, pipe_db, cont_db, cont_db - pipe_db, *_stage_ends(result)))
    return rows


def _gap_summary(spec: ExperimentSpec, rows) -> list:
    results = []
    for bits in spec.bits:
        vals = [r[4] for r in rows if r[1] == bits]
        results.append({"bits": bits, "mean_gap_db": float(np.mean(vals))})
    return results


# ---------------------------------------------------------------------------
# timing

def _timing_rows(spec: ExperimentSpec) -> tuple[list, int]:
    """Wall-clock cost of the pipeline and the random baseline per unit count.

    Runs serially on purpose, so with one worker; channel generation and I/O
    sit outside the timers. Objective columns are reproducible, second
    columns are not.
    """
    dps = DiscretePhaseSet(spec.bits[0])
    rows = []
    for block, n in enumerate(spec.n_values):
        instances = [_ris_instance(spec, block, t)[1:] for t in range(spec.trials)]
        for method, solve in (
                ("pipeline", lambda a, _: default_pipeline(a, dps, 2).final_cost),
                ("random", lambda a, rng: random_search(
                    a, dps, 2, spec.random_configs, rng).objective)):
            t0 = time.perf_counter()
            objs = [solve(a, rng) for a, rng in instances]
            total = time.perf_counter() - t0
            rows.append((n, method, spec.trials, total, total / spec.trials,
                         float(np.mean(objs))))
    return rows, 1


def _timing_summary(spec: ExperimentSpec, rows) -> list:
    return [{"n": r[0], "method": r[1], "mean_seconds": r[4],
             "mean_objective": r[5]} for r in rows]


# ---------------------------------------------------------------------------
# oracle check

def _oracle_trial(spec: ExperimentSpec, task: tuple[str, int]) -> list:
    """One (row, failure) pair, the failure None on a match. `task` is
    (check, trial): "das" audits DaS on a vector v from stream `trial`,
    "linf" `solve_linf` on a matrix a from stream 2^40 + `trial`."""
    check, trial = task
    linf = check == "linf"
    rng = Rng(spec.seed, stream=(1 << 40) | trial if linf else trial)
    g = rng.generator
    m = int(g.integers(1, spec.m + 1)) if linf else None
    n = int(g.integers(1, spec.nmax + 1))
    widths = _linf_bits(spec) if linf else spec.bits
    bits = int(widths[g.integers(0, len(widths))])
    a = sample_complex_gaussian(rng, m or 1, n, spec.variance)
    dps = DiscretePhaseSet(bits)
    if linf:
        obj, ref = solve_linf(a, dps)[2], exhaustive_norm(a, dps, math.inf)
        key, dump = "a", matrix_to_json
    else:
        a = a.ravel()
        obj, ref = das_maximize(a, dps)[1], exhaustive_inner(a, dps)
        key, dump = "v", vector_to_json
    match = abs(obj - ref.objective) <= REL_TOL * ref.objective
    failure = None if match else {"check": check, "trial": trial, "bits": bits, key: dump(a)}
    return [((check, trial, m, n, bits, obj, ref.objective, int(match)), failure)]


def _linf_bits(spec: ExperimentSpec) -> tuple[int, ...]:
    """The spec's bit widths the l-infinity audit draws from: those <= 2."""
    return tuple(b for b in spec.bits if b <= 2)


def _oracle_rows(spec: ExperimentSpec) -> tuple[list, int]:
    """Exactness audit: divide-and-sort and the l-infinity solver against
    exhaustive enumeration, the latter only when the spec has a bit width
    <= 2, in one task list with the DaS trials first. A solver matches within
    REL_TOL of the oracle's objective, so the check means the same at every
    variance. Mismatches dump the failing instance as JSON."""
    checks = ("das", "linf") if _linf_bits(spec) else ("das",)
    pairs, workers = _map_trials(_oracle_trial, spec,
                                 [(check, t) for check in checks for t in range(spec.trials)])
    failures = [failure for _, failure in pairs if failure is not None]
    if failures:
        dump_json(spec.out_dir / "oracle_check_failures.json", failures)
    return [row for row, _ in pairs], workers


def _oracle_summary(spec: ExperimentSpec, rows) -> list:
    summary = {}
    for check in ("das", "linf"):
        summary[f"{check}_matches"] = sum(r[7] for r in rows if r[0] == check)
        summary[f"{check}_trials"] = sum(1 for r in rows if r[0] == check)
    return [summary]


# ---------------------------------------------------------------------------

_CONTINUOUS_REFERENCE = "continuous reference: this package's alternating continuous solver"
_SNR_CONVENTION = "SNR convention: transmit power 1, noise variance 1"
_SNR_HEADER = ("n", "trial", "method", "objective", "snr_db")
_STAGE_HEADER = ("continuous_termination", "continuous_iterations",
                 "lift_termination", "lift_iterations")
_RANDOM_DRAW = ("random baseline: configuration k reads generator words k*W .. (k+1)*W - 1 as "
                "little-endian w-byte integers, w the smallest power of two with 8 w >= B; "
                "code i is integer i, or its top B bits when B > 8, and holds d = floor(8 / B) "
                "digits for B <= 8, digit i being (code[i // d] >> (8 - B (i % d + 1))) & "
                "(2^B - 1), else d = 1; W = ceil(ceil(n / d) w / 8); trees that drew one byte "
                "per digit for B <= 4, or drew with Generator.integers, agree in distribution, "
                "not draw for draw")
_SNR_NOTES = ("NLoS channels, i.i.d. complex Gaussian entries", _SNR_CONVENTION, _RANDOM_DRAW)
_SNR_READS = ("n_values", "bits", "random_configs")

EXPERIMENTS: dict[str, Experiment] = {
    "convergence": Experiment(
        ("trial", "mode", "p", "iter", "cost"),
        partial(_map_trials, _convergence_trial), _convergence_summary,
        ("costs are listed per iteration; every trace is non-decreasing",
         "a continuous iteration is one SQUAREM cycle of three map evaluations, "
         "four when the extrapolated witness is rejected; a discrete iteration "
         "is one map evaluation",
         "at m * n >= 2^13 the continuous trace starts after its single-precision "
         "cycles, which list no cost"),
        dict(trials=3, m=10, n_values=(100,), bits=(2,)), reads=("n_values", "bits")),
    "lifting-stat": Experiment(
        ("trial", "unrounded", "rounded", "lifted", "gain", *_STAGE_HEADER),
        partial(_map_trials, _lifting_trial), _lifting_summary,
        (_CONTINUOUS_REFERENCE,
         "gain is empty when the rounding loss is below 1e-12 of the continuous cost"),
        dict(trials=500, m=10, n_values=(100,), bits=(1,)), reads=("p", "n_values", "bits")),
    "snr-vs-n": Experiment(
        _SNR_HEADER, _snr_rows, _snr_vs_n_summary, _SNR_NOTES,
        dict(trials=100, m=32, n_values=(50, 100, 200), bits=(1,)),
        reads=_SNR_READS, sweeps=("n_values",)),
    "snr-cdf": Experiment(
        _SNR_HEADER, _snr_rows, _snr_cdf_summary, _SNR_NOTES,
        dict(trials=200, m=32, n_values=(200,), bits=(2,)),
        reads=_SNR_READS, sweeps=("n_values",)),
    "quantization-gap": Experiment(
        ("trial", "bits", "pipeline_snr_db", "continuous_snr_db", "gap_db", *_STAGE_HEADER),
        partial(_map_trials, _gap_trial), _gap_summary, (_CONTINUOUS_REFERENCE, _SNR_CONVENTION),
        dict(trials=100, m=16, n_values=(200,), bits=(1, 2, 3, 4)),
        reads=("n_values", "bits"), sweeps=("bits",)),
    "timing": Experiment(
        ("n", "method", "trials", "total_seconds", "mean_seconds", "mean_objective"),
        _timing_rows, _timing_summary,
        ("wall-clock fields vary run to run; mean_objective is reproducible",
         "timers exclude channel generation and file I/O", _RANDOM_DRAW),
        dict(trials=20, m=32, n_values=(10, 50, 100, 200, 500, 1000), bits=(1,),
             random_configs=1000), reads=_SNR_READS, sweeps=("n_values",)),
    "oracle-check": Experiment(
        ("check", "trial", "m", "n", "bits", "solver_objective", "oracle_objective", "match"),
        _oracle_rows, _oracle_summary,
        ("mismatching instances, if any, are dumped alongside",),
        dict(trials=100, m=6, bits=(1, 2, 3)), reads=("bits", "nmax"), sweeps=("bits",)),
}
KINDS = tuple(EXPERIMENTS)


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run one experiment: write its CSV table and JSON envelope into
    spec.out_dir and return the envelope."""
    experiment = EXPERIMENTS[spec.kind]
    stem = spec.kind.replace("-", "_")
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    rows, workers = experiment.rows(spec)
    _write_csv(spec.out_dir / f"{stem}.csv", experiment.header, rows)
    envelope = _envelope(spec, experiment, experiment.summarize(spec, rows), workers)
    dump_json(spec.out_dir / f"{stem}.json", envelope)
    return envelope
