"""Experiment harness: convergence, lifting, SNR, quantization and timing studies.

Every experiment is a row of the EXPERIMENTS table, driven by an
ExperimentSpec; `run_experiment` writes its CSV table plus a JSON envelope
into the output directory. All randomness flows through (seed, stream) pairs
where the stream is derived from the trial index, so results are
bit-identical across reruns and independent of how many workers execute the
trials. Timing numbers are the one exception: wall-clock fields vary run to
run, everything else in the timing table is reproducible.

Desk-scale trial counts are the defaults; the full-scale studies behind the
shipped figures need nothing more than a larger --trials.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Callable

import numpy as np

from ._version import __version__
from .core import DiscretePhaseSet, Rng, norm_lp, normalize_p, sample_complex_gaussian
from .das import das_maximize
from .errors import InvalidArgumentError
from .oracle import exhaustive_inner, exhaustive_norm, random_search
from .ris import RisInstance, build_problem
from .serialize import dump_json, matrix_to_json, vector_to_json
from .solver import (
    SolveConfig,
    default_pipeline,
    deterministic_init,
    hard_round,
    solve_continuous,
    solve_discrete,
    solve_linf,
)

#: strict-improvement threshold and the rounding-loss floor below which the
#: relative lifting gain is recorded as undefined
GAIN_EPS = 1e-12


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
        for name in ("trials", "random_configs", "nmax"):
            if getattr(self, name) < 1:
                raise InvalidArgumentError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.m < 1 or any(n < 1 for n in self.n_values) or not self.n_values:
            raise InvalidArgumentError("all dimensions must be >= 1")
        if any(b < 1 for b in self.bits) or not self.bits:
            raise InvalidArgumentError("bit widths must be >= 1")
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise InvalidArgumentError(
                f"variance must be finite and positive, got {self.variance!r}")
        if experiment.p2_only and normalize_p(self.p) != 2.0:
            raise InvalidArgumentError(f"{self.kind} always solves with p = 2, got p = {self.p!r}")
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))


@dataclass(frozen=True)
class Experiment:
    """One row of the EXPERIMENTS table: `rows(spec)` builds the CSV rows and
    `summarize(spec, rows)` the envelope's results. `p2_only` kinds always
    solve with p = 2: received SNR is a p = 2 quantity, and timing measures
    the same SNR pipeline."""

    stem: str
    header: tuple[str, ...]
    rows: Callable[[ExperimentSpec], list]
    summarize: Callable[[ExperimentSpec, list], list]
    notes: tuple[str, ...]
    defaults: dict
    p2_only: bool = False


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


@dataclass(frozen=True)
class LiftingRecord:
    """Costs around one hard-rounding event.

    `gain` is (lifted - rounded) / (unrounded - rounded), or None when the
    rounding loss is below 1e-12 and the ratio is undefined.
    """

    unrounded: float
    rounded: float
    lifted: float
    gain: float | None = field(default=None)

    @staticmethod
    def from_costs(unrounded: float, rounded: float, lifted: float) -> "LiftingRecord":
        loss = unrounded - rounded
        gain = (lifted - rounded) / loss if loss >= GAIN_EPS else None
        return LiftingRecord(unrounded, rounded, lifted, gain)


# ---------------------------------------------------------------------------
# plumbing

def _worker_count() -> int:
    """UNIMOD_THREADS if set, capped at the CPU count; else the CPU count."""
    cpus = os.cpu_count() or 1
    env = os.environ.get("UNIMOD_THREADS")
    if env:
        try:
            return min(max(1, int(env)), cpus)
        except ValueError as exc:
            raise InvalidArgumentError(f"UNIMOD_THREADS must be an integer, got {env!r}") from exc
    return cpus


def _map_trials(fn, spec: ExperimentSpec, tasks=None) -> list:
    """Run the module-level worker `fn(spec, task)` over `tasks` (default: the
    trial indices) and concatenate the row lists it returns, in task order.

    Results are independent of the worker count because every task derives
    its randomness from its own (seed, stream) pair.
    """
    tasks = list(range(spec.trials) if tasks is None else tasks)
    workers = min(_worker_count(), len(tasks))
    if workers <= 1 or len(tasks) < 4:
        chunks = [fn(spec, task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(fn, repeat(spec), tasks,
                                   chunksize=max(1, len(tasks) // (4 * workers))))
    return [row for rows in chunks for row in rows]


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


def read_csv(path) -> tuple[list[str], list[list]]:
    """Parse a table written by this module; floats round-trip exactly."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = []
        for raw in reader:
            parsed = []
            for cell in raw:
                if cell == "":
                    parsed.append(None)
                    continue
                try:
                    parsed.append(int(cell))
                except ValueError:
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        parsed.append(cell)
            rows.append(parsed)
    return header, rows


def _envelope(spec: ExperimentSpec, results, notes) -> dict:
    doc = asdict(spec)
    doc["out_dir"] = str(spec.out_dir)
    doc["n_values"] = list(spec.n_values)
    doc["bits"] = list(spec.bits)
    doc["p"] = "inf" if math.isinf(spec.p) else spec.p
    return {
        "spec": doc,
        "git_like_version": __version__,
        "results": results,
        "notes": list(notes),
    }


def _nlos_channel(rng: Rng, n: int, m: int, variance: float) -> RisInstance:
    h = sample_complex_gaussian(rng, n, m, variance)
    h_ue = sample_complex_gaussian(rng, 1, n, variance).ravel()
    return RisInstance(h, h_ue)


def _snr_db(cost: float, inst: RisInstance) -> float:
    linear = inst.power * cost * cost / inst.sigma2
    return 10.0 * math.log10(linear)


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
            rows += [(trial, mode, p, it, float(cost)) for it, cost in enumerate(trace.costs)]
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
    rec = LiftingRecord.from_costs(result.unrounded_cost, result.rounded_cost,
                                   result.final_cost)
    return [(trial, rec.unrounded, rec.rounded, rec.lifted, rec.gain)]


def _lifting_summary(spec: ExperimentSpec, rows) -> list:
    gains = [r[4] for r in rows if r[4] is not None]
    return [{
        "trials": spec.trials,
        "p": spec.p,
        "defined_gains": len(gains),
        "median_gain": float(np.median(gains)) if gains else None,
        "strict_improvements": sum(1 for r in rows if r[3] > r[2] + GAIN_EPS),
        "dominance_violations": sum(1 for r in rows if r[3] < r[2] - 1e-9),
    }]


# ---------------------------------------------------------------------------
# SNR studies

def _snr_trial(spec: ExperimentSpec, task: tuple[int, int]) -> list:
    block, trial = task
    n = spec.n_values[block]
    rng = Rng(spec.seed, stream=(block << 32) | trial)
    inst = _nlos_channel(rng, n, spec.m, spec.variance)
    prob = build_problem(inst)
    dps = DiscretePhaseSet(spec.bits[0])

    result = default_pipeline(prob.matrix, dps, 2)
    best_random = random_search(prob.matrix, dps, 2, spec.random_configs, rng)
    zero_cost = norm_lp(prob.matrix @ np.ones(n, dtype=complex), 2)

    return [(n, trial, method, float(cost), _snr_db(cost, inst))
            for method, cost in (("pipeline", result.final_cost),
                                 ("rounded", result.rounded_cost),
                                 ("random", best_random.objective),
                                 ("zero", zero_cost))]


def _snr_rows(spec: ExperimentSpec) -> list:
    """Per-trial SNR of the pipeline and its baselines, for every unit count."""
    tasks = [(block, t) for block in range(len(spec.n_values)) for t in range(spec.trials)]
    return _map_trials(_snr_trial, spec, tasks)


def _snr_vs_n_summary(spec: ExperimentSpec, rows) -> list:
    """Mean SNR against the unit count for the pipeline and baselines."""
    results = []
    for n in spec.n_values:
        for method in ("pipeline", "rounded", "random", "zero"):
            vals = [r[4] for r in rows if r[0] == n and r[2] == method]
            results.append({"n": n, "method": method,
                            "mean_snr_db": float(np.mean(vals))})
    return results


def _snr_cdf_summary(spec: ExperimentSpec, rows) -> list:
    """SNR percentiles per method, for distribution plots."""
    results = []
    for method in ("pipeline", "rounded", "random", "zero"):
        vals = sorted(r[4] for r in rows if r[2] == method)
        results.append({
            "method": method,
            "percentiles_db": {str(q): float(np.percentile(vals, q))
                               for q in (5, 25, 50, 75, 95)},
        })
    return results


# ---------------------------------------------------------------------------
# quantization gap

def _gap_trial(spec: ExperimentSpec, trial: int) -> list:
    """SNR loss of B-bit pipelines against the continuous solution."""
    rng = Rng(spec.seed, stream=trial)
    inst = _nlos_channel(rng, spec.n_values[0], spec.m, spec.variance)
    a = build_problem(inst).matrix
    cont = solve_continuous(a, SolveConfig(p=2), deterministic_init(a, 2))
    cont_db = _snr_db(cont.final_cost, inst)
    rows = []
    for bits in spec.bits:
        result = default_pipeline(a, DiscretePhaseSet(bits), 2)
        pipe_db = _snr_db(result.final_cost, inst)
        rows.append((trial, bits, pipe_db, cont_db, cont_db - pipe_db))
    return rows


def _gap_summary(spec: ExperimentSpec, rows) -> list:
    results = []
    for bits in spec.bits:
        vals = [r[4] for r in rows if r[1] == bits]
        results.append({"bits": bits, "mean_gap_db": float(np.mean(vals))})
    return results


# ---------------------------------------------------------------------------
# timing

def _timing_rows(spec: ExperimentSpec) -> list:
    """Wall-clock cost of the pipeline and the random baseline per unit count.

    Runs serially on purpose; channel generation and I/O sit outside the
    timers. Objective columns are reproducible, second columns are not.
    """
    dps = DiscretePhaseSet(spec.bits[0])
    rows = []
    for block, n in enumerate(spec.n_values):
        instances = []
        for t in range(spec.trials):
            rng = Rng(spec.seed, stream=(block << 32) | t)
            instances.append((build_problem(_nlos_channel(rng, n, spec.m, spec.variance)), rng))

        for method, solve in (
                ("pipeline", lambda prob, _: default_pipeline(prob.matrix, dps, 2).final_cost),
                ("random", lambda prob, rng: random_search(
                    prob.matrix, dps, 2, spec.random_configs, rng).objective)):
            t0 = time.perf_counter()
            objs = [solve(prob, rng) for prob, rng in instances]
            total = time.perf_counter() - t0
            rows.append((n, method, spec.trials, total, total / spec.trials,
                         float(np.mean(objs))))
    return rows


def _timing_summary(spec: ExperimentSpec, rows) -> list:
    return [{"n": r[0], "method": r[1], "mean_seconds": r[4],
             "mean_objective": r[5]} for r in rows]


# ---------------------------------------------------------------------------
# oracle check

def _oracle_das_trial(spec: ExperimentSpec, trial: int) -> list:
    """One (row, failure) pair; the failure is None when DaS matches."""
    rng = Rng(spec.seed, stream=trial)
    g = rng.generator
    n = int(g.integers(1, min(spec.nmax, 8) + 1))
    bits = int(spec.bits[g.integers(0, len(spec.bits))])
    v = sample_complex_gaussian(rng, 1, n, spec.variance).ravel()
    dps = DiscretePhaseSet(bits)
    _, das_obj = das_maximize(v, dps)
    ref = exhaustive_inner(v, dps)
    match = abs(das_obj - ref.objective) <= 1e-9
    failure = None if match else {"check": "das", "trial": trial, "bits": bits,
                                  "v": vector_to_json(v)}
    return [(("das", trial, None, n, bits, das_obj, ref.objective, int(match)), failure)]


def _oracle_linf_trial(spec: ExperimentSpec, trial: int) -> list:
    """One (row, failure) pair; the failure is None when solve_linf matches."""
    bits_choices = tuple(b for b in spec.bits if b <= 2) or (1, 2)
    rng = Rng(spec.seed, stream=(1 << 40) | trial)
    g = rng.generator
    m = int(g.integers(1, min(spec.m, 6) + 1))
    n = int(g.integers(1, min(spec.nmax, 8) + 1))
    bits = int(bits_choices[g.integers(0, len(bits_choices))])
    a = sample_complex_gaussian(rng, m, n, spec.variance)
    dps = DiscretePhaseSet(bits)
    _, _, obj = solve_linf(a, dps)
    ref = exhaustive_norm(a, dps, math.inf)
    match = abs(obj - ref.objective) <= 1e-9
    failure = None if match else {"check": "linf", "trial": trial, "bits": bits,
                                  "a": matrix_to_json(a)}
    return [(("linf", trial, m, n, bits, obj, ref.objective, int(match)), failure)]


def _oracle_rows(spec: ExperimentSpec) -> list:
    """Exactness audit: divide-and-sort and the l-infinity solver against
    exhaustive enumeration. Mismatches dump the failing instance as JSON."""
    pairs = _map_trials(_oracle_das_trial, spec) + _map_trials(_oracle_linf_trial, spec)
    failures = [failure for _, failure in pairs if failure is not None]
    if failures:
        dump_json(spec.out_dir / "oracle_check_failures.json", failures)
    return [row for row, _ in pairs]


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
_SNR_NOTES = ("NLoS channels, i.i.d. complex Gaussian entries", _SNR_CONVENTION)

EXPERIMENTS: dict[str, Experiment] = {
    "convergence": Experiment(
        "convergence", ("trial", "mode", "p", "iter", "cost"),
        partial(_map_trials, _convergence_trial), _convergence_summary,
        ("costs are listed per iteration; every trace is non-decreasing",),
        dict(trials=3, m=10, n_values=(100,), bits=(2,))),
    "lifting-stat": Experiment(
        "lifting_stat", ("trial", "unrounded", "rounded", "lifted", "gain"),
        partial(_map_trials, _lifting_trial), _lifting_summary,
        (_CONTINUOUS_REFERENCE, "gain is empty when the rounding loss is below 1e-12"),
        dict(trials=500, m=10, n_values=(100,), bits=(1,))),
    "snr-vs-n": Experiment(
        "snr_vs_n", _SNR_HEADER, _snr_rows, _snr_vs_n_summary, _SNR_NOTES,
        dict(trials=100, m=32, n_values=(50, 100, 200), bits=(1,)), p2_only=True),
    "snr-cdf": Experiment(
        "snr_cdf", _SNR_HEADER, _snr_rows, _snr_cdf_summary, _SNR_NOTES,
        dict(trials=200, m=32, n_values=(200,), bits=(2,)), p2_only=True),
    "quantization-gap": Experiment(
        "quantization_gap",
        ("trial", "bits", "pipeline_snr_db", "continuous_snr_db", "gap_db"),
        partial(_map_trials, _gap_trial), _gap_summary, (_CONTINUOUS_REFERENCE, _SNR_CONVENTION),
        dict(trials=100, m=16, n_values=(200,), bits=(1, 2, 3, 4)), p2_only=True),
    "timing": Experiment(
        "timing",
        ("n", "method", "trials", "total_seconds", "mean_seconds", "mean_objective"),
        _timing_rows, _timing_summary,
        ("wall-clock fields vary run to run; mean_objective is reproducible",
         "timers exclude channel generation and file I/O"),
        dict(trials=20, m=32, n_values=(10, 50, 100, 200, 500, 1000), bits=(1,),
             random_configs=1000), p2_only=True),
    "oracle-check": Experiment(
        "oracle_check",
        ("check", "trial", "m", "n", "bits", "solver_objective", "oracle_objective", "match"),
        _oracle_rows, _oracle_summary,
        ("mismatching instances, if any, are dumped alongside",),
        dict(trials=100, m=6, n_values=(8,), bits=(1, 2, 3))),
}
KINDS = tuple(EXPERIMENTS)


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run one experiment: write its CSV table and JSON envelope into
    spec.out_dir and return the envelope."""
    experiment = EXPERIMENTS[spec.kind]
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    rows = experiment.rows(spec)
    _write_csv(spec.out_dir / f"{experiment.stem}.csv", experiment.header, rows)
    envelope = _envelope(spec, experiment.summarize(spec, rows), experiment.notes)
    dump_json(spec.out_dir / f"{experiment.stem}.json", envelope)
    return envelope
