"""Experiment harness: convergence, lifting, SNR, quantization and timing studies.

Every experiment is driven by an ExperimentSpec and emits a CSV table plus a
JSON envelope into the output directory. All randomness flows through
(seed, stream) pairs where the stream is derived from the trial index, so
results are bit-identical across reruns and independent of how many workers
execute the trials. Timing numbers are the one exception: wall-clock fields
vary run to run, everything else in the timing table is reproducible.

Desk-scale trial counts are the defaults; the full-scale studies behind the
shipped figures need nothing more than a larger --trials.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .core import DiscretePhaseSet, PhaseVector, Rng, norm_lp, normalize_p, sample_complex_gaussian
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

KINDS = ("convergence", "lifting-stat", "snr-vs-n", "snr-cdf",
         "quantization-gap", "timing", "oracle-check")
#: kinds whose runners always solve with p = 2: received SNR is a p = 2
#: quantity, and timing measures the same SNR pipeline
_P2_KINDS = ("snr-vs-n", "snr-cdf", "quantization-gap", "timing")

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
        if self.kind not in KINDS:
            raise InvalidArgumentError(
                f"unknown experiment {self.kind!r}; valid kinds: {', '.join(KINDS)}")
        if self.trials < 1:
            raise InvalidArgumentError("trial count must be >= 1")
        if self.m < 1 or any(n < 1 for n in self.n_values) or not self.n_values:
            raise InvalidArgumentError("all dimensions must be >= 1")
        if any(b < 1 for b in self.bits) or not self.bits:
            raise InvalidArgumentError("bit widths must be >= 1")
        if self.kind in _P2_KINDS and normalize_p(self.p) != 2.0:
            raise InvalidArgumentError(f"{self.kind} always solves with p = 2, got p = {self.p!r}")
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))


_DEFAULTS: dict[str, dict] = {
    "convergence": dict(trials=3, m=10, n_values=(100,), bits=(2,)),
    "lifting-stat": dict(trials=500, m=10, n_values=(100,), bits=(1,)),
    "snr-vs-n": dict(trials=100, m=32, n_values=(50, 100, 200), bits=(1,)),
    "snr-cdf": dict(trials=200, m=32, n_values=(200,), bits=(2,)),
    "quantization-gap": dict(trials=100, m=16, n_values=(200,), bits=(1, 2, 3, 4)),
    "timing": dict(trials=20, m=32, n_values=(10, 50, 100, 200, 500, 1000),
                   bits=(1,), random_configs=1000),
    "oracle-check": dict(trials=100, m=6, n_values=(8,), bits=(1, 2, 3)),
}


def make_spec(kind: str, out_dir, **overrides) -> ExperimentSpec:
    """Spec with desk-scale defaults for `kind`, selectively overridden."""
    if kind not in _DEFAULTS:
        raise InvalidArgumentError(
            f"unknown experiment {kind!r}; valid kinds: {', '.join(KINDS)}")
    params = dict(_DEFAULTS[kind])
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


def _map_trials(fn, args_list):
    """Run a module-level worker over argument tuples, preserving order.

    Results are independent of the worker count because every task derives
    its randomness from its own (seed, stream) pair.
    """
    workers = min(_worker_count(), len(args_list))
    if workers <= 1 or len(args_list) < 4:
        return [fn(args) for args in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list, chunksize=max(1, len(args_list) // (4 * workers))))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
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

def _convergence_trial(args):
    seed, trial, m, n, bits, variance = args
    rng = Rng(seed, stream=trial)
    a = sample_complex_gaussian(rng, m, n, variance)
    rows = []
    for p in (1, 2):
        start = deterministic_init(a, p)
        cont = solve_continuous(a, SolveConfig(p=p), start)
        for it, cost in enumerate(cont.costs):
            rows.append((trial, "continuous", p, it, float(cost)))
        dps = DiscretePhaseSet(bits)
        disc = solve_discrete(a, SolveConfig(p=p, dps=dps), hard_round(start, dps))
        for it, cost in enumerate(disc.costs):
            rows.append((trial, "discrete", p, it, float(cost)))
    return rows


def run_convergence(spec: ExperimentSpec) -> dict:
    """Per-iteration cost traces for both iteration flavours and p in {1, 2}."""
    args = [(spec.seed, t, spec.m, spec.n_values[0], spec.bits[0], spec.variance)
            for t in range(spec.trials)]
    rows = [row for rows in _map_trials(_convergence_trial, args) for row in rows]
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(spec.out_dir / "convergence.csv",
               ["trial", "mode", "p", "iter", "cost"], rows)
    summary = {
        "trials": spec.trials,
        "max_iterations_observed": max(r[3] for r in rows),
    }
    envelope = _envelope(spec, [summary], [
        "costs are listed per iteration; every trace is non-decreasing",
    ])
    dump_json(spec.out_dir / "convergence.json", envelope)
    return envelope


# ---------------------------------------------------------------------------
# lifting statistics

def _lifting_trial(args):
    seed, trial, m, n, bits, p, variance = args
    rng = Rng(seed, stream=trial)
    a = sample_complex_gaussian(rng, m, n, variance)
    result = default_pipeline(a, DiscretePhaseSet(bits), p)
    rec = LiftingRecord.from_costs(result.unrounded_cost, result.rounded_cost,
                                   result.final_cost)
    return (trial, rec.unrounded, rec.rounded, rec.lifted, rec.gain)


def run_lifting_stat(spec: ExperimentSpec) -> dict:
    """Distribution of the relative lifting gain over random instances."""
    args = [(spec.seed, t, spec.m, spec.n_values[0], spec.bits[0], spec.p, spec.variance)
            for t in range(spec.trials)]
    rows = _map_trials(_lifting_trial, args)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(spec.out_dir / "lifting_stat.csv",
               ["trial", "unrounded", "rounded", "lifted", "gain"], rows)
    gains = [r[4] for r in rows if r[4] is not None]
    strict = sum(1 for r in rows if r[3] > r[2] + GAIN_EPS)
    summary = {
        "trials": spec.trials,
        "p": spec.p,
        "defined_gains": len(gains),
        "median_gain": float(np.median(gains)) if gains else None,
        "strict_improvements": strict,
        "dominance_violations": sum(1 for r in rows if r[3] < r[2] - 1e-9),
    }
    envelope = _envelope(spec, [summary], [
        "continuous reference: this package's alternating continuous solver",
        "gain is empty when the rounding loss is below 1e-12",
    ])
    dump_json(spec.out_dir / "lifting_stat.json", envelope)
    return envelope


# ---------------------------------------------------------------------------
# SNR studies

def _snr_trial(args):
    seed, stream, trial, n, m, bits, random_configs, variance = args
    rng = Rng(seed, stream=stream)
    inst = _nlos_channel(rng, n, m, variance)
    prob = build_problem(inst)
    dps = DiscretePhaseSet(bits)

    result = default_pipeline(prob.matrix, dps, 2)
    best_random = random_search(prob.matrix, dps, 2, random_configs, rng)
    zero_cost = norm_lp(prob.matrix @ np.ones(n, dtype=complex), 2)

    out = []
    for method, cost in (("pipeline", result.final_cost),
                         ("rounded", result.rounded_cost),
                         ("random", best_random.objective),
                         ("zero", zero_cost)):
        out.append((n, trial, method, float(cost), _snr_db(cost, inst)))
    return out


def _snr_rows(spec: ExperimentSpec) -> list:
    args = []
    for block, n in enumerate(spec.n_values):
        for t in range(spec.trials):
            stream = (block << 32) | t
            args.append((spec.seed, stream, t, n, spec.m, spec.bits[0],
                         spec.random_configs, spec.variance))
    return [row for rows in _map_trials(_snr_trial, args) for row in rows]


def run_snr_vs_n(spec: ExperimentSpec) -> dict:
    """Mean SNR against the unit count for the pipeline and baselines."""
    rows = _snr_rows(spec)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(spec.out_dir / "snr_vs_n.csv",
               ["n", "trial", "method", "objective", "snr_db"], rows)
    results = []
    for n in spec.n_values:
        for method in ("pipeline", "rounded", "random", "zero"):
            vals = [r[4] for r in rows if r[0] == n and r[2] == method]
            results.append({"n": n, "method": method,
                            "mean_snr_db": float(np.mean(vals))})
    envelope = _envelope(spec, results, [
        "NLoS channels, i.i.d. complex Gaussian entries",
        "SNR convention: transmit power 1, noise variance 1",
    ])
    dump_json(spec.out_dir / "snr_vs_n.json", envelope)
    return envelope


def run_snr_cdf(spec: ExperimentSpec) -> dict:
    """Per-trial SNR records at a fixed unit count, for distribution plots."""
    rows = _snr_rows(spec)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(spec.out_dir / "snr_cdf.csv",
               ["n", "trial", "method", "objective", "snr_db"], rows)
    results = []
    for method in ("pipeline", "rounded", "random", "zero"):
        vals = sorted(r[4] for r in rows if r[2] == method)
        results.append({
            "method": method,
            "percentiles_db": {str(q): float(np.percentile(vals, q))
                               for q in (5, 25, 50, 75, 95)},
        })
    envelope = _envelope(spec, results, [
        "NLoS channels, i.i.d. complex Gaussian entries",
        "SNR convention: transmit power 1, noise variance 1",
    ])
    dump_json(spec.out_dir / "snr_cdf.json", envelope)
    return envelope


# ---------------------------------------------------------------------------
# quantization gap

def _gap_trial(args):
    seed, trial, n, m, bits_list, variance = args
    rng = Rng(seed, stream=trial)
    inst = _nlos_channel(rng, n, m, variance)
    prob = build_problem(inst)
    a = prob.matrix
    cont = solve_continuous(a, SolveConfig(p=2), deterministic_init(a, 2))
    cont_db = _snr_db(cont.final_cost, inst)
    rows = []
    for bits in bits_list:
        result = default_pipeline(a, DiscretePhaseSet(bits), 2)
        pipe_db = _snr_db(result.final_cost, inst)
        rows.append((trial, bits, pipe_db, cont_db, cont_db - pipe_db))
    return rows


def run_quantization_gap(spec: ExperimentSpec) -> dict:
    """Mean SNR loss of B-bit pipelines against the continuous solution."""
    args = [(spec.seed, t, spec.n_values[0], spec.m, spec.bits, spec.variance)
            for t in range(spec.trials)]
    rows = [row for rows in _map_trials(_gap_trial, args) for row in rows]
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(spec.out_dir / "quantization_gap.csv",
               ["trial", "bits", "pipeline_snr_db", "continuous_snr_db", "gap_db"],
               rows)
    results = []
    for bits in spec.bits:
        vals = [r[4] for r in rows if r[1] == bits]
        results.append({"bits": bits, "mean_gap_db": float(np.mean(vals))})
    envelope = _envelope(spec, results, [
        "continuous reference: this package's alternating continuous solver",
        "SNR convention: transmit power 1, noise variance 1",
    ])
    dump_json(spec.out_dir / "quantization_gap.json", envelope)
    return envelope


# ---------------------------------------------------------------------------
# timing

def run_timing(spec: ExperimentSpec) -> dict:
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

        pipeline_objs = []
        t0 = time.perf_counter()
        for prob, _ in instances:
            pipeline_objs.append(default_pipeline(prob.matrix, dps, 2).final_cost)
        pipeline_total = time.perf_counter() - t0

        random_objs = []
        t0 = time.perf_counter()
        for prob, rng in instances:
            random_objs.append(
                random_search(prob.matrix, dps, 2, spec.random_configs, rng).objective)
        random_total = time.perf_counter() - t0

        rows.append((n, "pipeline", spec.trials, pipeline_total,
                     pipeline_total / spec.trials, float(np.mean(pipeline_objs))))
        rows.append((n, "random", spec.trials, random_total,
                     random_total / spec.trials, float(np.mean(random_objs))))

    spec.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(spec.out_dir / "timing.csv",
               ["n", "method", "trials", "total_seconds", "mean_seconds",
                "mean_objective"], rows)
    results = [{"n": r[0], "method": r[1], "mean_seconds": r[4],
                "mean_objective": r[5]} for r in rows]
    envelope = _envelope(spec, results, [
        "wall-clock fields vary run to run; mean_objective is reproducible",
        "timers exclude channel generation and file I/O",
    ])
    dump_json(spec.out_dir / "timing.json", envelope)
    return envelope


# ---------------------------------------------------------------------------
# oracle check

def _oracle_das_trial(args):
    seed, trial, nmax, bits_choices, variance = args
    rng = Rng(seed, stream=trial)
    g = rng.generator
    n = int(g.integers(1, nmax + 1))
    bits = int(bits_choices[g.integers(0, len(bits_choices))])
    v = sample_complex_gaussian(rng, 1, n, variance).ravel()
    dps = DiscretePhaseSet(bits)
    _, das_obj = das_maximize(v, dps)
    ref = exhaustive_inner(v, dps)
    match = abs(das_obj - ref.objective) <= 1e-9
    return (trial, n, bits, das_obj, ref.objective, match,
            None if match else vector_to_json(v))


def _oracle_linf_trial(args):
    seed, trial, mmax, nmax, bits_choices, variance = args
    rng = Rng(seed, stream=(1 << 40) | trial)
    g = rng.generator
    m = int(g.integers(1, mmax + 1))
    n = int(g.integers(1, nmax + 1))
    bits = int(bits_choices[g.integers(0, len(bits_choices))])
    a = sample_complex_gaussian(rng, m, n, variance)
    dps = DiscretePhaseSet(bits)
    _, _, obj = solve_linf(a, dps)
    ref = exhaustive_norm(a, dps, math.inf)
    match = abs(obj - ref.objective) <= 1e-9
    return (trial, m, n, bits, obj, ref.objective, match,
            None if match else matrix_to_json(a))


def run_oracle_check(spec: ExperimentSpec) -> dict:
    """Exactness audit: divide-and-sort and the l-infinity solver against
    exhaustive enumeration. Mismatches dump the failing instance as JSON."""
    nmax = min(spec.nmax, 8)
    das_args = [(spec.seed, t, nmax, spec.bits, spec.variance)
                for t in range(spec.trials)]
    linf_bits = tuple(b for b in spec.bits if b <= 2) or (1, 2)
    linf_args = [(spec.seed, t, min(spec.m, 6), nmax, linf_bits, spec.variance)
                 for t in range(spec.trials)]
    das_rows = _map_trials(_oracle_das_trial, das_args)
    linf_rows = _map_trials(_oracle_linf_trial, linf_args)

    spec.out_dir.mkdir(parents=True, exist_ok=True)
    rows = [("das", r[0], None, r[1], r[2], r[3], r[4], int(r[5])) for r in das_rows]
    rows += [("linf", r[0], r[1], r[2], r[3], r[4], r[5], int(r[6])) for r in linf_rows]
    _write_csv(spec.out_dir / "oracle_check.csv",
               ["check", "trial", "m", "n", "bits", "solver_objective",
                "oracle_objective", "match"], rows)

    failures = []
    for r in das_rows:
        if not r[5]:
            failures.append({"check": "das", "trial": r[0], "bits": r[2], "v": r[6]})
    for r in linf_rows:
        if not r[6]:
            failures.append({"check": "linf", "trial": r[0], "bits": r[3], "a": r[7]})
    if failures:
        dump_json(spec.out_dir / "oracle_check_failures.json", failures)

    summary = {
        "das_matches": sum(1 for r in das_rows if r[5]),
        "das_trials": len(das_rows),
        "linf_matches": sum(1 for r in linf_rows if r[6]),
        "linf_trials": len(linf_rows),
    }
    envelope = _envelope(spec, [summary],
                         ["mismatching instances, if any, are dumped alongside"])
    dump_json(spec.out_dir / "oracle_check.json", envelope)
    return envelope


# ---------------------------------------------------------------------------

_RUNNERS = {
    "convergence": run_convergence,
    "lifting-stat": run_lifting_stat,
    "snr-vs-n": run_snr_vs_n,
    "snr-cdf": run_snr_cdf,
    "quantization-gap": run_quantization_gap,
    "timing": run_timing,
    "oracle-check": run_oracle_check,
}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Dispatch to the experiment runner; returns the JSON envelope."""
    return _RUNNERS[spec.kind](spec)
