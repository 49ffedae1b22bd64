"""The benchmark's workloads: inputs, operations, traced replays and checks.

A workload is a fixed round of operations, repeated a whole number of times.
Matrices come from numpy's own generator keyed by the workload seed and the
operation index, so the program receives only matrices and experiment specs.
Every workload offers the same methods:

* inputs(i)              the input of operation i (not timed);
* run(i, x)              operation i, exactly as a user calls it (timed);
* run_traced(i, x, tr)   the same work with a span around each layer call;
* replay(i, x, res, tr)  untimed extra calls that measure single layers;
* check(i, x, res)       violations and the op's gain over all-zero phases;
* known_fault(i, bad)    whether the violations are the fault kept on purpose;
* finish()               run-level checks, after the last operation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from unimod import (
    DiscretePhaseSet,
    PipelineResult,
    RisInstance,
    Rng,
    SolveConfig,
    build_problem,
    continuous_phase_step,
    das_maximize,
    default_pipeline,
    deterministic_init,
    dual_witness,
    hard_round,
    norm_lp,
    random_search,
    sample_complex_gaussian,
    solve_continuous,
    solve_discrete,
    solve_linf,
)
from unimod.bench import ExperimentSpec, run_experiment

import checks

#: the tail latency is only reported from this many operations per run
MIN_OPS = 40


def complex_gaussian(key, m: int, n: int) -> np.ndarray:
    """m x n matrix of i.i.d. CN(0, 1) entries, drawn from numpy keyed by `key`."""
    g = np.random.default_rng(key)
    return (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) / math.sqrt(2)


def gain_db(objective: float, zero: float) -> float:
    return 20 * math.log10(objective / zero)


def pipeline_traced(a, dps: DiscretePhaseSet, p: int, tr) -> PipelineResult:
    """default_pipeline's steps, each called with a span around it."""
    with tr.span("solver.deterministic_init"):
        start = deterministic_init(a, p)
    with tr.span("solver.solve_continuous") as s:
        cont = solve_continuous(a, SolveConfig(p=p), start)
    s.update(iters=cont.iterations, cap=cont.termination == "iteration-cap")
    with tr.span("solver.hard_round"):
        rounded = hard_round(cont.phases, dps)
    with tr.span("core.norm_lp"):
        rounded_cost = norm_lp(a @ rounded.phasors(), p)
    with tr.span("solver.solve_discrete") as s:
        lifted = solve_discrete(a, SolveConfig(p=p, dps=dps), rounded)
    s.update(iters=lifted.iterations, cap=lifted.termination == "iteration-cap",
             das_calls=lifted.iterations)
    return PipelineResult(lifted, cont, rounded, rounded_cost)


def replay_steps(a, res: PipelineResult, dps: DiscretePhaseSet, p: int, tr) -> None:
    """One DaS call on the input the lift's next step would get, and one
    continuous step (witness, then phase alignment) at the continuous end point."""
    with tr.span("das.das_maximize", edges=a.shape[1] * dps.levels):
        das_maximize(a.conj().T @ res.trace.witness, dps)
    w = a @ res.continuous_trace.phases.phasors()
    with tr.span("solver.dual_witness"):
        z = dual_witness(w, math.inf if p == 1 else 2)
    u = a.conj().T @ z
    with tr.span("solver.continuous_phase_step"):
        continuous_phase_step(u)


def pipeline_outcome(res: PipelineResult) -> dict:
    return {"idx": res.trace.phases.indices, "objective": res.final_cost,
            "continuous_phases": res.continuous_trace.phases.values,
            "continuous_costs": res.continuous_trace.costs,
            "lift_costs": res.trace.costs, "rounded_cost": res.rounded_cost}


class Pipeline:
    """default_pipeline on 32 x 1000 complex Gaussian matrices.

    One round holds every (p, B) pair with p in {1, 2} and B in 1..4, so p
    alternates and B cycles through 1 to 4.
    """

    name = "pipeline-n1000"
    M, N = 32, 1000
    ROUND = tuple((p, bits) for bits in (1, 2, 3, 4) for p in (1, 2))
    ops_per_round = len(ROUND)
    #: nominal length of one round on a 2-CPU x86-64 machine
    round_seconds = 1.0

    def __init__(self, seed: int, rounds: int, work_dir: Path):
        self.seed = seed
        self.ops = list(self.ROUND) * rounds

    def inputs(self, i):
        return complex_gaussian([self.seed, i], self.M, self.N)

    def run(self, i, a):
        p, bits = self.ops[i]
        return default_pipeline(a, DiscretePhaseSet(bits), p)

    def run_traced(self, i, a, tr):
        p, bits = self.ops[i]
        return pipeline_traced(a, DiscretePhaseSet(bits), p, tr)

    def replay(self, i, a, res, tr):
        p, bits = self.ops[i]
        replay_steps(a, res, DiscretePhaseSet(bits), p, tr)

    def fingerprint(self, res):
        return res.final_cost

    def check(self, i, a, res):
        p, bits = self.ops[i]
        bad, obj = checks.check_pipeline(a, p, bits, pipeline_outcome(res))
        return bad, gain_db(obj, checks.norm(a.sum(axis=1), p))

    def known_fault(self, i, bad):
        return False

    def finish(self):
        return []


class Linf:
    """solve_linf on 8 x 10000 complex Gaussian matrices with B in {2, 3, 4}.

    Per B a round solves two instances drawn from the seed and one fixed
    instance scaled by 1e-13. The scaled copies fail today: das.TIE_TOL is
    absolute, so at objectives near 1e-9 DaS accepts candidates up to 1e-3
    worse than the best, which fail the scale and the local-optimality
    checks. The fixed instances come from a constant key, not from the seed,
    so the same operations fail in every run.
    """

    name = "linf-n10000"
    M, N = 8, 10000
    SCALE = 1e-13
    FIXED_KEY = 240506442
    ROUND = tuple((bits, scaled) for bits in (2, 3, 4) for scaled in (False, False, True))
    ops_per_round = len(ROUND)
    round_seconds = 1.6
    #: small DaS instances checked against enumeration at the end of a run
    SMALL = 48

    def __init__(self, seed: int, rounds: int, work_dir: Path):
        self.seed = seed
        self.ops = list(self.ROUND) * rounds
        self._references: dict[int, float] = {}
        self._bad: list[str] = []

    def inputs(self, i):
        bits, scaled = self.ops[i]
        if scaled:
            return self.SCALE * complex_gaussian([self.FIXED_KEY, bits], self.M, self.N)
        return complex_gaussian([self.seed, i], self.M, self.N)

    def run(self, i, a):
        return solve_linf(a, DiscretePhaseSet(self.ops[i][0]))

    def run_traced(self, i, a, tr):
        rows = int(np.count_nonzero(np.any(a, axis=1)))
        with tr.span("solver.solve_linf", das_calls=rows):
            return solve_linf(a, DiscretePhaseSet(self.ops[i][0]))

    def replay(self, i, a, res, tr):
        """One of the rows solve_linf swept, standing for all of them: rows
        are equal in length, and DaS time depends on little but the length."""
        dps = DiscretePhaseSet(self.ops[i][0])
        row = a[i % a.shape[0]]
        with tr.span("das.das_maximize", edges=row.size * dps.levels, rows=a.shape[0]):
            das_maximize(np.conj(row), dps)

    def fingerprint(self, res):
        return res[2]

    def _reference(self, bits: int) -> float:
        """objective(A) of the fixed instance, itself checked like any output."""
        if bits not in self._references:
            a = complex_gaussian([self.FIXED_KEY, bits], self.M, self.N)
            pv, row, obj = solve_linf(a, DiscretePhaseSet(bits))
            bad, _ = checks.check_linf(a, bits, {"idx": pv.indices, "row": row, "objective": obj})
            self._bad += [f"reference B={bits}: {b}" for b in bad]
            self._references[bits] = obj
        return self._references[bits]

    def check(self, i, a, res):
        bits, scaled = self.ops[i]
        pv, row, obj = res
        bad, own = checks.check_linf(a, bits, {"idx": pv.indices, "row": row, "objective": obj})
        if scaled:
            bad += checks.check_scale(obj, self.SCALE, self._reference(bits))
        return bad, gain_db(own, float(np.max(np.abs(a.sum(axis=1)))))

    def known_fault(self, i, bad):
        return self.ops[i][1] and all(b.startswith(("scale:", "local:")) for b in bad)

    def finish(self):
        """DaS against enumeration on small instances; half are tie-heavy
        (small integer magnitudes at multiples of pi/4)."""
        bad = list(self._bad)
        for k in range(self.SMALL):
            g = np.random.default_rng([self.seed, self.SMALL, k])
            n, bits = int(g.integers(1, 9)), int(g.integers(1, 3))
            if k % 2:
                v = g.integers(1, 3, n) * np.exp(0.25j * math.pi * g.integers(0, 8, n))
            else:
                v = complex_gaussian(g, 1, n).ravel()
            pv, obj = das_maximize(v, DiscretePhaseSet(bits))
            bad += [f"small {k}: {b}" for b in checks.check_das_small(v, bits, pv.indices, obj)]
        return bad


class SnrCdf:
    """bench.run_experiment on the snr-cdf spec, two trials per operation.

    The spec is spelled out rather than taken from the program's defaults,
    so that a change of defaults cannot change the workload.
    """

    name = "snr-cdf"
    TRIALS = 2
    ops_per_round = 1
    round_seconds = 0.3

    def __init__(self, seed: int, rounds: int, work_dir: Path):
        self.out_dir = work_dir / "snr-cdf"
        self.ops = [(seed << 20) | i for i in range(rounds)]
        self.trials: list[dict] = []
        self.replay_mismatches = 0

    def inputs(self, i):
        return ExperimentSpec(kind="snr-cdf", out_dir=self.out_dir, trials=self.TRIALS,
                              seed=self.ops[i], p=2.0, m=32, n_values=(200,), bits=(2,),
                              random_configs=10_000, variance=1.0)

    def run(self, i, spec):
        return run_experiment(spec)

    def run_traced(self, i, spec, tr):
        with tr.span("bench.run_experiment"):
            return run_experiment(spec)

    def replay(self, i, spec, res, tr):
        """Each trial's layer calls, in the order bench._snr_trial makes them."""
        dps = DiscretePhaseSet(spec.bits[0])
        n = spec.n_values[0]
        written = checks.read_snr_csv(spec.out_dir / "snr_cdf.csv")
        for t in range(spec.trials):
            with tr.span("replay.trial"):
                rng = Rng(spec.seed, stream=t)
                with tr.span("core.sample_complex_gaussian"):
                    h = sample_complex_gaussian(rng, n, spec.m, spec.variance)
                with tr.span("core.sample_complex_gaussian"):
                    h_ue = sample_complex_gaussian(rng, 1, n, spec.variance).ravel()
                with tr.span("ris.RisInstance"):
                    inst = RisInstance(h, h_ue)
                with tr.span("ris.build_problem"):
                    prob = build_problem(inst)
                result = pipeline_traced(prob.matrix, dps, 2, tr)
                with tr.span("oracle.random_search", configs=spec.random_configs):
                    random_search(prob.matrix, dps, 2, spec.random_configs, rng)
                with tr.span("core.norm_lp"):
                    norm_lp(prob.matrix @ np.ones(n, dtype=complex), 2)
            replay_steps(prob.matrix, result, dps, 2, tr)
            self.replay_mismatches += not any(
                r["trial"] == str(t) and r["method"] == "pipeline"
                and float(r["objective"]) == result.final_cost for r in written)

    def fingerprint(self, res):
        return res["results"]

    def check(self, i, spec, res):
        rows = checks.read_snr_csv(spec.out_dir / "snr_cdf.csv")
        with open(spec.out_dir / "snr_cdf.json") as f:
            envelope = json.load(f)
        bad, trials = checks.check_snr_cdf(rows, envelope, spec.trials)
        self.trials += trials
        gains = [gain_db(d["pipeline"], d["zero"]) for d in trials]
        return bad, float(np.mean(gains)) if gains else math.nan

    def known_fault(self, i, bad):
        return False

    def finish(self):
        return checks.check_beats_random(self.trials)


WORKLOADS = {w.name: w for w in (Pipeline, Linf, SnrCdf)}


def make(name: str, seed: int, seconds: int, work_dir: Path):
    """The workload with a whole number of rounds, about `seconds` long on the
    reference machine and never fewer than MIN_OPS operations."""
    cls = WORKLOADS[name]
    rounds = max(math.ceil(MIN_OPS / cls.ops_per_round), round(seconds / cls.round_seconds))
    return cls(seed, rounds, work_dir)
