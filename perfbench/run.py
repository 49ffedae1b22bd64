"""Benchmark of unimod: one workload per run, every output checked.

    env OPENBLAS_NUM_THREADS=1 UNIMOD_THREADS=1 python3 perfbench/run.py \\
        --workload pipeline-n1000 --seed 1 --seconds 20 --trace 0

A run builds the workload's fixed list of operations from --seed (a whole
number of rounds, about --seconds long), runs it once untraced and checks
every output. With --trace 1 it runs the list a second time with a span
around every call into a layer and reports per-layer metrics instead of the
end-to-end ones. Op times are given in multiples of a reference kernel timed
beside each operation (reference.py), because the host's speed drifts; the
wall-clock figures are printed and kept in the result file. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. A result file with the
environment goes to .bench_out/results/, and traced spans to
.bench_out/traces/. --workload all runs every workload, one process each,
one after the other.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread and no process pool in unimod.bench: the machine's other
# load then moves the timings less than threads of our own would.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("UNIMOD_THREADS", "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("pipeline-n1000", "linf-n10000", "snr-cdf")
#: set-up is measured this many times per run (once here, the rest in
#: fresh interpreters) and the median is reported
SETUP_SAMPLES = 9
#: the warm-up operation's input comes from this seed, not from --seed, so
#: that set-up time does not depend on how hard the seed's first input is
WARMUP_SEED = 0
#: a tail percentile needs this many samples beyond it
TAIL_SAMPLES = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_unimod():
    """Import unimod from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import unimod
    if Path(unimod.__file__).resolve().parent != ROOT / "src" / "unimod":
        sys.exit(f"unimod was imported from {unimod.__file__}, not from {ROOT / 'src'}")
    return unimod


def environment() -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "unimod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "unimod_threads": os.environ.get("UNIMOD_THREADS"),
            "commit": commit, "src_sha256": digest.hexdigest()}


def setup_sample(args) -> float:
    """Import and one warm-up operation, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.split()[-1])


def _ratio(x: float, y: float) -> float:
    return x / y if y else 0.0


def layer_metrics(tr, ops_per_kref: float, traced_ops_per_kref: float) -> dict:
    """Per-layer metrics from the spans; a layer the workload never calls reads 0."""
    n_cont, t_cont = tr.total("solver.solve_continuous")
    _, t_init = tr.total("solver.deterministic_init")
    cont_iters = tr.attr_sum("solver.solve_continuous", "iters")
    n_lift, t_lift = tr.total("solver.solve_discrete")
    lift_iters = tr.attr_sum("solver.solve_discrete", "iters")
    n_round, t_round = tr.total("solver.hard_round")
    n_dw, t_dw = tr.total("solver.dual_witness")
    n_cps, t_cps = tr.total("solver.continuous_phase_step")
    n_linf, t_linf = tr.total("solver.solve_linf")
    # each replayed row of a solve_linf call stands for all of its rows
    t_rows = sum((s["end"] - s["start"]) * s["attrs"].get("rows", 0)
                 for s in tr.named("das.das_maximize"))
    n_das, t_das = tr.total("das.das_maximize")
    n_search, t_search = tr.total("oracle.random_search")
    n_build, t_build = tr.total("ris.build_problem")
    n_gauss, t_gauss = tr.total("core.sample_complex_gaussian")
    n_bench, t_bench = tr.total("bench.run_experiment")
    _, t_replayed = tr.total("replay.trial")
    das_calls = (tr.attr_sum("solver.solve_discrete", "das_calls")
                 + tr.attr_sum("solver.solve_linf", "das_calls"))
    return {
        "solver.continuous_ms": (_ratio(1e3 * (t_init + t_cont), n_cont), "ms"),
        "solver.continuous_iters": (_ratio(cont_iters, n_cont), "count"),
        "solver.continuous_us_per_iter": (_ratio(1e6 * t_cont, cont_iters), "us"),
        "solver.continuous_cap_hits": (tr.attr_sum("solver.solve_continuous", "cap"), "count"),
        "solver.hard_round_ms": (_ratio(1e3 * t_round, n_round), "ms"),
        "solver.lift_ms": (_ratio(1e3 * t_lift, n_lift), "ms"),
        "solver.lift_iters": (_ratio(lift_iters, n_lift), "count"),
        "solver.lift_us_per_iter": (_ratio(1e6 * t_lift, lift_iters), "us"),
        "solver.lift_cap_hits": (tr.attr_sum("solver.solve_discrete", "cap"), "count"),
        "solver.step_us": (_ratio(1e6 * t_dw, n_dw) + _ratio(1e6 * t_cps, n_cps), "us"),
        "solver.linf_ms": (_ratio(1e3 * t_linf, n_linf), "ms"),
        "solver.linf_self_ms": (_ratio(1e3 * (t_linf - t_rows), n_linf), "ms"),
        "das.maximize_ms": (_ratio(1e3 * t_das, n_das), "ms"),
        "das.edges_per_s": (_ratio(tr.attr_sum("das.das_maximize", "edges"), t_das), "1/s"),
        "das.calls": (das_calls, "count"),
        "oracle.random_search_ms": (_ratio(1e3 * t_search, n_search), "ms"),
        "oracle.configs_per_s": (_ratio(tr.attr_sum("oracle.random_search", "configs"),
                                        t_search), "1/s"),
        "ris.build_problem_ms": (_ratio(1e3 * t_build, n_build), "ms"),
        "core.sample_complex_gaussian_ms": (_ratio(1e3 * t_gauss, n_gauss), "ms"),
        "bench.self_ms": (_ratio(1e3 * (t_bench - t_replayed), n_bench), "ms"),
        "trace.overhead_pct": (100 * (1 - _ratio(traced_ops_per_kref, ops_per_kref)), "%"),
    }


def stage_shares(tr, parent: str) -> dict:
    """Share of the time of the spans called `parent` spent in each kind of child."""
    parents = {i for i, s in enumerate(tr.spans) if s["name"] == parent}
    total = sum(tr.spans[i]["end"] - tr.spans[i]["start"] for i in parents)
    shares: dict[str, float] = {}
    for s in tr.spans:
        if s["parent"] in parents:
            shares[s["name"]] = shares.get(s["name"], 0.0) + (s["end"] - s["start"]) / total
    return shares


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        code = max(code, subprocess.run(cmd, timeout=600).returncode)
    return code


def untraced_pass(wl):
    """Times every operation and the reference kernel beside it, checks the
    operation's output and returns the record."""
    import reference
    rec = {"latencies": [], "refs": [reference.timed()], "gains": [], "fingerprints": [],
           "unexpected": [], "failed": 0}
    for i in range(len(wl.ops)):
        x = wl.inputs(i)
        t0 = time.perf_counter()
        res = wl.run(i, x)
        rec["latencies"].append(time.perf_counter() - t0)
        rec["refs"].append(reference.timed())
        bad, gain = wl.check(i, x, res)
        rec["fingerprints"].append(wl.fingerprint(res))
        if bad:
            rec["failed"] += 1
            if not wl.known_fault(i, bad):
                rec["unexpected"] += [f"op {i}: {b}" for b in bad]
        else:
            rec["gains"].append(gain)
    rec["unexpected"] += wl.finish()
    return rec


def traced_pass(wl, fingerprints):
    """Runs every operation again with spans, then its untimed replays.

    Returns the tracer, the reference kernel times beside the operations and
    how many outputs differ from the untraced pass.
    """
    import reference
    from spans import Tracer
    tr = Tracer()
    refs = [reference.timed()]
    mismatches = 0
    for i in range(len(wl.ops)):
        x = wl.inputs(i)
        tr.op = i
        with tr.span("op"):
            res = wl.run_traced(i, x, tr)
        refs.append(reference.timed())
        mismatches += wl.fingerprint(res) != fingerprints[i]
        wl.replay(i, x, res, tr)
    return tr, refs, mismatches


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    import_unimod()
    import_s = time.perf_counter() - t0
    import reference
    import workloads

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        warm = workloads.make(args.workload, WARMUP_SEED, args.seconds, work_dir)
        x = warm.inputs(0)
        t0 = time.perf_counter()
        warm.run(0, x)
        setup = [import_s + time.perf_counter() - t0]
        if args.setup_probe:
            print(repr(setup[0]))
            return 0
        setup += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]

        wl = workloads.make(args.workload, args.seed, args.seconds, work_dir)
        rec = untraced_pass(wl)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        latencies, gains = rec["latencies"], rec["gains"]
        in_ref = reference.in_ref(latencies, rec["refs"])
        n = len(latencies)
        ops_per_kref = 1e3 * n / sum(in_ref)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_kref": (ops_per_kref, "1/kref"),
            "op_p50_ref": (statistics.median(in_ref), "ref"),
            "op_tail_ref": (sorted(in_ref)[n - TAIL_SAMPLES - 1], "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "gain_over_zero_db": (statistics.fmean(gains) if gains else 0.0, "dB"),
        }
        # the same figures in wall-clock time, which moves with the host's speed
        wall = {"ops_per_s": n / sum(latencies),
                "op_ms_p50": 1e3 * statistics.median(latencies),
                "op_ms_tail": 1e3 * sorted(latencies)[n - TAIL_SAMPLES - 1],
                "ref_ms_p50": 1e3 * statistics.median(rec["refs"])}
        detail = {"ops": n, "rounds": n // wl.ops_per_round,
                  "tail_percentile": 100 * (n - TAIL_SAMPLES) / n,
                  "setup_samples_s": setup, "import_s": import_s, "wall": wall,
                  "violations": rec["unexpected"][:50]}

        if args.trace:
            tr, traced_refs, mismatches = traced_pass(wl, rec["fingerprints"])
            traced_in_ref = reference.in_ref(
                [s["end"] - s["start"] for s in tr.named("op")], traced_refs)
            traced_ops_per_kref = 1e3 * n / sum(traced_in_ref)
            detail.update(end_to_end={k: v for k, (v, _) in metrics.items()},
                          traced_ops_per_kref=traced_ops_per_kref,
                          traced_output_mismatches=mismatches,
                          replay_mismatches=getattr(wl, "replay_mismatches", 0),
                          op_shares=stage_shares(tr, "op"),
                          trial_shares=stage_shares(tr, "replay.trial"))
            metrics = layer_metrics(tr, ops_per_kref, traced_ops_per_kref)
            (OUT_DIR / "traces").mkdir(parents=True, exist_ok=True)
            tr.dump(OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = not rec["unexpected"]
    result = {"correct": correct, "attempted": n, "failed": rec["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "env": environment(), "detail": detail, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / "results" / name, "w") as f:
        json.dump(doc, f, indent=1)

    for line in rec["unexpected"][:10]:
        print(f"violation: {line}")
    print(f"{args.workload}: attempted {n} ops, failed {rec['failed']}, correct {correct}")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}")
    for k, v in wall.items():
        print(f"  (wall clock) {k} = {v:.6g}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
