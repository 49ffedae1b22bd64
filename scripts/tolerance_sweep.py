"""Sweep SolveConfig.tolerance: iterations of both pipeline stages against
the lifted cost.

Two problem families, each run through `default_pipeline` at every
tolerance:

* pipeline-n1000: 48 matrices of 32 x 1000 CN(0, 1) entries, those of
  `ab.op_input("pipeline-n1000", 11, i)`: numpy keyed by [11, i], with
  operation i taking the (p, B) pair i % 8 of the benchmark's round
  (B = 1..4, p = 1, 2 within each B);
* snr-cdf: 40 NLoS RIS problems of the snr-cdf study, 32 x 200, drawn by
  `bench._ris_instance` on the study's spec at seed 31337 (Rng(31337, t)),
  p = 2, B = 2.

--single-tolerances sweeps the continuous solver's single-precision stop,
`solver._SINGLE_TOLERANCE`, which this script sets in-process; each run is
then keyed "<tolerance>/<single tolerance>". The single-precision cycles run
only on matrices of at least 2^13 entries, so they change the
pipeline-n1000 family alone.

Each run is compared with a reference: the first run of the list, or the
first run of a `--baseline` file that an earlier run of this script wrote
(for instance on another tree). The summary gives per family and run the
mean warm-start cycles in all, in single and in double precision, the mean
lift iterations, the warm starts that hit the cap, how many lifted index
vectors equal the reference's, and the lifted cost's shift from the
reference in dB (20 log10 of the cost ratio, so dB of SNR).

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/tolerance_sweep.py \\
        --tolerances 1e-12 1e-11 1e-10 1e-9 1e-8 1e-7 1e-6 --out sweep.json
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/tolerance_sweep.py \\
        --tolerances 1e-10 --single-tolerances 1e-7 3e-7 1e-6 --out single.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math

import numpy as np

from ab import op_input
from unimod import DiscretePhaseSet, SolveConfig, bench, default_pipeline, solver


def pipeline_problems(count: int):
    for i in range(count):
        a, (p, bits) = op_input("pipeline-n1000", 11, i)
        yield i, p, bits, a


def snr_problems(count: int):
    spec = bench.make_spec("snr-cdf", ".", seed=31337)
    for t in range(count):
        yield t, 2, 2, bench._ris_instance(spec, 0, t)[1]


def run(problems, settings) -> dict:
    """Per (tolerance, single-precision tolerance or None), one record per
    problem; None keeps the solver's own single-precision tolerance."""
    records = {run_key(*s): [] for s in settings}
    for key, p, bits, a in problems:
        dps = DiscretePhaseSet(bits)
        for tol, single in settings:
            if single is not None:
                solver._SINGLE_TOLERANCE = single
            res = default_pipeline(a, dps, p, SolveConfig(tolerance=tol))
            warm = res.continuous_trace
            records[run_key(tol, single)].append({
                "problem": key, "p": p, "bits": bits,
                "cycles": warm.iterations,
                # 0 on a tree whose solver runs float64 cycles alone
                "single_cycles": getattr(warm, "single_iterations", 0),
                "cycles_end": res.continuous_trace.termination,
                "lift_iterations": res.trace.iterations,
                "lifted": res.final_cost,
                "indices": hashlib.sha256(res.trace.phases.indices.tobytes()).hexdigest()[:16],
            })
    return records


def run_key(tol: float, single: float | None) -> str:
    return str(tol) if single is None else f"{tol}/{single}"


def summarize(records: dict, reference: list) -> dict:
    out = {}
    for key, recs in records.items():
        shift = [20 * math.log10(r["lifted"] / b["lifted"]) for r, b in zip(recs, reference)]
        single = [r["single_cycles"] for r in recs]
        out[key] = {
            "warm_start_cycles_mean": float(np.mean([r["cycles"] for r in recs])),
            "warm_start_single_cycles_mean": float(np.mean(single)),
            "warm_start_double_cycles_mean": float(np.mean([r["cycles"] for r in recs])
                                                   - np.mean(single)),
            "lift_iterations_mean": float(np.mean([r["lift_iterations"] for r in recs])),
            "warm_start_cap_hits": sum(r["cycles_end"] == "iteration-cap" for r in recs),
            "identical_indices": sum(r["indices"] == b["indices"] for r, b in zip(recs, reference)),
            "problems": len(recs),
            "lifted_db_shift_min": min(shift),
            "lifted_db_shift_q5": float(np.percentile(shift, 5)),
            "lifted_db_shift_median": float(np.median(shift)),
            "lifted_db_shift_max": max(shift),
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tolerances", type=float, nargs="+", required=True)
    parser.add_argument("--single-tolerances", type=float, nargs="+", default=[None],
                        help="values of solver._SINGLE_TOLERANCE to run with each tolerance "
                             "(default: the solver's own)")
    parser.add_argument("--baseline", help="records JSON of an earlier run; its first "
                        "tolerance is the reference")
    parser.add_argument("--out", required=True, help="where to write records and summary")
    args = parser.parse_args()

    settings = [(tol, single) for tol in args.tolerances for single in args.single_tolerances]
    families = {"pipeline-n1000": pipeline_problems(48), "snr-cdf": snr_problems(40)}
    records = {name: run(problems, settings) for name, problems in families.items()}
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)["records"]
        references = {name: next(iter(base[name].values())) for name in records}
    else:
        references = {name: next(iter(recs.values())) for name, recs in records.items()}
    summary = {name: summarize(records[name], references[name]) for name in records}
    with open(args.out, "w") as f:
        json.dump({"tolerances": args.tolerances, "single_tolerances": args.single_tolerances,
                   "baseline": args.baseline,
                   "summary": summary, "records": records}, f, indent=1)
    print(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
