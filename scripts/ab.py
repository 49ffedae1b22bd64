"""In-process A/B timing of two source trees.

The unimod package of each tree is loaded into one process under its own
name, through `importlib.util.spec_from_file_location` with
`submodule_search_locations`; this works because unimod imports itself only
relatively. The change tree is loaded twice. Every op runs four times, in
random order: on the parent, twice on the change and once on the change's
second load. The real set is the per-op time ratio change / parent, the
null set the ratio second load / change, which reads 1 up to the noise of
the method. Each set reports its median per-op ratio and the ratio of its
summed op times (as a throughput reads them, slow ops weighing more), each
with a 95 % bootstrap CI from 2000 resamples of the ops, and the ops whose
outputs differ: the lifted indices or the final cost of a pipeline, the
rows of an snr-cdf trial, the indices, row and objective of an l-infinity
solve, the indices and objective of an oracle search. The real set also
gives the shift of the final cost, the lifted one or the objective, in dB
(20 log10 of change / parent). Each side also reports its mean minor page
faults per op (`ru_minflt` around each call), which count a workspace the
allocator hands back to the system and faults in again on the next call.

Families:

* pipeline-n<N>, for instance pipeline-n200, pipeline-n1000 and
  pipeline-n10000: `default_pipeline` on a 32 x N matrix of CN(0, 1)
  entries from numpy keyed by [seed, i], op i taking the (p, B) pair i % 8
  of the benchmark's round (B = 1..4, p = 1, 2 within each B);
* linf-n<N>, for instance linf-n10000: `solve_linf` on an 8 x N matrix of
  CN(0, 1) entries from numpy keyed by [seed, i], op i taking the
  (B, scaled) pair i % 9 of the benchmark's round (B = 2, 3, 4, and within
  each B two matrices as drawn and one scaled by 1e-13);
* snr-cdf: one trial of the snr-cdf study, `bench._snr_trial` on the
  benchmark's spec (32 x 200, B = 2, 10^4 random configurations) with the
  seed (seed << 20) | i: a 32 x 200 pipeline and a random search;
* norm-m<M>-n<N>-b<B>, for instance norm-m6-n8-b3:
  `exhaustive_norm(a, DiscretePhaseSet(B), 2)` on an M x N matrix of CN(0, 1)
  entries from numpy keyed by [seed, i]; with M = 1 it is the scan of
  `exhaustive_inner`;
* random-m<M>-n<N>-b<B>, for instance random-m32-n200-b2: `random_search`
  with 10^4 draws, p = 2 and a fresh Rng(642) per call, on the same matrix.

A tree is a directory that holds src/unimod; make the parent's with
`git archive REV | tar -x -C DIR`. --change-src defaults to this checkout.
Inputs are drawn outside the timed calls, and one untimed op on every load
comes first. BLAS runs on one thread unless OPENBLAS_NUM_THREADS says
otherwise.

    python3 scripts/ab.py --parent-src DIR [--change-src DIR] \\
        --family pipeline-n1000 --ops 240
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import re
import resource
import sys
import time
from pathlib import Path

# before numpy loads: one BLAS thread unless the caller sets another count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

ROUND = tuple((p, bits) for bits in (1, 2, 3, 4) for p in (1, 2))

LINF_ROUND = tuple((bits, scaled) for bits in (2, 3, 4) for scaled in (False, False, True))

#: the factor of the scaled l-infinity ops
LINF_SCALE = 1e-13

#: random_search's draws per op
RANDOM_DRAWS = 10_000

#: the --family names, each size a positive count
COUNT = "[1-9][0-9]*"
FAMILIES = rf"snr-cdf|(pipeline|linf)-n{COUNT}|(norm|random)-m{COUNT}-n{COUNT}-b{COUNT}"
FAMILY_NAMES = "pipeline-n<N>, linf-n<N>, snr-cdf, norm-m<M>-n<N>-b<B> or random-m<M>-n<N>-b<B>"

RESAMPLES = 2000


def load(tree: Path, name: str):
    """tree/src/unimod imported as the package `name`, with its bench module."""
    init = tree / "src" / "unimod" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.bench")
    return package


def op_input(family: str, seed: int, i: int):
    """Op i's input, a matrix or an snr-cdf seed, and its (p, B)."""
    if family == "snr-cdf":
        return (seed << 20) | i, (2, 2)
    kind, *sizes = family.split("-")
    size = {s[0]: int(s[1:]) for s in sizes}
    shape = (size.get("m", 8 if kind == "linf" else 32), size["n"])
    g = np.random.default_rng([seed, i])
    a = (g.standard_normal(shape) + 1j * g.standard_normal(shape)) / math.sqrt(2)
    if kind == "pipeline":
        return a, ROUND[i % len(ROUND)]
    if kind == "linf":
        bits, scaled = LINF_ROUND[i % len(LINF_ROUND)]
        return (LINF_SCALE * a if scaled else a), (math.inf, bits)
    return a, (2, size["b"])


def run_op(pkg, family: str, x, p: int, bits: int):
    """One op on `pkg`: its final cost and the outputs the trees must agree on."""
    if family == "snr-cdf":
        spec = pkg.bench.ExperimentSpec(kind="snr-cdf", out_dir=".", trials=1, seed=x, m=32,
                                        n_values=(200,), bits=(bits,), random_configs=10_000)
        rows = pkg.bench._snr_trial(spec, (0, 0))
        return rows[0][3], repr(rows)
    if family.startswith(("norm", "random")):
        dps = pkg.DiscretePhaseSet(bits)
        res = (pkg.exhaustive_norm(x, dps, p) if family.startswith("norm")
               else pkg.random_search(x, dps, p, RANDOM_DRAWS, pkg.Rng(642)))
        return res.objective, (res.phases.indices.tobytes(), res.objective)
    if math.isinf(p):
        pv, row, obj = pkg.solve_linf(x, pkg.DiscretePhaseSet(bits))
        return obj, (pv.indices.tobytes(), row, obj)
    res = pkg.default_pipeline(x, pkg.DiscretePhaseSet(bits), p)
    return res.final_cost, (res.trace.phases.indices.tobytes(), res.final_cost)


def summary(num: np.ndarray, den: np.ndarray, differing: int) -> dict:
    """Per-op time ratios num / den: their median and the ratio of the sums,
    each with a 95 % CI from the same 2000 resamples of the ops."""
    pick = np.random.default_rng(0).integers(0, num.size, (RESAMPLES, num.size))
    ci = {}
    for name, stat in (("median", np.median((num / den)[pick], axis=1)),
                       ("sum", num[pick].sum(axis=1) / den[pick].sum(axis=1))):
        lo, hi = np.percentile(stat, (2.5, 97.5))
        ci[name] = [float(lo), float(hi)]
    return {"median_ratio": float(np.median(num / den)), "ci95": ci["median"],
            "sum_ratio": float(num.sum() / den.sum()), "sum_ci95": ci["sum"],
            "differing_outputs": differing}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-src", type=Path, required=True)
    parser.add_argument("--change-src", type=Path, default=ROOT)
    parser.add_argument("--family", required=True, help=FAMILY_NAMES)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--seed", type=int, default=31)
    args = parser.parse_args()
    if not re.fullmatch(FAMILIES, args.family):
        parser.error(f"unknown family {args.family!r}: {FAMILY_NAMES}")

    change = load(args.change_src, "ab_change")
    # the four runs of an op: the change runs twice, once for each set
    sides = {"parent": load(args.parent_src, "ab_parent"), "change": change,
             "change_again": change, "null": load(args.change_src, "ab_null")}
    x, (p, bits) = op_input(args.family, args.seed, args.ops)
    for pkg in sides.values():
        run_op(pkg, args.family, x, p, bits)

    order = np.random.default_rng([args.seed, 1])
    seconds = {side: [] for side in sides}
    faults = dict.fromkeys(sides, 0)
    real_differ = null_differ = 0
    shifts = []
    for i in range(args.ops):
        x, (p, bits) = op_input(args.family, args.seed, i)
        outs = {}
        for side in order.permutation(list(sides)):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            outs[side] = run_op(sides[side], args.family, x, p, bits)
            seconds[side].append(time.perf_counter() - start)
            faults[side] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        real_differ += outs["change"][1] != outs["parent"][1]
        null_differ += outs["null"][1] != outs["change_again"][1]
        shifts.append(20 * math.log10(outs["change"][0] / outs["parent"][0]))

    t = {side: np.asarray(s) for side, s in seconds.items()}
    real = summary(t["change"], t["parent"], real_differ)
    real["lifted_db_shift"] = {
        "min": min(shifts), "q5": float(np.percentile(shifts, 5)),
        "median": float(np.median(shifts)), "mean": float(np.mean(shifts)), "max": max(shifts)}
    print(json.dumps({
        "family": args.family, "ops": args.ops, "seed": args.seed,
        "median_op_ms": {"parent": 1e3 * float(np.median(t["parent"])),
                         "change": 1e3 * float(np.median(t["change"]))},
        "minflt_per_op": {"parent": faults["parent"] / args.ops,
                          "change": faults["change"] / args.ops},
        "real": real,
        "null": summary(t["null"], t["change_again"], null_differ),
    }, indent=1))


if __name__ == "__main__":
    main()
