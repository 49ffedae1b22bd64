"""In-process A/B timing of two source trees.

The unimod package of each tree is loaded into one process under its own
name, through `importlib.util.spec_from_file_location` with
`submodule_search_locations`; this works because unimod imports itself only
relatively. The parent and the change are each loaded twice, the parent's
second time from a copy of its src/unimod in a temporary directory. Every
op runs six times, in random order: twice on the parent, once on its copy,
twice on the change and once on the change's second load. Three sets of
per-op time ratios follow: the real set, change / parent; the null set,
second load / change; and the A/A set, parent copy / parent. The null set
reads 1 up to the noise of the method; the A/A set also shows the bias
between two trees that run the same code from different paths, the
spread a real move between two trees has to clear. Each set reports its
median per-op ratio and the ratio of its summed op times (as a throughput
reads them, slow ops weighing more), each with a 95 % bootstrap CI from
2000 resamples of the ops, and the ops whose outputs differ: the lifted
indices or the final cost of a pipeline, the rows of an snr-cdf trial, the
indices, row and objective of an l-infinity solve, the indices and
objective of an oracle search. The real set also gives the shift of the
final cost, the lifted one or the objective, in dB (20 log10 of change /
parent), and `ops_lower`, the ops whose final cost went down.

Per side (parent and change), each family reports the mean minor page
faults per op (`minflt_per_op`, `ru_minflt` around each call), which count
a workspace the allocator hands back to the system and faults in again on
the next call, and under `counts` what its ops iterated:

* pipeline families (pipeline, ris, steer): the mean single-precision
  cycles (`single_cycles`), float64 cycles (`float64_cycles`) and lift
  iterations (`lift_iterations`) per op, and the warm starts that hit the
  iteration cap (`warm_start_cap_hits`, a count of ops);
* l-infinity families (linf, linf-steer): the mean rows swept per op
  (`rows_swept`), as the kernel `das._linf` reports them.

Families:

* pipeline-n<N>, for instance pipeline-n200, pipeline-n1000 and
  pipeline-n10000: `default_pipeline` on a 32 x N matrix of CN(0, 1)
  entries from numpy keyed by [seed, i], op i taking the (p, B) pair i % 8
  of the benchmark's round (B = 1..4, p = 1, 2 within each B);
* ris-n<N>, for instance ris-n200: `default_pipeline` on trial i's NLoS
  RIS problem of the snr-cdf study at N units (`bench._ris_instance` on
  the spec of `bench.make_spec("snr-cdf", ..., seed=seed)`, drawn by the
  parent's bench), p = 2 and B = 1 + i % 4;
* steer-n<N>, for instance steer-n1000: `default_pipeline` on 32 line-of-
  sight rows, the far-field responses of a uniform linear RIS with
  half-wavelength spacing, exp(j pi s_k i) at element i, with s_k ~
  U[-2, 2] from numpy keyed by [seed, i], on the pipeline round;
* linf-n<N>, for instance linf-n10000: `solve_linf`'s kernel, after its
  validation, on an 8 x N matrix of CN(0, 1) entries from numpy keyed by
  [seed, i], op i taking the (B, scaled) pair i % 9 of the benchmark's
  round (B = 2, 3, 4, and within each B two matrices as drawn and one
  scaled by 1e-13);
* linf-steer-n<N>, for instance linf-steer-n10000: the same on 8 such
  steering rows, whose ties leave the row screen nothing to skip;
* snr-cdf: one trial of the snr-cdf study, `bench._snr_trial` on the
  benchmark's spec (32 x 200, B = 2, 10^4 random configurations) with the
  seed (seed << 20) | i: a 32 x 200 pipeline and a random search;
* norm-m<M>-n<N>-b<B>, for instance norm-m6-n8-b3:
  `exhaustive_norm(a, DiscretePhaseSet(B), 2)` on an M x N matrix of CN(0, 1)
  entries from numpy keyed by [seed, i]; with M = 1 it is the scan of
  `exhaustive_inner`;
* random-m<M>-n<N>-b<B>, for instance random-m32-n200-b2: `random_search`
  with 10^4 draws, p = 2 and a fresh Rng(642) per call, on the same matrix.

Two options change the change side alone, its two loads and all three of
its runs, so that one tree can serve as both parent and change:

* --patch MODULE.NAME=VALUE (repeatable) sets the module global NAME of
  unimod.MODULE to VALUE, a numeric literal or inf, after loading; it
  reaches the functions that read NAME when they run, for instance
  `--patch solver._SINGLE_TOLERANCE=1e-6`, or `--patch
  das._UNDERFLOW_FLOOR=inf`, which makes `das._das_slack` infinite so that
  `_linf` sweeps every nonzero row;
* --tolerance X runs the pipeline families' pipelines with
  `SolveConfig(tolerance=X)`, which stops the float64 cycles and the lift
  at X and the warm start's single-precision cycles at
  max(X, solver._SINGLE_TOLERANCE).

A tree is a directory that holds src/unimod; make the parent's with
`git archive REV | tar -x -C DIR`. --change-src defaults to this checkout.
Inputs are drawn outside the timed calls, and one untimed op on every load
comes first. BLAS runs on one thread unless OPENBLAS_NUM_THREADS says
otherwise.

    python3 scripts/ab.py --parent-src DIR [--change-src DIR] \\
        --family pipeline-n1000 --ops 240
    python3 scripts/ab.py --parent-src . --family steer-n1000 --ops 96 --tolerance 1e-7
"""

from __future__ import annotations

import argparse
import ast
import importlib
import importlib.util
import json
import math
import os
import re
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
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
FAMILIES = (rf"snr-cdf|(pipeline|ris|steer|linf|linf-steer)-n{COUNT}"
            rf"|(norm|random)-m{COUNT}-n{COUNT}-b{COUNT}")
FAMILY_NAMES = ("pipeline-n<N>, ris-n<N>, steer-n<N>, linf-n<N>, linf-steer-n<N>, snr-cdf, "
                "norm-m<M>-n<N>-b<B> or random-m<M>-n<N>-b<B>")

#: the families whose ops are pipelines, which --tolerance reaches
PIPELINES = ("pipeline", "ris", "steer")

#: the runs of an op on a change load
CHANGE_SIDES = ("change", "change_again", "null")

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


def parse_patch(text: str, tree: Path) -> tuple[str, str, float]:
    """(MODULE, NAME, value) of a --patch MODULE.NAME=VALUE whose NAME is
    assigned at the top of tree's unimod/MODULE.py; ValueError otherwise."""
    target, _, literal = text.partition("=")
    module, _, name = target.partition(".")
    source = tree / "src" / "unimod" / f"{module}.py"
    if not (module.isidentifier() and source.is_file()):
        raise ValueError(f"no module unimod.{module} in {tree}")
    if not (name.isidentifier()
            and re.search(rf"^{name}\s*(:[^=\n]*)?=(?!=)", source.read_text(), re.M)):
        raise ValueError(f"unimod.{module} assigns no global {name!r}")
    try:
        value = math.inf if literal == "inf" else ast.literal_eval(literal)
    except (ValueError, SyntaxError):
        value = None
    if type(value) not in (int, float) or math.isnan(value):
        raise ValueError(f"{text!r}: the value must be a numeric literal or inf")
    return module, name, value


def family_kind(family: str) -> str:
    """The family's name without its sizes: pipeline, linf-steer, norm, ..."""
    return re.sub(rf"-[mnb]{COUNT}", "", family)


def op_input(family: str, seed: int, i: int, pkg=None):
    """Op i's input, a matrix or an snr-cdf seed, and its (p, B); the ris
    families draw their matrix with `pkg`'s bench."""
    if family == "snr-cdf":
        return (seed << 20) | i, (2, 2)
    kind = family_kind(family)
    size = {k: int(v) for k, v in re.findall(r"-([mnb])([0-9]+)", family)}
    if kind == "ris":
        spec = pkg.bench.make_spec("snr-cdf", ".", seed=seed, n_values=(size["n"],))
        return pkg.bench._ris_instance(spec, 0, i)[1], (2, 1 + i % 4)
    m, n = size.get("m", 8 if kind.startswith("linf") else 32), size["n"]
    g = np.random.default_rng([seed, i])
    if kind.endswith("steer"):
        a = np.exp(1j * math.pi * np.outer(g.uniform(-2.0, 2.0, m), np.arange(n)))
    else:
        a = (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) / math.sqrt(2)
    if kind.startswith("linf"):
        bits, scaled = LINF_ROUND[i % len(LINF_ROUND)]
        return (LINF_SCALE * a if scaled else a), (math.inf, bits)
    if kind in PIPELINES:
        return a, ROUND[i % len(ROUND)]
    return a, (2, size["b"])


def run_op(pkg, family: str, x, p: int, bits: int, tolerance: float | None = None):
    """One op on `pkg`: its final cost, the outputs the trees must agree on
    and its counts; a pipeline runs SolveConfig(tolerance=tolerance) unless
    that is None."""
    if family == "snr-cdf":
        spec = pkg.bench.ExperimentSpec(kind="snr-cdf", out_dir=".", trials=1, seed=x, m=32,
                                        n_values=(200,), bits=(bits,), random_configs=10_000)
        rows = pkg.bench._snr_trial(spec, (0, 0))
        return rows[0][3], repr(rows), {}
    dps = pkg.DiscretePhaseSet(bits)
    if family.startswith(("norm", "random")):
        res = (pkg.exhaustive_norm(x, dps, p) if family.startswith("norm")
               else pkg.random_search(x, dps, p, RANDOM_DRAWS, pkg.Rng(642)))
        return res.objective, (res.phases.indices.tobytes(), res.objective), {}
    if math.isinf(p):
        idx, row, obj, swept = pkg.das._linf(pkg.core.as_complex_matrix(x), dps)
        return obj, (idx.tobytes(), row, obj), {"rows_swept": swept}
    cfg = None if tolerance is None else pkg.SolveConfig(tolerance=tolerance)
    res = pkg.default_pipeline(x, dps, p, cfg)
    warm = res.continuous_trace
    return res.final_cost, (res.trace.phases.indices.tobytes(), res.final_cost), {
        "single_cycles": warm.single_iterations,
        "float64_cycles": warm.iterations - warm.single_iterations,
        "lift_iterations": res.trace.iterations,
        "warm_start_cap_hits": warm.termination == "iteration-cap"}


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


def measure(args, parent_copy: Path) -> dict:
    """The summary of `args.ops` ops of `args.family`, the parent's copy
    being the tree at `parent_copy`."""
    parent, change = load(args.parent_src, "ab_parent"), load(args.change_src, "ab_change")
    null = load(args.change_src, "ab_null")
    for module, name, value in args.patch:
        for pkg in (change, null):
            setattr(importlib.import_module(f"{pkg.__name__}.{module}"), name, value)
    # the six runs of an op: parent and change run twice, once for each set
    sides = {"parent": parent, "parent_again": parent, "aa": load(parent_copy, "ab_aa"),
             "change": change, "change_again": change, "null": null}
    tolerance = {side: args.tolerance if side in CHANGE_SIDES else None for side in sides}
    x, (p, bits) = op_input(args.family, args.seed, args.ops, parent)
    for side, pkg in sides.items():
        run_op(pkg, args.family, x, p, bits, tolerance[side])

    order = np.random.default_rng([args.seed, 1])
    seconds = {side: [] for side in sides}
    faults = dict.fromkeys(sides, 0)
    counts = {side: Counter() for side in sides}
    differ = Counter()
    db = []
    for i in range(args.ops):
        x, (p, bits) = op_input(args.family, args.seed, i, parent)
        outs, cost = {}, {}
        for side in order.permutation(list(sides)):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            cost[side], outs[side], op_counts = run_op(sides[side], args.family, x, p, bits,
                                                       tolerance[side])
            seconds[side].append(time.perf_counter() - start)
            faults[side] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            counts[side].update(op_counts)
        differ.update(real=outs["change"] != outs["parent"],
                      null=outs["null"] != outs["change_again"],
                      aa=outs["aa"] != outs["parent_again"])
        db.append(20 * math.log10(cost["change"] / cost["parent"]))

    t = {side: np.asarray(s) for side, s in seconds.items()}
    real = summary(t["change"], t["parent"], differ["real"])
    real["lifted_db_shift"] = {
        "min": min(db), "q5": float(np.percentile(db, 5)),
        "median": float(np.median(db)), "mean": float(np.mean(db)), "max": max(db)}
    real["ops_lower"] = sum(s < 0 for s in db)
    return {
        "family": args.family, "ops": args.ops, "seed": args.seed,
        "patch": [f"{m}.{n}={v}" for m, n, v in args.patch], "tolerance": args.tolerance,
        "median_op_ms": {"parent": 1e3 * float(np.median(t["parent"])),
                         "change": 1e3 * float(np.median(t["change"]))},
        "minflt_per_op": {"parent": faults["parent"] / args.ops,
                          "change": faults["change"] / args.ops},
        "counts": {side: {k: v if k == "warm_start_cap_hits" else v / args.ops
                          for k, v in counts[side].items()} for side in ("parent", "change")},
        "real": real,
        "null": summary(t["null"], t["change_again"], differ["null"]),
        "aa": summary(t["aa"], t["parent_again"], differ["aa"]),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-src", type=Path, required=True)
    parser.add_argument("--change-src", type=Path, default=ROOT)
    parser.add_argument("--family", required=True, help=FAMILY_NAMES)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--patch", action="append", default=[], metavar="MODULE.NAME=VALUE",
                        help="set a module global of the change's unimod (repeatable)")
    parser.add_argument("--tolerance", type=float,
                        help="the change's pipelines run SolveConfig(tolerance=TOLERANCE); "
                             "single-precision cycles stop at max(TOLERANCE, "
                             "solver._SINGLE_TOLERANCE)")
    args = parser.parse_args()
    if not re.fullmatch(FAMILIES, args.family):
        parser.error(f"unknown family {args.family!r}: {FAMILY_NAMES}")
    if args.tolerance is not None and family_kind(args.family) not in PIPELINES:
        parser.error(f"--tolerance reaches only the pipeline families, not {args.family!r}")
    try:
        args.patch = [parse_patch(text, args.change_src) for text in args.patch]
    except ValueError as err:
        parser.error(f"--patch: {err}")

    with tempfile.TemporaryDirectory(prefix="ab-parent-copy-") as copy:
        shutil.copytree(args.parent_src / "src" / "unimod", Path(copy) / "src" / "unimod")
        print(json.dumps(measure(args, Path(copy)), indent=1))


if __name__ == "__main__":
    main()
