"""Check that two source trees write the same bench tables and DaS outputs.

Both trees' unimod packages are loaded into this one process by `ab.load`,
each under its own name, and every check runs on each in turn; no CLI and no
child interpreter runs. For each experiment kind, `bench.make_spec(kind, dir,
seed=31, **FLAGS[kind])` at small trial counts goes to
`bench.run_experiment`, with one worker (UNIMOD_THREADS=1) and one BLAS
thread (OPENBLAS_NUM_THREADS=1), and the CSV tables are compared byte for
byte. `timing.csv` is compared without its wall-clock columns,
total_seconds and mean_seconds. The JSON envelopes are not compared: they
record the output directory and the commit.

The kernel digest is a sha256 over the outputs of `das._das_indices` and
`das._linf` on fixed inputs (`kernel_inputs`): indices, and for `_linf` also
the row, the objective's bits and the rows swept. On each vector it also
takes the scorers' bits: `das_maximize`'s objective, and `norm_lp(v, p)`
and `solver._witness(v, p)`, witness and cost, for p in {1, 2}. Both
objectives' bits are `core._norm`'s, the kernel of `norm_lp`: of A x at
p = inf for `_linf`, of conj(v) x at p = 2 for `das_maximize`. It is
reported under "kernel", apart from the kinds.

The pipeline digest is a sha256 over `default_pipeline`'s lifted indices,
both cost traces (the warm start's and the lift's) and the warm start's
single-precision cycle count on fixed 32 x 1000 inputs (`pipeline_inputs`),
for p in {1, 2} and B in {1, 2}. No table reaches the 2^13 entries at which
the warm start runs single-precision cycles, so this digest alone sees
them. It is reported under "pipeline".

The search digest is a sha256 over the indices and the objective's bits of
`exhaustive_norm` and `random_search` on fixed small inputs
(`search_inputs`), for p in {1, 2, inf}, and of `random_search` at B = 2
and B = 9, whose codes are bytes and uint16 integers. The tables run the
exhaustive search only at p = inf and as the inner product, and random
search only at p = 2 and B <= 4, all at unit scale; this digest also runs
the other norms, the uint16 codes and inputs near 1e170 and 1e-170. It is
reported under "search".

A tree is a directory that holds src/unimod. The script runs no git: make
the parent's tree with `git worktree add DIR REV` or
`git archive REV | tar -x -C DIR`. --change-src defaults to this checkout.

    python3 scripts/same_outputs.py --parent-src DIR [--change-src DIR] [--kinds timing ...]

Prints a JSON summary, one entry per kind and one for each digest, and
exits 1 when a table or a digest differs or a check raises on either tree;
the entry of a check that raised gives its error line.
"""

from __future__ import annotations

import os

# before numpy loads: one worker and one BLAS thread, as the tables assume
os.environ["UNIMOD_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from ab import ROOT, load

SEED = 31

#: per kind, the spec fields that run it in about a second
FLAGS = {
    "convergence": {"trials": 3},
    "lifting-stat": {"trials": 20},
    "snr-vs-n": {"trials": 6, "n_values": (20, 50), "random_configs": 500},
    "snr-cdf": {"trials": 8, "random_configs": 1000},
    "quantization-gap": {"trials": 6},
    "timing": {"trials": 3, "n_values": (10, 50), "random_configs": 200},
    "oracle-check": {"trials": 40},
}

#: the columns of timing.csv that vary run to run
CLOCK_COLUMNS = ("total_seconds", "mean_seconds")


def bench_table(pkg, kind: str, out: Path) -> str:
    """Run one experiment on `pkg` into `out`; its CSV table, without the
    clock columns for timing."""
    pkg.bench.run_experiment(pkg.bench.make_spec(kind, out, seed=SEED, **FLAGS[kind]))
    text = (out / f"{kind.replace('-', '_')}.csv").read_text()
    if kind != "timing":
        return text
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if name not in CLOCK_COLUMNS]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([[row[i] for i in keep] for row in rows])
    return buf.getvalue()


def kernel_inputs():
    """(kernel, input, bits) with kernel "das" for a vector and "linf" for a
    matrix: perfbench-shaped linf inputs (8 x 10^4 CN(0, 1) from numpy keyed
    by [31, B, t], B in {2, 3, 4}, every third one scaled by 1e-13), rows
    of small integer magnitudes at multiples of pi/4 (tie-heavy, some with
    zero entries), far-field steering rows of a uniform linear array,
    8 copies of one row turned by e^{j theta}, whose optima tie, rows
    of pairs whose first edges lie a few ulps apart, and partly-zero
    CN(0, 1) matrices (about 30 % of the entries and one row zero, at 8 x n
    for n up to 2000 and 8 x 10^4), whose rows `_linf` sweeps on their
    nonzero entries."""

    def gaussian(g, m, n):
        return (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) / math.sqrt(2)

    for bits in (2, 3, 4):
        for t in range(3):
            a = gaussian(np.random.default_rng([SEED, bits, t]), 8, 10000)
            yield "linf", a * (1e-13 if t == 2 else 1.0), bits
    g = np.random.default_rng([SEED, 1])
    for k in range(64):
        n, bits = int(g.integers(1, 2000)), 1 + k % 4
        v = g.integers(0 if k % 2 else 1, 3, n) * np.exp(0.25j * math.pi * g.integers(0, 8, n))
        if not v.any():
            v[0] = 1.0
        yield "das", v, bits
        s = g.uniform(-2.0, 2.0, 8)
        yield "linf", np.exp(1j * math.pi * np.outer(s, np.arange(n))), bits
        yield "das", np.exp(1j * math.pi * s[0] * np.arange(n)), bits
        yield "linf", gaussian(g, 1, n) * np.exp(1j * g.uniform(0.0, 2 * math.pi, 8))[:, None], bits
    for k in range(8):
        n, bits = int(g.integers(1, 2000)), 1 + k % 4
        yield "linf", g.integers(1, 3, (8, n)) * np.exp(0.25j * math.pi * g.integers(0, 8, (8, n))), bits
        v = np.repeat(gaussian(g, 1, n).ravel(), 2)
        v[1::2] *= g.uniform(0.5, 2.0, n) * np.exp(2e-15j * g.choice([-1, 1], n))
        yield "das", v, bits
    g = np.random.default_rng([SEED, 2])
    for k in range(12):
        n, bits = (10000 if k < 3 else int(g.integers(1, 2000))), 1 + k % 4
        a = gaussian(g, 8, n)
        a[g.random((8, n)) < 0.3] = 0.0
        a[k % 8] = 0.0
        yield "linf", a, bits


def kernel_digest(pkg) -> dict:
    """The digest of `pkg`'s DaS kernels and scorers on `kernel_inputs()`."""
    h = hashlib.sha256()
    counts = {"das": 0, "linf": 0}
    for kernel, x, bits in kernel_inputs():
        dps = pkg.DiscretePhaseSet(bits)
        if kernel == "das":
            h.update(pkg.das._das_indices(x, dps).tobytes())
            h.update(pkg.das_maximize(x, dps)[1].hex().encode())
            for p in (1.0, 2.0):
                z, cost = pkg.solver._witness(x, p)
                h.update(z.tobytes())
                h.update(f"{pkg.norm_lp(x, p).hex()} {cost.hex()}".encode())
        else:
            idx, row, obj, swept = pkg.das._linf(x, dps)
            h.update(idx.tobytes())
            h.update(f"{row} {obj.hex()} {swept}".encode())
        counts[kernel] += 1
    return {"sha256": h.hexdigest(), "das_vectors": counts["das"], "linf_matrices": counts["linf"]}


def pipeline_inputs():
    """32 x 1000 matrices: two of CN(0, 1) entries from numpy keyed by
    [31, 3, t], and 32 far-field steering rows of a uniform linear array."""
    for t in range(2):
        g = np.random.default_rng([SEED, 3, t])
        yield (g.standard_normal((32, 1000)) + 1j * g.standard_normal((32, 1000))) / math.sqrt(2)
    s = np.random.default_rng([SEED, 4]).uniform(-2.0, 2.0, 32)
    yield np.exp(1j * math.pi * np.outer(s, np.arange(1000)))


def pipeline_digest(pkg) -> dict:
    """The digest of `pkg`'s `default_pipeline` on `pipeline_inputs()`."""
    h = hashlib.sha256()
    runs = 0
    for a in pipeline_inputs():
        for p, bits in itertools.product((1, 2), (1, 2)):
            r = pkg.default_pipeline(a, pkg.DiscretePhaseSet(bits), p)
            h.update(r.trace.phases.indices.tobytes())
            h.update(r.continuous_trace.costs.tobytes())
            h.update(r.trace.costs.tobytes())
            h.update(str(r.continuous_trace.single_iterations).encode())
            runs += 1
    return {"sha256": h.hexdigest(), "pipelines": runs}


def search_inputs():
    """(m x n matrix, trials) pairs: CN(0, 1) entries from numpy keyed by
    [31, 5, t], tie-heavy rows of small integers at multiples of pi/4, and
    the CN(0, 1) ones scaled by 1e170 and 1e-170; 4 x 8 for the exhaustive
    search (trials 0) and 8 x 40 for random search (500 draws)."""
    for m, n, trials in ((4, 8, 0), (8, 40, 500)):
        g = np.random.default_rng([SEED, 5, n])
        a = (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) / math.sqrt(2)
        for x in (a, g.integers(1, 3, (m, n)) * np.exp(0.25j * math.pi * g.integers(0, 8, (m, n))),
                  1e170 * a, 1e-170 * a):
            yield x, trials


def search_digest(pkg) -> dict:
    """The digest of `pkg`'s `exhaustive_norm` and `random_search` on
    `search_inputs()`."""
    h = hashlib.sha256()
    runs = 0
    for a, trials in search_inputs():
        for p in (1, 2, math.inf):
            if trials:
                results = [pkg.random_search(a, pkg.DiscretePhaseSet(bits), p, trials, pkg.Rng(SEED))
                           for bits in (2, 9)]
            else:
                results = [pkg.exhaustive_norm(a, pkg.DiscretePhaseSet(2), p)]
            for r in results:
                h.update(r.phases.indices.tobytes())
                h.update(r.objective.hex().encode())
                runs += 1
    return {"sha256": h.hexdigest(), "searches": runs}


def failure(exc: Exception) -> dict:
    """The entry of a check that raised: its error line."""
    return {"identical": False, "error": f"{type(exc).__name__}: {exc}"}


def compare_digests(pkgs, digest) -> dict:
    try:
        digests = [digest(pkg) for pkg in pkgs]
    except Exception as exc:
        return failure(exc)
    return {"identical": digests[0] == digests[1], **digests[1]}


def compare(pkgs, kind: str, work: Path) -> dict:
    try:
        tables = [bench_table(pkg, kind, work / f"{kind}-{side}")
                  for side, pkg in zip(("parent", "change"), pkgs)]
    except Exception as exc:
        return failure(exc)
    lines = [t.splitlines() for t in tables]
    differing = sum(a != b for a, b in zip(*lines)) + abs(len(lines[0]) - len(lines[1]))
    return {"identical": tables[0] == tables[1], "rows": len(lines[0]) - 1,
            "differing_rows": differing}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-src", type=Path, required=True,
                        help="tree of the parent: a directory holding src/unimod")
    parser.add_argument("--change-src", type=Path, default=ROOT,
                        help="tree of the change (default: this checkout)")
    parser.add_argument("--kinds", nargs="+", choices=tuple(FLAGS), default=tuple(FLAGS))
    args = parser.parse_args()
    trees = [args.parent_src.resolve(), args.change_src.resolve()]
    for tree in trees:
        if not (tree / "src" / "unimod").is_dir():
            parser.error(f"{tree} holds no src/unimod")
    pkgs = [load(tree, f"same_{side}") for side, tree in zip(("parent", "change"), trees)]
    with tempfile.TemporaryDirectory() as work:
        kinds = {kind: compare(pkgs, kind, Path(work)) for kind in args.kinds}
    digests = {"kernel": compare_digests(pkgs, kernel_digest),
               "pipeline": compare_digests(pkgs, pipeline_digest),
               "search": compare_digests(pkgs, search_digest)}
    same = sum(k["identical"] for k in kinds.values())
    print(json.dumps({"parent": str(trees[0]), "change": str(trees[1]), "seed": SEED,
                      "identical": f"{same} of {len(kinds)}", "kinds": kinds,
                      **digests}, indent=2))
    return 0 if same == len(kinds) and all(d["identical"] for d in digests.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
