"""Time the exhaustive and random oracles of the tree this script runs from.

Each case is one oracle call, timed `--repeat` times after one warm-up
call; the summary gives the best and the median in milliseconds and the
minor page faults (`ru_minflt`) per timed call. The cases:

* exhaustive_inner at n = 3, 6, 8, 10, 12, 20 with B = 1, 2, 3, 2, 2, 1,
  on v = sample_complex_gaussian(Rng(641, n), 1, n, 1);
* exhaustive_norm at 6 x 8, B = 3, p = 2, on Rng(641, 8);
* random_search at 32 x 200 with 10^4 draws, B = 2, 9 and 16, and with 100
  draws, B = 16, p = 2, on Rng(641, 200) with a fresh Rng(642) per call.

Besides those, the tracemalloc peaks of one exhaustive_inner call at n = 8,
B = 3 and of one random_search call at B = 16 with 100 draws (each after a
warm-up call) and the wall time of criterion 1's loop from
tests/test_acceptance.py: das_maximize and exhaustive_inner on 1000
Gaussian vectors, n 1 .. 8 and B 1 .. 3, with the oracle's share of it.

The numbers are those of the checkout on PYTHONPATH, so two trees are
compared by running the script in each checkout in turn, several times:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/oracle_timing.py --out timing.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import time
import tracemalloc

import numpy as np

from unimod import DiscretePhaseSet, Rng, das_maximize, sample_complex_gaussian
from unimod.oracle import exhaustive_inner, exhaustive_norm, random_search

#: (name, oracle, m, n, B, random_search draws); exhaustive_inner takes the
#: conjugate of the row
CASES = [
    *((f"exhaustive_inner n={n} B={b}", "inner", 1, n, b, 0)
      for n, b in ((3, 1), (6, 2), (8, 3), (10, 2), (12, 2), (20, 1))),
    ("exhaustive_norm 6x8 B=3 p=2", "norm", 6, 8, 3, 0),
    ("random_search 32x200 B=2 1e4", "random", 32, 200, 2, 10_000),
    ("random_search 32x200 B=9 1e4", "random", 32, 200, 9, 10_000),
    ("random_search 32x200 B=16 1e4", "random", 32, 200, 16, 10_000),
    ("random_search 32x200 B=16 1e2", "random", 32, 200, 16, 100),
]

#: the cases whose tracemalloc peak is reported
PEAKS = ("exhaustive_inner n=8 B=3", "random_search 32x200 B=16 1e2")


def call(oracle: str, m: int, n: int, bits: int, draws: int):
    """A function that makes one call of the case."""
    a = sample_complex_gaussian(Rng(641, n), m, n, 1.0)
    dps = DiscretePhaseSet(bits)
    if oracle == "inner":
        return lambda: exhaustive_inner(np.conj(a[0]), dps)
    if oracle == "norm":
        return lambda: exhaustive_norm(a, dps, 2)
    return lambda: random_search(a, dps, 2, draws, Rng(642))


def time_case(fn, repeat: int) -> dict:
    fn()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - t0))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"best_ms": min(times), "median_ms": statistics.median(times),
            "ru_minflt_per_call": faults / repeat}


def peak_mb(fn) -> float:
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def criterion_1() -> dict:
    """The loop of test_criterion_1_das_exactness, timed as a whole and in
    its oracle calls."""
    cells = [(n, b) for b in (1, 2, 3) for n in range(1, 9)]
    oracle_s = 0.0
    start = time.perf_counter()
    for t in range(1000):
        n, bits = cells[t % len(cells)]
        v = sample_complex_gaussian(Rng(910_000, t), 1, n, 1.0).ravel()
        dps = DiscretePhaseSet(bits)
        das_maximize(v, dps)
        t0 = time.perf_counter()
        exhaustive_inner(v, dps)
        oracle_s += time.perf_counter() - t0
    return {"loop_s": time.perf_counter() - start, "oracle_s": oracle_s}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="timed calls per case")
    parser.add_argument("--out", help="where to write the summary as JSON")
    args = parser.parse_args()
    summary = {
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count(),
                 "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "repeat": args.repeat,
        "single_calls": {name: time_case(call(*case), args.repeat)
                         for name, *case in CASES},
        "tracemalloc_peak_mb": {name: peak_mb(call(*case)) for name, *case in CASES
                                if name in PEAKS},
        "criterion_1": criterion_1(),
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    print(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
