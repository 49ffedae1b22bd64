"""Measure how many rows solve_linf sweeps, what each stage costs, and that
skipping rows changes no bit of its answer.

solve_linf sweeps a row only when the row's l1 norm, and then the bucket
bound `das._das_bound` on its edges, reach the best objective found so far.
This script runs its kernel `das._linf` with counting and timing wrappers
around the three DaS stages (`_das_edges`, `_das_bound`, `_das_sweep`) and
compares every answer with a plain loop that sweeps every row, first best
wins, bit for bit (indices, row and objective). The plain loop runs outside
the wrappers, so only the stages `_linf` calls are counted.

Families:

* linf B=2, 3, 4: perfbench's linf inputs, 8 x 10^4 CN(0, 1) entries from
  numpy keyed by [seed, B, t], every third one scaled by 1e-13;
* rotated: 8 copies of one such row turned by e^{j theta}, whose optima tie;
* steering 8x10000 and 3x64: far-field responses of a uniform linear RIS
  with half-wavelength spacing, phase pi * i * s_k at element i, with
  s_k = sin(target) + sin(incidence) drawn in [-2, 2];
* single row: 1 x 10^4;
* gaussian 32x1000 B=2: CN(0, 1) rows of 10^3 entries, so that the stage
  times cover n = 10^3 as well as 10^4.

Per family the summary gives the rows skipped by the l1 test and by the
bound and the rows swept, per op; the microseconds per call of each stage;
how many answers equal the plain loop's; and the op time against the plain
loop's (`time_ratio`, the fastest of --repeat calls of each, alternated, per
input, summed over inputs), which is the time of sweeping every row.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/linf_screen.py --out screen.json
"""

from __future__ import annotations

import argparse
import json
import math
import time
from collections import defaultdict

import numpy as np

from unimod import DiscretePhaseSet, das

STAGES = ("_das_edges", "_das_bound", "_das_sweep")


def gaussian(key, m: int, n: int) -> np.ndarray:
    g = np.random.default_rng(key)
    return (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) / math.sqrt(2)


def steering(key, m: int, n: int) -> np.ndarray:
    s = np.random.default_rng(key).uniform(-2.0, 2.0, m)
    return np.exp(1j * math.pi * np.outer(s, np.arange(n)))


def families(seed: int, count: int):
    """name -> list of (A, bits)."""
    out = {}
    for bits in (2, 3, 4):
        out[f"linf B={bits}"] = [(gaussian([seed, bits, t], 8, 10000) * (1e-13 if t % 3 == 2 else 1.0),
                                  bits) for t in range(count)]
    out["rotated 8x10000"] = [
        (gaussian([seed, 5, t], 1, 10000) * np.exp(1j * np.linspace(0.0, 6.0, 8))[:, None], 2 + t % 3)
        for t in range(count)]
    out["steering 8x10000"] = [(steering([seed, 6, t], 8, 10000), 2 + t % 3) for t in range(count)]
    out["steering 3x64"] = [(steering([seed, 7, t], 3, 64), 1 + t % 4) for t in range(count)]
    out["single row 1x10000"] = [(gaussian([seed, 8, t], 1, 10000), 2 + t % 3) for t in range(count)]
    out["gaussian 32x1000 B=2"] = [(gaussian([seed, 9, t], 32, 1000), 2) for t in range(count)]
    return out


def every_row(a: np.ndarray, dps: DiscretePhaseSet):
    """solve_linf without skipping: DaS on every nonzero row, first best wins."""
    table = dps.phasors
    best = None
    for i in range(a.shape[0]):
        v = np.conj(a[i])
        if not v.any():
            continue
        idx = das._das_indices(v, dps)
        obj = float(np.abs(np.vdot(v, table[idx])))
        if best is None or obj > best[2]:
            best = (idx, i, obj)
    return best


class Stages:
    """Counting and timing wrappers around the DaS stages das._linf calls."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.saved = {name: getattr(das, name) for name in STAGES}

    def __enter__(self):
        for name, fn in self.saved.items():
            setattr(das, name, self.wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(das, name, fn)

    def wrap(self, name, fn):
        def timed(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.seconds[name] += time.perf_counter() - t0
                self.calls[name] += 1
        return timed


def fastest(fn, repeat: int) -> float:
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(cases, repeat: int) -> dict:
    rows = nonzero = identical = 0
    t_new = t_plain = 0.0
    with Stages() as st:
        answers = [das._linf(a, DiscretePhaseSet(bits)) for a, bits in cases]
    for (a, bits), (idx, row, obj, _) in zip(cases, answers):
        ref = every_row(a, DiscretePhaseSet(bits))
        identical += (row == ref[1] and obj.hex() == ref[2].hex()
                      and np.array_equal(idx, ref[0]))
        rows += a.shape[0]
        nonzero += int(np.count_nonzero(np.any(a, axis=1)))
    st_calls = dict(st.calls)
    st_us = {name: 1e6 * st.seconds[name] / st.calls[name] if st.calls[name] else None
             for name in STAGES}
    for a, bits in cases:
        dps = DiscretePhaseSet(bits)
        for _ in range(2):        # alternate, so a drift of the host hits both
            t_new += fastest(lambda: das._linf(a, dps), repeat)
            t_plain += fastest(lambda: every_row(a, dps), repeat)
    ops = len(cases)
    edges, sweeps = st_calls.get("_das_edges", 0), st_calls.get("_das_sweep", 0)
    return {
        "ops": ops,
        "rows_per_op": rows / ops,
        "skipped_by_l1_per_op": (nonzero - edges) / ops,
        "skipped_by_bound_per_op": (edges - sweeps) / ops,
        "swept_per_op": sweeps / ops,
        "us_per_call": {name.lstrip("_"): st_us[name] for name in STAGES},
        "identical_to_every_row": f"{identical} of {ops}",
        "op_ms": 1e3 * t_new / (2 * ops),
        "every_row_ms": 1e3 * t_plain / (2 * ops),
        "time_ratio": t_new / t_plain,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=19)
    parser.add_argument("--count", type=int, default=8, help="inputs per family")
    parser.add_argument("--repeat", type=int, default=5, help="timed calls per input and side")
    parser.add_argument("--out", help="where to write the summary as JSON")
    args = parser.parse_args()
    summary = {name: measure(cases, args.repeat)
               for name, cases in families(args.seed, args.count).items()}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "count": args.count, "repeat": args.repeat,
                       "summary": summary}, f, indent=1)
    print(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
