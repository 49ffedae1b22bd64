"""Self-tests of the benchmark's checks: every check passes a genuine output
of the program and flags a corrupted copy of it.

    python3 perfbench/test_checks.py
    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import checks
from unimod import DiscretePhaseSet, das_maximize, default_pipeline, solve_linf
from unimod.bench import ExperimentSpec, run_experiment
from workloads import complex_gaussian, pipeline_outcome


def ids(violations) -> set[str]:
    return {v.split(":", 1)[0] for v in violations}


def test_pipeline_checks():
    bits = 2
    for p in (1, 2):
        a = complex_gaussian([7, p], 8, 40)
        out = pipeline_outcome(default_pipeline(a, DiscretePhaseSet(bits), p))
        assert checks.check_pipeline(a, p, bits, out)[0] == []

        def flagged(**changes):
            bad = copy.deepcopy(out)
            bad.update(changes)
            return ids(checks.check_pipeline(a, p, bits, bad)[0])

        idx = out["idx"].copy()
        idx[3] = (idx[3] + 1) % 4
        assert "objective" in flagged(idx=idx)
        idx[3] = 4
        assert "range" in flagged(idx=idx)
        assert "objective" in flagged(objective=0.99 * out["objective"])
        costs = out["continuous_costs"].copy()
        costs[1] = 0.99 * costs[0]
        assert "monotone" in flagged(continuous_costs=costs)
        assert "rounding" in flagged(rounded_cost=1.01 * out["rounded_cost"])
        assert "lift" in flagged(rounded_cost=1.01 * out["objective"])
        assert "bound" in flagged(objective=10 * out["objective"])


def test_linf_checks():
    bits = 2
    a = complex_gaussian([8], 3, 12)
    pv, row, obj = solve_linf(a, DiscretePhaseSet(bits))
    out = {"idx": pv.indices, "row": row, "objective": obj}
    assert checks.check_linf(a, bits, out)[0] == []

    def flagged(**changes):
        return ids(checks.check_linf(a, bits, {**out, **changes})[0])

    idx = pv.indices.copy()
    idx[0] = (idx[0] + 1) % 4
    assert "objective" in flagged(idx=idx)
    assert "objective" in flagged(row=(row + 1) % 3)
    assert "range" in flagged(row=3)
    assert "objective" in flagged(objective=0.99 * obj)
    moved = float(abs(a[row] @ checks.phasors(idx, bits)))
    assert "local" in flagged(idx=idx, objective=moved)
    assert {"alignment", "cos"} <= flagged(objective=0.5 * obj)
    assert "upper" in flagged(objective=2 * np.abs(a).sum(axis=1).max())

    assert checks.check_scale(1e-13 * obj, 1e-13, obj) == []
    assert ids(checks.check_scale(1e-13 * obj * (1 - 1e-6), 1e-13, obj)) == {"scale"}


def test_das_small_checks():
    bits = 2
    tie_heavy = np.array([1, 2, 1, 1, 2]) * np.exp(0.25j * np.pi * np.array([0, 1, 4, 5, 2]))
    for v in (complex_gaussian([9], 1, 6).ravel(), tie_heavy):
        pv, obj = das_maximize(v, DiscretePhaseSet(bits))
        assert checks.check_das_small(v, bits, pv.indices, obj) == []
    v = complex_gaussian([9], 1, 6).ravel()
    pv, obj = das_maximize(v, DiscretePhaseSet(bits))
    idx = pv.indices.copy()
    idx[0] = (idx[0] + 1) % 4
    assert "objective" in ids(checks.check_das_small(v, bits, idx, obj))
    own = float(abs(np.vdot(v, checks.phasors(idx, bits))))
    assert ids(checks.check_das_small(v, bits, idx, own)) == {"exact"}
    assert "exact" in ids(checks.check_das_small(v, bits, pv.indices, 0.99 * obj))


def test_snr_cdf_checks():
    with tempfile.TemporaryDirectory() as d:
        spec = ExperimentSpec(kind="snr-cdf", out_dir=Path(d), trials=2, seed=3, m=8,
                              n_values=(16,), bits=(2,), random_configs=200)
        run_experiment(spec)
        rows = checks.read_snr_csv(Path(d) / "snr_cdf.csv")
        with open(Path(d) / "snr_cdf.json") as f:
            envelope = json.load(f)
    bad, trials = checks.check_snr_cdf(rows, envelope, 2)
    assert bad == [] and len(trials) == 2

    assert "rows" in ids(checks.check_snr_cdf(rows[:-1], envelope, 2)[0])
    shifted = copy.deepcopy(rows)
    shifted[0]["snr_db"] = str(float(shifted[0]["snr_db"]) + 0.1)
    assert "snr_db" in ids(checks.check_snr_cdf(shifted, envelope, 2)[0])
    lowered = copy.deepcopy(rows)
    pipe = next(r for r in lowered if r["method"] == "pipeline")
    rounded = next(r for r in lowered if r["method"] == "rounded" and r["trial"] == pipe["trial"])
    low = 0.99 * float(rounded["objective"])
    pipe["objective"], pipe["snr_db"] = repr(low), repr(20 * math.log10(low))
    assert "lift" in ids(checks.check_snr_cdf(lowered, envelope, 2)[0])
    moved = copy.deepcopy(envelope)
    moved["results"][0]["percentiles_db"]["50"] += 0.01
    assert "percentile" in ids(checks.check_snr_cdf(rows, moved, 2)[0])

    wins = [{"pipeline": 2.0, "random": 1.0}] * 99
    assert checks.check_beats_random(wins + [{"pipeline": 1.0, "random": 2.0}]) == []
    assert ids(checks.check_beats_random(wins + [{"pipeline": 1.0, "random": 2.0}] * 2)) == {"random"}


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
