"""Correctness checks on the outputs of the benchmark's operations.

Every check recomputes what it needs with numpy from the inputs and the
returned lattice indices, or tests a bound the method must satisfy. None of
them compares against a stored copy of an earlier output. Each check returns
a list of violations, strings of the form "<check id>: <detail>"; an empty
list means the output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

#: relative tolerance on a value the benchmark recomputes from the indices
RTOL = 1e-9
#: relative slack on inequalities that hold exactly in real arithmetic
SLACK = 1e-12
#: share of snr-cdf trials in which the pipeline must beat random search
BEAT_SHARE = 0.99
SNR_METHODS = ("pipeline", "rounded", "random", "zero")


def phasors(idx, bits: int) -> np.ndarray:
    """exp(j * 2*pi * k / 2^B) for lattice indices k."""
    return np.exp(2j * math.pi * np.asarray(idx, dtype=np.float64) / (1 << bits))


def norm(y, p: int) -> float:
    return float(np.sum(np.abs(y))) if p == 1 else float(np.linalg.norm(y))


def nearest_indices(theta, bits: int) -> np.ndarray:
    """Index of the lattice phase nearest to each angle (ties go up)."""
    levels = 1 << bits
    steps = np.mod(theta, 2 * math.pi) / (2 * math.pi / levels)
    return np.floor(steps + 0.5).astype(np.int64) % levels


def _close(x: float, ref: float, rtol: float = RTOL) -> bool:
    return abs(x - ref) <= rtol * abs(ref)


def _at_least(x: float, ref: float) -> bool:
    return x >= ref - SLACK * abs(ref)


def _range_violation(idx, bits: int) -> list[str]:
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu" or np.any(idx < 0) or np.any(idx >= 1 << bits):
        return [f"range: indices outside [0, {1 << bits})"]
    return []


def check_pipeline(a: np.ndarray, p: int, bits: int, out: dict) -> tuple[list[str], float]:
    """Check one default_pipeline result on A.

    `out` holds idx (lifted indices), objective, continuous_phases,
    continuous_costs, lift_costs and rounded_cost. Returns the violations
    and the objective recomputed from the indices.
    """
    bad = _range_violation(out["idx"], bits)
    if bad:
        return bad, math.nan
    obj = norm(a @ phasors(out["idx"], bits), p)
    reported = out["objective"]
    if not _close(reported, obj):
        bad.append(f"objective: reported {reported!r}, recomputed {obj!r}")
    for name in ("continuous_costs", "lift_costs"):
        costs = np.asarray(out[name])
        if np.any(costs[1:] < costs[:-1] * (1 - SLACK)):
            bad.append(f"monotone: {name} decreases")
    own = norm(a @ phasors(nearest_indices(out["continuous_phases"], bits), bits), p)
    if not _close(out["rounded_cost"], own):
        bad.append(f"rounding: rounded cost {out['rounded_cost']!r}, own rounding {own!r}")
    if not _at_least(reported, out["rounded_cost"]):
        bad.append(f"lift: lifted {reported!r} below rounded {out['rounded_cost']!r}")
    if p == 2:
        bound = float(np.linalg.norm(a, 2)) * math.sqrt(a.shape[1])
    else:
        bound = float(np.abs(a).sum())
    if reported > bound * (1 + SLACK):
        bad.append(f"bound: objective {reported!r} above {bound!r}")
    return bad, obj


def check_linf(a: np.ndarray, bits: int, out: dict) -> tuple[list[str], float]:
    """Check one solve_linf result; `out` holds idx, row and objective."""
    bad = _range_violation(out["idx"], bits)
    row = out["row"]
    if not 0 <= row < a.shape[0]:
        bad.append(f"range: row {row} outside the matrix")
    if bad:
        return bad, math.nan
    reported = out["objective"]
    x = phasors(out["idx"], bits)
    s = a[row] @ x
    obj = float(abs(s))
    if not _close(reported, obj):
        bad.append(f"objective: reported {reported!r}, recomputed {obj!r}")
    # At the optimum every element sits at the lattice phase that best aligns
    # it with the row's sum; otherwise moving that element alone raises |s|.
    best = phasors(nearest_indices(np.angle(s) - np.angle(a[row]), bits), bits)
    rise = float(np.max(np.real(np.conj(s) / obj * a[row] * (best - x))))
    if rise > SLACK * obj:
        bad.append(f"local: moving one element raises the objective by {rise!r}")
    aligned = phasors(nearest_indices(-np.angle(a), bits), bits)
    rounded = float(np.max(np.abs(np.sum(a * aligned, axis=1))))
    if not _at_least(reported, rounded):
        bad.append(f"alignment: objective {reported!r} below hard-rounded {rounded!r}")
    l1 = float(np.max(np.abs(a).sum(axis=1)))
    if not _at_least(reported, math.cos(math.pi / (1 << bits)) * l1):
        bad.append(f"cos: objective {reported!r} below cos(pi/2^B) * {l1!r}")
    if reported > l1 * (1 + SLACK):
        bad.append(f"upper: objective {reported!r} above max row l1 norm {l1!r}")
    return bad, obj


def check_scale(objective: float, scale: float, reference: float) -> list[str]:
    """objective(s*A) / s must not fall below objective(A)."""
    if objective / scale < (1 - SLACK) * reference:
        return [f"scale: objective(s*A)/s = {objective / scale!r} below objective(A) = {reference!r}"]
    return []


def check_das_small(v: np.ndarray, bits: int, idx, objective: float) -> list[str]:
    """Compare one das_maximize result with full enumeration of the lattice."""
    bad = _range_violation(idx, bits)
    if bad:
        return bad
    own = float(abs(np.vdot(v, phasors(idx, bits))))
    if not _close(objective, own):
        bad.append(f"objective: reported {objective!r}, recomputed {own!r}")
    levels = 1 << bits
    configs = np.indices((levels,) * v.size).reshape(v.size, -1).T
    best = float(np.max(np.abs(phasors(configs, bits) @ np.conj(v))))
    if not _close(objective, best):
        bad.append(f"exact: objective {objective!r}, enumeration {best!r}")
    return bad


def read_snr_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_snr_cdf(rows: list[dict], envelope: dict, trials: int) -> tuple[list[str], list[dict]]:
    """Check one snr-cdf table and its JSON envelope.

    Returns the violations and, per trial, the objective of each method.
    """
    bad = []
    if len(rows) != 4 * trials:
        bad.append(f"rows: {len(rows)} CSV rows for {trials} trials")
    per_trial: dict[int, dict] = {}
    try:
        for r in rows:
            obj, db = float(r["objective"]), float(r["snr_db"])
            per_trial.setdefault(int(r["trial"]), {})[r["method"]] = obj
            if not abs(db - 20 * math.log10(obj)) <= 1e-9:
                bad.append(f"snr_db: {db!r} for objective {obj!r}")
        stated = {res["method"]: res["percentiles_db"] for res in envelope["results"]}
        for method in SNR_METHODS:
            vals = [float(r["snr_db"]) for r in rows if r["method"] == method]
            for q, got in stated[method].items():
                ref = float(np.percentile(vals, float(q)))
                if not abs(got - ref) <= SLACK * abs(ref):
                    bad.append(f"percentile: {method} p{q} is {got!r}, CSV gives {ref!r}")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return bad + [f"format: {exc!r}"], []
    if sorted(per_trial) != list(range(trials)) or any(
            sorted(d) != sorted(SNR_METHODS) for d in per_trial.values()):
        bad.append("rows: trials or methods missing")
        return bad, []
    for t, d in sorted(per_trial.items()):
        if not _at_least(d["pipeline"], d["rounded"]):
            bad.append(f"lift: trial {t} pipeline {d['pipeline']!r} below rounded {d['rounded']!r}")
    return bad, [per_trial[t] for t in sorted(per_trial)]


def check_beats_random(trials: list[dict]) -> list[str]:
    """The pipeline must beat random search in BEAT_SHARE of the trials."""
    wins = sum(1 for d in trials if d["pipeline"] > d["random"])
    if wins < BEAT_SHARE * len(trials):
        return [f"random: pipeline beat random search in {wins} of {len(trials)} trials"]
    return []
