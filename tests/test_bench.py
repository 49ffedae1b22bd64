import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from unimod import InvalidArgumentError
from unimod import bench
from unimod.bench import (
    EXPERIMENTS,
    KINDS,
    ExperimentSpec,
    LiftingRecord,
    make_spec,
    read_csv,
    run_experiment,
)

#: small overrides that run every experiment in well under a second
SMALL = {
    "convergence": dict(trials=2, m=3, n_values=(12,)),
    "lifting-stat": dict(trials=3),
    "snr-vs-n": dict(trials=2, m=3, n_values=(12, 16), random_configs=50),
    "snr-cdf": dict(trials=2, m=3, n_values=(12,), random_configs=50),
    "quantization-gap": dict(trials=2, m=3, n_values=(12,), bits=(1, 2)),
    "timing": dict(trials=2, m=3, n_values=(12,), random_configs=50),
    "oracle-check": dict(trials=3),
}


def rows_by(rows, col_idx, value):
    return [r for r in rows if r[col_idx] == value]


class TestSpec:
    def test_defaults_per_kind(self):
        spec = make_spec("lifting-stat", "out")
        assert spec.trials == 500 and spec.m == 10 and spec.n_values == (100,)
        spec = make_spec("quantization-gap", "out")
        assert spec.bits == (1, 2, 3, 4) and spec.m == 16

    def test_overrides(self):
        spec = make_spec("snr-vs-n", "out", trials=7, n_values=(20, 30))
        assert spec.trials == 7 and spec.n_values == (20, 30)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            make_spec("nope", "out")
        with pytest.raises(InvalidArgumentError):
            ExperimentSpec(kind="timing", out_dir=Path("x"), trials=0)
        with pytest.raises(InvalidArgumentError):
            ExperimentSpec(kind="timing", out_dir=Path("x"), trials=1, bits=(0,))

    @pytest.mark.parametrize("field,value", [
        ("random_configs", 0), ("nmax", 0),
        ("variance", 0.0), ("variance", -1.0), ("variance", math.inf), ("variance", math.nan),
    ])
    def test_rejects_bad_field_naming_it(self, field, value):
        # these used to pass the spec and fail, if at all, inside a trial
        with pytest.raises(InvalidArgumentError, match=field):
            make_spec("oracle-check", "out", trials=1, **{field: value})

    @pytest.mark.parametrize("kind", ["snr-vs-n", "snr-cdf", "quantization-gap", "timing"])
    def test_p2_only_kinds_reject_other_norms(self, kind):
        # these runners always solve with p = 2; an envelope claiming another
        # p would misreport the run
        assert make_spec(kind, "out", p=2).p == 2
        for p in (1, math.inf):
            with pytest.raises(InvalidArgumentError):
                make_spec(kind, "out", p=p)


class TestLiftingRecord:
    def test_gain_defined(self):
        rec = LiftingRecord.from_costs(10.0, 8.0, 9.0)
        assert rec.gain == pytest.approx(0.5)

    def test_gain_undefined_below_floor(self):
        assert LiftingRecord.from_costs(10.0, 10.0, 10.0).gain is None
        assert LiftingRecord.from_costs(10.0, 10.0 + 1e-13, 10.5).gain is None


class TestConvergence:
    def test_monotone_traces_and_schema(self, tmp_path):
        spec = make_spec("convergence", tmp_path, trials=2, m=4, n_values=(20,))
        run_experiment(spec)
        header, rows = read_csv(tmp_path / "convergence.csv")
        assert header == ["trial", "mode", "p", "iter", "cost"]
        for trial in (0, 1):
            for mode in ("discrete", "continuous"):
                for p in (1, 2):
                    costs = [r[4] for r in rows
                             if r[0] == trial and r[1] == mode and r[2] == p]
                    assert len(costs) >= 2
                    assert np.all(np.diff(costs) >= -1e-9)

    def test_single_row_is_immediate(self, tmp_path):
        spec = make_spec("convergence", tmp_path, trials=1, m=1, n_values=(12,))
        run_experiment(spec)
        _, rows = read_csv(tmp_path / "convergence.csv")
        for mode in ("discrete", "continuous"):
            for p in (1, 2):
                iters = max(r[3] for r in rows if r[1] == mode and r[2] == p)
                assert iters <= 2

    def test_rerun_is_byte_identical(self, tmp_path):
        s1 = make_spec("convergence", tmp_path / "a", trials=2, m=3, n_values=(15,))
        s2 = make_spec("convergence", tmp_path / "b", trials=2, m=3, n_values=(15,))
        run_experiment(s1)
        run_experiment(s2)
        assert (tmp_path / "a/convergence.csv").read_bytes() == \
            (tmp_path / "b/convergence.csv").read_bytes()


class TestLiftingStat:
    def test_dominance_and_median(self, tmp_path):
        spec = make_spec("lifting-stat", tmp_path, trials=30)
        envelope = run_experiment(spec)
        _, rows = read_csv(tmp_path / "lifting_stat.csv")
        assert all(r[3] >= r[2] - 1e-9 for r in rows)  # lifted >= rounded
        summary = envelope["results"][0]
        assert summary["dominance_violations"] == 0
        assert summary["median_gain"] is not None and summary["median_gain"] > 0

    def test_notes_name_the_continuous_reference(self, tmp_path):
        spec = make_spec("lifting-stat", tmp_path, trials=4)
        envelope = run_experiment(spec)
        assert any("continuous" in note for note in envelope["notes"])


class TestSnrStudies:
    def test_snr_vs_n_invariants(self, tmp_path):
        spec = make_spec("snr-vs-n", tmp_path, trials=4, n_values=(20, 40), m=4,
                         random_configs=200)
        envelope = run_experiment(spec)
        header, rows = read_csv(tmp_path / "snr_vs_n.csv")
        assert header == ["n", "trial", "method", "objective", "snr_db"]
        # pipeline >= rounded for every (n, trial); at these tiny sizes the
        # random baseline may occasionally win, so count it in aggregate
        random_wins = 0
        for n in (20, 40):
            for t in range(4):
                sub = {r[2]: r[4] for r in rows if r[0] == n and r[1] == t}
                assert sub["pipeline"] >= sub["rounded"] - 1e-9
                random_wins += sub["pipeline"] >= sub["random"] - 1e-9
        assert random_wins >= 5
        means = {(r["n"], r["method"]): r["mean_snr_db"] for r in envelope["results"]}
        assert means[(40, "pipeline")] > means[(20, "pipeline")]

    def test_snr_cdf_percentiles(self, tmp_path):
        spec = make_spec("snr-cdf", tmp_path, trials=6, n_values=(25,), m=4,
                         random_configs=100)
        envelope = run_experiment(spec)
        for entry in envelope["results"]:
            pct = entry["percentiles_db"]
            assert pct["5"] <= pct["50"] <= pct["95"]


class TestQuantizationGap:
    def test_gap_shrinks_with_bits(self, tmp_path):
        spec = make_spec("quantization-gap", tmp_path, trials=8, n_values=(60,), m=4)
        envelope = run_experiment(spec)
        gaps = {r["bits"]: r["mean_gap_db"] for r in envelope["results"]}
        assert gaps[1] > gaps[2] > gaps[4]
        assert gaps[4] < 0.2


class TestTiming:
    def test_subquadratic_growth_and_schema(self, tmp_path):
        spec = make_spec("timing", tmp_path, trials=3, n_values=(50, 200, 800),
                         random_configs=50)
        run_experiment(spec)
        header, rows = read_csv(tmp_path / "timing.csv")
        assert header == ["n", "method", "trials", "total_seconds",
                          "mean_seconds", "mean_objective"]
        pipeline = {r[0]: r[4] for r in rows if r[1] == "pipeline"}
        ns = sorted(pipeline)
        slope = (math.log(pipeline[ns[-1]]) - math.log(pipeline[ns[0]])) / \
            (math.log(ns[-1]) - math.log(ns[0]))
        assert slope < 2.0

    def test_solver_outputs_reproducible(self, tmp_path):
        s1 = make_spec("timing", tmp_path / "a", trials=2, n_values=(30,), random_configs=50)
        s2 = make_spec("timing", tmp_path / "b", trials=2, n_values=(30,), random_configs=50)
        run_experiment(s1)
        run_experiment(s2)
        _, r1 = read_csv(tmp_path / "a/timing.csv")
        _, r2 = read_csv(tmp_path / "b/timing.csv")
        # objective columns match; wall-clock columns may not
        assert [(r[0], r[1], r[5]) for r in r1] == [(r[0], r[1], r[5]) for r in r2]


class TestOracleCheck:
    def test_all_match(self, tmp_path):
        spec = make_spec("oracle-check", tmp_path, trials=25)
        envelope = run_experiment(spec)
        summary = envelope["results"][0]
        assert summary["das_matches"] == summary["das_trials"] == 25
        assert summary["linf_matches"] == summary["linf_trials"] == 25
        assert not (tmp_path / "oracle_check_failures.json").exists()

    def test_mismatch_dumps_the_instance(self, tmp_path, monkeypatch):
        # a DaS that overstates its objective fails every das trial; serial,
        # so the trials run the patched function
        monkeypatch.setenv("UNIMOD_THREADS", "1")
        real = bench.das_maximize

        def overstated(v, dps):
            pv, obj = real(v, dps)
            return pv, obj + 1.0

        monkeypatch.setattr(bench, "das_maximize", overstated)
        envelope = run_experiment(make_spec("oracle-check", tmp_path, trials=3))
        summary = envelope["results"][0]
        assert summary["das_matches"] == 0 and summary["linf_matches"] == 3
        failures = json.loads((tmp_path / "oracle_check_failures.json").read_text())
        assert [(f["check"], f["trial"]) for f in failures] == [("das", t) for t in range(3)]
        _, rows = read_csv(tmp_path / "oracle_check.csv")
        for f in failures:
            row = next(r for r in rows if r[0] == "das" and r[1] == f["trial"])
            assert row[7] == 0 and f["bits"] == row[4] and len(f["v"]) == row[3]


class TestHarness:
    @pytest.mark.parametrize("kind", KINDS)
    def test_dispatch_and_envelope(self, tmp_path, kind):
        envelope = run_experiment(make_spec(kind, tmp_path, **SMALL[kind]))
        assert envelope["git_like_version"]
        assert envelope["spec"]["kind"] == kind
        experiment = EXPERIMENTS[kind]
        on_disk = json.loads((tmp_path / f"{experiment.stem}.json").read_text())
        assert on_disk == envelope
        header, rows = read_csv(tmp_path / f"{experiment.stem}.csv")
        assert header == list(experiment.header)
        assert rows and all(len(row) == len(header) for row in rows)

    def test_csv_round_trip(self, tmp_path):
        spec = make_spec("lifting-stat", tmp_path, trials=5)
        run_experiment(spec)
        path = tmp_path / "lifting_stat.csv"
        _, rows = read_csv(path)
        # floats survive emit -> parse exactly (shortest-repr round trip)
        raw = path.read_text().splitlines()[1:]
        for parsed, line in zip(rows, raw):
            cells = line.split(",")
            for value, cell in zip(parsed, cells):
                if isinstance(value, float):
                    assert repr(value) == cell

    def test_worker_count_does_not_change_results(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UNIMOD_THREADS", "1")
        run_experiment(make_spec("lifting-stat", tmp_path / "serial", trials=8))
        monkeypatch.setenv("UNIMOD_THREADS", "2")
        run_experiment(make_spec("lifting-stat", tmp_path / "parallel", trials=8))
        assert (tmp_path / "serial/lifting_stat.csv").read_bytes() == \
            (tmp_path / "parallel/lifting_stat.csv").read_bytes()

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        # only the count is computed; no pool is started
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("UNIMOD_THREADS", "4096")
        assert bench._worker_count() == 2
        monkeypatch.setenv("UNIMOD_THREADS", "1")
        assert bench._worker_count() == 1
        monkeypatch.delenv("UNIMOD_THREADS")
        assert bench._worker_count() == 2

    def test_bad_thread_env_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UNIMOD_THREADS", "lots")
        with pytest.raises(InvalidArgumentError):
            run_experiment(make_spec("lifting-stat", tmp_path, trials=4))
