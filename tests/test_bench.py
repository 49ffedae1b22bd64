import csv
import ctypes
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from unimod import (DiscretePhaseSet, InvalidArgumentError, Rng, default_pipeline,
                    sample_complex_gaussian)
from unimod import bench
from unimod.bench import (
    EXPERIMENTS,
    KINDS,
    ExperimentSpec,
    make_spec,
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


def read_csv(path) -> tuple[list[str], list[list]]:
    """Parse a table the bench wrote; floats round-trip exactly."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = []
        for raw in reader:
            parsed = []
            for cell in raw:
                if cell == "":
                    parsed.append(None)
                    continue
                try:
                    parsed.append(int(cell))
                except ValueError:
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        parsed.append(cell)
            rows.append(parsed)
    return header, rows


#: the last columns of the lifting-stat and quantization-gap tables
STAGE_COLUMNS = ["continuous_termination", "continuous_iterations",
                 "lift_termination", "lift_iterations"]


def stage_ends(result) -> list:
    """What those columns should read for a pipeline result."""
    warm, lift = result.continuous_trace, result.trace
    return [warm.termination, warm.iterations, lift.termination, lift.iterations]


#: the OpenBLAS bundled in numpy's wheel, which numpy itself loaded
OPENBLAS = next((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"), None)


def blas_threads(spec, task):
    """Pool worker: the thread count of numpy's OpenBLAS, as one row."""
    lib = ctypes.CDLL(str(OPENBLAS))
    getter = (getattr(lib, "scipy_openblas_get_num_threads64_", None)
              or lib.scipy_openblas_get_num_threads)
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return [[getter()]]


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
        with pytest.raises(InvalidArgumentError, match="n_values must name at least one value"):
            ExperimentSpec(kind="timing", out_dir=Path("x"), trials=1, n_values=())
        with pytest.raises(InvalidArgumentError, match="n_values must be >= 1, got 0"):
            ExperimentSpec(kind="timing", out_dir=Path("x"), trials=1, n_values=(10, 0))

    @pytest.mark.parametrize("kind,field,values", [
        ("snr-vs-n", "n_values", (20, 20)), ("quantization-gap", "bits", (2, 2)),
        ("timing", "n_values", (10, 50, 10)),
    ])
    def test_rejects_a_repeated_value(self, kind, field, values):
        # a repeated value used to run its block twice and be listed twice
        # in the summary, each entry averaging both blocks' trials
        with pytest.raises(InvalidArgumentError,
                           match=re.escape(f"{field} must not repeat a value, got {values!r}")):
            make_spec(kind, "out", trials=1, **{field: values})

    @pytest.mark.parametrize("field,value", [
        ("random_configs", 0), ("nmax", 0), ("seed", -1), ("m", 0), ("trials", 0),
        ("variance", 0.0), ("variance", -1.0), ("variance", math.inf), ("variance", math.nan),
    ])
    def test_rejects_bad_field_naming_it(self, field, value):
        # these used to pass the spec and fail, if at all, inside a trial
        with pytest.raises(InvalidArgumentError, match=rf"^{field} must be .*, got {value!r}$"):
            make_spec("oracle-check", "out", **{"trials": 1, field: value})

    @pytest.mark.parametrize("kind,field,value", [
        pytest.param(kind, field, value, id=f"{field}={value!r}") for kind, field, value in [
            ("snr-cdf", "bits", (2.7,)), ("snr-cdf", "bits", (True,)),
            ("snr-cdf", "trials", 2.5), ("snr-cdf", "random_configs", 10.5),
            ("snr-cdf", "m", True), ("snr-cdf", "n_values", (20.5,)),
            ("snr-cdf", "seed", 1.5), ("oracle-check", "nmax", 3.0),
        ]
    ])
    def test_rejects_a_count_that_is_not_an_integer(self, kind, field, value):
        # a float was truncated, or passed the spec and raised TypeError inside
        # a trial; a bool is an int, so True passed as 1
        with pytest.raises(InvalidArgumentError, match=field):
            make_spec(kind, "out", **{field: value})

    def test_rejects_a_variance_that_is_not_a_real_number(self):
        # True was stored, and the envelope recorded "variance": true
        with pytest.raises(InvalidArgumentError, match="variance"):
            make_spec("snr-cdf", "out", variance=True)

    @pytest.mark.parametrize("kind,field", [
        ("convergence", "n_values"), ("convergence", "bits"),
        ("lifting-stat", "n_values"), ("lifting-stat", "bits"),
        ("snr-vs-n", "bits"), ("snr-cdf", "bits"), ("timing", "bits"),
        ("quantization-gap", "n_values"),
    ])
    def test_rejects_second_value_of_unused_field(self, kind, field):
        # the experiment would run the first value only while its envelope
        # recorded all of them
        assert len(getattr(make_spec(kind, "out", **{field: (1,)}), field)) == 1
        with pytest.raises(InvalidArgumentError, match=field):
            make_spec(kind, "out", **{field: (1, 3)})

    @pytest.mark.parametrize("kind,field,value", [
        pytest.param(kind, field, value, id=f"{kind}-{field}") for kind, field, value in [
            ("convergence", "p", 1.0), ("lifting-stat", "random_configs", 5),
            ("lifting-stat", "nmax", 3), ("quantization-gap", "random_configs", 7),
            ("snr-cdf", "nmax", 3), ("timing", "nmax", 3),
            ("oracle-check", "p", 1.0), ("oracle-check", "n_values", (1,)),
        ]
    ])
    def test_rejects_unread_field_naming_it(self, kind, field, value):
        # the experiment would ignore the value while its envelope recorded it
        with pytest.raises(InvalidArgumentError, match=field):
            make_spec(kind, "out", **{field: value})
        # the field's default, also as a list, sets nothing
        default = next(f.default for f in fields(ExperimentSpec) if f.name == field)
        make_spec(kind, "out", **{field: list(default) if isinstance(default, tuple) else default})

    @pytest.mark.parametrize("kind,field", [
        ("snr-vs-n", "n_values"), ("snr-cdf", "n_values"), ("timing", "n_values"),
        ("quantization-gap", "bits"), ("oracle-check", "bits"),
    ])
    def test_accepts_several_values_of_swept_field(self, kind, field):
        assert getattr(make_spec(kind, "out", **{field: (1, 3)}), field) == (1, 3)

    def test_oracle_check_rejects_sizes_beyond_the_exhaustive_guard(self):
        # n * B may reach 24 bits, the exhaustive search's limit, and no more
        assert make_spec("oracle-check", "out", bits=(3,)).bits == (3,)
        assert make_spec("oracle-check", "out", bits=(4,), nmax=6).nmax == 6
        with pytest.raises(InvalidArgumentError, match="bits"):
            make_spec("oracle-check", "out", bits=(1, 4))

    @pytest.mark.parametrize("kind", ["snr-vs-n", "snr-cdf", "quantization-gap", "timing"])
    def test_p2_only_kinds_reject_other_norms(self, kind):
        # these runners always solve with p = 2; an envelope claiming another
        # p would misreport the run
        assert make_spec(kind, "out", p=2).p == 2
        for p in (1, math.inf):
            with pytest.raises(InvalidArgumentError):
                make_spec(kind, "out", p=p)


class TestLiftingGain:
    def test_gain_defined(self):
        assert bench._lifting_gain(10.0, 8.0, 9.0) == pytest.approx(0.5)

    def test_gain_undefined_below_floor(self):
        assert bench._lifting_gain(10.0, 10.0, 10.0) is None
        assert bench._lifting_gain(10.0, 10.0 + 1e-13, 10.5) is None


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

    @pytest.mark.parametrize("p", ["1", 1], ids=["str", "int"])
    def test_envelope_records_p_as_a_float(self, tmp_path, p):
        # the CLI's p goes through normalize_p; a spec built in code records
        # the same 1.0
        envelope = run_experiment(make_spec("lifting-stat", tmp_path, trials=2, p=p))
        for doc in (envelope["spec"], envelope["results"][0]):
            assert isinstance(doc["p"], float) and doc["p"] == 1.0

    def test_rows_end_with_how_the_warm_start_ended(self, tmp_path):
        spec = make_spec("lifting-stat", tmp_path, trials=3, p=1)
        run_experiment(spec)
        header, rows = read_csv(tmp_path / "lifting_stat.csv")
        assert header[-4:] == STAGE_COLUMNS
        for r in rows:
            a = sample_complex_gaussian(Rng(spec.seed, stream=r[0]), spec.m, spec.n_values[0],
                                        spec.variance)
            assert r[-4:] == stage_ends(default_pipeline(a, DiscretePhaseSet(spec.bits[0]), 1))

    def test_summary_counts_warm_starts_at_the_cap(self):
        rows = [(t, 3.0, 2.0, 2.5, 0.5, end, its) for t, (end, its) in enumerate(
            [("tolerance", 40), ("iteration-cap", 500), ("fixed-point", 12),
             ("iteration-cap", 500)])]
        spec = make_spec("lifting-stat", "out", trials=4)
        assert bench._lifting_summary(spec, rows)[0]["continuous_cap_hits"] == 2

    def test_counts_do_not_depend_on_the_channel_scale(self, tmp_path):
        # cascaded RIS channels are tiny; every verdict is relative to the
        # costs, so scaling A by 1e-15 changes no count
        summaries = [run_experiment(make_spec("lifting-stat", tmp_path / str(variance), trials=40,
                                              seed=3, variance=variance))["results"][0]
                     for variance in (1.0, 1e-30)]
        for key in ("defined_gains", "strict_improvements", "dominance_violations"):
            assert summaries[0][key] == summaries[1][key], key
        assert summaries[0]["defined_gains"] > 0
        assert summaries[1]["median_gain"] == pytest.approx(summaries[0]["median_gain"], rel=1e-12)

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

    def test_channel_scale_shifts_every_snr(self, tmp_path):
        # at variance 1e-170 the squared objectives underflow to 0, and the
        # dB was log10 of 0: a math domain error. Variance 2^-566 scales the
        # channels by 2^-283 and A by 2^-566, exactly
        tables = {}
        for variance in (1.0, 2.0**-566, 1e-170):
            spec = make_spec("snr-cdf", tmp_path / str(variance), trials=3, m=3,
                             n_values=(12,), random_configs=50, variance=variance)
            run_experiment(spec)
            tables[variance] = read_csv(tmp_path / str(variance) / "snr_cdf.csv")[1]
        for unit, scaled in zip(tables[1.0], tables[2.0**-566], strict=True):
            assert scaled[:3] == unit[:3]
            assert scaled[3] == math.ldexp(unit[3], -566)
            assert scaled[4] == pytest.approx(unit[4] - 20 * 566 * math.log10(2), abs=1e-9)
        assert all(math.isfinite(row[4]) and row[4] < -3000 for row in tables[1e-170])

    @pytest.mark.parametrize("vals", [
        pytest.param([3.25], id="one-row"),
        pytest.param([1.5, -0.25, 1.5, 1.5, 7.0, -0.25], id="ties"),
        pytest.param(list(np.random.default_rng(630).normal(10.0, 4.0, 7)), id="odd"),
        pytest.param(list(np.random.default_rng(631).normal(10.0, 4.0, 200)), id="200")])
    def test_snr_cdf_percentiles_match_single_calls(self, vals):
        # the summary takes all five percentiles in one call; each must be
        # the bits of its own single-q call
        rows = [(25, t, method, 0.0, v + k)
                for t, v in enumerate(vals) for k, method in enumerate(bench._SNR_METHODS)]
        for k, entry in enumerate(bench._snr_cdf_summary(None, rows)):
            shifted = [v + k for v in vals]
            for q, got in entry["percentiles_db"].items():
                want = float(np.percentile(sorted(shifted), int(q)))
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestQuantizationGap:
    def test_gap_shrinks_with_bits(self, tmp_path):
        spec = make_spec("quantization-gap", tmp_path, trials=8, n_values=(60,), m=4)
        envelope = run_experiment(spec)
        gaps = {r["bits"]: r["mean_gap_db"] for r in envelope["results"]}
        assert gaps[1] > gaps[2] > gaps[4]
        assert gaps[4] < 0.2

    def test_rows_end_with_how_the_warm_start_ended(self, tmp_path):
        spec = make_spec("quantization-gap", tmp_path, trials=2, n_values=(30,), m=4,
                         bits=(1, 3))
        run_experiment(spec)
        header, rows = read_csv(tmp_path / "quantization_gap.csv")
        assert header[-4:] == STAGE_COLUMNS
        for r in rows:
            a = bench._ris_instance(spec, 0, r[0])[1]
            # every lattice of a trial is lifted from its one warm start
            assert r[-4:] == stage_ends(default_pipeline(a, DiscretePhaseSet(r[1]), 2))


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


class TestSharedChannels:
    """The RIS studies draw trial t at unit count n_values[b] from one stream,
    so they share their channels and, where they draw one, random baseline."""

    COMMON = dict(seed=5, m=8, n_values=(20, 40), bits=(2,), trials=4)

    def snr_rows(self, tmp_path, random_configs=300):
        run_experiment(make_spec("snr-vs-n", tmp_path / "snr", random_configs=random_configs,
                                 **self.COMMON))
        return read_csv(tmp_path / "snr" / "snr_vs_n.csv")[1]

    def test_timing_objectives_are_those_of_snr_vs_n(self, tmp_path):
        timing = run_experiment(make_spec("timing", tmp_path / "timing", random_configs=300,
                                          **self.COMMON))["results"]
        rows = self.snr_rows(tmp_path)
        assert len(timing) == 4
        for r in timing:
            objs = [row[3] for row in rows if row[0] == r["n"] and row[2] == r["method"]]
            assert len(objs) == 4 and r["mean_objective"] == float(np.mean(objs)), r

    def test_quantization_gap_pipelines_are_those_of_snr_vs_n(self, tmp_path):
        # quantization-gap runs one unit count, snr-vs-n's first
        spec = make_spec("quantization-gap", tmp_path / "gap",
                         **{**self.COMMON, "n_values": (20,)})
        run_experiment(spec)
        gap = {r[0]: r[2] for r in read_csv(tmp_path / "gap" / "quantization_gap.csv")[1]}
        snr = {r[1]: r[4] for r in self.snr_rows(tmp_path) if r[0] == 20 and r[2] == "pipeline"}
        assert gap == snr and len(gap) == 4


class TestOracleCheck:
    def test_all_match(self, tmp_path):
        spec = make_spec("oracle-check", tmp_path, trials=25)
        envelope = run_experiment(spec)
        summary = envelope["results"][0]
        assert summary["das_matches"] == summary["das_trials"] == 25
        assert summary["linf_matches"] == summary["linf_trials"] == 25
        assert not (tmp_path / "oracle_check_failures.json").exists()

    def test_no_linf_audit_without_a_width_up_to_2(self, tmp_path):
        # the l-infinity audit draws from the spec's widths <= 2 and none other
        envelope = run_experiment(make_spec("oracle-check", tmp_path, trials=4, bits=(3,)))
        _, rows = read_csv(tmp_path / "oracle_check.csv")
        assert [r[0] for r in rows] == ["das"] * 4
        assert envelope["results"][0]["linf_trials"] == 0

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

    def test_match_is_relative_to_the_objective(self, tmp_path, monkeypatch):
        # at variance 1e-20 the objectives are near 1e-10, so an absolute
        # 1e-9 would pass any answer; solvers off by 1e-6 relative must fail
        # every trial; serial, so the 3 + 3 trials run the patched functions
        monkeypatch.setenv("UNIMOD_THREADS", "1")
        real_das, real_linf = bench.das_maximize, bench.solve_linf

        def das_off(v, dps):
            pv, obj = real_das(v, dps)
            return pv, obj * (1 + 1e-6)

        def linf_off(a, dps):
            pv, row, obj = real_linf(a, dps)
            return pv, row, obj * (1 + 1e-6)

        monkeypatch.setattr(bench, "das_maximize", das_off)
        monkeypatch.setattr(bench, "solve_linf", linf_off)
        envelope = run_experiment(make_spec("oracle-check", tmp_path, trials=3, variance=1e-20))
        summary = envelope["results"][0]
        assert summary["das_matches"] == 0 and summary["linf_matches"] == 0
        _, rows = read_csv(tmp_path / "oracle_check.csv")
        assert all(0 < r[6] < 1e-8 for r in rows)
        failures = json.loads((tmp_path / "oracle_check_failures.json").read_text())
        assert [(f["check"], f["trial"]) for f in failures] == (
            [("das", t) for t in range(3)] + [("linf", t) for t in range(3)])


class TestHarness:
    @pytest.mark.parametrize("kind", KINDS)
    def test_dispatch_and_envelope(self, tmp_path, kind):
        envelope = run_experiment(make_spec(kind, tmp_path, **SMALL[kind]))
        assert envelope["git_like_version"]
        assert envelope["spec"]["kind"] == kind
        experiment = EXPERIMENTS[kind]
        # the spec lists the common fields and those the experiment reads
        common = {"kind", "out_dir", "trials", "seed", "m", "variance"}
        assert set(envelope["spec"]) == common | set(experiment.reads)
        stem = kind.replace("-", "_")
        on_disk = json.loads((tmp_path / f"{stem}.json").read_text())
        assert on_disk == envelope
        header, rows = read_csv(tmp_path / f"{stem}.csv")
        assert header == list(experiment.header)
        assert rows and all(len(row) == len(header) for row in rows)

    @pytest.mark.parametrize("threads,workers", [("1", 1), ("2", 2)])
    def test_envelope_records_the_environment(self, tmp_path, monkeypatch, threads, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("UNIMOD_THREADS", threads)
        env = run_experiment(make_spec("lifting-stat", tmp_path, trials=4))["environment"]
        assert set(env) == {"python", "numpy", "cpu_count", "workers", "commit"}
        assert env["numpy"] == np.__version__ and env["cpu_count"] == 2
        assert env["workers"] == workers
        assert env["commit"] is None or len(env["commit"]) == 40
        # the timing runner never starts a pool
        timing = run_experiment(make_spec("timing", tmp_path, **SMALL["timing"]))
        assert timing["environment"]["workers"] == 1

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
        # only the count is computed; no pool is started. Without an
        # affinity mask the CPU count caps the workers
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setenv("UNIMOD_THREADS", "4096")
        assert bench._worker_count() == 2
        monkeypatch.setenv("UNIMOD_THREADS", "1")
        assert bench._worker_count() == 1
        monkeypatch.delenv("UNIMOD_THREADS")
        assert bench._worker_count() == 2

    def test_worker_count_capped_at_the_affinity_mask(self, monkeypatch):
        # a mask of one CPU on a two-CPU machine
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setenv("UNIMOD_THREADS", "4096")
        assert bench._worker_count() == 1
        monkeypatch.delenv("UNIMOD_THREADS")
        assert bench._worker_count() == 1

    @pytest.mark.skipif(OPENBLAS is None, reason="numpy bundles no OpenBLAS")
    def test_pool_workers_run_blas_on_one_thread(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("UNIMOD_THREADS", "2")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        rows, workers = bench._map_trials(blas_threads, make_spec("lifting-stat", tmp_path, trials=4))
        assert workers == 2
        assert rows == [[1]] * 4

    @pytest.mark.skipif(OPENBLAS is None, reason="numpy bundles no OpenBLAS")
    def test_openblas_num_threads_set_by_the_user_wins(self):
        # a fresh interpreter reads the variable when it loads OpenBLAS
        code = ("from unimod import bench; import test_bench; "
                "bench._one_blas_thread(); print(test_bench.blas_threads(None, 0)[0][0])")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": os.pathsep.join([str(Path(bench.__file__).parents[1]),
                                              str(Path(__file__).parent)])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        assert out.strip() == "2"

    def test_bad_thread_env_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UNIMOD_THREADS", "lots")
        with pytest.raises(InvalidArgumentError):
            run_experiment(make_spec("lifting-stat", tmp_path, trials=4))
