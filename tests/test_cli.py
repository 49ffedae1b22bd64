import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from unimod import DiscretePhaseSet, SolveConfig, default_pipeline
from unimod.cli import main
from unimod.ris import build_problem, load_instance
from unimod.serialize import load_matrix_file

DATA = Path(__file__).parent / "data"
FIXTURE_3X5 = DATA / "matrix_3x5.json"


def run_json(tmp_path, *argv):
    out = tmp_path / "result.json"
    code = main([*argv, "--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


class TestSolve:
    def test_one_by_one_matrix(self, tmp_path):
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps([[[1.0, 0.0]]]))
        code, payload = run_json(tmp_path, "solve", str(mfile), "--bits", "1")
        assert code == 0
        assert payload["objective"] == pytest.approx(1.0)
        assert payload["phases"] == [0.0]
        assert payload["termination"] == "converged"

    def test_fixture_matches_oracle_subcommand(self, tmp_path):
        code, solved = run_json(tmp_path, "solve", str(FIXTURE_3X5), "--bits", "1", "--p", "2")
        assert code == 0
        code, reference = run_json(tmp_path, "oracle", str(FIXTURE_3X5), "--bits", "1", "--p", "2")
        assert code == 0
        assert solved["objective"] == pytest.approx(reference["objective"], abs=1e-9)

    def test_contains_trace_and_accounting(self, tmp_path):
        code, payload = run_json(tmp_path, "solve", str(FIXTURE_3X5), "--bits", "2")
        assert code == 0
        assert set(payload) >= {"phases", "objective", "trace", "termination"}
        assert payload["trace"][-1] == pytest.approx(payload["objective"])
        assert payload["rounded_cost"] <= payload["objective"] + 1e-9

    def test_reports_both_stages(self, tmp_path):
        # a warm start stopped by the cap shows, though the lift converged
        code, payload = run_json(tmp_path, "solve", str(FIXTURE_3X5), "--bits", "2", "--max-iter", "1")
        assert code == 0
        assert payload["continuous_termination"] == "iteration-cap"
        assert payload["continuous_iterations"] == 1
        assert payload["termination"] == "converged"
        assert payload["iterations"] == len(payload["trace"]) - 1
        code, payload = run_json(tmp_path, "solve", str(FIXTURE_3X5), "--bits", "2")
        result = default_pipeline(load_matrix_file(FIXTURE_3X5), DiscretePhaseSet(2), 2)
        assert payload["continuous_termination"] == result.continuous_trace.termination
        assert payload["continuous_iterations"] == result.continuous_trace.iterations
        assert payload["iterations"] == result.trace.iterations
        assert payload["objective"] == result.final_cost

    def test_continuous_mode_without_bits(self, tmp_path):
        code, payload = run_json(tmp_path, "solve", str(FIXTURE_3X5))
        assert code == 0
        assert len(payload["trace"]) >= 2

    def test_p_inf(self, tmp_path):
        code, payload = run_json(tmp_path, "solve", str(FIXTURE_3X5), "--p", "inf", "--bits", "1")
        assert code == 0
        assert "best_row" in payload
        code, reference = run_json(tmp_path, "oracle", str(FIXTURE_3X5), "--p", "inf", "--bits", "1")
        assert payload["objective"] == pytest.approx(reference["objective"], abs=1e-9)

    def test_malformed_json_exits_2_with_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[[1, ")
        assert main(["solve", str(bad), "--bits", "1"]) == 2
        err = capsys.readouterr().err
        assert "byte offset" in err

    def test_degenerate_exits_3(self, tmp_path):
        zf = tmp_path / "zero.json"
        zf.write_text(json.dumps([[[0.0, 0.0]]]))
        assert main(["solve", str(zf), "--bits", "1"]) == 3

    def test_missing_file_exits_2(self):
        assert main(["solve", "/nonexistent/m.json", "--bits", "1"]) == 2

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", str(FIXTURE_3X5), "--bits", "1", "--out", str(out1)])
        main(["solve", str(FIXTURE_3X5), "--bits", "1", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestSolveRis:
    def test_nlos_instance(self, tmp_path):
        code, payload = run_json(tmp_path, "solve-ris", str(DATA / "ris_nlos.json"),
                                 "--bits", "1")
        assert code == 0
        assert len(payload["phases"]) == 6
        assert payload["snr_linear"] == pytest.approx(payload["objective"] ** 2, rel=1e-9)
        assert payload["snr_db"] == pytest.approx(
            10 * math.log10(payload["snr_linear"]), abs=1e-9)

    def test_zero_direct_link_equals_nlos(self, tmp_path):
        code, los0 = run_json(tmp_path, "solve-ris", str(DATA / "ris_los_zero_hd.json"),
                              "--bits", "1")
        assert code == 0
        code, nlos = run_json(tmp_path, "solve-ris", str(DATA / "ris_nlos.json"),
                              "--bits", "1")
        assert los0["objective"] == pytest.approx(nlos["objective"], abs=1e-9)

    def test_los_instance_lattice_phases(self, tmp_path):
        code, payload = run_json(tmp_path, "solve-ris", str(DATA / "ris_los.json"),
                                 "--bits", "2")
        assert code == 0
        step = 2 * math.pi / 4
        assert all(abs(ph - k * step) < 1e-12
                   for ph, k in zip(payload["phases"], payload["indices"]))

    def test_reports_both_stages(self, tmp_path):
        # augmented, so the stages are those of the N + 1 phase solve
        instance = DATA / "ris_los.json"
        code, payload = run_json(tmp_path, "solve-ris", str(instance), "--bits", "2",
                                 "--max-iter", "1")
        assert code == 0
        assert payload["continuous_termination"] == "iteration-cap"
        assert payload["continuous_iterations"] == 1
        assert payload["termination"] == "converged"
        code, payload = run_json(tmp_path, "solve-ris", str(instance), "--bits", "2")
        result = default_pipeline(build_problem(load_instance(instance)).matrix,
                                  DiscretePhaseSet(2), 2)
        assert payload["continuous_termination"] == result.continuous_trace.termination
        assert payload["continuous_iterations"] == result.continuous_trace.iterations
        assert payload["termination"] == result.trace.termination
        assert payload["iterations"] == result.trace.iterations
        assert payload["objective"] == result.final_cost

    def test_missing_field_exits_2(self, tmp_path):
        rf = tmp_path / "ris.json"
        rf.write_text(json.dumps({"H_ris_bs": [[[1.0, 0.0]]]}))
        assert main(["solve-ris", str(rf), "--bits", "1"]) == 2


class TestOracleCommand:
    def test_size_guard_exits_2(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps([[[1.0, 0.0]] * 30]))
        assert main(["oracle", str(big), "--bits", "1"]) == 2


class TestBenchCommand:
    def test_oracle_check_passes(self, tmp_path, capsys):
        code = main(["bench", "--experiment", "oracle-check", "--trials", "10",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "oracle_check.json").read_text())
        summary = report["results"][0]
        assert summary["das_matches"] == 10 and summary["linf_matches"] == 10

    @pytest.mark.parametrize("flag", ["--nmax", "--random-configs"])
    def test_nonpositive_count_exits_2_naming_it(self, tmp_path, capsys, flag):
        code = main(["bench", "--experiment", "oracle-check", flag, "0", "--trials", "1",
                     "--out", str(tmp_path)])
        assert code == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_value_the_experiment_ignores_exits_2(self, tmp_path, capsys):
        code = main(["bench", "--experiment", "lifting-stat", "--bits", "1", "3",
                     "--trials", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "bits" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args,fields", [
        pytest.param(args, fields, id=" ".join(args)) for args, fields in [
            (["convergence", "--p", "1"], ["p"]),
            (["lifting-stat", "--random-configs", "5", "--nmax", "3"], ["random_configs", "nmax"]),
            (["lifting-stat", "--p", "inf"], ["p"]),
            (["quantization-gap", "--random-configs", "7"], ["random_configs"]),
            (["oracle-check", "--p", "1", "--n-values", "3"], ["p", "n_values"]),
            (["oracle-check", "--nmax", "20", "--m", "12", "--bits", "3"], ["nmax"]),
            (["oracle-check", "--m", "12"], ["m"]),
        ]
    ])
    def test_setting_the_experiment_cannot_run_exits_2_before_writing(
            self, tmp_path, capsys, args, fields):
        # each of these used to run and record a value it ignored or clamped
        out = tmp_path / "out"
        code = main(["bench", "--experiment", *args, "--trials", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert all(re.search(rf"\b{field}\b", err) for field in fields), err
        assert not out.exists()

    def test_oracle_size_beyond_guard_exits_2_before_writing(self, tmp_path):
        out = tmp_path / "out"
        code = main(["bench", "--experiment", "oracle-check", "--bits", "4", "--trials", "20",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_unknown_experiment_exits_2_listing_names(self, capsys):
        assert main(["bench", "--experiment", "bogus", "--out", "x"]) == 2
        err = capsys.readouterr().err
        assert "convergence" in err and "timing" in err

    def test_convergence_emits_monotone_traces(self, tmp_path):
        code = main(["bench", "--experiment", "convergence", "--trials", "2",
                     "--m", "4", "--n-values", "16", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "trial,mode,p,iter,cost"

    def test_bench_help_names_the_experiments_reading_a_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "300")  # no wrapping inside a name
        assert main(["bench", "--help"]) == 0
        out = capsys.readouterr().out
        assert "read by lifting-stat\n" in out
        assert "read by snr-vs-n, snr-cdf, timing\n" in out
        assert "read by oracle-check\n" in out
        assert "Worker processes run BLAS on one thread unless OPENBLAS_NUM_THREADS is set." in out

    def test_unknown_flag_exits_2(self):
        assert main(["solve", "x.json", "--frobnicate"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["solve", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--p", "--bits", "--tol", "--max-iter", "--out"):
            assert flag in out
        assert f"(default {SolveConfig.tolerance})" in out
        assert f"(default {SolveConfig.max_iterations})" in out
        # solve is deterministic and has no use for a seed
        assert "--seed" not in out
