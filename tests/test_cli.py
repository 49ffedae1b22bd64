import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from unimod import DiscretePhaseSet, SolveConfig, default_pipeline, norm_lp
from unimod.cli import main
from unimod.ris import build_problem, load_instance
from unimod.serialize import load_matrix_file

DATA = Path(__file__).parent / "data"
FIXTURE_3X5 = DATA / "matrix_3x5.json"

#: a JSON integer beyond the float range: json.loads reads it as a Python int
BIG_INT = str(10 ** 400)

#: a JSON integer longer than int() reads by default (4300 digits)
LONG_INT = "1" + "0" * 5000


def run_json(tmp_path, *argv):
    out = tmp_path / "result.json"
    code = main([*argv, "--out", str(out)])
    payload = json.loads(out.read_text(), parse_constant=reject) if out.exists() else None
    return code, payload


def write_matrix(tmp_path, a) -> Path:
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in a.tolist()]))
    return mfile


def reject(constant):
    """A json.loads parse_constant: NaN and Infinity are not JSON."""
    raise ValueError(f"{constant} is not JSON")


class TestSolve:
    def test_one_by_one_matrix(self, tmp_path):
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps([[[1.0, 0.0]]]))
        code, payload = run_json(tmp_path, "solve", str(mfile), "--bits", "1")
        assert code == 0
        assert payload["objective"] == pytest.approx(1.0)
        assert payload["phases"] == [0.0]
        assert payload["termination"] == "fixed-point"

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
        # a warm start stopped by the cap shows, though the lift reached a fixed point
        code, payload = run_json(tmp_path, "solve", str(FIXTURE_3X5), "--bits", "2", "--max-iter", "1")
        assert code == 0
        assert payload["continuous_termination"] == "iteration-cap"
        assert payload["continuous_iterations"] == 1
        assert payload["continuous_single_iterations"] == 0
        assert payload["termination"] == "fixed-point"
        assert payload["iterations"] == len(payload["trace"]) - 1
        code, payload = run_json(tmp_path, "solve", str(FIXTURE_3X5), "--bits", "2")
        result = default_pipeline(load_matrix_file(FIXTURE_3X5), DiscretePhaseSet(2), 2)
        assert payload["continuous_termination"] == result.continuous_trace.termination
        assert payload["continuous_iterations"] == result.continuous_trace.iterations
        assert payload["iterations"] == result.trace.iterations
        assert payload["objective"] == result.final_cost

    def test_the_cap_counts_the_cycles_of_both_precisions(self, tmp_path):
        # 16 x 1024 is large enough for single-precision cycles before the
        # float64 ones; the cap stops them after 3
        g = np.random.default_rng(31)
        a = g.standard_normal((16, 1024)) + 1j * g.standard_normal((16, 1024))
        mfile = write_matrix(tmp_path, a)
        code, payload = run_json(tmp_path, "solve", str(mfile), "--bits", "2", "--max-iter", "3")
        assert code == 0
        assert payload["continuous_termination"] == "iteration-cap"
        assert payload["continuous_iterations"] == payload["continuous_single_iterations"] == 3
        code, payload = run_json(tmp_path, "solve", str(mfile), "--bits", "2")
        assert code == 0
        assert payload["continuous_termination"] != "iteration-cap"
        assert 0 < payload["continuous_single_iterations"] < payload["continuous_iterations"]

    def test_an_all_zero_matrix_large_enough_for_single_precision_exits_3(self, tmp_path,
                                                                        capsys):
        # the single-precision cycles are skipped, and divide nothing by 0
        mfile = write_matrix(tmp_path, np.zeros((16, 1024), dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", str(mfile), "--bits", "1"]) == 3
        assert capsys.readouterr().err.count("\n") == 1

    def test_reports_stage_wall_times(self, tmp_path):
        code, payload = run_json(tmp_path, "solve", str(FIXTURE_3X5), "--bits", "2")
        assert code == 0
        for key in ("continuous_seconds", "lift_seconds"):
            assert isinstance(payload[key], float) and payload[key] >= 0.0

    def test_continuous_mode_without_bits(self, tmp_path):
        code, payload = run_json(tmp_path, "solve", str(FIXTURE_3X5))
        assert code == 0
        assert len(payload["trace"]) >= 2

    def test_continuous_mode_reports_the_cycles_of_both_precisions(self, tmp_path):
        # 32 x 300 is large enough for single-precision cycles, which record no cost
        g = np.random.default_rng(39)
        mfile = write_matrix(tmp_path, g.standard_normal((32, 300)) + 1j * g.standard_normal((32, 300)))
        code, payload = run_json(tmp_path, "solve", str(mfile))
        assert code == 0
        assert payload["single_iterations"] > 0
        assert payload["iterations"] == len(payload["trace"]) - 1 + payload["single_iterations"]

    def test_prints_the_result_without_out(self, capsys):
        assert main(["solve", str(FIXTURE_3X5), "--bits", "1"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["objective"] == default_pipeline(load_matrix_file(FIXTURE_3X5),
                                                        DiscretePhaseSet(1), 2).final_cost

    def test_a_norm_other_than_1_2_or_inf_exits_2_naming_it(self, capsys):
        assert main(["solve", str(FIXTURE_3X5), "--p", "3"]) == 2
        assert "norm selector must be 1, 2 or inf, got 3.0" in capsys.readouterr().err

    def test_a_norm_that_is_not_a_number_exits_2_naming_it(self, capsys):
        # not a traceback, nor argparse's "invalid _norm_arg value"
        for p, shown in (("abc", "'abc'"), ("-inf", "-inf")):
            assert main(["solve", str(FIXTURE_3X5), f"--p={p}"]) == 2
            assert f"norm selector must be 1, 2 or inf, got {shown}\n" in capsys.readouterr().err

    def test_p_inf(self, tmp_path):
        code, payload = run_json(tmp_path, "solve", str(FIXTURE_3X5), "--p", "inf", "--bits", "1")
        assert code == 0
        assert "best_row" in payload
        assert payload["termination"] == "exact"
        code, reference = run_json(tmp_path, "oracle", str(FIXTURE_3X5), "--p", "inf", "--bits", "1")
        assert payload["objective"] == pytest.approx(reference["objective"], abs=1e-9)

    def test_p_inf_reports_the_rows_swept(self, tmp_path):
        g = np.random.default_rng(24)
        row = g.standard_normal(40) + 1j * g.standard_normal(40)
        mfile = tmp_path / "m.json"
        # a dominant row leaves the other rows unswept; rotated copies tie
        # and are all swept
        for rows, swept in ((row * np.array([[0.2], [1.0], [0.3], [0.1]]), 1),
                            (row * np.exp(1j * np.array([[0.0], [1.0], [2.0], [3.0]])), 4)):
            mfile.write_text(json.dumps([[[z.real, z.imag] for z in r] for r in rows]))
            code, payload = run_json(tmp_path, "solve", str(mfile), "--p", "inf", "--bits", "2")
            assert code == 0
            assert payload["rows_swept"] == swept

    def test_p_inf_objective_is_norm_lp_of_its_phases(self, tmp_path):
        # bit for bit, and the oracle's objective wherever the phases agree
        g = np.random.default_rng(25)
        agreed, inputs = 0, []
        for _ in range(4):
            gaussian = g.standard_normal((3, 6)) + 1j * g.standard_normal((3, 6))
            tied = g.integers(1, 3, (3, 6)) * np.exp(0.25j * np.pi * g.integers(0, 8, (3, 6)))
            steering = np.exp(1j * np.pi * np.outer(g.uniform(-2.0, 2.0, 3), np.arange(6)))
            inputs.extend((gaussian, 1e170 * gaussian, 1e-170 * gaussian, tied, steering))
        for a in inputs:
            mfile = write_matrix(tmp_path, a)
            for bits in ("1", "2"):
                code, payload = run_json(tmp_path, "solve", str(mfile), "--p", "inf", "--bits", bits)
                assert code == 0
                x = np.exp(1j * np.array(payload["phases"]))
                assert payload["objective"] == norm_lp(a @ x, math.inf)
                code, reference = run_json(tmp_path, "oracle", str(mfile), "--p", "inf", "--bits", bits)
                if reference["phases"] == payload["phases"]:
                    assert payload["objective"] == reference["objective"]
                    agreed += 1
        assert agreed >= 10

    def test_p_inf_rejects_the_flags_it_does_not_read(self, tmp_path, capsys):
        # the exact solver takes no SolveConfig, so --tol and --max-iter mean nothing
        for flags in (["--tol", "5"], ["--max-iter", "1"]):
            code, payload = run_json(tmp_path, "solve", str(FIXTURE_3X5), "--p", "inf",
                                     "--bits", "2", *flags)
            assert code == 2 and payload is None
            assert flags[0] in capsys.readouterr().err

    def test_malformed_json_exits_2_with_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[[1, ")
        assert main(["solve", str(bad), "--bits", "1"]) == 2
        err = capsys.readouterr().err
        assert "byte offset" in err

    def test_boolean_entries_exit_2(self, tmp_path, capsys):
        # JSON true and false are not numbers, though Python's bool is an int
        bad = tmp_path / "bool.json"
        bad.write_text("[[[true, false], [1, 0]]]")
        code, payload = run_json(tmp_path, "solve", str(bad), "--bits", "1")
        assert code == 2 and payload is None
        assert "[re, im] pair" in capsys.readouterr().err

    def test_an_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        # json.loads gives an int of any size, and float() of this one raised
        # OverflowError: a traceback and exit 1
        big = tmp_path / "big.json"
        big.write_text(f"[[[{BIG_INT}, 0]]]")
        code, payload = run_json(tmp_path, "solve", str(big), "--bits", "1")
        assert code == 2 and payload is None
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "beyond the float range" in err

    def test_lattice_wider_than_the_widest_exits_2(self, tmp_path, capsys):
        # a lattice too wide to build exits 2 with one line, not a traceback
        for bits in ("17", "64"):
            code, payload = run_json(tmp_path, "solve", str(FIXTURE_3X5), "--bits", bits)
            assert code == 2 and payload is None
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "bits" in err

    def test_degenerate_exits_3(self, tmp_path):
        zf = tmp_path / "zero.json"
        zf.write_text(json.dumps([[[0.0, 0.0]]]))
        assert main(["solve", str(zf), "--bits", "1"]) == 3

    def test_missing_file_exits_2(self):
        assert main(["solve", "/nonexistent/m.json", "--bits", "1"]) == 2

    def test_a_directory_exits_2_with_one_line(self, tmp_path, capsys):
        # IsADirectoryError is an OSError like FileNotFoundError, not exit 1
        assert main(["solve", str(tmp_path), "--bits", "1"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_an_infinite_tolerance_exits_2_with_one_line(self, tmp_path, capsys):
        # it stopped the warm start after one cycle, reporting "tolerance"
        code, payload = run_json(tmp_path, "solve", str(FIXTURE_3X5), "--tol", "inf")
        assert code == 2 and payload is None
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "tolerance" in err

    @pytest.mark.parametrize("rows,argv", [
        ([[[1.2e308, 0.0], [0.9e308, 0.0]]], ["--bits", "1"]),
        ([[[1.2e308, 0.0], [0.9e308, 0.0]]], ["--p", "1", "--bits", "1"]),
        ([[[1.2e308, 0.0], [0.9e308, 0.0]]], ["--p", "inf", "--bits", "2"]),
        ([[[1.5e308, 0.0], [0.0, 0.0]], [[1.5e308, 0.0], [0.0, 0.0]]], ["--bits", "1"]),
        ([[[1.5e308, 1.5e308], [1.0, 0.0]]], ["--p", "inf", "--bits", "1"]),
    ], ids=["p2", "p1", "pinf", "two-rows", "pinf-complex"])
    def test_an_objective_beyond_the_double_range_exits_2_with_one_line(self, tmp_path, capsys,
                                                                       rows, argv):
        # it printed "objective": Infinity, which is not JSON, or a traceback
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps(rows))
        code, payload = run_json(tmp_path, "solve", str(mfile), *argv)
        assert code == 2 and payload is None
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "double range" in err

    @pytest.mark.parametrize("argv", [["--bits", "1"], ["--p", "inf", "--bits", "2"]])
    def test_an_objective_just_inside_the_range_is_printed(self, tmp_path, argv):
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps([[[0.6e308, 0.0], [0.6e308, 0.0]]]))
        code, payload = run_json(tmp_path, "solve", str(mfile), *argv)
        assert code == 0 and payload["objective"] == 1.2e308

    def test_rerun_byte_identical(self, tmp_path):
        # every byte but the two lines of the stages' wall times, the only
        # measured values in the file
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", str(FIXTURE_3X5), "--bits", "1", "--out", str(out1)])
        main(["solve", str(FIXTURE_3X5), "--bits", "1", "--out", str(out2)])
        kept = []
        for out in (out1, out2):
            lines = out.read_bytes().splitlines(keepends=True)
            timed = [line for line in lines
                     if line.lstrip().startswith((b'"continuous_seconds":', b'"lift_seconds":'))]
            assert len(timed) == 2
            kept.append(b"".join(line for line in lines if line not in timed))
        assert kept[0] == kept[1]


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
        assert payload["continuous_single_iterations"] == 0
        assert payload["termination"] == "fixed-point"
        code, payload = run_json(tmp_path, "solve-ris", str(instance), "--bits", "2")
        result = default_pipeline(build_problem(load_instance(instance)).matrix,
                                  DiscretePhaseSet(2), 2)
        assert payload["continuous_termination"] == result.continuous_trace.termination
        assert payload["continuous_iterations"] == result.continuous_trace.iterations
        assert payload["termination"] == result.trace.termination
        assert payload["iterations"] == result.trace.iterations
        assert payload["objective"] == result.final_cost

    def test_reports_stage_wall_times(self, tmp_path):
        code, payload = run_json(tmp_path, "solve-ris", str(DATA / "ris_los.json"), "--bits", "2")
        assert code == 0
        for key in ("continuous_seconds", "lift_seconds"):
            assert isinstance(payload[key], float) and payload[key] >= 0.0

    def test_p_inf_exits_2_naming_the_exact_solver(self, tmp_path, capsys):
        code, payload = run_json(tmp_path, "solve-ris", str(DATA / "ris_nlos.json"),
                                 "--bits", "1", "--p", "inf")
        assert code == 2 and payload is None
        assert capsys.readouterr().err == ("error: p = inf has an exact non-iterative solver: "
                                           "solve_linf, or unimod solve --p inf\n")

    @pytest.mark.parametrize("field,value,message", [
        pytest.param(field, value, message, id=f"{field}={'10**400' if value == BIG_INT else value}")
        for field, value, message in [
            ("P", "true", "P must be a JSON number"), ("P", '"2"', "P must be a JSON number"),
            ("P", '"inf"', "P must be a JSON number"), ("P", "1e999", "finite"),
            ("P", BIG_INT, "P is an integer beyond the float range"),
            ("sigma2", "false", "sigma2 must be a JSON number"),
            ("sigma2", '"inf"', "sigma2 must be a JSON number"), ("sigma2", "1e999", "finite"),
            ("sigma2", BIG_INT, "sigma2 is an integer beyond the float range"),
            ("sigma2", "0", "sigma2 must be finite and positive, got 0.0")]
    ])
    def test_power_and_noise_must_be_finite_numbers(self, tmp_path, capsys, field, value,
                                                    message):
        # JSON true and strings are not numbers, and 1e999 reads as infinity,
        # which made the SNR +-Infinity, not JSON; float() of an integer
        # beyond the float range raised OverflowError, a traceback
        doc = json.loads((DATA / "ris_nlos.json").read_text())
        doc[field] = "VALUE"
        rf = tmp_path / "ris.json"
        rf.write_text(json.dumps(doc).replace('"VALUE"', value))
        code, payload = run_json(tmp_path, "solve-ris", str(rf), "--bits", "1")
        assert code == 2 and payload is None
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_snr_of_a_tiny_channel_is_finite(self, tmp_path):
        # channel amplitudes times 2^-300 (about 5e-91) and sigma2 = 2^-1000
        # (about 9e-302): the squared objective underflows, and "snr_db" used
        # to read -Infinity, which is not JSON
        doc = json.loads((DATA / "ris_nlos.json").read_text())
        code, unit = run_json(tmp_path, "solve-ris", str(DATA / "ris_nlos.json"), "--bits", "2")
        assert code == 0 and doc["P"] == doc["sigma2"] == 1.0
        for key in ("H_ris_bs", "h_ue_ris"):
            doc[key] = (np.array(doc[key]) * 2.0**-300).tolist()
        doc["sigma2"] = 2.0**-1000
        rf = tmp_path / "ris.json"
        rf.write_text(json.dumps(doc))
        code, tiny = run_json(tmp_path, "solve-ris", str(rf), "--bits", "2")
        assert code == 0
        assert tiny["indices"] == unit["indices"]
        assert tiny["objective"] == math.ldexp(unit["objective"], -600)
        # 20 log10(2^-600) from the channel, -10 log10(2^-1000) from the noise
        assert tiny["snr_db"] == pytest.approx(unit["snr_db"] - 2000 * math.log10(2), abs=1e-9)
        # the squared objective underflowed to 0, and "snr_linear" read 0.0
        assert tiny["snr_linear"] == math.ldexp(unit["snr_linear"], -200)

    def test_snr_beyond_the_double_range_is_null(self, tmp_path):
        # P c^2 / sigma2 overflows at sigma2 = 1e-310, and "snr_linear" read
        # Infinity, which is not JSON
        doc = json.loads((DATA / "ris_nlos.json").read_text())
        doc["sigma2"] = 1e-310
        rf = tmp_path / "ris.json"
        rf.write_text(json.dumps(doc))
        code, payload = run_json(tmp_path, "solve-ris", str(rf), "--bits", "2")
        assert code == 0
        assert payload["snr_linear"] is None
        assert payload["snr_db"] == pytest.approx(
            20 * math.log10(payload["objective"]) + 3100, abs=1e-9)

    def test_missing_field_exits_2(self, tmp_path):
        rf = tmp_path / "ris.json"
        rf.write_text(json.dumps({"H_ris_bs": [[[1.0, 0.0]]]}))
        assert main(["solve-ris", str(rf), "--bits", "1"]) == 2


@pytest.mark.parametrize("command", ["solve", "solve-ris"])
@pytest.mark.parametrize("kind,message", [pytest.param("long", "4300 digits", id="long"),
                                          pytest.param("binary", "decode", id="binary")])
def test_a_file_json_cannot_read_exits_2(tmp_path, capsys, command, kind, message):
    # int() refuses a string of more than 4300 digits, and reading text that
    # is not UTF-8 fails, each with a ValueError that json.loads or
    # read_text passed on: a traceback and exit 1
    if command == "solve":
        text = f"[[[{LONG_INT}, 0]]]"
    else:
        doc = json.loads((DATA / "ris_nlos.json").read_text())
        doc["H_ris_bs"][0][0] = ["LONG", 0]
        text = json.dumps(doc).replace('"LONG"', LONG_INT)
    rf = tmp_path / "file.json"
    rf.write_bytes(text.encode() if kind == "long" else b"\xff\xfe" + text.encode())
    code, payload = run_json(tmp_path, command, str(rf), "--bits", "1")
    assert code == 2 and payload is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


class TestOracleCommand:
    def test_size_guard_exits_2(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps([[[1.0, 0.0]] * 30]))
        assert main(["oracle", str(big), "--bits", "1"]) == 2


    @pytest.mark.parametrize("rows", [[[[1.2e308, 0.0], [0.9e308, 0.0]]],
                                      [[[1.5e308, 0.0], [0.0, 0.0]], [[1.5e308, 0.0], [0.0, 0.0]]]])
    def test_an_objective_beyond_the_double_range_exits_2_with_one_line(self, tmp_path, capsys, rows):
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps(rows))
        code, payload = run_json(tmp_path, "oracle", str(mfile), "--bits", "2")
        assert code == 2 and payload is None
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "double range" in err

    def test_an_objective_just_inside_the_range_is_printed(self, tmp_path):
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps([[[0.6e308, 0.0], [0.6e308, 0.0]]]))
        code, payload = run_json(tmp_path, "oracle", str(mfile), "--bits", "2")
        assert code == 0 and payload["objective"] == 1.2e308


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
            (["snr-cdf", "--bits", "17"], ["bits"]),
            (["snr-cdf", "--bits", "64"], ["bits"]),
            (["convergence", "--seed", "-1"], ["seed"]),
            (["quantization-gap", "--bits", "2", "2"], ["bits"]),
            (["snr-vs-n", "--n-values", "20", "20"], ["n_values"]),
        ]
    ])
    def test_setting_the_experiment_cannot_run_exits_2_before_writing(
            self, tmp_path, capsys, args, fields):
        # each of these used to run and record a value it ignored or clamped,
        # or, the seed, make the output directory and fail in the first trial
        out = tmp_path / "out"
        code = main(["bench", "--experiment", *args, "--trials", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
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
