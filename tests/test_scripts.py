"""Smoke tests of the measurement scripts under scripts/."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args, code: int = 0) -> str:
    """Run scripts/<name> on this checkout's src with one BLAS thread; its
    stdout, once it has exited with `code`."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    return proc.stdout


def test_same_outputs_finds_a_tree_identical_to_itself():
    summary = json.loads(run_script("same_outputs.py", "--parent-src", str(ROOT)))
    assert summary["identical"] == "7 of 7"
    for kind, s in summary["kinds"].items():
        assert s["rows"] > 0 and s["differing_rows"] == 0, kind
    kernel = summary["kernel"]
    assert kernel["identical"] and kernel["das_vectors"] > 0 and kernel["linf_matrices"] > 0


def test_both_gates_see_a_changed_tie_tolerance(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    das = tmp_path / "src" / "unimod" / "das.py"
    text = das.read_text()
    assert "\nTIE_TOL = 1e-12\n" in text
    das.write_text(text.replace("\nTIE_TOL = 1e-12\n", "\nTIE_TOL = 1e-2\n"))
    summary = json.loads(run_script("same_outputs.py", "--parent-src", str(tmp_path),
                                    "--kinds", "convergence", code=1))
    assert summary["identical"] == "0 of 1"
    assert summary["kinds"]["convergence"]["differing_rows"] > 0
    assert not summary["kernel"]["identical"]
    summary = json.loads(run_script("ab.py", "--parent-src", str(tmp_path),
                                    "--family", "pipeline-n1000", "--ops", "3"))
    assert summary["real"]["differing_outputs"] > 0
    assert summary["null"]["differing_outputs"] == 0


def test_linf_screen_counts_only_the_rows_linf_sweeps():
    summary = json.loads(run_script("linf_screen.py", "--count", "1", "--repeat", "1"))
    assert len(summary) == 8
    for family, s in summary.items():
        assert s["identical_to_every_row"] == "1 of 1", family
        assert 1 <= s["swept_per_op"] <= s["rows_per_op"], family


@pytest.mark.parametrize("family", ["pipeline-n1000", "linf-n1000", "snr-cdf", "norm-m1-n6-b2",
                                    "random-m8-n40-b2"])
def test_ab_finds_a_tree_identical_to_itself(family):
    # outputs only: a handful of ops times nothing worth asserting
    summary = json.loads(run_script("ab.py", "--parent-src", str(ROOT), "--family", family,
                                    "--ops", "3"))
    assert set(summary["minflt_per_op"]) == {"parent", "change"}
    for name in ("real", "null"):
        s = summary[name]
        assert s["differing_outputs"] == 0, name
        assert s["ci95"][0] <= s["median_ratio"] <= s["ci95"][1], name
        assert s["sum_ci95"][0] <= s["sum_ratio"] <= s["sum_ci95"][1], name
    shift = summary["real"]["lifted_db_shift"]
    assert shift["min"] == shift["max"] == 0.0


@pytest.mark.parametrize("family", ["norm-m0-n6-b2", "random-n40-b2", "inner-n8-b3"])
def test_ab_rejects_a_malformed_family_before_loading_a_tree(tmp_path, family):
    # tmp_path holds no tree: loading one would fail with a traceback, not exit 2
    run_script("ab.py", "--parent-src", str(tmp_path), "--family", family, "--ops", "3", code=2)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The records file of a one-tolerance sweep."""
    out = tmp_path_factory.mktemp("sweep") / "sweep.json"
    run_script("tolerance_sweep.py", "--tolerances", "1e-10", "--out", str(out))
    return out


def test_tolerance_sweep_runs_both_families(sweep):
    summary = json.loads(sweep.read_text())["summary"]
    assert set(summary) == {"pipeline-n1000", "snr-cdf"}
    for family, by_tol in summary.items():
        s = by_tol["1e-10"]
        assert s["identical_indices"] == s["problems"] > 0, family
        assert s["warm_start_cap_hits"] == 0, family
        for key in ("lifted_db_shift_min", "lifted_db_shift_q5", "lifted_db_shift_median",
                    "lifted_db_shift_max"):
            assert s[key] == 0.0, (family, key)
        # only the 32 x 1000 family is large enough for single-precision cycles
        assert (s["warm_start_single_cycles_mean"] > 0) == (family == "pipeline-n1000"), family
        assert s["warm_start_single_cycles_mean"] + s["warm_start_double_cycles_mean"] == \
            pytest.approx(s["warm_start_cycles_mean"]), family


def test_tolerance_sweep_reads_a_baseline(sweep, tmp_path):
    out = tmp_path / "again.json"
    run_script("tolerance_sweep.py", "--tolerances", "1e-10", "--baseline", str(sweep),
               "--out", str(out))
    again = json.loads(out.read_text())
    assert again["baseline"] == str(sweep)
    assert set(again["summary"]) == {"pipeline-n1000", "snr-cdf"}
    for family, by_tol in again["summary"].items():
        s = by_tol["1e-10"]
        assert s["identical_indices"] == s["problems"] > 0, family
        assert s["lifted_db_shift_min"] == s["lifted_db_shift_max"] == 0.0, family


def test_tolerance_sweep_sets_the_single_precision_tolerance(tmp_path):
    out = tmp_path / "sweep.json"
    run_script("tolerance_sweep.py", "--tolerances", "1e-10", "--single-tolerances", "1e-6",
               "1e-7", "--out", str(out))
    s = json.loads(out.read_text())["summary"]["pipeline-n1000"]
    # a looser single-precision stop leaves more cycles to float64
    assert (s["1e-10/1e-06"]["warm_start_single_cycles_mean"]
            < s["1e-10/1e-07"]["warm_start_single_cycles_mean"])
