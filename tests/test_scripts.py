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


def patched_tree(tmp_path: Path, module: str, line: str, new: str) -> Path:
    """tmp_path holding a copy of this checkout's src, with the line `line`
    of unimod/<module>.py replaced by `new`."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "unimod" / f"{module}.py"
    text = source.read_text()
    assert f"\n{line}\n" in text
    source.write_text(text.replace(f"\n{line}\n", f"\n{new}\n"))
    return tmp_path


def test_same_outputs_finds_a_tree_identical_to_itself():
    summary = json.loads(run_script("same_outputs.py", "--parent-src", str(ROOT)))
    assert summary["identical"] == "7 of 7"
    for kind, s in summary["kinds"].items():
        assert s["rows"] > 0 and s["differing_rows"] == 0, kind
    kernel = summary["kernel"]
    assert kernel["identical"] and kernel["das_vectors"] > 0 and kernel["linf_matrices"] > 0
    assert summary["pipeline"]["identical"] and summary["pipeline"]["pipelines"] > 0
    assert summary["search"]["identical"] and summary["search"]["searches"] > 0


def test_only_the_pipeline_digest_sees_the_single_precision_stop(tmp_path):
    # no table reaches the 2^13 entries at which the warm start runs
    # single-precision cycles, and the kernel digest runs no pipeline
    tree = patched_tree(tmp_path, "solver", "_SINGLE_TOLERANCE = 1e-7", "_SINGLE_TOLERANCE = 1e-6")
    summary = json.loads(run_script("same_outputs.py", "--parent-src", str(tree), code=1))
    assert summary["identical"] == "7 of 7"
    assert summary["kernel"]["identical"]
    assert not summary["pipeline"]["identical"]


def test_only_the_search_digest_sees_a_changed_search_scorer(tmp_path):
    # the winner's objective summed over A's columns in reverse order: the
    # same winners, and objectives that differ in their last bits
    line = "    return OracleResult(PhaseVector.from_indices(idx, dps), _norm(a @ dps.phasors[idx], p), evaluated)"
    tree = patched_tree(tmp_path, "oracle", line,
                        line.replace("a @ dps.phasors[idx]", "a[:, ::-1] @ dps.phasors[idx[::-1]]"))
    summary = json.loads(run_script("same_outputs.py", "--parent-src", str(tree),
                                    "--kinds", "convergence", code=1))
    assert summary["identical"] == "1 of 1"
    assert summary["kernel"]["identical"] and summary["pipeline"]["identical"]
    assert not summary["search"]["identical"]


def test_both_gates_see_a_changed_tie_tolerance(tmp_path):
    tree = patched_tree(tmp_path, "das", "TIE_TOL = 1e-12", "TIE_TOL = 1e-2")
    summary = json.loads(run_script("same_outputs.py", "--parent-src", str(tree),
                                    "--kinds", "convergence", code=1))
    assert summary["identical"] == "0 of 1"
    assert summary["kinds"]["convergence"]["differing_rows"] > 0
    assert not summary["kernel"]["identical"]
    summary = json.loads(run_script("ab.py", "--parent-src", str(tree),
                                    "--family", "pipeline-n1000", "--ops", "3"))
    assert summary["real"]["differing_outputs"] > 0
    assert summary["null"]["differing_outputs"] == summary["aa"]["differing_outputs"] == 0


def run_ab(*args) -> dict:
    """The summary of scripts/ab.py on this checkout as both parent and
    change, three ops of each family."""
    return json.loads(run_script("ab.py", "--parent-src", str(ROOT), "--ops", "3", *args))


@pytest.mark.parametrize("family", ["pipeline-n1000", "ris-n200", "steer-n200", "linf-n1000",
                                    "linf-steer-n1000", "snr-cdf", "norm-m1-n6-b2",
                                    "random-m8-n40-b2"])
def test_ab_finds_a_tree_identical_to_itself(family):
    # outputs and counts only: a handful of ops times nothing worth asserting
    summary = run_ab("--family", family)
    assert set(summary["minflt_per_op"]) == {"parent", "change"}
    for name in ("real", "null", "aa"):
        s = summary[name]
        assert s["differing_outputs"] == 0, name
        assert s["ci95"][0] <= s["median_ratio"] <= s["ci95"][1], name
        assert s["sum_ci95"][0] <= s["sum_ratio"] <= s["sum_ci95"][1], name
    shift = summary["real"]["lifted_db_shift"]
    assert shift["min"] == shift["max"] == 0.0
    assert summary["real"]["ops_lower"] == 0
    counts = summary["counts"]
    assert counts["parent"] == counts["change"]
    if family.startswith(("pipeline", "ris", "steer")):
        c = counts["change"]
        assert c["warm_start_cap_hits"] == 0 and c["lift_iterations"] >= 1
        # only A of at least 2^13 entries runs single-precision cycles
        assert (c["single_cycles"] > 0) == (family == "pipeline-n1000")
        assert c["float64_cycles"] >= 1
    elif family.startswith("linf"):
        assert 1 <= counts["change"]["rows_swept"] <= 8
    else:
        assert counts["change"] == {}


def test_ab_patch_makes_linf_sweep_every_row():
    # an infinite rounding allowance turns off both row screens of das._linf,
    # and skipping rows must change no bit of the answer
    summary = run_ab("--family", "linf-n1000", "--patch", "das._UNDERFLOW_FLOOR=inf")
    assert summary["patch"] == ["das._UNDERFLOW_FLOOR=inf"]
    for name in ("real", "null", "aa"):
        assert summary[name]["differing_outputs"] == 0, name
    counts = summary["counts"]
    assert 1 <= counts["parent"]["rows_swept"] < counts["change"]["rows_swept"] == 8


def test_ab_patch_sets_the_single_precision_tolerance():
    summary = run_ab("--family", "pipeline-n1000", "--patch", "solver._SINGLE_TOLERANCE=1e-6")
    # a looser single-precision stop leaves more cycles to float64
    counts = summary["counts"]
    assert counts["change"]["single_cycles"] < counts["parent"]["single_cycles"]
    assert counts["change"]["float64_cycles"] > counts["parent"]["float64_cycles"]
    assert summary["null"]["differing_outputs"] == summary["aa"]["differing_outputs"] == 0


def test_ab_tolerance_reaches_the_change_pipelines():
    summary = run_ab("--family", "ris-n200", "--tolerance", "1e-6")
    assert summary["tolerance"] == 1e-6
    counts = summary["counts"]
    assert counts["change"]["float64_cycles"] < counts["parent"]["float64_cycles"]
    assert summary["null"]["differing_outputs"] == summary["aa"]["differing_outputs"] == 0
    # the single-precision cycles stop at max(tolerance, 1e-7)
    summary = run_ab("--family", "pipeline-n1000", "--tolerance", "1e-5")
    counts = summary["counts"]
    assert counts["change"]["single_cycles"] < counts["parent"]["single_cycles"]
    assert summary["null"]["differing_outputs"] == summary["aa"]["differing_outputs"] == 0


def ab_exit_code(monkeypatch, tree: Path, *args) -> int:
    """The exit code of scripts/ab.py's main on `args` with `tree` as the
    parent, run in this process, which saves an interpreter's start; it
    must exit before loading a tree."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab
    monkeypatch.setattr(sys, "argv", ["ab.py", "--parent-src", str(tree), "--ops", "3", *args])
    with pytest.raises(SystemExit) as exit_:
        ab.main()
    return exit_.value.code


@pytest.mark.parametrize("family", ["norm-m0-n6-b2", "random-n40-b2", "inner-n8-b3"])
def test_ab_rejects_a_malformed_family_before_loading_a_tree(tmp_path, monkeypatch, family):
    # tmp_path holds no tree: loading one would fail with a traceback, not exit 2
    assert ab_exit_code(monkeypatch, tmp_path, "--family", family) == 2


@pytest.mark.parametrize("option", [("--patch", "nomodule._CHUNK=1"),
                                    ("--patch", "das._NO_SUCH_NAME=1"),
                                    ("--patch", "das._UNDERFLOW_FLOOR=big"),
                                    ("--patch", "das._UNDERFLOW_FLOOR=nan"),
                                    ("--tolerance", "1e-7")])
def test_ab_rejects_a_malformed_option_before_loading_a_tree(tmp_path, monkeypatch, option):
    # --tolerance reaches pipelines only, and linf-n1000 runs none
    assert ab_exit_code(monkeypatch, tmp_path, "--family", "linf-n1000", *option) == 2
