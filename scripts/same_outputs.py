"""Check that two source trees write the same bench tables.

For each experiment kind, run `python -m unimod.cli bench --experiment K
--seed 31` at small trial counts on each tree's src/, with one worker
(UNIMOD_THREADS=1) and one BLAS thread (OPENBLAS_NUM_THREADS=1), and
compare the CSV tables byte for byte. `timing.csv` is compared without its
wall-clock columns, total_seconds and mean_seconds. The JSON envelopes are
not compared: they record the output directory and the commit.

A tree is a directory that holds src/unimod. The script runs no git: make
the parent's tree with `git worktree add DIR REV` or
`git archive REV | tar -x -C DIR`. --change-src defaults to this checkout.

    python3 scripts/same_outputs.py --parent-src DIR [--change-src DIR] [--kinds timing ...]

Prints a JSON summary, one entry per kind, and exits 1 when a table
differs or a run fails on either tree.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEED = "31"

#: per kind, the flags that run it in about a second
FLAGS = {
    "convergence": ["--trials", "3"],
    "lifting-stat": ["--trials", "20"],
    "snr-vs-n": ["--trials", "6", "--n-values", "20", "50", "--random-configs", "500"],
    "snr-cdf": ["--trials", "8", "--random-configs", "1000"],
    "quantization-gap": ["--trials", "6"],
    "timing": ["--trials", "3", "--n-values", "10", "50", "--random-configs", "200"],
    "oracle-check": ["--trials", "40"],
}

#: the columns of timing.csv that vary run to run
CLOCK_COLUMNS = ("total_seconds", "mean_seconds")


def run_bench(tree: Path, kind: str, out: Path) -> str:
    """Run one experiment on `tree`'s src/ into `out`; its CSV table, without
    the clock columns for timing."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "UNIMOD_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-m", "unimod.cli", "bench", "--experiment", kind,
                    "--seed", SEED, "--out", str(out), *FLAGS[kind]],
                   env=env, cwd=out.parent, capture_output=True, text=True, check=True)
    text = (out / f"{kind.replace('-', '_')}.csv").read_text()
    if kind != "timing":
        return text
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if name not in CLOCK_COLUMNS]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([[row[i] for i in keep] for row in rows])
    return buf.getvalue()


def compare(parent: Path, change: Path, kind: str, work: Path) -> dict:
    try:
        tables = [run_bench(tree, kind, work / f"{kind}-{side}")
                  for side, tree in (("parent", parent), ("change", change))]
    except subprocess.CalledProcessError as exc:
        return {"identical": False, "error": exc.stderr.strip().rpartition("\n")[2]}
    lines = [t.splitlines() for t in tables]
    differing = sum(a != b for a, b in zip(*lines)) + abs(len(lines[0]) - len(lines[1]))
    return {"identical": tables[0] == tables[1], "rows": len(lines[0]) - 1,
            "differing_rows": differing}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-src", type=Path, required=True,
                        help="tree of the parent: a directory holding src/unimod")
    parser.add_argument("--change-src", type=Path, default=ROOT,
                        help="tree of the change (default: this checkout)")
    parser.add_argument("--kinds", nargs="+", choices=tuple(FLAGS), default=tuple(FLAGS))
    args = parser.parse_args()
    trees = [args.parent_src.resolve(), args.change_src.resolve()]
    for tree in trees:
        if not (tree / "src" / "unimod").is_dir():
            parser.error(f"{tree} holds no src/unimod")
    with tempfile.TemporaryDirectory() as work:
        kinds = {kind: compare(*trees, kind, Path(work)) for kind in args.kinds}
    same = sum(k["identical"] for k in kinds.values())
    print(json.dumps({"parent": str(trees[0]), "change": str(trees[1]), "seed": int(SEED),
                      "identical": f"{same} of {len(kinds)}", "kinds": kinds}, indent=2))
    return 0 if same == len(kinds) else 1


if __name__ == "__main__":
    sys.exit(main())
