"""Command-line surface: solve, solve-ris, oracle and bench subcommands.

Exit codes: 0 success, 1 internal error, 2 parse or argument error,
3 degenerate input. All file payloads are JSON with complex numbers as
[re, im] pairs, so fixtures are language neutral.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .bench import EXPERIMENTS, KINDS, make_spec, run_experiment
from .core import DiscretePhaseSet, normalize_p
from .errors import DegenerateInputError, InvalidArgumentError, SizeLimitError, UnimodError
from .oracle import exhaustive_norm
from .ris import build_problem, load_instance, snr, solve_ris
from .serialize import dump_json, load_matrix_file
from .solver import SolveConfig, default_pipeline, deterministic_init, solve_continuous, solve_linf

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3


def _norm_arg(value: str) -> float:
    try:
        return normalize_p(value)
    except InvalidArgumentError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _readers(field: str) -> str:
    """The bench experiments that read a spec field, for the flags' help."""
    return ", ".join(kind for kind, experiment in EXPERIMENTS.items() if field in experiment.reads)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unimod",
        description="Solvers and benchmarks for lp-norm maximization over "
                    "uni-modular phase vectors.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="optimize ||A exp(j*Omega)||_p for a matrix file")
    solve.add_argument("matrix", help="JSON matrix file: nested rows of [re, im] pairs")
    solve.add_argument("--p", type=_norm_arg, default=2.0, help="norm selector: 1, 2 or inf (default 2)")
    solve.add_argument("--bits", type=int, default=None,
                       help="lattice bits B; omit for a continuous solve (p in {1, 2} only)")

    sris = sub.add_parser("solve-ris", help="optimize a RIS channel instance file")
    sris.add_argument("instance", help="JSON RIS instance file")
    sris.add_argument("--bits", type=int, required=True, help="lattice bits B")
    sris.add_argument("--p", type=_norm_arg, default=2.0, help="norm for the phase optimization (default 2)")
    for cmd in (solve, sris):
        cmd.add_argument("--tol", type=float, default=SolveConfig.tolerance,
                         help="convergence tolerance (default %(default)s)")
        cmd.add_argument("--max-iter", type=int, default=SolveConfig.max_iterations,
                         help="iteration cap (default %(default)s): lift steps, and SQUAREM "
                              "cycles of three map evaluations in the continuous warm start")
        cmd.add_argument("--out", default=None, help="result file (default: stdout)")

    oracle = sub.add_parser("oracle", help="exhaustive-search reference on a matrix file")
    oracle.add_argument("matrix", help="JSON matrix file: nested rows of [re, im] pairs")
    oracle.add_argument("--p", type=_norm_arg, default=2.0, help="norm selector: 1, 2 or inf (default 2)")
    oracle.add_argument("--bits", type=int, required=True, help="lattice bits B")
    oracle.add_argument("--out", default=None, help="result file (default: stdout)")

    bench = sub.add_parser(
        "bench", help="run a benchmark experiment",
        description="Run one benchmark experiment; it rejects the flags it does not read. Worker "
                    "processes run BLAS on one thread unless OPENBLAS_NUM_THREADS is set.")
    bench.add_argument("--experiment", required=True, choices=KINDS)
    bench.add_argument("--out", required=True, help="output directory for CSV/JSON results")
    bench.add_argument("--trials", type=int, default=None, help="trial count (desk-scale default per experiment)")
    bench.add_argument("--seed", type=int, default=0, help="experiment seed (default 0)")
    bench.add_argument("--p", type=_norm_arg, default=None,
                       help=f"norm selector, 1 or 2 (default 2); read by {_readers('p')}")
    bench.add_argument("--m", type=int, default=None, help="row count / antenna count")
    bench.add_argument("--n-values", type=int, nargs="+", default=None, help="column counts / unit counts")
    bench.add_argument("--bits", type=int, nargs="+", default=None, help="lattice bit widths")
    bench.add_argument("--random-configs", type=int, default=None,
                       help=f"draws for the random baseline; read by {_readers('random_configs')}")
    bench.add_argument("--nmax", type=int, default=None,
                       help=f"largest n for instances; read by {_readers('nmax')}")
    return parser


def _emit(payload: dict, out: str | None) -> None:
    if out is None:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        dump_json(out, payload)


def _phases_payload(pv) -> list[float]:
    return [float(x) for x in pv.values]


def _cmd_solve(args) -> int:
    a = load_matrix_file(args.matrix)
    if math.isinf(args.p):
        if args.bits is None:
            raise InvalidArgumentError("p = inf needs --bits: the exact solver works on the lattice")
        pv, row, objective = solve_linf(a, DiscretePhaseSet(args.bits))
        payload = {
            "phases": _phases_payload(pv),
            "objective": objective,
            "trace": [objective],
            "termination": "converged",
            "best_row": row,
        }
    elif args.bits is None:
        cfg = SolveConfig(p=args.p, tolerance=args.tol, max_iterations=args.max_iter)
        trace = solve_continuous(a, cfg, deterministic_init(a, args.p))
        payload = {
            "phases": _phases_payload(trace.phases),
            "objective": trace.final_cost,
            "trace": [float(c) for c in trace.costs],
            "termination": trace.termination,
        }
    else:
        cfg = SolveConfig(p=args.p, dps=DiscretePhaseSet(args.bits),
                          tolerance=args.tol, max_iterations=args.max_iter)
        result = default_pipeline(a, cfg.dps, args.p, cfg=cfg)
        payload = {
            "phases": _phases_payload(result.trace.phases),
            "objective": result.final_cost,
            "trace": [float(c) for c in result.trace.costs],
            "termination": result.trace.termination,
            "iterations": result.trace.iterations,
            "continuous_termination": result.continuous_trace.termination,
            "continuous_iterations": result.continuous_trace.iterations,
            "unrounded_cost": result.unrounded_cost,
            "rounded_cost": result.rounded_cost,
        }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_solve_ris(args) -> int:
    inst = load_instance(args.instance)
    prob = build_problem(inst)
    cfg = SolveConfig(p=args.p, tolerance=args.tol, max_iterations=args.max_iter)
    solution = solve_ris(prob, DiscretePhaseSet(args.bits), cfg)
    pv, result = solution.phases, solution.pipeline
    value = snr(prob, pv, inst)
    payload = {
        "phases": _phases_payload(pv),
        "indices": [int(k) for k in pv.indices],
        "objective": solution.objective,
        "snr_db": value.db,
        "snr_linear": value.linear,
        "termination": result.trace.termination,
        "iterations": result.trace.iterations,
        "continuous_termination": result.continuous_trace.termination,
        "continuous_iterations": result.continuous_trace.iterations,
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    a = load_matrix_file(args.matrix)
    result = exhaustive_norm(a, DiscretePhaseSet(args.bits), args.p)
    payload = {
        "phases": _phases_payload(result.phases),
        "objective": result.objective,
        "evaluated": result.evaluated,
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    spec = make_spec(
        args.experiment, Path(args.out),
        trials=args.trials, seed=args.seed, p=args.p, m=args.m,
        n_values=tuple(args.n_values) if args.n_values else None,
        bits=tuple(args.bits) if args.bits else None,
        random_configs=args.random_configs, nmax=args.nmax,
    )
    envelope = run_experiment(spec)
    results = envelope["results"]
    print(f"{spec.kind}: trials={spec.trials} seed={spec.seed} -> {spec.out_dir} "
          f"({len(results)} result rows)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags/choices and 0 on --help
        return int(exc.code or 0)

    handlers = {
        "solve": _cmd_solve,
        "solve-ris": _cmd_solve_ris,
        "oracle": _cmd_oracle,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at byte offset {exc.pos}: {exc.msg}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateInputError as exc:
        print(f"error: degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InvalidArgumentError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnimodError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
