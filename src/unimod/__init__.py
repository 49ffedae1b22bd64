"""Solvers and benchmarks for lp-norm maximization over uni-modular phases.

The package optimizes ||A exp(j*Omega)||_p for p in {1, 2, inf} with each
phase either free or confined to a B-bit lattice. The discrete inner-product
subproblem is solved exactly by a divide-and-sort sweep, p in {1, 2} by a
monotone alternating iteration with post-rounding lifting, and p = inf
exactly by one sweep per matrix row. A RIS beamforming front end maps MISO
channel instances onto the p = 2 problem.
"""

from ._version import __version__
from .core import (
    DiscretePhaseSet,
    PhaseVector,
    Rng,
    nearest_lattice,
    norm_lp,
    normalize_p,
    sample_complex_gaussian,
    wrap_phase,
)
from .das import das_maximize
from .errors import (
    DegenerateInputError,
    InvalidArgumentError,
    SizeLimitError,
    UnimodError,
    UnsupportedNormError,
)
from .oracle import OracleResult, exhaustive_inner, exhaustive_norm, random_search
from .ris import (
    BeamformingProblem,
    RisInstance,
    SnrValue,
    build_phi,
    build_problem,
    derotate,
    load_instance,
    snr,
    solve_ris,
)
from .solver import (
    PipelineResult,
    SolveConfig,
    SolveTrace,
    continuous_phase_step,
    default_pipeline,
    deterministic_init,
    dual_witness,
    hard_round,
    solve_continuous,
    solve_discrete,
    solve_linf,
)

__all__ = [
    "__version__",
    "BeamformingProblem", "DegenerateInputError", "DiscretePhaseSet",
    "InvalidArgumentError", "OracleResult", "PhaseVector", "PipelineResult",
    "RisInstance", "Rng", "SizeLimitError", "SnrValue", "SolveConfig",
    "SolveTrace", "UnimodError", "UnsupportedNormError",
    "build_phi", "build_problem", "continuous_phase_step", "das_maximize",
    "default_pipeline", "derotate", "deterministic_init", "dual_witness",
    "exhaustive_inner", "exhaustive_norm", "hard_round", "load_instance",
    "nearest_lattice", "norm_lp", "normalize_p", "random_search",
    "sample_complex_gaussian", "snr", "solve_continuous",
    "solve_discrete", "solve_linf", "solve_ris", "wrap_phase",
]
