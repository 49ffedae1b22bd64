"""RIS beamforming front end.

A reflecting surface with N phase-controlled units sits between an M-antenna
transmitter and a single-antenna receiver. Under maximum ratio transmission
the received power depends on the phase configuration only through the l2
norm of the combined channel, so tuning the surface reduces to the package's
central problem: maximize ||A exp(j*Omega)||_2 with A assembled from the
cascaded channel, plus one auxiliary column when a direct link is present.
The auxiliary phase is removed afterwards by de-rotation, which the lattice
is closed under, so nothing is lost by the detour through N+1 variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DiscretePhaseSet, PhaseVector, _as_real, as_complex_matrix, as_complex_vector, norm_lp
from .errors import InvalidArgumentError
from .solver import PipelineResult, SolveConfig, _lattice_phase_vector, default_pipeline
from . import serialize


@dataclass(frozen=True)
class RisInstance:
    """One MISO channel realization.

    h_d is the direct transmitter-receiver link; None means it is blocked
    (the NLoS case). power is the transmit power P, sigma2 the noise variance.
    """

    h_ris_bs: np.ndarray       # N x M
    h_ue_ris: np.ndarray       # length N
    h_d: np.ndarray | None = None   # length M
    power: float = 1.0
    sigma2: float = 1.0

    def __post_init__(self):
        h = as_complex_matrix(self.h_ris_bs)
        u = as_complex_vector(self.h_ue_ris)
        object.__setattr__(self, "h_ris_bs", h)
        object.__setattr__(self, "h_ue_ris", u)
        if u.size != h.shape[0]:
            raise InvalidArgumentError("h_ue_ris length must match the RIS unit count")
        if self.h_d is not None:
            d = as_complex_vector(self.h_d)
            if d.size != h.shape[1]:
                raise InvalidArgumentError("h_d length must match the antenna count")
            object.__setattr__(self, "h_d", d)
        for name in ("power", "sigma2"):
            object.__setattr__(self, name, _as_real(getattr(self, name), name))
        if not (0 < self.power < np.inf and 0 < self.sigma2 < np.inf):
            raise InvalidArgumentError("transmit power and noise variance must be finite and positive")


@dataclass(frozen=True)
class BeamformingProblem:
    """The norm-maximization instance built from a channel realization.

    `matrix` has one column per RIS unit, plus a trailing auxiliary column
    (the conjugated direct link) when `augmented` is set.
    """

    matrix: np.ndarray
    augmented: bool

    @property
    def n_units(self) -> int:
        return self.matrix.shape[1] - (1 if self.augmented else 0)


class SnrValue(NamedTuple):
    linear: float | None
    db: float


def build_phi(inst: RisInstance) -> np.ndarray:
    """Cascaded channel: row i is conj(h_ue_ris[i]) times row i of H."""
    return np.conj(inst.h_ue_ris)[:, None] * inst.h_ris_bs


def build_problem(inst: RisInstance) -> BeamformingProblem:
    """Assemble the solver matrix: Phi^T, with conj(h_d) appended per column
    when the direct link exists."""
    phi_t = build_phi(inst).T
    if inst.h_d is None:
        return BeamformingProblem(np.ascontiguousarray(phi_t), False)
    a = np.hstack([phi_t, np.conj(inst.h_d)[:, None]])
    return BeamformingProblem(a, True)


def derotate(pv: PhaseVector, dps: DiscretePhaseSet) -> PhaseVector:
    """Fold the auxiliary phase into the unit phases: Omega_i - Omega_last.

    Works in index space, so lattice membership is preserved exactly. `pv`
    must lie on `dps`; indices of another lattice are rejected.
    """
    idx = _lattice_phase_vector(pv, dps).indices
    idx = (idx[:-1] - idx[-1]) % dps.levels
    return PhaseVector.from_indices(idx, dps)


@dataclass(frozen=True)
class RisSolution:
    """A surface configuration and the pipeline run that found it; unpacks
    as the pair (phases, objective)."""

    phases: PhaseVector
    pipeline: PipelineResult

    @property
    def objective(self) -> float:
        return self.pipeline.final_cost

    def __iter__(self):
        return iter((self.phases, self.objective))


def solve_ris(prob: BeamformingProblem, dps: DiscretePhaseSet,
              cfg: SolveConfig | None = None) -> RisSolution:
    """Optimize the surface configuration through the default pipeline.

    Augmented problems are solved over N+1 phases and de-rotated so the
    auxiliary phase is 0; the norm objective is invariant under that global
    rotation, so the reported objective is unchanged. The pipeline result
    tells how each stage ended.
    """
    p = cfg.p if cfg is not None else 2.0
    result = default_pipeline(prob.matrix, dps, p, cfg=cfg)
    pv = result.trace.phases
    if prob.augmented:
        pv = derotate(pv, dps)
    return RisSolution(pv, result)


def snr(prob: BeamformingProblem, pv: PhaseVector, inst: RisInstance) -> SnrValue:
    """Receiver SNR for a configuration: P * ||A x||_2^2 / sigma2, by `_snr_value`.

    x appends a unit auxiliary entry in the augmented case, matching a
    de-rotated configuration.
    """
    if len(pv) != prob.n_units:
        raise InvalidArgumentError("configuration length must match the unit count")
    x = pv.phasors()
    if prob.augmented:
        x = np.concatenate([x, [1.0 + 0.0j]])
    return _snr_value(norm_lp(prob.matrix @ x, 2), inst)


def _snr_value(cost: float, inst: RisInstance) -> SnrValue:
    """The SNR P c^2 / sigma2 of a combined channel of l2 norm c > 0.

    The linear value is taken on the mantissas of c, P and sigma2 and scaled
    by 2 to the sum of their exponents (the `core._pow2_scale` rule), so it
    is right wherever the SNR is a normal double, and None where no positive
    finite double holds it. The dB value is 20 log10(c) + 10 (log10 P -
    log10 sigma2), finite at any c; at P = sigma2 = 1 it is 20 log10(c).
    """
    (fc, ec), (fp, ep), (fs, es) = map(math.frexp, (cost, inst.power, inst.sigma2))
    try:
        linear = math.ldexp(fp * (fc * fc) / fs, ep + 2 * ec - es) or None  # None if it is 0
    except OverflowError:
        linear = None
    db = 20.0 * math.log10(cost) + 10.0 * (math.log10(inst.power) - math.log10(inst.sigma2))
    return SnrValue(linear, db)


def instance_from_dict(doc: dict) -> RisInstance:
    if not isinstance(doc, dict):
        raise InvalidArgumentError("RIS instance document must be a JSON object")
    missing = {"H_ris_bs", "h_ue_ris"} - doc.keys()
    if missing:
        raise InvalidArgumentError(f"RIS instance is missing fields: {sorted(missing)}")
    h_d = doc.get("h_d")
    for key in ("P", "sigma2"):
        if not serialize.is_json_number(doc.get(key, 1.0)):
            raise InvalidArgumentError(f"{key} must be a JSON number, got {doc[key]!r}")
    return RisInstance(
        h_ris_bs=serialize.json_to_matrix(doc["H_ris_bs"]),
        h_ue_ris=serialize.json_to_vector(doc["h_ue_ris"]),
        h_d=None if h_d is None else serialize.json_to_vector(h_d),
        power=serialize.json_float(doc.get("P", 1.0), "P"),
        sigma2=serialize.json_float(doc.get("sigma2", 1.0), "sigma2"),
    )


def load_instance(path) -> RisInstance:
    return instance_from_dict(serialize.load_json_file(path))
