import json
import math
from pathlib import Path

import numpy as np
import pytest

from unimod import (
    DiscretePhaseSet,
    InvalidArgumentError,
    PhaseVector,
    RisInstance,
    Rng,
    build_phi,
    build_problem,
    derotate,
    load_instance,
    norm_lp,
    sample_complex_gaussian,
    snr,
    solve_ris,
)
from unimod import serialize
from unimod.oracle import exhaustive_norm
from unimod.ris import instance_from_dict

DATA = Path(__file__).parent / "data"


def random_instance(seed, n, m, with_direct=False):
    rng = Rng(seed)
    h = sample_complex_gaussian(rng, n, m, 1.0)
    h_ue = sample_complex_gaussian(rng, 1, n, 1.0).ravel()
    h_d = sample_complex_gaussian(rng, 1, m, 1.0).ravel() if with_direct else None
    return RisInstance(h, h_ue, h_d)


class TestBuildPhi:
    def test_unit_weights_pass_through(self):
        h = sample_complex_gaussian(Rng(1), 4, 3, 1.0)
        inst = RisInstance(h, np.ones(4, dtype=complex))
        assert np.allclose(build_phi(inst), h)

    def test_single_nonzero_weight(self):
        h = sample_complex_gaussian(Rng(2), 4, 3, 1.0)
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        phi = build_phi(RisInstance(h, e1))
        assert np.allclose(phi[0], h[0])
        assert np.allclose(phi[1:], 0.0)

    def test_reduction_identity_both_ways(self):
        inst = random_instance(3, 4, 3)
        phi = build_phi(inst)
        omega = np.array([0.1, 2.2, 4.4, 5.9])
        via_phi = np.exp(1j * omega) @ phi
        direct = np.conj(inst.h_ue_ris) @ (np.diag(np.exp(1j * omega)) @ inst.h_ris_bs)
        assert np.allclose(via_phi, direct, rtol=1e-12, atol=1e-12)


class TestBuildProblem:
    def test_nlos_shape(self):
        prob = build_problem(random_instance(4, 4, 3))
        assert prob.matrix.shape == (3, 4)
        assert not prob.augmented

    def test_los_shape_and_last_column(self):
        inst = random_instance(5, 4, 3, with_direct=True)
        prob = build_problem(inst)
        assert prob.matrix.shape == (3, 5)
        assert prob.augmented
        assert np.allclose(prob.matrix[:, -1], np.conj(inst.h_d))

    def test_zero_direct_link_equivalent_to_nlos(self):
        inst = random_instance(6, 4, 3)
        zero_d = RisInstance(inst.h_ris_bs, inst.h_ue_ris, np.zeros(3, dtype=complex))
        dps = DiscretePhaseSet(1)
        ref_aug = exhaustive_norm(build_problem(zero_d).matrix, dps, 2)
        ref_nlos = exhaustive_norm(build_problem(inst).matrix, dps, 2)
        assert ref_aug.objective == pytest.approx(ref_nlos.objective, abs=1e-9)

    def test_full_objective_matches_signal_model(self):
        # the norm of A [exp(j Omega); 1] equals the norm of the combined
        # channel row computed straight from the model
        inst = random_instance(7, 5, 2, with_direct=True)
        prob = build_problem(inst)
        omega = np.array([0.3, 1.0, 2.5, 4.2, 6.1])
        x = np.concatenate([np.exp(1j * omega), [1.0]])
        combined = (np.conj(inst.h_ue_ris) * np.exp(1j * omega)) @ inst.h_ris_bs \
            + np.conj(inst.h_d)
        assert norm_lp(prob.matrix @ x, 2) == pytest.approx(norm_lp(combined, 2), rel=1e-12)


class TestDerotate:
    def test_zero_auxiliary_phase_is_identity(self):
        dps = DiscretePhaseSet(2)
        pv = PhaseVector.from_indices([1, 3, 2, 0], dps)
        out = derotate(pv, dps)
        assert np.array_equal(out.indices, [1, 3, 2])

    def test_stays_on_lattice_and_preserves_objective(self):
        inst = random_instance(8, 5, 2, with_direct=True)
        prob = build_problem(inst)
        dps = DiscretePhaseSet(2)
        pv = PhaseVector.from_indices([1, 3, 0, 2, 3, 2], dps)
        out = derotate(pv, dps)
        assert out.indices is not None
        full = norm_lp(prob.matrix @ pv.phasors(), 2)
        fixed = norm_lp(prob.matrix @ np.concatenate([out.phasors(), [1.0]]), 2)
        assert fixed == pytest.approx(full, rel=1e-9)

    def test_requires_lattice_input(self):
        with pytest.raises(InvalidArgumentError):
            derotate(PhaseVector(np.array([0.1, 0.2])), DiscretePhaseSet(1))

    def test_rejects_indices_of_another_lattice(self):
        # B = 3 indices read on B = 2 would name other phases: [5, 1, 7, 3]
        # means pi/2, 3pi/2, pi after de-rotation, not pi, pi, 0
        pv = PhaseVector.from_indices([5, 1, 7, 3], DiscretePhaseSet(3))
        with pytest.raises(InvalidArgumentError):
            derotate(pv, DiscretePhaseSet(2))
        assert np.array_equal(derotate(pv, DiscretePhaseSet(3)).indices, [2, 6, 4])


class TestSolveRis:
    def test_matches_exhaustive_on_small_los(self):
        inst = random_instance(9, 5, 2, with_direct=True)
        prob = build_problem(inst)
        dps = DiscretePhaseSet(1)
        pv, objective = solve_ris(prob, dps)
        assert len(pv) == 5
        # exhaustive optimum of the fixed-auxiliary problem equals the
        # de-rotated augmented optimum
        ref = exhaustive_norm(prob.matrix, dps, 2)
        assert objective <= ref.objective + 1e-9
        assert objective == pytest.approx(ref.objective, abs=1e-9)

    def test_objective_achieved_by_returned_phases(self):
        inst = random_instance(10, 6, 3, with_direct=True)
        prob = build_problem(inst)
        pv, objective = solve_ris(prob, DiscretePhaseSet(2))
        x = np.concatenate([pv.phasors(), [1.0]])
        assert norm_lp(prob.matrix @ x, 2) == pytest.approx(objective, rel=1e-9)

    def test_nlos_passthrough(self):
        inst = random_instance(11, 6, 3)
        prob = build_problem(inst)
        pv, objective = solve_ris(prob, DiscretePhaseSet(2))
        assert len(pv) == 6
        assert norm_lp(prob.matrix @ pv.phasors(), 2) == pytest.approx(objective, rel=1e-9)


class TestSnr:
    def test_linear_is_squared_objective(self):
        inst = random_instance(12, 5, 3)
        prob = build_problem(inst)
        pv, objective = solve_ris(prob, DiscretePhaseSet(1))
        value = snr(prob, pv, inst)
        assert value.linear == pytest.approx(objective ** 2, rel=1e-12)
        assert value.db == pytest.approx(10 * math.log10(value.linear))

    def test_doubling_power_adds_3db(self):
        inst = random_instance(13, 5, 3)
        double = RisInstance(inst.h_ris_bs, inst.h_ue_ris, power=2.0)
        prob = build_problem(inst)
        pv = PhaseVector.from_indices(np.zeros(5, dtype=int), DiscretePhaseSet(1))
        base = snr(prob, pv, inst)
        boosted = snr(prob, pv, double)
        assert boosted.db - base.db == pytest.approx(10 * math.log10(2), abs=1e-12)
        assert round(boosted.db - base.db, 4) == 3.0103

    def test_optimized_beats_random_draws(self):
        inst = random_instance(14, 100, 4)
        prob = build_problem(inst)
        dps = DiscretePhaseSet(1)
        pv, _ = solve_ris(prob, dps)
        best = snr(prob, pv, inst).linear
        g = Rng(15).generator
        wins = 0
        for _ in range(500):
            draw = PhaseVector.from_indices(g.integers(0, dps.levels, size=100), dps)
            wins += best >= snr(prob, draw, inst).linear
        assert wins >= 495


class TestValidation:
    def test_dimension_mismatch(self):
        h = sample_complex_gaussian(Rng(16), 4, 3, 1.0)
        with pytest.raises(InvalidArgumentError):
            RisInstance(h, np.ones(3, dtype=complex))
        with pytest.raises(InvalidArgumentError):
            RisInstance(h, np.ones(4, dtype=complex), np.ones(2, dtype=complex))

    def test_positivity(self):
        h = sample_complex_gaussian(Rng(17), 2, 2, 1.0)
        with pytest.raises(InvalidArgumentError, match="power must be finite and positive, got 0.0"):
            RisInstance(h, np.ones(2, dtype=complex), power=0.0)
        with pytest.raises(InvalidArgumentError, match="sigma2 must be finite and positive, got -1.0"):
            RisInstance(h, np.ones(2, dtype=complex), sigma2=-1.0)

    @pytest.mark.parametrize("field", ["power", "sigma2"])
    def test_power_and_noise_must_be_real_numbers(self, field):
        # True was taken as 1
        h = sample_complex_gaussian(Rng(17), 2, 2, 1.0)
        with pytest.raises(InvalidArgumentError, match=field):
            RisInstance(h, np.ones(2, dtype=complex), **{field: True})

    @pytest.mark.parametrize("field", ["power", "sigma2"])
    def test_finiteness(self, field):
        # an infinite power or noise makes the SNR +-inf, which JSON cannot hold
        h = sample_complex_gaussian(Rng(17), 2, 2, 1.0)
        with pytest.raises(InvalidArgumentError, match="finite"):
            RisInstance(h, np.ones(2, dtype=complex), **{field: math.inf})


def instance_doc(inst):
    """The instance file's JSON document, written field by field."""
    return {
        "H_ris_bs": serialize.matrix_to_json(inst.h_ris_bs),
        "h_ue_ris": serialize.vector_to_json(inst.h_ue_ris),
        "h_d": None if inst.h_d is None else serialize.vector_to_json(inst.h_d),
        "P": inst.power,
        "sigma2": inst.sigma2,
    }


class TestJsonInterface:
    def test_roundtrip(self, tmp_path):
        inst = random_instance(18, 4, 3, with_direct=True)
        path = tmp_path / "inst.json"
        serialize.dump_json(path, instance_doc(inst))
        back = load_instance(path)
        assert np.allclose(back.h_ris_bs, inst.h_ris_bs)
        assert np.allclose(back.h_ue_ris, inst.h_ue_ris)
        assert np.allclose(back.h_d, inst.h_d)
        assert back.power == inst.power and back.sigma2 == inst.sigma2

    def test_nlos_null_direct_link(self):
        doc = instance_doc(random_instance(19, 3, 2))
        assert doc["h_d"] is None
        assert instance_from_dict(doc).h_d is None

    def test_complex_encoding_is_pairs(self):
        inst = random_instance(20, 2, 2)
        doc = instance_doc(inst)
        entry = doc["H_ris_bs"][0][0]
        assert isinstance(entry, list) and len(entry) == 2
        assert np.array_equal(instance_from_dict(doc).h_ris_bs, inst.h_ris_bs)

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidArgumentError):
            instance_from_dict({"H_ris_bs": [[[1.0, 0.0]]]})

    def test_fixtures_load(self):
        nlos = load_instance(DATA / "ris_nlos.json")
        los = load_instance(DATA / "ris_los.json")
        assert nlos.h_d is None and los.h_d is not None
        assert nlos.h_ue_ris.size == los.h_ue_ris.size == 6
        assert build_problem(nlos).n_units == build_problem(los).n_units == 6
