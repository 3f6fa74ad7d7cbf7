"""Validation of the baseline memory circuit.

The decisive test runs the *noiseless* circuit on the exact tableau
simulator: every detector must evaluate to 0 and the logical observable
must be deterministic, over many random-outcome seeds.  This catches wrong
CNOT orders (mid-round commutation violations), wrong detector wiring and
wrong observable definitions.
"""

import pytest

from repro.analyze import oracle_firings
from repro.noise import BASELINE_HARDWARE, ErrorModel
from repro.surface_code import baseline_memory_circuit
from repro.surface_code.extraction import standard_round_duration


def noiseless_model():
    return ErrorModel(hardware=BASELINE_HARDWARE, p=0.0, scale_coherence=False)


def assert_detectors_deterministic(memory, seeds=range(8)):
    fired = oracle_firings(memory.circuit, seeds)
    assert fired == [], f"fired without noise (seed, kind, index): {fired}"


@pytest.mark.parametrize("distance", [2, 3, 5])
@pytest.mark.parametrize("basis", ["Z", "X"])
def test_noiseless_detectors_deterministic(distance, basis):
    memory = baseline_memory_circuit(distance, noiseless_model(), basis=basis)
    assert_detectors_deterministic(memory)


class TestShape:
    def test_default_rounds_equals_distance(self):
        memory = baseline_memory_circuit(3, noiseless_model())
        assert memory.rounds == 3

    def test_detector_count(self):
        d, r = 3, 3
        memory = baseline_memory_circuit(d, noiseless_model(), rounds=r)
        n_anc = d * d - 1
        # Round 0 gives (d²−1)/2 detectors, each later round d²−1, and the
        # final data comparison another (d²−1)/2.
        expected = n_anc // 2 + (r - 1) * n_anc + n_anc // 2
        assert len(memory.circuit.detectors) == expected

    def test_measurement_count(self):
        d, r = 3, 2
        memory = baseline_memory_circuit(d, noiseless_model(), rounds=r)
        assert memory.circuit.num_measurements == r * (d * d - 1) + d * d

    def test_observable_is_logical_row(self):
        memory = baseline_memory_circuit(3, noiseless_model(), basis="Z")
        (obs,) = memory.circuit.observables
        assert len(obs.measurements) == 3
        assert obs.basis == "Z"

    def test_duration_accumulates(self):
        em = noiseless_model()
        memory = baseline_memory_circuit(3, em, rounds=2)
        per_round = standard_round_duration(em)
        hw = em.hardware
        assert memory.duration == pytest.approx(
            hw.t_reset + 2 * per_round + hw.t_measure
        )

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            baseline_memory_circuit(3, noiseless_model(), rounds=0)

    def test_rejects_bad_basis(self):
        with pytest.raises(ValueError):
            baseline_memory_circuit(3, noiseless_model(), basis="Y")


class TestNoiseAnnotations:
    def test_noisy_circuit_has_noise(self):
        em = ErrorModel(hardware=BASELINE_HARDWARE, p=1e-3)
        memory = baseline_memory_circuit(3, em)
        assert memory.circuit.noise_instruction_count() > 0

    def test_two_qubit_noise_follows_every_cnot(self):
        em = ErrorModel(hardware=BASELINE_HARDWARE, p=1e-3)
        memory = baseline_memory_circuit(3, em)
        instructions = memory.circuit.instructions
        for i, ins in enumerate(instructions):
            if ins.name == "CX":
                assert instructions[i + 1].name == "DEPOLARIZE2"
                assert instructions[i + 1].targets == ins.targets

    def test_idle_noise_present_for_data(self):
        em = ErrorModel(hardware=BASELINE_HARDWARE, p=1e-3)
        memory = baseline_memory_circuit(3, em)
        deps = [i for i in memory.circuit.instructions if i.name == "DEPOLARIZE1"]
        assert deps, "expected idle/1q depolarization"
