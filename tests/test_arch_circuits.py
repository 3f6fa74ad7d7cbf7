"""Exact-simulator validation of the Natural and Compact memory circuits.

Same methodology as the baseline test: noiseless circuits must produce
deterministic (all-zero) detectors and observables on the tableau
simulator, across random measurement-outcome seeds.
"""

import pytest

from repro.analyze import oracle_firings, verify_circuit
from repro.arch import (
    DEFAULT_SPEC,
    ScheduleConflictError,
    compact_memory_circuit,
    natural_memory_circuit,
)
from repro.arch.compact import CompactScheduleSpec, _spec_is_valid, find_schedule_spec
from repro.noise import BASELINE_HARDWARE, MEMORY_HARDWARE, ErrorModel


def noiseless():
    return ErrorModel(hardware=MEMORY_HARDWARE, p=0.0, scale_coherence=False)


def assert_deterministic(memory, seeds=range(4)):
    fired = oracle_firings(memory.circuit, seeds)
    assert fired == [], f"fired without noise (seed, kind, index): {fired}"


@pytest.mark.parametrize("schedule", ["all_at_once", "interleaved"])
@pytest.mark.parametrize("basis", ["Z", "X"])
class TestNoiselessDeterminism:
    def test_natural(self, schedule, basis):
        assert_deterministic(natural_memory_circuit(3, noiseless(), basis=basis, schedule=schedule))

    def test_compact_d3(self, schedule, basis):
        assert_deterministic(compact_memory_circuit(3, noiseless(), basis=basis, schedule=schedule))


@pytest.mark.parametrize("schedule", ["all_at_once", "interleaved"])
def test_compact_d5_exact(schedule):
    assert_deterministic(
        compact_memory_circuit(5, noiseless(), schedule=schedule), seeds=range(2)
    )


class TestScheduleSpec:
    def test_default_spec_is_valid_and_rederived(self):
        assert _spec_is_valid(DEFAULT_SPEC, 5, noiseless())
        assert find_schedule_spec() == DEFAULT_SPEC

    def test_rejected_candidate_fails_the_proof(self):
        # Z checks visiting their corners in the X checks' order: the
        # schedule builds, but the checks no longer commute mid-round.
        spec = CompactScheduleSpec(
            ab_basis=DEFAULT_SPEC.ab_basis,
            split_axis=DEFAULT_SPEC.split_axis,
            polarity=DEFAULT_SPEC.polarity,
            orders={"X": DEFAULT_SPEC.orders["X"], "Z": DEFAULT_SPEC.orders["X"]},
        )
        memory = compact_memory_circuit(3, noiseless(), rounds=2, spec=spec)
        assert {f.code for f in verify_circuit(memory.circuit)} == {"SYM001"}
        assert not _spec_is_valid(spec, 5, noiseless())


class TestStructure:
    def test_natural_loads_and_stores_present(self):
        m = natural_memory_circuit(3, noiseless(), schedule="interleaved")
        assert m.op_counts["LOAD"] >= 3 * 9  # one load of 9 data per round
        assert m.op_counts["STORE"] >= 9

    def test_interleaved_costs_more_loads_than_all_at_once(self):
        # §III-A: interleaving pays d loads/stores per d rounds instead of one.
        aao = natural_memory_circuit(5, noiseless(), schedule="all_at_once")
        inter = natural_memory_circuit(5, noiseless(), schedule="interleaved")
        assert inter.op_counts["LOAD"] > aao.op_counts["LOAD"]
        assert inter.op_counts["STORE"] > aao.op_counts["STORE"]

    def test_compact_interleaved_costs_more_loads(self):
        aao = compact_memory_circuit(5, noiseless(), schedule="all_at_once")
        inter = compact_memory_circuit(5, noiseless(), schedule="interleaved")
        assert inter.op_counts["LOAD"] > aao.op_counts["LOAD"]

    def test_compact_uses_transmon_mode_cnots(self):
        # One mediated CNOT per merged plaquette per round.
        m = compact_memory_circuit(3, noiseless(), rounds=3)
        merged_plaquettes = 8 - 2  # d=3: eight checks, two unmerged
        assert m.op_counts["CXTM"] == 3 * merged_plaquettes

    def test_compact_total_cnots_match_plaquette_corners(self):
        m = compact_memory_circuit(3, noiseless(), rounds=1)
        # d=3: 4 full plaquettes (4 corners) + 4 halves (2 corners) = 24.
        assert m.op_counts["CX"] + m.op_counts["CXTM"] == 24

    def test_natural_gap_scales_with_cavity_depth(self):
        small = noiseless().with_(hardware=MEMORY_HARDWARE.with_(cavity_modes=2))
        big = noiseless().with_(hardware=MEMORY_HARDWARE.with_(cavity_modes=20))
        m_small = natural_memory_circuit(3, small)
        m_big = natural_memory_circuit(3, big)
        assert m_big.duration > m_small.duration

    def test_memory_hardware_required(self):
        model = ErrorModel(hardware=BASELINE_HARDWARE, p=0.0, scale_coherence=False)
        with pytest.raises(ValueError):
            natural_memory_circuit(3, model)
        with pytest.raises(ValueError):
            compact_memory_circuit(3, model)

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            natural_memory_circuit(3, noiseless(), schedule="sometimes")

    def test_invalid_spec_raises_conflict(self):
        # The naive baseline orders double-book transmons in Compact.
        bad = CompactScheduleSpec(
            orders={"X": ("NW", "NE", "SW", "SE"), "Z": ("NW", "SW", "NE", "SE")}
        )
        with pytest.raises((ScheduleConflictError, ValueError)):
            compact_memory_circuit(3, noiseless(), spec=bad)


class TestDefaultSpecProperties:
    def test_hook_safety(self):
        # Last two corners visited must be perpendicular to the logical of
        # the same type: horizontal for X checks, vertical for Z checks.
        x_last = DEFAULT_SPEC.orders["X"][2:]
        z_last = DEFAULT_SPEC.orders["Z"][2:]
        horizontal_pairs = [{"NW", "NE"}, {"SW", "SE"}]
        vertical_pairs = [{"NW", "SW"}, {"NE", "SE"}]
        assert set(x_last) in horizontal_pairs
        assert set(z_last) in vertical_pairs

    def test_groups_partition_by_type(self):
        from repro.surface_code import RotatedSurfaceCode

        code = RotatedSurfaceCode(5)
        for p in code.plaquettes:
            g = DEFAULT_SPEC.group_of(p)
            if p.basis == "X":
                assert g in ("A", "B")
            else:
                assert g in ("C", "D")
