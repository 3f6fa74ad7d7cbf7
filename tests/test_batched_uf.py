"""Batched lockstep union-find kernel: bit-identity and support pinning.

The kernel's whole contract is that it is indistinguishable from calling
the flat ``UnionFindDecoder`` per shot — same support, same canonical
peel, same predictions, same failures.  These tests pin that from four
directions: hypothesis-driven element-wise equality on both embeddings,
support equality against the independent unit-step reference and the
flat decoder's ``_grow`` (hand graphs, including the shared-edge
double-growth scenario, and a random batch), exact corrections-equality
on sampled d=3/5/7 syndromes at threshold, and the durable executor's
graceful degradation when the batched tier raises mid-block.
Round-by-round growth traces are pinned for the flat decoder only
(``tests/test_decoders.py``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from test_decoders import line_graph, reference_unit_step_growth

from repro.arch import compact_memory_circuit
from repro.decoders import BatchedUnionFind, MatchingGraph, UnionFindDecoder
from repro.decoders.batched_uf import DEFAULT_LOCKSTEP
from repro.dem import DetectorErrorModel
from repro.noise import BASELINE_HARDWARE, MEMORY_HARDWARE, ErrorModel
from repro.sim.engine import block_seeds, make_sampler, run_block
from repro.sim.experiment import prepare_decoding
from repro.surface_code import baseline_memory_circuit


def _setup(circuit_factory, d=3, p=3e-3, hardware=BASELINE_HARDWARE):
    memory = circuit_factory(d, ErrorModel(hardware=hardware, p=p))
    dem = DetectorErrorModel(memory.circuit)
    graph = MatchingGraph.from_dem(dem, memory.basis)
    flat = UnionFindDecoder(graph)
    return memory, dem, flat


@pytest.fixture(scope="module")
def baseline_setup():
    return _setup(baseline_memory_circuit)


@pytest.fixture(scope="module")
def compact_setup():
    return _setup(compact_memory_circuit, hardware=MEMORY_HARDWARE)


def _batch_from_events(event_sets, num_detectors):
    dets = np.zeros((len(event_sets), num_detectors), dtype=bool)
    for row, events in enumerate(event_sets):
        for e in events:
            dets[row, e] = True
    return dets


def _flat_loop(flat, dets):
    out = np.zeros(dets.shape[0], dtype=np.int64)
    for i, row in enumerate(dets):
        events = np.flatnonzero(row).tolist()
        out[i] = flat.decode(events) if events else 0
    return out


# Mixed batches: zero, weight-1, weight-2 and heavy rows side by side.
_batches = st.lists(
    st.sets(st.integers(0, 11), min_size=0, max_size=7),
    min_size=1,
    max_size=14,
)


class TestBatchedEqualsFlat:
    """Element-wise ``kernel.decode_batch == per-shot flat decode``."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(event_sets=_batches)
    @example(event_sets=[set()])  # all-trivial batch
    @example(event_sets=[set(), {3}, {7}, {11}])  # weight-1 rows
    @example(event_sets=[{0, 1}, {2, 9}, {4, 5}])  # weight-2 rows
    @example(event_sets=[set(), {5}, {1, 2}, {0, 3, 6, 9}])  # all tiers mixed
    def test_baseline_embedding(self, baseline_setup, event_sets):
        _, _, flat = baseline_setup
        kernel = BatchedUnionFind(flat)
        dets = _batch_from_events(event_sets, flat.graph.num_detectors)
        np.testing.assert_array_equal(
            kernel.decode_batch(dets), _flat_loop(flat, dets)
        )

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(event_sets=_batches)
    @example(event_sets=[set(), {5}, {1, 2}, {0, 3, 6, 9}])
    def test_compact_embedding(self, compact_setup, event_sets):
        _, _, flat = compact_setup
        kernel = BatchedUnionFind(flat)
        n = flat.graph.num_detectors
        dets = _batch_from_events(
            [{e % n for e in events} for events in event_sets], n
        )
        np.testing.assert_array_equal(
            kernel.decode_batch(dets), _flat_loop(flat, dets)
        )

    @pytest.mark.parametrize("d,p,shots", [(3, 5e-3, 512), (5, 5e-3, 256), (7, 5e-3, 128)])
    def test_sampled_syndromes_at_threshold(self, d, p, shots):
        memory, dem, flat = _setup(baseline_memory_circuit, d=d, p=p)
        sampler = make_sampler(memory.circuit, "packed")
        dets = sampler.sample(shots, np.random.SeedSequence(7)).detectors[
            :, dem.basis_detectors(memory.basis)
        ]
        kernel = BatchedUnionFind(flat)
        np.testing.assert_array_equal(
            kernel.decode_batch(np.ascontiguousarray(dets, dtype=bool)),
            _flat_loop(flat, dets),
        )

    def test_lockstep_slicing_never_changes_results(self, baseline_setup):
        _, _, flat = baseline_setup
        rng = np.random.default_rng(5)
        dets = rng.random((40, flat.graph.num_detectors)) < 0.2
        reference = BatchedUnionFind(flat, lockstep=DEFAULT_LOCKSTEP).decode_batch(dets)
        for lockstep in (1, 3, 7, 40):
            np.testing.assert_array_equal(
                BatchedUnionFind(flat, lockstep=lockstep).decode_batch(dets),
                reference,
            )

    def test_shares_the_flat_decoder_arrays(self, baseline_setup):
        # Bit-identity starts with byte-identity of the graph lowering:
        # the kernel must decode over the *same* arrays, not copies.
        _, _, flat = baseline_setup
        kernel = BatchedUnionFind(flat)
        assert kernel.edge_u is flat.edge_u
        assert kernel.edge_v is flat.edge_v
        assert kernel.lengths is flat.lengths

    def test_undecodable_shot_raises_like_flat(self):
        # An isolated detector can never reach the boundary: the flat
        # decoder raises, so the kernel must too (same message contract).
        graph = MatchingGraph(2, "Z")
        graph.add_edge(0, graph.boundary, 0.01, 1)
        flat = UnionFindDecoder(graph)
        kernel = BatchedUnionFind(flat)
        dets = np.array([[True, False], [False, True]])
        with pytest.raises(RuntimeError, match="failed to terminate"):
            kernel.decode_batch(dets)

    def test_rejects_bad_shapes_and_lockstep(self, baseline_setup):
        _, _, flat = baseline_setup
        kernel = BatchedUnionFind(flat)
        with pytest.raises(ValueError):
            kernel.decode_batch(np.zeros(flat.graph.num_detectors, dtype=bool))
        with pytest.raises(ValueError):
            kernel.decode_batch(np.zeros((4, flat.graph.num_detectors + 1), dtype=bool))
        with pytest.raises(ValueError):
            BatchedUnionFind(flat, lockstep=0)


def _hand_cases():
    tri = MatchingGraph(3, "Z")
    tri.add_edge(0, 1, 0.01, 0)
    tri.add_edge(1, 2, 0.01, 0)
    tri.add_edge(0, 2, 0.01, 0)
    tri.add_edge(2, tri.boundary, 0.01, 1)
    line = line_graph()
    return {
        "line-0-2": (line, [0, 2]),
        "line-1": (line, [1]),
        "tri-0-1": (tri, [0, 1]),  # shared edge (0,1) grows from both sides
        "tri-0-1-2": (tri, [0, 1, 2]),
    }


class TestGrowthSupportPinning:
    """The kernel's support is the flat decoder's and the reference's."""

    @pytest.mark.parametrize(
        "case,resolution",
        [(name, res) for res in (16, 1) for name in _hand_cases()]
        + [("random-32", 16)],
    )
    def test_support_equals_references(
        self, baseline_setup, case, resolution
    ):
        if case == "random-32":
            _, _, flat = baseline_setup
            rng = np.random.default_rng(11)
            dets = rng.random((32, flat.graph.num_detectors)) < 0.25
        else:
            graph, events = _hand_cases()[case]
            flat = UnionFindDecoder(graph, resolution=resolution)
            dets = _batch_from_events([set(events)], graph.num_detectors)
        support = BatchedUnionFind(flat).grow_batch(dets)
        for row, kernel_support in zip(dets, support):
            events = np.flatnonzero(row).tolist()
            _, ref_support = reference_unit_step_growth(
                flat.graph, flat._len, events
            )
            got = np.flatnonzero(kernel_support).tolist()
            assert got == ref_support, events
            assert got == sorted(flat._grow(events)), events


class TestDurableDegradation:
    """A batched-tier failure must degrade to ``decode_block_full``."""

    def test_batched_tier_raise_falls_back_to_full_block_decode(self):
        memory = baseline_memory_circuit(
            3, ErrorModel(hardware=BASELINE_HARDWARE, p=5e-3)
        )
        setup = prepare_decoding(memory)
        sampler = make_sampler(memory.circuit, "packed")
        index, shots, seed = block_seeds(512, 11)[0]

        errors, stats = run_block(
            sampler, setup.decoder, setup.basis_detectors,
            setup.basis_observables, [(index, shots, seed)],
        )
        assert stats.get("batched", 0) > 0
        assert "fallback" not in stats

        broken = prepare_decoding(memory).decoder

        def boom(dets):
            raise RuntimeError("batched kernel corrupted")

        broken._decode_heavy_batch = boom
        errors_fb, stats_fb = run_block(
            sampler, broken, setup.basis_detectors,
            setup.basis_observables, [(index, shots, seed)],
        )
        # Same counts (the tiers are provably equivalent), flagged as
        # degraded, and everything heavy lands in ``full``.
        assert errors_fb == errors
        assert stats_fb["fallback"] == 1
        assert stats_fb["batched"] == 0
        assert stats_fb["full"] > 0
        assert stats_fb["unique"] == stats["unique"]
