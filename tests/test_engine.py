"""Tests for the batched, sharded Monte-Carlo engine and decode_batch.

The engine's contract: for a fixed seed, the logical-error count is a pure
function of (circuit, seed, shots) — bit-identical for any ``workers`` or
``chunk_size`` — and decode work scales with *unique* syndromes, not shots
(the regression the old unbounded per-shot dict cache guarded poorly).
"""

import os
import signal

import numpy as np
import pytest

from repro.decoders import MatchingGraph, UnionFindDecoder, make_decoder
from repro.dem import DetectorErrorModel
from repro.noise import BASELINE_HARDWARE, ErrorModel
from repro.sim import SHOT_BLOCK, run_memory_experiment, shot_blocks
from repro.sim.frame import sample_detection_chunks, sample_detection_data
from repro.surface_code import baseline_memory_circuit


def _memory(p=5e-3, d=3):
    return baseline_memory_circuit(d, ErrorModel(hardware=BASELINE_HARDWARE, p=p))


class TestShotBlocks:
    def test_partition_sums_to_shots(self):
        for shots in (1, SHOT_BLOCK - 1, SHOT_BLOCK, SHOT_BLOCK + 1, 5000):
            sizes = shot_blocks(shots)
            assert sum(sizes) == shots
            assert all(s == SHOT_BLOCK for s in sizes[:-1])
            assert 0 < sizes[-1] <= SHOT_BLOCK

    def test_partition_depends_only_on_shots(self):
        assert shot_blocks(4000) == shot_blocks(4000)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            shot_blocks(0)


class TestDeterminism:
    """Same seed ⇒ identical result for any workers / chunk_size.

    Holds per backend: each of ``packed``/``reference`` defines its own
    canonical random stream, and within a stream the count is a pure
    function of (circuit, seed, shots).
    """

    # 2100 shots spans two full blocks plus a remainder block.
    SHOTS = 2100

    @pytest.mark.parametrize("backend", ["packed", "reference"])
    @pytest.mark.parametrize("decoder", ["unionfind", "mwpm"])
    def test_workers_and_chunks_do_not_change_counts(self, decoder, backend):
        memory = _memory()
        reference = run_memory_experiment(
            memory, shots=self.SHOTS, decoder=decoder, seed=11, backend=backend
        )
        for workers, chunk_size in [(1, 1024), (1, 1500), (4, 1024), (4, 4096)]:
            result = run_memory_experiment(
                memory,
                shots=self.SHOTS,
                decoder=decoder,
                seed=11,
                workers=workers,
                chunk_size=chunk_size,
                backend=backend,
            )
            assert result == reference, (workers, chunk_size, backend)

    @pytest.mark.parametrize("backend", ["packed", "reference"])
    def test_different_seeds_differ(self, backend):
        memory = _memory()
        a = run_memory_experiment(memory, shots=self.SHOTS, seed=1, backend=backend)
        b = run_memory_experiment(memory, shots=self.SHOTS, seed=2, backend=backend)
        assert a.logical_errors != b.logical_errors

    def test_backends_agree_statistically(self):
        memory = _memory()
        packed = run_memory_experiment(memory, shots=self.SHOTS, seed=3)
        reference = run_memory_experiment(
            memory, shots=self.SHOTS, seed=3, backend="reference"
        )
        assert abs(packed.logical_errors - reference.logical_errors) <= max(
            10, 0.5 * reference.logical_errors
        )

    def test_invalid_engine_parameters(self):
        memory = _memory()
        with pytest.raises(ValueError):
            run_memory_experiment(memory, shots=100, workers=0)
        with pytest.raises(ValueError):
            run_memory_experiment(memory, shots=100, chunk_size=0)
        with pytest.raises(ValueError):
            run_memory_experiment(memory, shots=100, backend="simd")

    def test_results_keep_their_own_decode_stats(self):
        """Each result carries its own run's stats, never a shared dict."""
        memory = _memory()
        first = run_memory_experiment(memory, shots=200, seed=0)
        second = run_memory_experiment(memory, shots=300, seed=1)
        assert first.decode_stats["shots"] == 200
        assert second.decode_stats["shots"] == 300
        assert first.decode_stats is not second.decode_stats


class TestPackObservables:
    def test_packs_low_bits(self):
        from repro.sim.engine import _pack_observables

        observables = np.array([[True, False], [False, True], [True, True]])
        np.testing.assert_array_equal(
            _pack_observables(observables, [0, 1]), [1, 2, 3]
        )

    def test_rejects_more_than_63_observables(self):
        from repro.sim.engine import _pack_observables

        observables = np.zeros((4, 64), dtype=bool)
        with pytest.raises(ValueError, match="63 observables"):
            _pack_observables(observables, list(range(64)))

    def test_count_logical_errors_rejects_wide_basis_up_front(self):
        from repro.sim.engine import count_logical_errors

        memory = _memory()
        with pytest.raises(ValueError, match="63 observables"):
            count_logical_errors(
                memory.circuit, None, [0], list(range(64)), shots=10
            )


class TestSampleDetectionChunks:
    def test_blocks_match_direct_sampling(self):
        memory = _memory()
        seeds = np.random.SeedSequence(3).spawn(2)
        blocks = [(100, seeds[0]), (50, seeds[1])]
        chunks = list(sample_detection_chunks(memory.circuit, blocks))
        assert [c.shots for c in chunks] == [100, 50]
        direct = sample_detection_data(
            memory.circuit, 100, np.random.default_rng(seeds[0])
        )
        assert np.array_equal(chunks[0].detectors, direct.detectors)
        assert np.array_equal(chunks[0].observables, direct.observables)


class TestDecodeBatch:
    def _decoder(self):
        memory = _memory()
        dem = DetectorErrorModel(memory.circuit)
        graph = MatchingGraph.from_dem(dem, memory.basis)
        return make_decoder("unionfind", graph), dem, memory

    def test_matches_per_shot_decode(self):
        decoder, dem, memory = self._decoder()
        data = sample_detection_data(memory.circuit, 256, 0)
        dets = data.detectors[:, dem.basis_detectors(memory.basis)]
        batched = decoder.decode_batch(dets)
        for shot in range(dets.shape[0]):
            events = np.flatnonzero(dets[shot]).tolist()
            assert batched[shot] == decoder.decode(events)

    def test_decodes_each_unique_syndrome_once(self):
        decoder, dem, memory = self._decoder()
        data = sample_detection_data(memory.circuit, 64, 0)
        dets = data.detectors[:, dem.basis_detectors(memory.basis)]
        # Tile the batch: 4x the shots, same unique syndromes.
        tiled = np.vstack([dets] * 4)
        unique_heavy = len(
            {row.tobytes() for row in dets if row.sum() > 1}
        )
        w1_detectors = len(
            {int(np.argmax(row)) for row in dets if row.sum() == 1}
        )
        calls = []
        inner = decoder.decode
        decoder.decode = lambda events: calls.append(1) or inner(events)
        decoder.decode_batch(tiled)
        # First call: weight-1 table entries are filled on demand (one
        # decode per observed single-event detector; union-find has no
        # analytic override); each unique weight>=2 syndrome goes through
        # the lockstep kernel exactly once (the batched tier), never the
        # per-shot decode.
        assert len(calls) == w1_detectors
        stats = decoder.last_batch_stats
        assert stats["batched"] == unique_heavy
        assert stats["full"] == 0
        # Second call: tables and the cross-batch LRU serve everything.
        calls.clear()
        repeat = decoder.decode_batch(tiled)
        assert len(calls) == 0
        stats = decoder.last_batch_stats
        assert stats["batched"] == 0
        assert stats["full"] == 0
        assert stats["cached"] == unique_heavy
        np.testing.assert_array_equal(repeat, decoder.decode_batch(tiled))

    def test_tier_accounting_sums_to_unique(self):
        decoder, dem, memory = self._decoder()
        data = sample_detection_data(memory.circuit, 512, 0)
        dets = data.detectors[:, dem.basis_detectors(memory.basis)]
        decoder.decode_batch(dets)
        stats = decoder.last_batch_stats
        from repro.decoders import TIER_NAMES

        assert sum(stats[t] for t in TIER_NAMES) == stats["unique"]
        assert stats["shots"] == dets.shape[0]
        unique = len({row.tobytes() for row in dets})
        assert stats["unique"] == unique

    def test_lru_stays_bounded_across_batches(self):
        decoder, dem, memory = self._decoder()
        decoder.lru_capacity = 16
        for seed in range(6):
            data = sample_detection_data(memory.circuit, 128, seed)
            decoder.decode_batch(dets := data.detectors[:, dem.basis_detectors(memory.basis)])
            assert len(decoder._lru) <= 16
        # Capacity zero disables caching entirely.
        decoder._lru.clear()
        decoder.lru_capacity = 0
        decoder.decode_batch(dets)
        assert len(decoder._lru) == 0

    def test_zero_syndromes_skip_the_decoder(self):
        decoder, _, _ = self._decoder()
        decoder.decode = None  # any call would raise
        out = decoder.decode_batch(np.zeros((5, decoder.graph.num_detectors), bool))
        assert np.array_equal(out, np.zeros(5, dtype=np.int64))

    def test_rejects_non_2d_input(self):
        decoder, _, _ = self._decoder()
        with pytest.raises(ValueError):
            decoder.decode_batch(np.zeros(7, dtype=bool))

    def test_empty_batch(self):
        decoder, _, _ = self._decoder()
        out = decoder.decode_batch(np.zeros((0, decoder.graph.num_detectors), bool))
        assert out.shape == (0,)


class TestBoundedDecodeWork:
    def test_decode_calls_scale_with_unique_syndromes_not_shots(self, monkeypatch):
        """Regression for the seed's unbounded per-shot cache.

        At low p most shots repeat a handful of syndromes; total decode
        invocations (the cache-miss analogue, and the working-set bound)
        must stay far below the shot count even across many chunks.
        """
        memory = _memory(p=3e-4)
        shots = 8192
        calls = []
        inner = UnionFindDecoder.decode
        monkeypatch.setattr(
            UnionFindDecoder,
            "decode",
            lambda self, events: calls.append(1) or inner(self, events),
        )
        run_memory_experiment(memory, shots=shots, seed=0, chunk_size=1024)
        assert 0 < len(calls) < shots // 4


def _tiers(trivial, weight1, batched, unique, shots):
    """A full decode_stats dict of a run whose weight2/cached/full are 0,
    so every LRU lookup misses and becomes a batched decode."""
    return {
        "trivial": trivial, "weight1": weight1, "weight2": 0, "cached": 0,
        "batched": batched, "full": 0, "unique": unique, "shots": shots,
        "lru_hits": 0, "lru_misses": batched,
    }


class TestTierStatsPins:
    """Exact decode-tier stats at seed 0, plain engine and durable executor.

    Counts alone are pinned elsewhere; these pin every tier value, so a
    refactor of how stats travel from blocks to results cannot move one.
    The plain memory run decodes its 2048 shots as one batch, the durable
    one as two independent blocks, hence the different ``unique``.
    """

    MEMORY = {
        "plain": _tiers(trivial=1, weight1=16, batched=358, unique=375,
                        shots=2048),
        "durable": _tiers(trivial=2, weight1=32, batched=420, unique=454,
                          shots=2048),
    }
    #: 8 qubit + 4 surgery-pair units of one block each, so both paths agree
    COMPARE = _tiers(trivial=12, weight1=376, batched=7052, unique=7440,
                     shots=12288)

    @pytest.fixture(params=["plain", "durable"])
    def path(self, request, tmp_path):
        """``(name, executor)``: no executor, or a durable one on a fresh
        ledger in ``tmp_path``."""
        if request.param == "plain":
            yield "plain", None
            return
        from repro.durable import DurableExecutor, RunLedger

        ledger = RunLedger(tmp_path / "ledger.jsonl", {"pins": 1})
        yield "durable", DurableExecutor(ledger)
        ledger.close()

    def test_memory_experiment(self, path):
        name, executor = path
        result = run_memory_experiment(
            _memory(), shots=2048, seed=0, executor=executor
        )
        assert result.decode_stats == self.MEMORY[name]

    def test_chunked_memory_keeps_the_lru_across_chunks(self):
        # Four one-block chunks inline: syndromes repeated from an earlier
        # chunk are served by the decoder's LRU, which durable blocks clear.
        result = run_memory_experiment(
            _memory(), shots=4096, seed=0, chunk_size=1024
        )
        assert result.logical_errors == 173
        assert result.decode_stats == {
            "trivial": 4, "weight1": 64, "weight2": 0, "cached": 258,
            "batched": 549, "full": 0, "unique": 875, "shots": 4096,
            "lru_hits": 258, "lru_misses": 549,
        }

    def test_chunked_memory_on_two_workers(self):
        # Each worker has its own LRU, so the cached/batched split depends
        # on scheduling; the LRU-independent totals do not.
        result = run_memory_experiment(
            _memory(), shots=4096, seed=0, chunk_size=1024, workers=2
        )
        stats = result.decode_stats
        assert result.logical_errors == 173
        assert stats["unique"] == 875
        assert stats["cached"] + stats["batched"] + stats["full"] == 807

    def test_correlated_comparison(self, path):
        from repro.core import LogicalProgram
        from repro.vlq import compare_architectures

        _, executor = path
        comparison = compare_architectures(
            LogicalProgram.bell_pairs(2), distances=(3,), shots=1024, seed=0,
            policy="surgery_only", correlated=True, executor=executor,
        )
        assert comparison.decode_totals() == self.COMPARE


class _DiesInWorker:
    """Sampler that kills the worker process sampling block ``block``.

    Module-level so the worker fleet can pickle it.  In the process that
    built it (an inline run) it samples normally.
    """

    def __init__(self, inner, block: int):
        self.inner = inner
        self.block = block
        self.owner = os.getpid()

    def sample(self, shots, seed):
        if seed.spawn_key == (self.block,) and os.getpid() != self.owner:
            os._exit(1)
        return self.inner.sample(shots, seed)


class TestDeadWorker:
    """A worker dying mid-run fails the call instead of hanging it."""

    def test_dead_worker_raises_naming_its_block(self):
        from repro.sim.engine import (
            BlockExecutionError,
            count_logical_errors,
            make_sampler,
        )
        from repro.sim.experiment import prepare_decoding

        memory = _memory()
        setup = prepare_decoding(memory)
        sampler = _DiesInWorker(make_sampler(memory.circuit, "packed"), block=2)

        def hung(signum, frame):
            raise TimeoutError("count_logical_errors hung on a dead worker")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(BlockExecutionError) as excinfo:
                count_logical_errors(
                    memory.circuit, setup.decoder, setup.basis_detectors,
                    setup.basis_observables, shots=4096, seed=0, workers=2,
                    chunk_size=1024, sampler=sampler,
                )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        err = excinfo.value
        assert err.block == 2
        assert "block 2" in str(err)
        assert "spawn_key=(2,)" in str(err)
        assert "died" in str(err)
