"""Workloads, metrics and the layer -> end-to-end map of the benchmark.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-manifest``); the self-test checks the
two agree.  The manifest schema has no room for the layer map, so
:data:`PER_LAYER` here is the record of which end-to-end metric, on which
workload, each per-layer metric is expected to move.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST_PATH = ROOT / "BENCHMARK.json"
PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"

#: Seed whose logical-error counts are pinned bit for bit in ``pinned.json``.
REFERENCE_SEED = 0
#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_REPS = 3
#: Seconds one run measures (``--seconds`` in the driver's invocation).
RUN_SECONDS = 20
#: Metric names may use only these characters.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``repro.service.spec_from_payload`` fields except ``shots``/``seed``
    payload: dict
    shots: int
    workers: int
    #: run through ``DurableExecutor`` with a ledger (else the plain engine)
    durable: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="memory-d7-threshold",
            why="2D baseline memory d=7 at p=5e-3 on the 2-worker pool: nearly "
            "every syndrome is unique and heavy, so batched union-find grow "
            "and peel dominate and setup is ~3% of wall",
            payload={
                "command": "memory",
                "scheme": "baseline",
                "distance": 7,
                "p": 5e-3,
                "basis": "Z",
                "decoder": "unionfind",
                "backend": "packed",
            },
            shots=65536,
            workers=2,
        ),
        Workload(
            name="natural-d11-setup",
            why="natural_interleaved memory d=11 at p=1e-3, one worker: DEM "
            "extraction (faults x detectors) is about half of wall and the "
            "720-detector syndromes are the largest working set",
            payload={
                "command": "memory",
                "scheme": "natural_interleaved",
                "distance": 11,
                "p": 1e-3,
                "basis": "Z",
                "decoder": "unionfind",
                "backend": "packed",
            },
            shots=8192,
            workers=1,
        ),
        Workload(
            name="campaign-correlated-durable",
            why="compare --correlated on the durable fleet path: 48 small "
            "units with per-block ledger appends, lowering and certification "
            "a third of wall, ~25% repeated syndromes",
            payload={
                "command": "compare",
                "program": "pairs",
                "qubits": 4,
                "correlated": True,
                "distances": [3, 5],
                "embeddings": ["compact", "natural"],
                "refresh_policies": ["dram", "none"],
                "decoder": "unionfind",
                "backend": "packed",
            },
            shots=2048,
            workers=2,
            durable=True,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end metrics only: allowed worsening as a share of the median
    bound: float | None = None
    #: per-layer metrics only: the end-to-end metric it should move ...
    moves: str = ""
    #: ... on these workloads (the prediction is "no change" elsewhere)
    workloads: tuple[str, ...] = ()
    note: str = ""


END_TO_END: tuple[Metric, ...] = (
    # shots completed / wall of the full campaign, import excluded (median
    # over the cold campaigns of a run)
    Metric("shots_per_s", "1/s", "higher", bound=0.20),
    # fresh interpreter: import repro + the spec at one shot per unit,
    # inline, cold caches (median of SETUP_REPS)
    Metric("setup_s", "s", "lower", bound=0.25),
    # max over the campaign process and its workers
    Metric("peak_rss_mb", "MB", "lower", bound=0.10),
    # 1 - (blocks quarantined, retried or decoded by the tier-free
    # fallback) / blocks attempted; stated as the healthy share so the
    # metric is never 0 (a degraded block lowers it)
    Metric("healthy_block_ratio", "ratio", "higher", bound=0.01),
)

_ALL = tuple(WORKLOADS)
_MEM = "memory-d7-threshold"
_NAT = "natural-d11-setup"
_CMP = "campaign-correlated-durable"

# Per-layer times a workload always exercises are seconds summed over every
# process (workers included).  Layers that only some workloads run are
# reported as a share of the traced campaign's wall instead, so a workload
# that skips the layer reads a share of 0 rather than a constant 0-second
# time.
PER_LAYER: tuple[Metric, ...] = (
    Metric("import.repro_s", "s", "lower", moves="setup_s", workloads=_ALL),
    Metric("threshold.build_share", "ratio", "lower", moves="setup_s",
           workloads=(_MEM, _NAT), note="predicted not to move"),
    Metric("vlq.lowering.lower_share", "ratio", "lower", moves="setup_s",
           workloads=(_CMP,)),
    Metric("vlq.surgery.joint_lower_share", "ratio", "lower", moves="setup_s",
           workloads=(_CMP,)),
    Metric("analyze.symbolic.certify_share", "ratio", "lower", moves="setup_s",
           workloads=(_CMP,)),
    Metric("core.compiler.compile_share", "ratio", "lower", moves="setup_s",
           workloads=(_CMP,)),
    Metric("decoders.cache.hit_ratio", "ratio", "higher", moves="setup_s",
           workloads=(_CMP,)),
    Metric("dem.model.extract_s", "s", "lower", moves="setup_s",
           workloads=_ALL,
           note="most on natural-d11-setup, some on the campaign, about nil "
           "on memory-d7-threshold"),
    Metric("dem.model.faults", "count", "lower", moves="setup_s",
           workloads=_ALL),
    Metric("decoders.graph.build_s", "s", "lower", moves="setup_s",
           workloads=(_NAT, _CMP)),
    Metric("decoders.decoder_build_s", "s", "lower", moves="setup_s",
           workloads=(_NAT, _CMP)),
    Metric("sim.compiled.compile_s", "s", "lower", moves="setup_s",
           workloads=(_NAT, _CMP)),
    Metric("sim.compiled.sample_s", "s", "lower", moves="shots_per_s",
           workloads=(_MEM, _CMP), note="about 9% of memory-d7-threshold"),
    Metric("decoders.batch.decode_s", "s", "lower", moves="shots_per_s",
           workloads=(_CMP,)),
    Metric("decoders.batch.unique_ratio", "ratio", "lower",
           moves="shots_per_s", workloads=(_CMP,),
           note="tier changes predicted not to move the memory workloads"),
    Metric("decoders.batch.tier_weight1_ratio", "ratio", "higher",
           moves="shots_per_s", workloads=(_CMP,)),
    Metric("decoders.batch.tier_cached_ratio", "ratio", "higher",
           moves="shots_per_s", workloads=(_CMP,)),
    Metric("decoders.batch.tier_batched_ratio", "ratio", "lower",
           moves="shots_per_s", workloads=(_CMP,)),
    Metric("decoders.batch.lru_hit_ratio", "ratio", "higher",
           moves="shots_per_s", workloads=(_CMP,)),
    Metric("decoders.batched_uf.grow_s", "s", "lower", moves="shots_per_s",
           workloads=(_MEM, _NAT),
           note="dominant on memory-d7-threshold, large on natural-d11-setup"),
    Metric("decoders.batched_uf.peel_s", "s", "lower", moves="shots_per_s",
           workloads=(_MEM, _NAT),
           note="kernel decode_batch minus grow_batch"),
    Metric("decoders.batched_uf.rows", "count", "lower", moves="shots_per_s",
           workloads=(_MEM, _NAT)),
    Metric("sim.engine.wait_share", "ratio", "lower", moves="shots_per_s",
           workloads=(_MEM,)),
    Metric("sim.engine.worker_busy_ratio", "ratio", "higher",
           moves="shots_per_s", workloads=(_MEM,)),
    Metric("durable.supervise.fleet_starts", "count", "lower",
           moves="shots_per_s", workloads=(_CMP,)),
    Metric("durable.supervise.fleet_share", "ratio", "lower",
           moves="shots_per_s", workloads=(_CMP,),
           note="WorkerFleet init + configure + close"),
    Metric("durable.runner.wait_share", "ratio", "lower", moves="shots_per_s",
           workloads=(_CMP,)),
    Metric("durable.ledger.append_share", "ratio", "lower",
           moves="shots_per_s", workloads=(_CMP,)),
    Metric("durable.runner.block_share", "ratio", "lower",
           moves="shots_per_s", workloads=(_CMP,),
           note="worker-side run_block time summed over workers"),
    Metric("durable.fallback_blocks", "count", "lower",
           moves="healthy_block_ratio", workloads=(_CMP,)),
    Metric("durable.retries", "count", "lower", moves="healthy_block_ratio",
           workloads=(_CMP,)),
    Metric("durable.quarantined_blocks", "count", "lower",
           moves="healthy_block_ratio", workloads=(_CMP,)),
    Metric("trace.residual_ratio", "ratio", "lower", moves="shots_per_s",
           workloads=_ALL,
           note="1 - coordinator span self-time / wall; target <= 0.05"),
    Metric("trace.overhead_ratio", "ratio", "lower", moves="shots_per_s",
           workloads=_ALL, note="traced wall / untraced wall"),
)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document, in the driver's exact schema."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def write_manifest(path: Path = MANIFEST_PATH) -> None:
    path.write_text(json.dumps(manifest(), indent=2) + "\n")


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())
