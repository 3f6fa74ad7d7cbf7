"""Layer spans for the traced run, recorded from outside ``src/``.

:func:`install` wraps public functions and class methods of ``repro`` at
the names their callers look up (a module attribute such as
``repro.vlq.campaign.lower_timeline``, or a method on its class), so the
program under test is unchanged.  Each wrapper records one span in the
``repro.obs`` JSONL schema (``id``, ``parent``, ``name``, ``ts_ns``,
``dur_ns``, ``pid``, ``args``), which means ``repro trace FILE --chrome``
renders the merged trace with no new tooling.

Forked workers (the engine's ``multiprocessing.Pool`` and the durable
``WorkerFleet``) inherit the wrappers.  Every process appends its spans
to its own ``spans-<pid>.jsonl`` with one unbuffered ``os.write`` per
span, so nothing is lost when a pool terminates its workers.  A process
that finds its pid changed starts an empty span stack, which makes worker
spans roots of their own pid rather than children of the coordinator
span that forked them.  Span ids carry the pid in their high bits, so
ids stay unique once the per-process files are merged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from pathlib import Path
from time import perf_counter_ns


class SpanRecorder:
    """Per-process span sink writing ``spans-<pid>.jsonl`` into a directory."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self._pid = -1
        self._fd = -1
        self._next = 0
        self._stack: list[int] = []

    def _adopt_process(self) -> None:
        pid = os.getpid()
        if pid == self._pid:
            return
        # First span of this process, or of a child forked from it: the
        # inherited stack and file descriptor belong to the parent.
        self._pid = pid
        self._next = 0
        self._stack = []
        self._fd = os.open(
            self.directory / f"spans-{pid}.jsonl",
            os.O_WRONLY | os.O_CREAT | os.O_APPEND,
            0o644,
        )

    def begin(self) -> tuple[int, int | None, int]:
        self._adopt_process()
        span_id = (self._pid << 32) | self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, perf_counter_ns()

    def end(self, token: tuple[int, int | None, int], name: str, args: dict) -> None:
        span_id, parent, start = token
        dur = perf_counter_ns() - start
        if self._stack and self._stack[-1] == span_id:
            self._stack.pop()
        record = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "ts_ns": start,
            "dur_ns": dur,
            "pid": self._pid,
        }
        if args:
            record["args"] = args
        os.write(self._fd, (json.dumps(record, sort_keys=True) + "\n").encode())


def _spanned(recorder: SpanRecorder, fn, name: str, describe=None):
    """``fn`` wrapped in a span; ``describe(args, kwargs)`` -> span args.

    ``describe`` runs after the call, so it sees the state the call left.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = recorder.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(token, name, describe(args, kwargs) if describe else {})

    return wrapper


# --- span arguments the layer metrics read ------------------------------------


def _dem_faults(args, kwargs) -> dict:
    return {"faults": len(args[0].faults)}


def _kernel_rows(args, kwargs) -> dict:
    return {"rows": int(args[1].shape[0])}


def _engine_pool(args, kwargs) -> dict:
    """Pool size ``count_logical_errors`` fanned out to (0 when inline)."""
    from repro.sim import engine

    bound = inspect.signature(engine.count_logical_errors).bind(*args, **kwargs)
    bound.apply_defaults()
    call = bound.arguments
    per_chunk = max(1, call["chunk_size"] // engine.SHOT_BLOCK)
    chunks = -(-len(engine.shot_blocks(call["shots"])) // per_chunk)
    workers = call["workers"]
    return {"pool": min(workers, chunks) if workers > 1 and chunks > 1 else 0}


def _cache_counters(args, kwargs) -> dict:
    """The cache's cumulative counters; the last span per cache has totals."""
    cache = args[0]
    return {"cache": id(cache), "hits": cache.hits, "misses": cache.misses}


def _fleet_op(op: str):
    def describe(args, kwargs) -> dict:
        return {"op": op}

    return describe


#: (span name, module, attribute path, span-args function) — every layer
#: the per-layer metrics read.  Functions are patched on the module whose
#: namespace their caller resolves them in.
TARGETS = (
    ("threshold.build", "repro.threshold", "build_memory_circuit", None),
    ("core.compiler.compile", "repro.vlq.campaign", "compile_program", None),
    ("vlq.lowering.lower", "repro.vlq.campaign", "lower_timeline", None),
    ("vlq.surgery.joint_lower", "repro.vlq.campaign", "lower_joint_timelines",
     None),
    ("analyze.symbolic.certify", "repro.analyze.symbolic",
     "certify_deterministic", None),
    ("analyze.symbolic.certify", "repro.vlq.campaign",
     "certify_joint_deterministic", None),
    ("analyze.symbolic.certify", "repro.vlq.campaign", "certify_joint_oracle",
     None),
    ("decoders.cache.get", "repro.decoders.cache", "BuildCache.get",
     _cache_counters),
    ("dem.model.extract", "repro.dem.model", "DetectorErrorModel.__init__",
     _dem_faults),
    ("decoders.graph.build", "repro.decoders.graph", "MatchingGraph.from_dem",
     None),
    ("decoders.decoder_build", "repro.sim.experiment", "make_decoder", None),
    ("sim.compiled.compile", "repro.sim.compiled", "CompiledCircuit.__init__",
     None),
    ("sim.compiled.sample", "repro.sim.compiled", "CompiledCircuit.sample",
     None),
    ("sim.engine.count", "repro.sim.experiment", "count_logical_errors",
     _engine_pool),
    ("sim.engine.count", "repro.vlq.campaign", "count_logical_errors",
     _engine_pool),
    ("decoders.batch.decode", "repro.decoders.batch",
     "SyndromeDecoder.decode_batch", None),
    ("decoders.batched_uf.kernel", "repro.decoders.batched_uf",
     "BatchedUnionFind.decode_batch", _kernel_rows),
    ("decoders.batched_uf.grow", "repro.decoders.batched_uf",
     "BatchedUnionFind.grow_batch", None),
    ("durable.runner.wait", "repro.durable.runner", "run_supervised", None),
    ("durable.runner.block", "repro.durable.supervise", "run_block", None),
    ("durable.supervise.fleet", "repro.durable.supervise",
     "WorkerFleet.__init__", _fleet_op("start")),
    ("durable.supervise.fleet", "repro.durable.supervise",
     "WorkerFleet.configure", _fleet_op("configure")),
    ("durable.supervise.fleet", "repro.durable.supervise", "WorkerFleet.close",
     _fleet_op("close")),
    ("durable.ledger.append", "repro.durable.ledger", "RunLedger.record_block",
     None),
    ("durable.ledger.append", "repro.durable.ledger", "RunLedger.record_unit",
     None),
    ("durable.ledger.append", "repro.durable.ledger", "RunLedger.record_event",
     None),
)

#: Modules the targets live in; the campaign child imports these in both
#: modes so traced and untraced runs start their timed region alike.
TARGET_MODULES = tuple(sorted({module for _, module, _, _ in TARGETS}))


def install(directory: str | os.PathLike) -> SpanRecorder:
    """Wrap every :data:`TARGETS` entry; spans go to ``directory``."""
    recorder = SpanRecorder(directory)
    for name, module_name, path, describe in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(_spanned(recorder, raw.__func__, name, describe))
        else:
            wrapped = _spanned(recorder, raw, name, describe)
        setattr(owner, attr, wrapped)
    return recorder


# --- reading a trace back ------------------------------------------------------


def merge_span_files(directory: str | os.PathLike, out_path) -> list[dict]:
    """Merge every ``spans-<pid>.jsonl`` into one start-ordered JSONL file."""
    from repro.obs import load_jsonl

    spans: list[dict] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        spans.extend(load_jsonl(path))
        path.unlink()
    spans.sort(key=lambda record: record["ts_ns"])
    with open(out_path, "w") as fh:
        for record in spans:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return spans


def _outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans called ``name`` that are not nested in another ``name`` span."""
    by_id = {record["id"]: record for record in spans}
    kept = []
    for record in spans:
        if record["name"] != name:
            continue
        parent = by_id.get(record["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            kept.append(record)
    return kept


def _total_s(spans: list[dict], name: str) -> float:
    return sum(record["dur_ns"] for record in _outermost(spans, name)) / 1e9


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[dict], coordinator_pid: int, wall_s: float) -> dict:
    """Per-layer metrics derivable from one traced campaign's spans.

    ``wall_s`` is the coordinator's wall for the campaign (import
    excluded).  Times summed over processes are in seconds; ``*_share``
    metrics divide by ``wall_s``.
    """
    from repro.obs import summarize_spans

    coordinator = [r for r in spans if r["pid"] == coordinator_pid]
    # Self time per layer in the coordinator; together it is the share
    # of the wall the trace accounts for.
    coordinator_self_ns = {
        row["name"]: row["self_ns"] for row in summarize_spans(coordinator)
    }
    workers = [r for r in spans if r["pid"] != coordinator_pid]

    kernel_s = _total_s(spans, "decoders.batched_uf.kernel")
    grow_s = _total_s(spans, "decoders.batched_uf.grow")
    pool_counts = [
        r for r in _outermost(coordinator, "sim.engine.count")
        if r.get("args", {}).get("pool")
    ]
    pool_capacity_ns = sum(r["dur_ns"] * r["args"]["pool"] for r in pool_counts)
    # Busy worker time inside the pool: the roots of every worker process
    # (sample and decode calls) while the plain engine's pool ran.
    pool_windows = [(r["ts_ns"], r["ts_ns"] + r["dur_ns"]) for r in pool_counts]
    pool_busy_ns = sum(
        r["dur_ns"] for r in workers
        if r["parent"] is None
        and any(lo <= r["ts_ns"] <= hi for lo, hi in pool_windows)
    )
    caches: dict[tuple[int, int], tuple[int, int]] = {}
    for r in spans:
        if r["name"] == "decoders.cache.get":
            args = r["args"]
            key = (r["pid"], args["cache"])
            caches[key] = max(caches.get(key, (0, 0)), (args["hits"], args["misses"]))
    cache_hits = sum(hits for hits, _ in caches.values())
    cache_lookups = sum(hits + misses for hits, misses in caches.values())
    fleet = _outermost(spans, "durable.supervise.fleet")

    def share(name: str) -> float:
        return _ratio(_total_s(spans, name), wall_s)

    return {
        "threshold.build_share": share("threshold.build"),
        "vlq.lowering.lower_share": share("vlq.lowering.lower"),
        "vlq.surgery.joint_lower_share": share("vlq.surgery.joint_lower"),
        "analyze.symbolic.certify_share": share("analyze.symbolic.certify"),
        "core.compiler.compile_share": share("core.compiler.compile"),
        "decoders.cache.hit_ratio": _ratio(cache_hits, cache_lookups),
        "dem.model.extract_s": _total_s(spans, "dem.model.extract"),
        "dem.model.faults": sum(
            r["args"]["faults"] for r in _outermost(spans, "dem.model.extract")
        ),
        "decoders.graph.build_s": _total_s(spans, "decoders.graph.build"),
        "decoders.decoder_build_s": _total_s(spans, "decoders.decoder_build"),
        "sim.compiled.compile_s": _total_s(spans, "sim.compiled.compile"),
        "sim.compiled.sample_s": _total_s(spans, "sim.compiled.sample"),
        "decoders.batch.decode_s": _total_s(spans, "decoders.batch.decode"),
        "decoders.batched_uf.grow_s": grow_s,
        "decoders.batched_uf.peel_s": kernel_s - grow_s,
        "decoders.batched_uf.rows": sum(
            r["args"]["rows"]
            for r in _outermost(spans, "decoders.batched_uf.kernel")
        ),
        "sim.engine.wait_share": _ratio(
            sum(r["dur_ns"] for r in pool_counts) / 1e9, wall_s
        ),
        "sim.engine.worker_busy_ratio": _ratio(pool_busy_ns, pool_capacity_ns),
        "durable.supervise.fleet_starts": sum(
            1 for r in fleet if r["args"]["op"] == "start"
        ),
        "durable.supervise.fleet_share": share("durable.supervise.fleet"),
        "durable.runner.wait_share": _ratio(
            coordinator_self_ns.get("durable.runner.wait", 0) / 1e9, wall_s
        ),
        "durable.ledger.append_share": share("durable.ledger.append"),
        "durable.runner.block_share": share("durable.runner.block"),
        "trace.residual_ratio": 1.0
        - _ratio(sum(coordinator_self_ns.values()) / 1e9, wall_s),
    }
