"""One cold campaign of a benchmark workload, in this fresh interpreter.

Usage (from the repository root, with ``src`` and the root on
``PYTHONPATH``; ``perfbench/run.py`` does this)::

    python3 -m perfbench.campaign --workload NAME --seed N --mode full \\
        --out DIR [--trace-dir DIR]

``--mode full`` runs the workload's campaign at its full shot count and
worker count; ``--mode setup`` runs the same spec at one shot per unit,
inline (one worker).  The campaign goes through
``repro.service.execute_spec``; durable workloads get a fresh ledger in
``--out``.  With ``--trace-dir`` the layer spans of :mod:`perfbench.tracing`
are recorded there (worker processes included) and the per-layer metrics
are added to the output.

Prints one JSON object on the last line of stdout: per-unit counts, the
decode-tier totals, block accounting, wall (import excluded), import
time and peak RSS over this process and its workers.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

from perfbench.manifest import WORKLOADS
from perfbench.tracing import TARGET_MODULES

#: Everything the workloads' code path imports; loaded before the timed
#: region in both modes, and timed as ``import.repro_s``.
IMPORTS = ("repro", "repro.service", "repro.durable") + TARGET_MODULES


def _block_accounting(ledger_path: Path) -> dict:
    """Scheduled, quarantined, retried and fallback blocks, from the ledger."""
    from repro.durable import parse_ledger

    parsed = parse_ledger(ledger_path)
    scheduled = sum(unit["scheduled"] for unit in parsed.units.values())
    quarantined = {
        (name, index)
        for name, unit in parsed.units.items()
        for index in unit["quarantined"]
    }
    retried = {
        (event["unit"], event["block"])
        for event in parsed.events
        if event.get("event") == "retry"
    }
    fallback = {
        (name, index)
        for name, blocks in parsed.blocks.items()
        for index, record in blocks.items()
        if record["stats"].get("fallback")
    }
    reconciled = all(
        len(unit["completed"]) + len(unit["quarantined"]) == unit["scheduled"]
        for unit in parsed.units.values()
    )
    return {
        "attempted": scheduled,
        "degraded": len(quarantined | retried | fallback),
        "quarantined": len(quarantined),
        "retries": sum(1 for e in parsed.events if e.get("event") == "retry"),
        "fallback": len(fallback),
        "reconciled": reconciled,
    }


def run(workload_name: str, seed: int, mode: str, out: Path,
        trace_dir: Path | None = None, shots: int | None = None) -> dict:
    """Run one campaign in this process; returns the JSON-able summary.

    ``shots`` overrides the workload's shot count (the self-test uses a
    few blocks); it is ignored in ``setup`` mode, which is one shot per
    unit by definition.
    """
    workload = WORKLOADS[workload_name]
    t0 = perf_counter()
    for module in IMPORTS:
        importlib.import_module(module)
    import_s = perf_counter() - t0

    from repro.decoders.batch import TIER_NAMES
    from repro.durable import DurableExecutor, RunLedger
    from repro.service import execute_spec, spec_from_payload
    from repro.sim.engine import shot_blocks

    recorder = None
    if trace_dir is not None:
        from perfbench import tracing

        recorder = tracing.install(trace_dir)

    if mode == "setup":
        shots, workers = 1, 1
    else:
        shots, workers = shots or workload.shots, workload.workers
    spec = spec_from_payload(dict(workload.payload, shots=shots, seed=seed))
    executor = ledger = None
    out.mkdir(parents=True, exist_ok=True)
    ledger_path = out / f"ledger-{os.getpid()}.jsonl"
    if workload.durable:
        ledger = RunLedger(ledger_path, spec)
        executor = DurableExecutor(ledger, workers=workers)

    t1 = perf_counter()
    try:
        result = execute_spec(spec, executor, workers=workers)
    finally:
        if ledger is not None:
            ledger.close()
    wall_s = perf_counter() - t1

    if workload.durable:
        blocks = _block_accounting(ledger_path)
        ledger_path.unlink()
    else:
        # The plain engine has no degradation path: a failing block raises.
        scheduled = len(result["units"]) * len(shot_blocks(shots))
        blocks = {"attempted": scheduled, "degraded": 0, "quarantined": 0,
                  "retries": 0, "fallback": 0, "reconciled": True}
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    summary = {
        "workload": workload_name,
        "mode": mode,
        "seed": seed,
        "workers": workers,
        "pid": os.getpid(),
        "import_s": import_s,
        "wall_s": wall_s,
        "shots": sum(unit["shots"] for unit in result["units"]),
        "units": {unit["unit"]: [unit["errors"], unit["shots"]]
                  for unit in result["units"]},
        "decode_stats": result["decode_stats"],
        "tier_sum": sum(result["decode_stats"].get(t, 0) for t in TIER_NAMES),
        "blocks": blocks,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if recorder is not None:
        spans = tracing.merge_span_files(trace_dir, trace_dir / "trace.jsonl")
        summary["layers"] = tracing.layer_metrics(spans, os.getpid(), wall_s)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "setup"), default="full")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--shots", type=int, default=None)
    args = parser.parse_args(argv)
    summary = run(args.workload, args.seed, args.mode, args.out,
                  trace_dir=args.trace_dir, shots=args.shots)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
