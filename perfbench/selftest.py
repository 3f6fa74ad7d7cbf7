"""The benchmark's own smoke tests.

Run from the repository root (not collected by the tier-1 suite)::

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q

A few-block campaign of every workload runs traced in a fresh
interpreter; the decode tiers must sum to the unique syndromes, every
durable unit must reconcile completed + quarantined == scheduled, and
the trace residual must be computed.  The manifest checks hold
``BENCHMARK.json`` to the generator and the metric-name rules, and the
accounting tests inject faults to show degraded blocks are counted.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, manifest
from perfbench.campaign import _block_accounting

ROOT = manifest.ROOT
#: Shots per smoke campaign: two pool chunks for the pooled memory
#: workload (one chunk would run inline), a block or two elsewhere.
SMOKE_SHOTS = {
    "memory-d7-threshold": 32768,
    "natural-d11-setup": 1024,
    "campaign-correlated-durable": 1024,
}


@pytest.fixture
def work(request) -> Path:
    """A fresh scratch directory inside the checkout's ``.bench_out``."""
    path = ROOT / ".bench_out" / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _env() -> dict:
    paths = [str(ROOT / "src"), str(ROOT)]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def test_manifest_matches_generator():
    assert json.loads(manifest.MANIFEST_PATH.read_text()) == manifest.manifest()


def test_metric_names_and_layer_map():
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for workload in manifest.WORKLOADS.values():
        assert manifest.NAME_RE.match(workload.name)
        assert len(workload.why) <= 200 and "\n" not in workload.why
    e2e = {m.name for m in manifest.END_TO_END}
    names = [m.name for m in manifest.END_TO_END + manifest.PER_LAYER]
    assert len(names) == len(set(names))
    for metric in manifest.END_TO_END + manifest.PER_LAYER:
        assert manifest.NAME_RE.match(metric.name), metric.name
        assert metric.better in ("higher", "lower")
        assert unit_re.match(metric.unit), metric.unit
    for metric in manifest.END_TO_END:
        assert 0 < metric.bound <= 0.25
    setup = next(m for m in manifest.END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in manifest.END_TO_END)
    for metric in manifest.PER_LAYER:
        assert metric.moves in e2e, metric.name
        assert metric.workloads, metric.name
        assert set(metric.workloads) <= set(manifest.WORKLOADS), metric.name


def test_pins_cover_every_workload():
    pinned = manifest.load_pinned()
    assert pinned["reference_seed"] == manifest.REFERENCE_SEED
    for name, workload in manifest.WORKLOADS.items():
        units = pinned["workloads"][name]["units"]
        assert units and all(shots == workload.shots for _, shots in units.values())


def test_count_checks_name_the_unit():
    pinned = manifest.load_pinned()
    name = "memory-d7-threshold"
    (unit, (errors, shots)), = pinned["workloads"][name]["units"].items()
    summary = {
        "workload": name, "mode": "full", "seed": manifest.REFERENCE_SEED,
        "units": {unit: [errors, shots]},
        "decode_stats": {"unique": 3}, "tier_sum": 3,
        "blocks": {"reconciled": True},
    }
    assert checks.check_summary(summary, pinned) == []
    summary["units"][unit] = [errors + 1, shots]
    (problem,) = checks.check_summary(summary, pinned)
    assert problem.startswith(f"unit {unit}:")
    # Off the reference seed one extra error is well inside 5 sigma ...
    summary["seed"] = manifest.REFERENCE_SEED + 1
    assert checks.check_summary(summary, pinned) == []
    # ... and doubling the rate is far outside it.
    summary["units"][unit] = [2 * errors, shots]
    assert checks.check_summary(summary, pinned)
    assert checks.within_sigmas(0, 100, 0, 100)


@pytest.mark.parametrize("workload", sorted(manifest.WORKLOADS))
def test_smoke_traced_campaign(workload, work):
    trace_dir = work / "trace"
    trace_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.campaign", "--workload", workload,
         "--seed", "1", "--shots", str(SMOKE_SHOTS[workload]),
         "--out", str(work), "--trace-dir", str(trace_dir)],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, timeout=170,
        check=True,
    )
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    stats = summary["decode_stats"]
    assert summary["tier_sum"] == stats["unique"]
    assert stats["shots"] == summary["shots"] == (
        len(summary["units"]) * SMOKE_SHOTS[workload]
    )
    assert summary["blocks"]["reconciled"]
    assert summary["blocks"]["degraded"] == 0
    layers = summary["layers"]
    assert math.isfinite(layers["trace.residual_ratio"])
    assert 0.0 <= layers["trace.residual_ratio"] < 1.0
    spans = [json.loads(line) for line in open(trace_dir / "trace.jsonl")]
    assert {"id", "parent", "name", "ts_ns", "dur_ns", "pid"} <= set(spans[0])
    if manifest.WORKLOADS[workload].workers > 1:
        # Spans from the forked workers are in the trace, tagged by pid.
        assert len({s["pid"] for s in spans}) > 1
        assert any(s["pid"] != summary["pid"] and s["name"] == "sim.compiled.sample"
                   for s in spans)


def test_traced_run_reports_every_per_layer_metric():
    """The names ``run.py --trace 1`` assembles are the manifest's."""
    from perfbench import run, tracing

    produced = set(tracing.layer_metrics([], 0, 1.0))
    produced |= set(run._decode_ratios(
        {"unique": 1, "shots": 1, "weight1": 0, "cached": 0, "batched": 1,
         "lru_hits": 0, "lru_misses": 1}))
    produced |= {"import.repro_s", "durable.fallback_blocks", "durable.retries",
                 "durable.quarantined_blocks", "trace.overhead_ratio"}
    assert produced == {m.name for m in manifest.PER_LAYER}


def _durable_memory(work, fault, max_attempts=3) -> dict:
    """A two-block durable d=3 memory run under ``fault``; its accounting."""
    from repro.durable import DurableExecutor, RetryPolicy, RunLedger
    from repro.service import execute_spec, spec_from_payload

    spec = spec_from_payload({"command": "memory", "distance": 3, "p": 5e-3,
                              "shots": 2048, "seed": 1})
    work.mkdir()
    path = work / "ledger.jsonl"
    with RunLedger(path, spec, fault=fault) as ledger:
        executor = DurableExecutor(
            ledger, fault=fault,
            policy=RetryPolicy(max_attempts=max_attempts, retry_base_delay=0.0),
        )
        execute_spec(spec, executor)
    return _block_accounting(path)


def test_fallback_retry_and_quarantine_are_counted(work):
    from repro.durable import FaultPlan

    fallback = _durable_memory(work / "a", FaultPlan(decode_rate=1.0))
    assert fallback["fallback"] == fallback["degraded"] == 2
    retried = _durable_memory(
        work / "b", FaultPlan(exc_rate=1.0, max_faults_per_block=1)
    )
    assert retried["retries"] == retried["degraded"] == 2
    assert retried["quarantined"] == 0
    quarantined = _durable_memory(
        work / "c", FaultPlan(exc_rate=1.0, max_faults_per_block=9),
        max_attempts=2,
    )
    assert quarantined["quarantined"] == quarantined["degraded"] == 2
    assert quarantined["reconciled"] and quarantined["attempted"] == 2


def test_refuses_a_tree_without_the_program(work):
    shutil.copy(manifest.MANIFEST_PATH, work / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "memory-d7-threshold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work, env={"PATH": os.environ.get("PATH", "")},
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
