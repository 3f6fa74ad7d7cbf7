"""The campaign benchmark command.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measurement is one cold campaign in a fresh interpreter
(``perfbench/campaign.py``), one at a time (a closed loop with a single
client).  With ``--trace 0`` a run times ``SETUP_REPS`` set-up
interpreters, then runs full campaigns back to back for about ``S``
seconds, and prints every end-to-end metric.  With ``--trace 1`` it runs
untraced/traced campaign pairs for about ``S`` seconds and prints every
per-layer metric; the traced campaign's spans are written to
``.bench_out/<workload>/trace/trace.jsonl`` (render with
``repro trace FILE --chrome OUT.json``).

Every campaign's counts are checked (``perfbench/checks.py``); a problem
names its unit, and the run exits non-zero.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the machine fingerprint and the per-campaign details.

Maintenance modes: ``--write-manifest`` regenerates ``BENCHMARK.json``
and ``--write-pins`` re-pins the reference-seed counts.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median, median_low
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, manifest  # noqa: E402

#: Wall budget of one invocation; the driver allows 180 s.
DEADLINE_S = 170.0
OUT = ROOT / ".bench_out"


class BenchmarkError(RuntimeError):
    """A campaign could not be run (as opposed to running incorrectly)."""


def fingerprint(workers: int) -> dict:
    """The machine a result was measured on."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "workers": workers,
        "workers_exceed_nproc": workers > nproc,
    }


class Runner:
    """Starts campaign interpreters for one workload within the deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.out = OUT / workload
        self.started = perf_counter()
        paths = [str(ROOT / "src"), str(ROOT)]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def remaining(self) -> float:
        return DEADLINE_S - (perf_counter() - self.started)

    def campaign(self, mode: str, trace_dir: Path | None = None) -> tuple[dict, float]:
        """One campaign interpreter; returns its summary and its wall."""
        cmd = [
            sys.executable, "-m", "perfbench.campaign",
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--out", str(self.out),
        ]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        t0 = perf_counter()
        # A session of its own, so a timeout can stop the pool workers too.
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchmarkError(f"{mode} campaign exceeded the deadline")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stray workers, if any
            except ProcessLookupError:
                pass
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise BenchmarkError(
                f"{mode} campaign exited with code {proc.returncode}"
            )
        return json.loads(stdout.strip().splitlines()[-1]), wall

    def keep_going(self, durations: list[float], seconds: float) -> bool:
        """Start another campaign while less than ``seconds`` were measured."""
        return sum(durations) < seconds and max(durations) < self.remaining()


def timed_run(runner: Runner, seconds: float, pinned: dict):
    setups = []
    for _ in range(manifest.SETUP_REPS):
        summary, wall = runner.campaign("setup")
        setups.append((summary, wall))
    campaigns, durations = [], []
    while not durations or runner.keep_going(durations, seconds):
        summary, wall = runner.campaign("full")
        campaigns.append(summary)
        durations.append(wall)

    summaries = [s for s, _ in setups] + campaigns
    problems = [p for s in summaries for p in checks.check_summary(s, pinned)]
    for later in campaigns[1:]:
        problems += checks.check_same_counts(campaigns[0], later)
    attempted = sum(s["blocks"]["attempted"] for s in campaigns)
    degraded = sum(s["blocks"]["degraded"] for s in campaigns)
    metrics = {
        "shots_per_s": median(s["shots"] / s["wall_s"] for s in campaigns),
        "setup_s": median(wall for _, wall in setups),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in campaigns),
        "healthy_block_ratio": 1.0 - degraded / attempted,
    }
    return summaries, problems, metrics


def _decode_ratios(stats: dict) -> dict:
    unique = stats["unique"]
    lookups = stats["lru_hits"] + stats["lru_misses"]
    return {
        "decoders.batch.unique_ratio": unique / stats["shots"],
        "decoders.batch.tier_weight1_ratio": stats["weight1"] / unique,
        "decoders.batch.tier_cached_ratio": stats["cached"] / unique,
        "decoders.batch.tier_batched_ratio": stats["batched"] / unique,
        "decoders.batch.lru_hit_ratio": (
            stats["lru_hits"] / lookups if lookups else 0.0
        ),
    }


def traced_run(runner: Runner, seconds: float, pinned: dict):
    trace_dir = runner.out / "trace"
    pairs, durations = [], []
    while not durations or runner.keep_going(durations, seconds):
        plain, plain_wall = runner.campaign("full")
        trace_dir.mkdir(parents=True, exist_ok=True)
        for stale in trace_dir.iterdir():
            stale.unlink()
        traced, traced_wall = runner.campaign("full", trace_dir=trace_dir)
        pairs.append((plain, traced))
        durations.append(plain_wall + traced_wall)

    summaries = [s for pair in pairs for s in pair]
    problems = [p for s in summaries for p in checks.check_summary(s, pinned)]
    for plain, traced in pairs:
        problems += checks.check_same_counts(plain, traced)
    traced = [t for _, t in pairs]
    per_run = [dict(t["layers"], **_decode_ratios(t["decode_stats"])) for t in traced]
    # median_low: each layer value is one traced campaign's measurement
    # (a count stays a whole number).
    layers = {name: median_low(r[name] for r in per_run) for name in per_run[0]}
    layers["import.repro_s"] = median_low(s["import_s"] for s in summaries)
    layers["durable.fallback_blocks"] = sum(t["blocks"]["fallback"] for t in traced)
    layers["durable.retries"] = sum(t["blocks"]["retries"] for t in traced)
    layers["durable.quarantined_blocks"] = sum(
        t["blocks"]["quarantined"] for t in traced
    )
    layers["trace.overhead_ratio"] = median_low(
        t["wall_s"] / p["wall_s"] for p, t in pairs
    )
    return summaries, problems, layers


def write_pins() -> None:
    """Re-pin every workload's counts at the reference seed."""
    pinned = {"reference_seed": manifest.REFERENCE_SEED, "workloads": {}}
    for name, workload in manifest.WORKLOADS.items():
        summary, _ = Runner(name, manifest.REFERENCE_SEED).campaign("full")
        pinned["workloads"][name] = {"shots": workload.shots,
                                     "units": summary["units"]}
    manifest.PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(manifest.WORKLOADS))
    parser.add_argument("--seed", type=int, default=manifest.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    if args.write_manifest:
        manifest.write_manifest()
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.write_pins:
        write_pins()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = manifest.WORKLOADS[args.workload]
    machine = fingerprint(workload.workers)
    if machine["workers_exceed_nproc"]:
        print(f"warning: {args.workload} uses {workload.workers} workers on "
              f"{machine['nproc']} CPUs; its throughput is not comparable",
              file=sys.stderr)
    pinned = manifest.load_pinned()
    runner = Runner(args.workload, args.seed)
    measure = traced_run if args.trace else timed_run
    try:
        summaries, problems, values = measure(runner, args.seconds, pinned)
    except BenchmarkError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    metrics = manifest.PER_LAYER if args.trace else manifest.END_TO_END
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": machine,
        "campaigns": [
            {k: s[k] for k in ("mode", "wall_s", "import_s", "shots", "peak_rss_mb")}
            for s in summaries
        ],
        "problems": problems,
    }
    print(json.dumps(detail, sort_keys=True))
    for problem in problems:
        print(f"error: {args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    attempted = sum(len(s["units"]) for s in summaries)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in metrics},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
