"""The durable campaign executor: checkpointed, resumable, interruptible.

:class:`DurableExecutor` is the object the experiment layers
(``run_memory_experiment``, ``run_program_experiment``,
``estimate_threshold``) accept as their optional ``executor``: instead
of calling ``count_logical_errors`` directly, they hand each Monte-Carlo
*unit* (one circuit at one noise point) to :meth:`DurableExecutor.count`,
which

1. splits the unit into the engine's canonical 1024-shot seed blocks
   (``repro.sim.engine.block_seeds``),
2. skips every block already durable in the run ledger (resume),
3. executes the rest under supervision (timeouts, retry with backoff,
   quarantine — ``repro.durable.supervise``), checkpointing each block
   to the ledger the moment it completes,
4. evaluates early stopping on deterministic *wave* boundaries, and
5. writes a ``unit`` summary reconciling
   ``completed + quarantined == scheduled``.

Blocks run on the same supervised executor as the plain engine, as
one-block tasks; a unit opens one :class:`~repro.durable.supervise.WorkerFleet`
for all its waves when ``workers > 1`` and no persistent fleet was given.

**Determinism contract.**  Durable tasks have ``run_block`` clear the
decoder's cross-batch state before each block, so every block's
``(errors, stats)`` is a pure function of ``(circuit, seed, block
index)`` — which makes an
interrupted-and-resumed campaign *bit-identical* to an uninterrupted
one: same block records, same unit totals, same Wilson intervals,
regardless of workers, scheduling, crashes or retries.  (Durable stats
differ from non-durable chunked runs in one declared way: the
``cached`` tier is always 0, because cross-block LRU reuse would make
stats depend on scheduling.)

**Early stopping.**  ``target_ci_width`` stops a unit once the Wilson
interval over its completed blocks is at most that wide.  The check
runs only after whole *waves* of ``stop_interval_blocks`` blocks —
never on raw completion order, which varies with workers — so the
decision (and hence the final shot count) is a pure function of the
block results themselves.

**Interrupts.**  :func:`graceful_interrupts` maps the first
SIGINT/SIGTERM to :meth:`request_stop`: the supervisor stops assigning
work, drains in-flight blocks (each still checkpointed), an
``interrupt`` event is appended, and :class:`CampaignInterrupted`
unwinds to the CLI (exit code 130).  A second signal aborts hard.
"""

from __future__ import annotations

import contextlib
import signal
from dataclasses import dataclass, field

from repro import obs
from repro.durable.faults import InjectedTornWrite
from repro.durable.ledger import RunLedger
from repro.durable.supervise import RetryPolicy, WorkerFleet, run_supervised
from repro.sim.engine import block_seeds, make_sampler
from repro.sim.stats import wilson_interval

__all__ = [
    "CampaignInterrupted",
    "DEFAULT_STOP_INTERVAL_BLOCKS",
    "DurableExecutor",
    "UnitOutcome",
    "graceful_interrupts",
]

#: Early-stopping is evaluated every this-many blocks (a "wave"); fixed
#: so the stopping decision never depends on worker scheduling.
DEFAULT_STOP_INTERVAL_BLOCKS = 8


class CampaignInterrupted(RuntimeError):
    """The campaign stopped early on request; the ledger holds progress.

    Everything completed before the stop is durable — rerun the same
    command with ``--resume`` to continue from the last checkpoint.
    """


@dataclass
class UnitOutcome:
    """Durable result of one Monte-Carlo unit (circuit at a noise point)."""

    unit: str
    errors: int
    shots: int
    stats: dict = field(default_factory=dict)
    scheduled: int = 0
    completed: int = 0
    quarantined: list[int] = field(default_factory=list)
    resumed_blocks: int = 0
    executed_blocks: int = 0
    stopped_early: bool = False

    @property
    def confidence_interval(self) -> tuple[float, float]:
        return wilson_interval(self.errors, self.shots)


class DurableExecutor:
    """Checkpointing executor for campaign units (see module docstring)."""

    def __init__(
        self,
        ledger: RunLedger,
        *,
        workers: int = 1,
        policy: RetryPolicy | None = None,
        fault=None,
        target_ci_width: float | None = None,
        stop_interval_blocks: int = DEFAULT_STOP_INTERVAL_BLOCKS,
        fleet=None,
        on_block=None,
    ):
        self.ledger = ledger
        self.workers = workers
        self.policy = policy or RetryPolicy()
        self.fault = fault
        self.target_ci_width = target_ci_width
        self.stop_interval_blocks = max(1, stop_interval_blocks)
        #: optional persistent :class:`~repro.durable.supervise.WorkerFleet`
        #: — when set, units run on these long-lived workers instead of
        #: opening a fleet per unit (the campaign service shares one
        #: fleet across every job it schedules)
        self.fleet = fleet
        #: optional progress observer called after each checkpointed
        #: block with cumulative per-unit totals (the service streams
        #: these as Wilson-interval updates); purely observational — it
        #: sees only durable state and cannot alter results
        self.on_block = on_block
        self.units: list[UnitOutcome] = []
        self.total_retries = 0
        self._stop_requested = False
        self._stop_reason = ""

    # ------------------------------------------------------------------
    # Interrupt plumbing
    # ------------------------------------------------------------------
    def request_stop(self, reason: str = "signal") -> None:
        """Ask the campaign to stop at the next safe point (idempotent)."""
        self._stop_requested = True
        self._stop_reason = self._stop_reason or reason

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested

    def _interrupted(self, unit: str, completed: int) -> CampaignInterrupted:
        # On a torn-write injection the tail of the ledger is already a
        # partial line; appending anything more would bury the tear as
        # interior corruption, so only log the event on clean stops.
        if self._stop_reason != "torn-write":
            self.ledger.record_event(
                "interrupt",
                unit=unit,
                reason=self._stop_reason or "stop requested",
                completed_blocks=completed,
            )
        return CampaignInterrupted(
            f"campaign interrupted ({self._stop_reason or 'stop requested'}) "
            f"during unit {unit!r}; {completed} block(s) of this unit are "
            f"durable in {self.ledger.path} — rerun with --resume to continue"
        )

    # ------------------------------------------------------------------
    # The unit entry point
    # ------------------------------------------------------------------
    def count(
        self,
        *,
        unit: str,
        circuit,
        decoder,
        basis_ids,
        obs_ids,
        shots: int,
        seed: int | None,
        backend: str = "packed",
        sampler=None,
    ) -> UnitOutcome:
        """Run one unit durably; returns its (possibly resumed) outcome.

        The outcome's ``stats`` are the unit's decode-tier totals over
        its completed blocks.
        """
        if self._stop_requested:
            raise self._interrupted(unit, 0)

        prior_summary = self.ledger.prior_units.get(unit)
        prior = dict(self.ledger.prior_unit_blocks(unit))
        if prior_summary is not None:
            # The unit already ran to a decision in an earlier invocation:
            # reuse it verbatim (including its early-stop point) — no
            # blocks execute, so resumed results cannot drift.
            outcome = self._outcome_from_summary(unit, prior_summary, prior)
            if outcome.resumed_blocks:
                obs.counter("repro_durable_blocks_total").inc(
                    outcome.resumed_blocks, "resumed"
                )
            self.units.append(outcome)
            return outcome

        blocks = block_seeds(shots, seed)
        if sampler is None:
            sampler = make_sampler(circuit, backend)
        worker_args = (sampler, decoder, basis_ids, obs_ids)

        done: dict[int, dict] = {}  # index -> {"errors", "shots", "stats"}
        quarantined: list[int] = []
        resumed = 0
        for index, record in prior.items():
            done[index] = {
                "errors": record["errors"],
                "shots": record["shots"],
                "stats": record["stats"],
            }
            resumed += 1
        if resumed:
            obs.counter("repro_durable_blocks_total").inc(resumed, "resumed")
        executed = 0

        def on_block_done(outcome) -> bool:
            nonlocal executed
            self.ledger.record_block(
                unit, outcome.index, outcome.shots, outcome.errors, outcome.stats
            )
            done[outcome.index] = {
                "errors": outcome.errors,
                "shots": outcome.shots,
                "stats": outcome.stats,
            }
            executed += 1
            obs.counter("repro_durable_blocks_total").inc(1, "executed")
            if self.on_block is not None:
                # Cumulative durable totals for this unit (resumed blocks
                # included) — exactly what a Wilson interval needs.
                self.on_block(
                    unit=unit,
                    block=outcome.index,
                    errors=sum(d["errors"] for d in done.values()),
                    shots=sum(d["shots"] for d in done.values()),
                    completed_blocks=len(done),
                    scheduled_blocks=len(blocks),
                )
            if self.fault is not None and self.fault.note_block_executed():
                self.request_stop("abort-after fault injection")
            return self._stop_requested

        interval = self.stop_interval_blocks
        waves = [blocks[i : i + interval] for i in range(0, len(blocks), interval)]
        stopped_early = False
        decided: list = []  # blocks inside the waves that actually ran
        fleet = self.fleet
        with contextlib.ExitStack() as owned:
            for wave in waves:
                decided.extend(wave)
                pending = [b for b in wave if b[0] not in done]
                if pending:
                    if fleet is None and self.workers > 1:
                        fleet = owned.enter_context(
                            WorkerFleet(min(self.workers, len(blocks) - len(done)))
                        )
                    obs.counter("repro_durable_waves_total").inc()
                    try:
                        with obs.span("durable.wave", unit=unit, pending=len(pending)):
                            supervised = run_supervised(
                                [[block] for block in pending],
                                worker_args,
                                unit=unit,
                                policy=self.policy,
                                fault=self.fault,
                                on_block_done=on_block_done,
                                on_event=self.ledger.record_event,
                                should_abort=lambda: self._stop_requested,
                                fleet=fleet,
                            )
                    except InjectedTornWrite:
                        self.request_stop("torn-write")
                        raise self._interrupted(unit, len(done))
                    self.total_retries += supervised.retries
                    for q in supervised.quarantined:
                        quarantined.append(q.index)
                    if supervised.aborted or self._stop_requested:
                        raise self._interrupted(unit, len(done))
                if self.target_ci_width is not None:
                    completed_so_far = [b[0] for b in decided if b[0] in done]
                    shots_so_far = sum(done[i]["shots"] for i in completed_so_far)
                    errors_so_far = sum(done[i]["errors"] for i in completed_so_far)
                    if shots_so_far > 0:
                        lo, hi = wilson_interval(errors_so_far, shots_so_far)
                        if hi - lo <= self.target_ci_width:
                            stopped_early = True
                            break

        completed = sorted(i for i, _, _ in decided if i in done)
        quarantined = sorted(set(quarantined))
        errors = sum(done[i]["errors"] for i in completed)
        unit_shots = sum(done[i]["shots"] for i in completed)
        stats: dict = {}
        for i in completed:
            obs.merge_counts(stats, done[i]["stats"])
        self.ledger.record_unit(
            unit,
            scheduled=len(decided),
            completed=completed,
            quarantined=quarantined,
            errors=errors,
            shots=unit_shots,
            stopped_early=stopped_early,
        )
        outcome = UnitOutcome(
            unit=unit,
            errors=errors,
            shots=unit_shots,
            stats=stats,
            scheduled=len(decided),
            completed=len(completed),
            quarantined=quarantined,
            resumed_blocks=resumed,
            executed_blocks=executed,
            stopped_early=stopped_early,
        )
        self.units.append(outcome)
        return outcome

    def _outcome_from_summary(
        self, unit: str, summary: dict, prior: dict[int, dict]
    ) -> UnitOutcome:
        stats: dict = {}
        for index in summary["completed"]:
            obs.merge_counts(stats, prior[index]["stats"])
        return UnitOutcome(
            unit=unit,
            errors=summary["errors"],
            shots=summary["shots"],
            stats=stats,
            scheduled=summary["scheduled"],
            completed=len(summary["completed"]),
            quarantined=list(summary["quarantined"]),
            resumed_blocks=len(summary["completed"]),
            executed_blocks=0,
            stopped_early=summary["stopped_early"],
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def with_prefix(self, prefix: str) -> _PrefixedExecutor:
        """A view of this executor that prefixes every unit label.

        Sweeps that call a campaign per point use this to keep unit
        labels unique inside the shared ledger.
        """
        return _PrefixedExecutor(self, prefix)

    @property
    def failed_blocks(self) -> list[tuple[str, int]]:
        """Every quarantined ``(unit, block)`` — never silently dropped."""
        return [
            (outcome.unit, index)
            for outcome in self.units
            for index in outcome.quarantined
        ]

    def format_report(self) -> str:
        """Human-readable durability summary for the CLI footer."""
        executed = sum(o.executed_blocks for o in self.units)
        resumed = sum(o.resumed_blocks for o in self.units)
        stopped = sum(1 for o in self.units if o.stopped_early)
        lines = [
            f"durable run: ledger={self.ledger.path}",
            f"  units={len(self.units)} blocks executed={executed} "
            f"resumed={resumed} retries={self.total_retries}",
        ]
        if stopped:
            lines.append(
                f"  early-stopped units={stopped} "
                f"(target CI width {self.target_ci_width})"
            )
        failed = self.failed_blocks
        if failed:
            lines.append(
                f"  failed_blocks={len(failed)} (quarantined, excluded from "
                f"estimates): "
                + ", ".join(f"{unit}#{index}" for unit, index in failed)
            )
        else:
            lines.append("  failed_blocks=0 (completed + quarantined == scheduled)")
        return "\n".join(lines)


class _PrefixedExecutor:
    """Delegating view that namespaces unit labels (see ``with_prefix``)."""

    def __init__(self, executor: DurableExecutor, prefix: str):
        self._executor = executor
        self._prefix = prefix

    def count(self, *, unit: str, **kwargs) -> UnitOutcome:
        return self._executor.count(unit=self._prefix + unit, **kwargs)

    def with_prefix(self, prefix: str) -> _PrefixedExecutor:
        return _PrefixedExecutor(self._executor, self._prefix + prefix)

    def __getattr__(self, name):
        return getattr(self._executor, name)


@contextlib.contextmanager
def graceful_interrupts(executor: DurableExecutor):
    """Route SIGINT/SIGTERM into a graceful checkpointed stop.

    First signal: request a stop — the supervisor drains in-flight
    blocks (still checkpointed) and the campaign unwinds with
    :class:`CampaignInterrupted` after appending an ``interrupt`` event.
    Second signal: ordinary ``KeyboardInterrupt`` (abort hard).
    """
    seen = {"count": 0}

    def handler(signum, frame):
        seen["count"] += 1
        if seen["count"] == 1:
            executor.request_stop(f"signal {signum}")
        else:
            raise KeyboardInterrupt

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handler)
        except ValueError:  # not the main thread — run unguarded
            pass
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
