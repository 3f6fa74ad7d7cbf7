"""Supervised block execution: timeouts, retry with backoff, quarantine.

This is the only executor of shot blocks.  Its unit of work is a
*task*: a list of consecutive ``(index, shots, seed)`` blocks run by one
:func:`~repro.sim.engine.run_block` call and identified by its first
block index.  Durable campaigns (``repro.durable.runner``) submit
one-block tasks, so each block is checkpointed on its own; the plain
engine (``repro.sim.engine.count_logical_errors``) submits its chunks.

``multiprocessing.Pool`` cannot express the failure model either needs —
a hung worker blocks ``imap`` forever, and a crashed worker poisons the
pool, so the caller never returns.  This module runs raw ``Process``
workers, each on its own duplex pipe to the parent, under a parent-side
supervisor that:

- enforces a **per-task deadline** (``RetryPolicy.block_timeout``) and
  checks ``Process.is_alive`` every poll tick, so hangs and crashes are
  both detected within one tick;
- on failure **terminates and respawns** the worker, then re-queues the
  task with **bounded retry** — deterministic exponential backoff with
  hash-derived jitter (no global RNG, so supervision never perturbs the
  sampled physics);
- after ``max_attempts`` failures **quarantines** the task: it is
  reported in the outcome (and the ledger) rather than silently dropped,
  keeping ``completed + quarantined == scheduled`` reconcilable;
- ignores **late results** from attempts it already timed out (a
  ``handled`` set keyed by ``(task, attempt)``), so a race between a
  slow worker and its deadline can never double-count a task.  The
  dedup is attempt-exact on *both* sides: a late result for attempt
  ``k`` never clears the deadline of a respawned worker already running
  attempt ``k+1`` of the same task (the cross-respawn edge), so the
  retry stays supervised and its result is counted exactly once.

The workers themselves live in a :class:`WorkerFleet` — a persistent,
reusable pool owned by the caller: the engine opens one per
``count_logical_errors`` call, a durable unit one for all its waves,
and the campaign service (``repro.service``) one for its lifetime, so
the same worker processes serve many units and many jobs.  Each
:meth:`WorkerFleet.configure` call starts a new *epoch* and ships the
unit's ``worker_args`` to every worker; tasks and results are tagged
with the epoch, so a straggler result from a previous unit can never be
mistaken for current work.

Because every block's error count is a pure function of ``(circuit,
seed, index)`` (see ``repro.sim.engine.run_block``), none of this
machinery can change the answer — retries re-execute bit-identical
work, and the completion order only affects scheduling, never the sums.

With no fleet the same contract runs inline:
injected crashes arrive as :class:`~repro.durable.faults.InjectedCrash`
exceptions instead of dead processes, and hangs as :class:`InjectedHang`
instead of stuck deadlines, so the retry/quarantine logic is identical
and testable without a pool.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from dataclasses import dataclass, field

from time import perf_counter

from repro import obs
from repro.durable.faults import InjectedHang
from repro.sim.engine import run_block

__all__ = [
    "BlockOutcome",
    "RetryPolicy",
    "SupervisedResult",
    "WorkerFleet",
    "run_supervised",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs (all deterministic; no RNG anywhere)."""

    #: seconds a single block attempt may run before the worker is killed
    block_timeout: float = 300.0
    #: attempts per block before quarantine (1 = no retries)
    max_attempts: int = 3
    #: backoff base: attempt k waits ~ base * 2**k seconds (plus jitter)
    retry_base_delay: float = 0.05
    #: cap on the exponential backoff
    retry_max_delay: float = 2.0

    def backoff(self, unit: str, index: int, attempt: int) -> float:
        """Deterministic exponential backoff with hash-derived jitter.

        The jitter de-synchronizes retries of different blocks without
        consuming any random stream the physics could observe.
        """
        base = min(self.retry_max_delay, self.retry_base_delay * (2.0**attempt))
        digest = hashlib.sha256(f"backoff|{unit}|{index}|{attempt}".encode()).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + 0.25 * jitter)


@dataclass
class BlockOutcome:
    """Result of supervising one task to completion or quarantine.

    ``index`` is the task's first block and ``shots`` its total.
    """

    index: int
    shots: int
    errors: int = 0
    stats: dict = field(default_factory=dict)
    attempts: int = 1
    quarantined: bool = False
    failure: str = ""


@dataclass
class SupervisedResult:
    """What happened to one batch of scheduled blocks."""

    completed: list[BlockOutcome] = field(default_factory=list)
    quarantined: list[BlockOutcome] = field(default_factory=list)
    retries: int = 0
    #: True when a stop was requested before every task was executed
    aborted: bool = False


#: Seconds between a worker's checks that the process which started it
#: is still alive.
_PARENT_POLL_S = 1.0


def _exit_when_orphaned(owner: int) -> None:
    """Worker watchdog: hard-exit once the fleet owner ``owner`` is gone.

    The owner is the worker's parent (fork and spawn start methods), so
    its death shows as a reparenting.  A SIGKILLed owner never sends the
    shutdown sentinel, and it can die halfway through writing a message,
    leaving the worker blocked in a pipe read that never completes (fork
    gives it and its later siblings copies of the owner's end, so no EOF
    arrives).  The check therefore runs in its own thread.
    The owner's pid is passed in rather than read at worker start, so an
    owner killed before the worker ran its first line is noticed too.
    """
    while os.getppid() == owner:
        time.sleep(_PARENT_POLL_S)
    os._exit(0)


def _worker_main(wid: int, conn, owner: int) -> None:
    """Worker loop: serve ``cfg``/``task`` messages until the None sentinel.

    Messages arrive on ``conn``, which also carries the replies.  A
    ``("cfg", epoch, worker_args, fault)`` message (re)arms the worker
    for a new epoch; task messages from any other epoch are silently
    dropped (they belong to a unit the supervisor already finished or
    abandoned).  Failures are reported in-band; a genuinely dying worker
    (injected ``os._exit`` or a real crash) is detected by the parent's
    liveness check instead.  Conversely, a worker whose parent died
    without sending the sentinel (SIGKILL) exits within
    ``_PARENT_POLL_S`` (see :func:`_exit_when_orphaned`).
    """
    # Forked workers inherit the parent's graceful-interrupt handlers,
    # under which SIGTERM merely requests a stop — so the supervisor's
    # ``terminate()`` would not actually kill a hung worker.  Restore the
    # default SIGTERM disposition and ignore SIGINT (a terminal Ctrl-C
    # signals the whole process group; the parent drains us instead).
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_when_orphaned, args=(owner,), daemon=True
    ).start()
    epoch = None
    sampler = decoder = basis_ids = obs_ids = fault = None
    while True:
        message = conn.recv()
        if message is None:
            return
        if message[0] == "cfg":
            _, epoch, worker_args, fault = message
            sampler, decoder, basis_ids, obs_ids = worker_args
            continue
        _, task_epoch, unit, keep_lru, blocks, attempt = message
        if task_epoch != epoch:
            continue  # task from an epoch this worker was never armed for
        index = blocks[0][0]
        try:
            if fault is not None:
                fault.apply(unit, index, attempt, inline=False)
            # Ship the block's metric increments back as a snapshot delta
            # so fan-out observability survives the process boundary; the
            # (errors, stats) pair the ledger checkpoints is untouched.
            reg = obs.active()
            before = reg.snapshot() if reg is not None else None
            t0 = perf_counter()
            errors, stats = run_block(
                sampler,
                decoder,
                basis_ids,
                obs_ids,
                blocks,
                keep_lru=keep_lru,
                fault=fault,
                unit=unit,
            )
            delta = None
            if reg is not None:
                reg.histogram("repro_durable_block_seconds").observe(
                    perf_counter() - t0
                )
                delta = obs.snapshot_delta(reg.snapshot(), before)
            reply = ("ok", task_epoch, wid, index, attempt, errors, stats, delta)
        except Exception as exc:  # report and keep serving
            reply = (
                "err", task_epoch, wid, index, attempt, f"{type(exc).__name__}: {exc}"
            )
        conn.send(reply)


def _send(conn, message) -> None:
    """Send to a worker; a dead one's torn pipe is left to the liveness sweep."""
    try:
        conn.send(message)
    except ConnectionError:
        pass


class WorkerFleet:
    """A persistent, supervisable pool of block-execution workers.

    The fleet owns the worker processes and nothing else: spawning,
    respawning after a kill, configuration broadcast, and teardown.  The
    per-call supervision logic (deadlines, retry, quarantine) lives in
    :class:`_PoolSupervisor`, which *borrows* a fleet for the duration of
    one ``run_supervised`` call.  Keeping the processes alive across
    calls is what makes the campaign service's worker pool persistent:
    one fleet serves every unit of every job, re-armed per unit via
    :meth:`configure`.

    Channels: each worker has one duplex pipe (``slot["conn"]``) that
    carries ``cfg``, tasks and the sentinel out and its results back, so
    a dying worker can only tear its own pipe.  Sends are synchronous:
    the parent only sends to idle workers (``cfg`` between calls, a task
    to a slot with none in flight, the sentinel at close; ``configure``
    respawns a worker still busy), and ``cfg`` (the pickled sampler and
    decoder, ~0.2 MB at d=7) blocks only until the worker has read it.

    Epochs: every ``configure`` increments ``epoch``; workers and the
    supervisor both drop messages from another epoch (module docstring).
    """

    def __init__(self, workers: int, *, context: str | None = None):
        self._ctx = multiprocessing.get_context(context)
        self.size = max(1, int(workers))
        self.epoch = 0
        self.respawns = 0
        self.closed = False
        self._config: tuple | None = None  # (worker_args, fault) of this epoch
        self.slots: list[dict] = [self._spawn(wid) for wid in range(self.size)]

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, wid: int) -> dict:
        conn, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(wid, child, os.getpid()), daemon=True
        )
        proc.start()
        child.close()  # the worker's copy is the last: its death reads EOF
        return {"proc": proc, "conn": conn, "busy": None}

    def configure(self, worker_args, fault=None) -> int:
        """Arm every worker for a new epoch; returns the epoch number."""
        if self.closed:
            raise RuntimeError("fleet is closed")
        self.epoch += 1
        self._config = (worker_args, fault)
        for wid, slot in enumerate(self.slots):
            if slot["busy"] is None and slot["proc"].is_alive():
                _send(slot["conn"], ("cfg", self.epoch, worker_args, fault))
            else:  # dead, or still running a task of an abandoned call
                self.respawn(wid)
        return self.epoch

    def respawn(self, wid: int) -> None:
        """Terminate and replace one worker, re-arming it for the epoch."""
        slot = self.slots[wid]
        slot["proc"].terminate()
        slot["proc"].join(timeout=5.0)
        slot["conn"].close()
        self.slots[wid] = replacement = self._spawn(wid)
        if self._config is not None:
            _send(replacement["conn"], ("cfg", self.epoch, *self._config))
        self.respawns += 1
        obs.counter("repro_durable_respawns_total").inc()

    # ------------------------------------------------------------------
    # Introspection (the service's /healthz reads these)
    # ------------------------------------------------------------------
    def alive_workers(self) -> int:
        return sum(1 for slot in self.slots if slot["proc"].is_alive())

    def worker_pids(self) -> list[int]:
        return [slot["proc"].pid for slot in self.slots]

    def stats(self) -> dict:
        return {
            "size": self.size,
            "alive": self.alive_workers(),
            "respawns": self.respawns,
            "epoch": self.epoch,
        }

    def close(self) -> None:
        """Shut every worker down (sentinel, then escalate to terminate)."""
        if self.closed:
            return
        self.closed = True
        for slot in self.slots:
            _send(slot["conn"], None)
        deadline = time.monotonic() + 5.0
        for slot in self.slots:
            slot["proc"].join(timeout=max(0.1, deadline - time.monotonic()))
            if slot["proc"].is_alive():
                slot["proc"].terminate()
                slot["proc"].join(timeout=1.0)
            slot["conn"].close()

    def __enter__(self) -> WorkerFleet:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_supervised(
    tasks,
    worker_args,
    *,
    unit: str,
    keep_lru: bool = False,
    policy: RetryPolicy | None = None,
    fault=None,
    on_block_done=None,
    on_event=None,
    should_abort=None,
    fleet: WorkerFleet | None = None,
) -> SupervisedResult:
    """Execute ``tasks`` (lists of ``(index, shots, seed)`` blocks) under supervision.

    ``worker_args`` is ``(sampler, decoder, basis_ids, obs_ids)`` and
    ``keep_lru`` the decoder LRU policy, both passed to
    :func:`~repro.sim.engine.run_block` for every task.

    ``on_block_done(outcome) -> bool`` is called in the parent as each
    task completes (the runner checkpoints it to the ledger there);
    returning True requests a graceful stop — in-flight tasks drain,
    unstarted ones are left for a future resume.  ``should_abort()`` is
    polled for externally-requested stops (signal handlers).
    ``on_event(kind, **fields)`` observes retries and quarantines.

    ``fleet`` runs the tasks on the caller's :class:`WorkerFleet`, which
    is re-armed with this call's ``worker_args`` and left running
    afterwards; ``None`` runs them inline in this process.
    """
    policy = policy or RetryPolicy()
    emit = on_event or (lambda kind, **fields: None)
    result = SupervisedResult()
    stop = False

    def block_done(outcome: BlockOutcome) -> None:
        nonlocal stop
        result.completed.append(outcome)
        if on_block_done is not None and on_block_done(outcome):
            stop = True

    def fail(index: int, shots: int, attempt: int, reason: str) -> tuple | None:
        """Register one failed attempt; return the retry task or None."""
        next_attempt = attempt + 1
        if next_attempt >= policy.max_attempts:
            outcome = BlockOutcome(
                index=index,
                shots=shots,
                attempts=next_attempt,
                quarantined=True,
                failure=reason,
            )
            result.quarantined.append(outcome)
            obs.counter("repro_durable_quarantined_total").inc()
            emit(
                "quarantine",
                unit=unit,
                block=index,
                attempts=next_attempt,
                reason=reason,
            )
            return None
        result.retries += 1
        delay = policy.backoff(unit, index, attempt)
        obs.counter("repro_durable_retries_total").inc()
        obs.counter("repro_durable_backoff_seconds_total").inc(delay)
        emit(
            "retry",
            unit=unit,
            block=index,
            attempt=next_attempt,
            delay=round(delay, 4),
            reason=reason,
        )
        return (index, next_attempt, delay)

    if fleet is None:
        _run_inline(tasks, worker_args, unit, keep_lru, fault, block_done,
                    fail, should_abort, result, lambda: stop)
        return result

    supervisor = _PoolSupervisor(
        fleet, tasks, worker_args, unit=unit, keep_lru=keep_lru,
        policy=policy, fault=fault, block_done=block_done, fail=fail,
        should_abort=should_abort, result=result, stopped=lambda: stop,
    )
    supervisor.run()
    return result


def _task_shots(blocks) -> int:
    return sum(block_shots for _, block_shots, _ in blocks)


def _run_inline(
    tasks, worker_args, unit, keep_lru, fault, block_done, fail, should_abort,
    result, stopped,
) -> None:
    sampler, decoder, basis_ids, obs_ids = worker_args
    pending = [(blocks, 0) for blocks in tasks]
    while pending:
        if stopped() or (should_abort is not None and should_abort()):
            result.aborted = True
            return
        blocks, attempt = pending.pop(0)
        index, shots = blocks[0][0], _task_shots(blocks)
        obs.counter("repro_durable_attempts_total").inc()
        t0 = perf_counter() if obs.enabled() else 0.0
        try:
            if fault is not None:
                fault.apply(unit, index, attempt, inline=True)
            errors, stats = run_block(
                sampler, decoder, basis_ids, obs_ids, blocks,
                keep_lru=keep_lru, fault=fault, unit=unit,
            )
            if t0:
                obs.histogram("repro_durable_block_seconds").observe(
                    perf_counter() - t0
                )
        except Exception as exc:
            reason = (f"timeout: {exc}" if isinstance(exc, InjectedHang)
                      else f"{type(exc).__name__}: {exc}")
            retry = fail(index, shots, attempt, reason)
            if retry is not None:
                time.sleep(retry[2])
                pending.insert(0, (blocks, retry[1]))
            continue
        block_done(
            BlockOutcome(
                index=index, shots=shots, errors=errors, stats=stats,
                attempts=attempt + 1,
            )
        )


class _PoolSupervisor:
    """One ``run_supervised`` call's supervision state over a fleet.

    Extracted as a class so the message-handling and deadline-sweep
    logic are unit-testable without racing real processes: tests drive
    :meth:`assign`, :meth:`handle_message` and :meth:`sweep` directly
    against a fake fleet to pin the late-result dedup edges (including
    the cross-respawn case where a stale attempt's result must not
    disturb the respawned worker's current attempt).
    """

    def __init__(
        self, fleet, tasks, worker_args, *, unit, keep_lru, policy, fault,
        block_done, fail, should_abort, result, stopped,
    ):
        self.fleet = fleet
        self.unit = unit
        self.keep_lru = keep_lru
        self.policy = policy
        self.block_done = block_done
        self.fail = fail
        self.should_abort = should_abort
        self.result = result
        self.stopped = stopped
        #: each task's blocks, keyed by its first block index
        self.by_index = {blocks[0][0]: blocks for blocks in tasks}
        self.epoch = fleet.configure(worker_args, fault)
        #: (ready_at, index, attempt) tasks not yet handed to a worker
        self.pending: list[tuple[float, int, int]] = [
            (0.0, index, 0) for index in self.by_index
        ]
        self.handled: set[tuple[int, int]] = set()
        self.draining = False

    # ------------------------------------------------------------------
    # The supervision loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        while True:
            now = time.monotonic()
            if not self.draining and (
                self.stopped()
                or (self.should_abort is not None and self.should_abort())
            ):
                self.draining = True
                self.result.aborted = bool(self.pending) or any(
                    s["busy"] is not None for s in self.fleet.slots
                )

            self.assign(now)

            busy = any(slot["busy"] is not None for slot in self.fleet.slots)
            if not busy and (self.draining or not self.pending):
                break

            # Drain ready results (the timeout doubles as the poll tick);
            # a dead worker's pipe reads EOF and the sweep respawns it.
            conns = [slot["conn"] for slot in self.fleet.slots]
            for conn in multiprocessing.connection.wait(conns, timeout=0.05):
                try:
                    message = conn.recv()
                except EOFError:
                    continue
                self.handle_message(message)

            self.sweep(time.monotonic())

    def assign(self, now: float) -> None:
        """Hand ready pending tasks to idle workers."""
        if self.draining:
            return
        for slot in self.fleet.slots:
            if slot["busy"] is not None or not self.pending:
                continue
            ready = [t for t in self.pending if t[0] <= now]
            if not ready:
                continue
            task = min(ready)
            self.pending.remove(task)
            _, index, attempt = task
            _send(
                slot["conn"],
                ("task", self.epoch, self.unit, self.keep_lru,
                 self.by_index[index], attempt),
            )
            slot["busy"] = (index, attempt, now + self.policy.block_timeout)
            obs.counter("repro_durable_attempts_total").inc()

    def handle_message(self, message) -> None:
        """Process one worker result, deduplicating late/stale arrivals.

        Dedup is attempt-exact on both sides of the bookkeeping:

        - a ``(block, attempt)`` already in ``handled`` (its deadline
          fired, or it already completed) is ignored entirely — in
          particular it must NOT clear the slot's ``busy`` entry, which
          by now may belong to a *later attempt* of the same block on a
          respawned worker (the cross-respawn edge: clearing it would
          un-supervise the retry and let its work be lost or assigned
          twice);
        - results from another epoch (a previous unit of a shared
          fleet) are dropped before any bookkeeping at all.
        """
        kind, epoch, wid, index, attempt, *payload = message
        if epoch != self.epoch:
            return  # straggler from a previous unit on a shared fleet
        slot = self.fleet.slots[wid]
        if (index, attempt) in self.handled:
            return  # late result from an attempt we already failed
        self.handled.add((index, attempt))
        if kind == "ok":
            errors, stats, delta = payload
            reg = obs.active()
            if reg is not None and delta is not None:
                reg.merge_snapshot(delta)
            self.block_done(
                BlockOutcome(
                    index=index, shots=_task_shots(self.by_index[index]),
                    errors=errors, stats=stats, attempts=attempt + 1,
                )
            )
        else:
            self.fail_attempt(index, attempt, payload[0])
        if slot["busy"] is not None and slot["busy"][:2] == (index, attempt):
            slot["busy"] = None

    def sweep(self, now: float) -> None:
        """Deadline / liveness sweep: kill and respawn stuck workers."""
        for wid, slot in enumerate(self.fleet.slots):
            busy_entry = slot["busy"]
            dead = not slot["proc"].is_alive()
            timed_out = busy_entry is not None and now > busy_entry[2]
            if not dead and not timed_out:
                continue
            if busy_entry is not None:
                index, attempt, _ = busy_entry
                if (index, attempt) not in self.handled:
                    self.handled.add((index, attempt))
                    reason = (
                        f"worker {wid} exceeded {self.policy.block_timeout}s "
                        f"block timeout"
                        if timed_out and not dead
                        else f"worker {wid} died (exitcode "
                        f"{slot['proc'].exitcode})"
                    )
                    self.fail_attempt(index, attempt, reason)
            self.fleet.respawn(wid)

    def fail_attempt(self, index: int, attempt: int, reason: str) -> None:
        """Fail one attempt and re-queue its retry (none while draining)."""
        shots = _task_shots(self.by_index[index])
        retry = self.fail(index, shots, attempt, reason)
        if retry is not None and not self.draining:
            self.pending.append((time.monotonic() + retry[2], index, retry[1]))
